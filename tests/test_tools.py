"""The repository tools: the machine-report diff and the code-line counter."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REPORT = {
    "schema_version": "mlechar-report-1",
    "seed": 7,
    "config": {"trials": 3},
    "sections": {
        "catalog_mnss": [{"family": "gaussian", "kind": "location", "mnss": 3,
                          "verdict": "pass"}],
        "equivalence": [{"check": "shared_mle", "family": "gaussian", "max_gap": 1e-12,
                         "verdict": "pass"}],
    },
    "verdicts": {"catalog_mnss": "pass", "equivalence": "pass"},
    "passed": True,
}


@pytest.fixture
def report_diff():
    return load("report_diff")


def run_diff(report_diff, tmp_path, a, b):
    paths = []
    for name, doc in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    return report_diff.main(paths)


def test_identical_reports_print_nothing(report_diff, tmp_path, capsys):
    assert run_diff(report_diff, tmp_path, REPORT, REPORT) == 0
    assert capsys.readouterr().out == ""


def test_a_moved_number_is_listed(report_diff, tmp_path, capsys):
    moved = copy.deepcopy(REPORT)
    moved["sections"]["equivalence"][0]["max_gap"] = 2e-12
    assert run_diff(report_diff, tmp_path, REPORT, moved) == 0
    out = capsys.readouterr().out
    assert "moved equivalence[0] (shared_mle gaussian).max_gap: 1e-12 -> 2e-12" in out
    assert "1 numeric fields moved, 0 other differences" in out


def test_a_flipped_verdict_fails(report_diff, tmp_path, capsys):
    flipped = copy.deepcopy(REPORT)
    flipped["sections"]["equivalence"][0]["verdict"] = "fail"
    flipped["verdicts"]["equivalence"] = "fail"
    flipped["passed"] = False
    assert run_diff(report_diff, tmp_path, REPORT, flipped) == 1
    assert "DIFFERS equivalence[0] (shared_mle gaussian).verdict" in capsys.readouterr().out


SNIPPET = '''"""Module docstring,
over two lines."""

# a comment


def f(x):
    """Function docstring."""
    # another comment
    y = (x +
         1)  # trailing comment

    return y


class C:
    """Class docstring."""

    z = 1
'''


def test_count_loc_counts_only_code_lines(tmp_path, capsys):
    count_loc = load("count_loc")
    # def f, the two lines of y, return y, class C, z = 1
    assert count_loc.code_lines(SNIPPET) == 6
    path = tmp_path / "snippet.py"
    path.write_text(SNIPPET)
    assert count_loc.main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["6", "total"]
