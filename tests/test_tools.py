"""The repository tools: the machine-report diff, the code-line counter and
the BENCH file writer."""

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


def bench_record(seed, op_s, rev="abc123", trace=0, python="3.11.7"):
    metadata = {"git_rev": rev, "python": python, "numpy": "2.4.0", "scipy": "1.17.0",
                "nproc": 2}
    return {"workload": "suite_default", "seed": seed, "trace": trace, "metadata": metadata,
            "metrics": {"op_s": {"value": op_s, "unit": "s"},
                        "setup_s": {"value": 0.5, "unit": "s"},
                        "peak_rss_mb": {"value": 100.0 + seed, "unit": "MB"}}}


def test_bench_json_summarizes_the_runs_of_one_revision(tmp_path):
    bench_json = load("bench_json")
    results = tmp_path / "results.jsonl"
    records = [bench_record(1, 2.0), bench_record(2, 1.0), bench_record(3, 3.0),
               # another revision and a traced run are left out
               bench_record(4, 9.0, rev="def456"), bench_record(5, 9.0, trace=1)]
    results.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = tmp_path / "BENCH_0.json"
    assert bench_json.main([str(results), "--rev", "abc", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["git_rev"] == "abc123"
    suite = doc["workloads"]["suite_default"]
    assert (suite["python"], suite["numpy"], suite["scipy"], suite["nproc"]) == \
        ("3.11.7", "2.4.0", "1.17.0", 2)
    assert suite["runs"] == 3 and suite["seeds"] == [1, 2, 3]
    # the exclusive quartiles of three values are the smallest and the largest
    assert suite["metrics"]["op_s"] == {"unit": "s", "median": 2.0, "q1": 1.0, "q3": 3.0}
    assert suite["metrics"]["setup_s"]["median"] == 0.5
    assert suite["metrics"]["peak_rss_mb"] == {"unit": "MB", "median": 102.0,
                                               "q1": 101.0, "q3": 103.0}


def test_bench_json_refuses_mixed_machines_and_unknown_revisions(tmp_path, capsys):
    bench_json = load("bench_json")
    results = tmp_path / "results.jsonl"
    records = [bench_record(1, 2.0), bench_record(2, 1.0, python="3.12.0")]
    results.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = str(tmp_path / "BENCH_0.json")
    assert bench_json.main([str(results), "--rev", "abc123", "-o", out]) == 1
    assert "disagree" in capsys.readouterr().err
    assert bench_json.main([str(results), "--rev", "fff", "-o", out]) == 1
    assert "0 revisions match" in capsys.readouterr().err
