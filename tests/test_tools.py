"""The repository tools: the machine-report diff, the code-line counter, the
BENCH file writer, the benchmark pair runner, the CLI battery, the solve
digest, the construction digest and the traffic trace; the python examples
of the README; one operation of each benchmark workload; and the reports'
and the pinned bits' host contract across numpy's SIMD dispatch paths."""

import ast
import copy
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
README = TOOLS.parent / "README.md"


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


def test_bench_pairs_judges_a_metric_by_the_pair_rule():
    judge = load("bench_pairs").judge
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [0.80, 0.82, 0.79, 0.81, 0.80, 1.05, 0.78, 0.80, 0.83, 0.79]
    won = judge(parent, change, "lower", 0.24)
    # 9 of 10 pairs won and a median gap far beyond the parent's quartiles
    assert (won["wins"], won["pairs"], won["gain"]) == (9, 10, True)
    assert won["versus_bound"] == "within bound"
    assert won["parent"][0] == 1.0 and round(won["change_vs_parent"], 6) == -0.2
    # 8 of 10 is not enough, and a worse median beyond the bound is named
    assert not judge(parent, change[:8] + [1.5, 1.5], "lower", 0.24)["gain"]
    assert judge(change, parent, "lower", 0.1)["versus_bound"] == "worse beyond bound"
    # wide runs that do not all beat the parent's leave the bound unresolved
    assert judge(parent, [0.5, 1.5] * 5, "lower", 0.24)["versus_bound"] == "unresolved"
    # higher is better: the same numbers read the other way
    assert judge(change, parent, "higher", 0.24)["gain"]
    assert load("bench_pairs").parse_seeds("1-3,7") == [1, 2, 3, 7]


def test_bench_pairs_reports_the_per_pair_ratio_beside_the_verdicts():
    judge = load("bench_pairs").judge
    # a load that moves both runs of a pair leaves their ratio in place
    parent = [1.0, 2.0, 1.5, 3.0, 1.2]
    change = [0.75, 1.5, 1.2, 2.1, 0.9]
    v = judge(parent, change, "lower", 0.24)
    assert [round(r, 6) for r in v["ratio"]] == [0.75, 0.725, 0.775]
    # the verdicts keep their own rules: 5 of 5 pairs won, but the medians
    # (1.5 and 1.2) differ by less than the parent's quartile distance
    assert (v["wins"], v["gain"], v["versus_bound"]) == (5, False, "unresolved")


FAKE_RUN = """
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
op_s = (2.0 if Path.cwd().name == "parent" else 1.0) + seed / 100
with open(args["--out"], "a") as fh:
    fh.write(json.dumps({"seed": seed, "op_s": op_s}) + "\\n")
print("== a run")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"op_s": {"value": op_s, "unit": "s"}}}))
"""


def test_bench_pairs_alternates_the_sides_and_prints_every_run(tmp_path, capsys):
    bench_pairs = load("bench_pairs")
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.24}]}))
    out = tmp_path / "out"
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                             "suite_default", "--seeds", "1-2,9", "--seconds", "1",
                             "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    sides = [line.split()[5] for line in lines[:6]]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]
    assert all(" minflt=" in line and " failed=0/3" in line for line in lines[:6])
    assert lines[6].startswith("suite_default op_s: parent 2.02 ")
    assert " wins 3/3 gain; within bound 0.24" in lines[6]
    # each pair's change/parent ratio, 1.01/2.01, 1.02/2.02 and 1.09/2.09
    assert " -49.5% pair ratio 0.505 [0.5025, 0.5215] wins" in lines[6]
    assert [json.loads(line)["seed"] for line in (out / "change.jsonl").read_text().splitlines()] \
        == [1, 2, 9]


def test_bench_pairs_gives_each_side_one_fresh_bytecode_cache(tmp_path, monkeypatch, capsys):
    bench_pairs = load("bench_pairs")
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.24}]}))
    caches = {}

    def fake_run(args, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        # empty at its side's first run, and the same for all of them
        if Path(cwd).name not in caches:
            assert cache.is_dir() and not any(cache.iterdir())
            caches[Path(cwd).name] = cache
        assert caches[Path(cwd).name] == cache
        assert {k: v for k, v in env.items() if k != "PYTHONPYCACHEPREFIX"} == dict(os.environ)
        (cache / "module.pyc").write_bytes(b"")
        line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                           "metrics": {"op_s": {"value": 1.0, "unit": "s"}}})
        return subprocess.CompletedProcess(args, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                             "construct", "--seeds", "1-3", "--seconds", "1",
                             "--out", str(tmp_path / "out")]) == 0
    # one cache per side, outside both checkouts, removed afterwards
    assert caches["parent"] != caches["change"]
    assert all(tmp_path not in cache.parents and not cache.exists()
               for cache in caches.values())
    assert len(capsys.readouterr().out.splitlines()) == 7


def test_bench_pairs_prints_why_a_run_failed(tmp_path, monkeypatch, capsys):
    bench_pairs = load("bench_pairs")
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "op_s", "unit": "s", "better": "lower", "bound": 0.24}]}))

    def fake_run(args, cwd, **kwargs):
        # the change's run reports one wrong output and one signalled failure
        wrong = Path(cwd).name == "change"
        report = ["== cli_session (seed 1, trace 0): one user",
                  "   failed_frac = 0.5 (2/4)",
                  "   WRONG x1: mle: exit 1", "   error x1: tilt: exit 3"] if wrong else []
        line = json.dumps({"correct": not wrong, "attempted": 4, "failed": 2 if wrong else 0,
                           "metrics": {"op_s": {"value": 1.0, "unit": "s"}}})
        return subprocess.CompletedProcess(args, 1 if wrong else 0,
                                           stdout="\n".join(report + [line]) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                             "cli_session", "--seeds", "1", "--seconds", "1",
                             "--out", str(tmp_path / "out")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[5] == "parent" and " failed=0/4" in lines[0]
    assert lines[1].split()[5] == "change" and lines[1].endswith(" failed=2/4 WRONG")
    # the reasons go under their run's line, and nothing else of the report
    assert lines[2:4] == ["    WRONG x1: mle: exit 1", "    error x1: tilt: exit 3"]
    assert lines[4].startswith("cli_session op_s: ") and len(lines) == 5


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_library_block_gives_the_values_its_comments_state():
    # each bare expression of the "## Library" block is evaluated in order
    # and kept by its source text
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"^```python\n(.*?)^```", section, re.S | re.M).group(1)
    scope, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), str(README), "eval")
            values[ast.get_source_segment(block, stmt)] = eval(code, scope)
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), scope)
    assert abs(values["m.kind_score(entry.model, m.SCALE, 2.0)"] + 9 / 7) <= 1e-15
    assert values["m.mnss((neg, pos), m.SCALE).value"] == 4
    assert abs(values["m.same_class(gamma.model, tilted, m.SCALE)"] - 2.0) <= 1e-6
    assert values["m.scale_identification(gamma.model, tilted).verdict"] == "mismatch"
    # alpha / mean(x), the gamma(2) scale MLE in closed form
    closed = 2.0 / scope["sample"].values.mean()
    assert abs(values["m.mle(gamma.model, m.SCALE, sample).theta_hat"] - closed) <= 1e-12 * closed
    assert abs(values["m.closed_form_mle(gamma, m.SCALE, sample).theta_hat"] - closed) <= \
        1e-15 * closed


def test_cli_battery_runs_its_commands_in_fresh_interpreters(tmp_path):
    battery = load("cli_battery")
    subcommands = {command.split()[0] for command in battery.COMMANDS if command}
    assert len(battery.COMMANDS) >= 70
    assert {"analyze", "mcss", "mle", "tilt", "same-class", "forge",
            "verify-counterexample", "suite"} <= subcommands
    battery.write_inputs(tmp_path)
    src = TOOLS.parent / "src"
    out = battery.run(src, "mcss --pminus 1 --pplus 3 --n 3", tmp_path)
    assert out.splitlines()[:5] == ["$ mlechar mcss --pminus 1 --pplus 3 --n 3", "exit=0",
                                    "  p_minus=1.0", "  p_plus=3.0", "  mcss=4"]
    out = battery.run(src, "mcss --pminus 1 --pplus 3 --n 0", tmp_path)
    assert out == ("$ mlechar mcss --pminus 1 --pplus 3 --n 0\nexit=2\n"
                   "stderr: configuration error: n must be >= 1\n")
    out = battery.run(src, "tilt --family gauss.json --d 2 --kind loc --emit t.json", tmp_path)
    digest = hashlib.sha256((tmp_path / "t.json").read_bytes()).hexdigest()
    assert out.splitlines()[1] == "exit=0"
    assert out.splitlines()[-1] == f"file t.json sha256={digest}"


def test_solve_digest_prints_one_line_per_mle_large_solve():
    src = TOOLS.parent / "src"
    proc = subprocess.run([sys.executable, str(TOOLS / "solve_digest.py"), str(src), "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 16
    assert lines[0].startswith("seed=1 gaussian/location n=1000 theta=")
    for line in lines:
        fields = dict(field.split("=") for field in line.split() if field.count("=") == 1)
        iterations, doublings = int(fields["iterations"]), int(fields["doublings"])
        assert int(fields["sums"]) == 2 * (doublings + 1) + max(iterations - 1, 0)
        float.fromhex(fields["theta"])


def test_construct_digest_prints_hex_lines_per_family_kind_and_construction():
    src = TOOLS.parent / "src"
    proc = subprocess.run([sys.executable, str(TOOLS / "construct_digest.py"), str(src),
                           "gaussian"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("gaussian interval40.0=[")
    assert lines[1] == "gaussian/location bounds=[inf inf]"
    # scale on the full line: two half-line profiles and no tilt
    assert lines[7].startswith("gaussian/scale bounds=[inf 0x1.") and lines[7].count("[") == 2
    assert lines[8].startswith("gaussian/scale tilt d=0.5 SingletonClass: ")
    assert sum(line.startswith("forge gaussian ") for line in lines) == 6
    files = [line for line in lines if " file sha256=" in line]
    assert len(files) == 4
    for line in lines:
        for value in re.findall(r"[-\w.]*0x[\w.+-]+", line):
            float.fromhex(value)
    # a second run prints the same bits
    again = subprocess.run([sys.executable, str(TOOLS / "construct_digest.py"), str(src),
                            "gaussian"], capture_output=True, text=True, timeout=300)
    assert again.stdout == proc.stdout


def test_param_sweep_prints_count_lines_then_one_outcome_line_per_case():
    src = TOOLS.parent / "src"
    proc = subprocess.run([sys.executable, str(TOOLS / "param_sweep.py"), str(src)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # the five count lines, then one line per case
    counts, cases = lines[:5], lines[5:]
    assert [line.split()[0] for line in counts] == \
        ["gamma", "weibull", "student", "generalized_gaussian", "all"]
    for line in counts:
        assert re.fullmatch(r"\w+ cases=\d+ right=\d+ wrong=\d+( [A-Z]\w*=\d+)*", line)
    tally = dict(field.split("=") for field in counts[-1].split()[1:])
    assert len(cases) == int(tally["cases"])
    outcomes = [re.fullmatch(r"\w+\(\S+\) (location|scale|group) "
                             r"(right|wrong (\d+|inf)|[A-Z]\w*)", line).group(2).split()[0]
                for line in cases]
    assert {key: str(outcomes.count(key)) for key in set(outcomes)} == \
        {key: value for key, value in tally.items() if key != "cases" and value != "0"}
    # a flag is refused with the usage line
    proc = subprocess.run([sys.executable, str(TOOLS / "param_sweep.py"), str(src), "--cases"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and proc.stderr.startswith("python tools/param_sweep.py SRC")


def test_known_families_prints_counts_per_range():
    proc = subprocess.run([sys.executable, str(TOOLS / "known_families.py"), "7", "4"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == \
        ["log10_b=[-3,3]", "log10_b=[-1,1]", "log10_b=[-0.5,0.5]"]
    for line in lines:
        match = re.fullmatch(r"\S+ families=4 right=(\d+)((?: [A-Z]\w*=\d+)*) "
                             r"wrong_bounds=(\d+) wrong_mnss=(\d+)", line)
        assert match, line
        errors = [int(field.split("=")[1]) for field in match.group(2).split()]
        assert int(match.group(1)) + sum(errors) + int(match.group(3)) + int(match.group(4)) == 4
    # the hyperbolic secant law, which the docstring names
    known = load("known_families")
    assert known.judge(0.0, [(1.0, 1.0, 0.0)]) == "right"


def test_traffic_lists_the_statements_no_workload_runs():
    traffic = load("traffic")
    src = TOOLS.parent / "src"
    proc = subprocess.run([sys.executable, str(TOOLS / "traffic.py"), str(src)],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    headings = [line.split(":")[0] for line in lines if not line.startswith(" ")]
    modules = sorted(f"mlechar/{path.name}" for path in (src / "mlechar").glob("*.py"))
    assert headings == modules + ["total"]
    # only tests call density.check_dlog_pdf: every statement of it is listed
    start = next(i for i, line in enumerate(lines) if line.startswith("mlechar/density.py"))
    listed = {}
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        scope, spans = line.strip().split(": ")
        listed[scope] = [tuple(map(int, span.split("-"))) if "-" in span else (int(span),) * 2
                         for span in spans.split(", ")]
    source = (src / "mlechar" / "density.py").read_text()
    own = [(scope, first) for scope, first, _ in traffic.statements(ast.parse(source))
           if scope.startswith("check_dlog_pdf")]
    assert own
    for scope, first in own:
        assert any(a <= first <= b for a, b in listed.get(scope, ())), (scope, first)


# one operation of each benchmark workload, run as the benchmark runs it; -B
# keeps the import from writing bytecode beside the benchmark's files
WORKLOAD_SMOKE = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
out = {}
for name, cls in workloads.WORKLOADS.items():
    workdir = Path(sys.argv[2]) / name
    workdir.mkdir()
    workload = cls(1, workdir)
    workload.op(False)
    out[name] = {"attempted": workload.tally.attempted, "wrong": dict(workload.tally.wrong)}
print(json.dumps(out))
"""


def test_one_operation_of_each_benchmark_workload_is_correct(tmp_path):
    # a change that makes a workload's output wrong fails here, before a
    # benchmark run reports it
    root = TOOLS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", WORKLOAD_SMOKE, str(root / "perfbench"),
                           str(tmp_path)], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    tallies = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(tallies) == ["cli_session", "construct", "mle_large", "suite_default"]
    for name, tally in tallies.items():
        assert tally["attempted"] > 0, name
        assert tally["wrong"] == {}, (name, tally["wrong"])


# the cli_session workload's command mix for seeds 1-20, each command run
# in-process through cli.main in the workload's directory and judged by the
# workload's own op(); an uncaught exception exits 1, as in a fresh process
CLI_SESSION_CHILD = """
import contextlib, io, json, os, subprocess, sys, traceback
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
from mlechar import cli

def launch(argv, stats_path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())

attempted, errors, wrong = 0, {}, {}
for seed in range(1, 21):
    workdir = Path(sys.argv[2]) / str(seed)
    workdir.mkdir()
    workload = workloads.CliSession(seed, workdir)
    workload._launch = launch
    os.chdir(workdir)
    workload.op(False)
    attempted += workload.tally.attempted
    errors.update(workload.tally.errors)
    wrong.update(workload.tally.wrong)
print(json.dumps({"attempted": attempted, "errors": errors, "wrong": wrong}))
"""


def test_twenty_rounds_of_the_cli_session_mix_give_no_wrong_output(tmp_path):
    # the benchmark counts a command with a wrong output, or one that ends
    # in a traceback, as a wrong operation of the cli_session workload
    root = TOOLS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", CLI_SESSION_CHILD,
                           str(root / "perfbench"), str(tmp_path)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    tally = json.loads(proc.stdout.splitlines()[-1])
    assert tally["attempted"] == 20 * 13
    assert tally["wrong"] == {}, tally["wrong"]
    # a command may fail only as the workload's one known defect
    assert all(": known defect: " in reason for reason in tally["errors"]), tally["errors"]


# a reduced suite that reaches every section, and three commands, run
# in-process through the CLI; prints each command's exit code and stdout
DISPATCH_CHILD = """
import contextlib, io, json, sys
from pathlib import Path
from mlechar import cli
out = Path(sys.argv[1])
config = {
    "families": [{"name": "gaussian", "params": {}, "kinds": ["location", "scale"]},
                 {"name": "gamma", "params": {"alpha": 2}, "kinds": ["scale"]},
                 {"name": "student", "params": {"nu": 3}, "kinds": ["scale"]},
                 {"name": "sinh_arcsinh_skew_normal", "params": {}, "kinds": ["group"]}],
    "equivalence": [{"name": "gaussian", "params": {}, "kind": "location"},
                    {"name": "gamma", "params": {"alpha": 2}, "kind": "scale"},
                    {"name": "sinh_arcsinh_skew_normal", "params": {}, "kind": "group"}],
    "trials": 20, "sample_sizes": [3, 8], "seed": 1}
(out / "config.json").write_text(json.dumps(config))
(out / "student3.json").write_text(json.dumps({"catalog": "student", "params": {"nu": 3}}))
(out / "data.txt").write_text("0.3\\n-1.2\\n2.5\\n0.7\\n-0.4\\n")
commands = {
    "suite": ["suite", "--config", str(out / "config.json"), "--output", str(out / "report.json")],
    "analyze": ["analyze", "--family", "student", "--params", "nu=3", "--kind", "scale"],
    "mle": ["mle", "--family", str(out / "student3.json"), "--kind", "scale",
            "--data", str(out / "data.txt")],
    "tilt": ["tilt", "--family", str(out / "student3.json"), "--kind", "loc", "--d", "2"],
}
runs = {}
for name, argv in commands.items():
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    runs[name] = {"exit": code, "stdout": stdout.getvalue()}
print(json.dumps(runs))
"""

#: numpy's AVX-512 dispatch targets, whose loops move the last bits of some
#: sums and transcendental functions
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _cpu_features() -> dict:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def _printed(stdout: str) -> dict:
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


#: the tests that pin bits of numpy's vector loops, with one literal per
#: dispatch path where the paths round differently
PINNED_BITS_TESTS = ("tests/test_density.py::test_tilt_log_masses_keep_their_bits",
                     "tests/test_estimator.py::test_mle_large_solves_keep_their_bits")


def test_pinned_bits_hold_on_the_avx2_dispatch_path():
    # a child process with numpy's AVX-512 targets disabled takes its AVX2
    # loops, and the pinned tests pick that path's literals
    root = TOOLS.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"), NPY_DISABLE_CPU_FEATURES=NO_AVX512)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *PINNED_BITS_TESTS], cwd=root, capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    # every case ran and passed, none skipped
    assert re.fullmatch(r"\d+ passed in .*", proc.stdout.splitlines()[-1]), proc.stdout[-3000:]


def test_reports_agree_across_numpy_dispatch_paths(tmp_path, capsys):
    # bytes are identical for one numpy build on one SIMD dispatch path;
    # verdicts and everything report_diff treats as non-numeric are
    # identical on every path
    root = TOOLS.parent
    runs = []
    for name, disabled in (("native", None), ("no_avx512", NO_AVX512)):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        (tmp_path / name).mkdir()
        proc = subprocess.run([sys.executable, "-c", DISPATCH_CHILD, str(tmp_path / name)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    native, reduced = runs
    assert {k: v["exit"] for k, v in native.items()} == {k: v["exit"] for k, v in reduced.items()}
    assert native["suite"]["exit"] == 0
    reports = [tmp_path / name / "report.json" for name in ("native", "no_avx512")]
    assert json.loads(reports[0].read_text())["verdicts"] == \
        json.loads(reports[1].read_text())["verdicts"]
    if not _cpu_features().get("AVX512F"):
        # both children take the one dispatch path this host has
        assert reports[0].read_bytes() == reports[1].read_bytes()
    assert load("report_diff").main([str(path) for path in reports]) == 0
    out = capsys.readouterr().out
    assert out == "" or out.endswith(", 0 other differences\n"), out
    floats = re.compile(r"\d\.\d|\d[eE][-+]?\d")
    for command in ("analyze", "mle", "tilt"):
        a, b = _printed(native[command]["stdout"]), _printed(reduced[command]["stdout"])
        assert a and list(a) == list(b), command
        for key, value in a.items():
            if not floats.search(value):
                assert b[key] == value, (command, key)
