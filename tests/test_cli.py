import base64
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlechar import OddPower, forge_odd_h, lookup, tilt
from mlechar.cli import main
from mlechar.density import (
    DensityModel,
    Rows,
    SupportSet,
    check_dlog_pdf,
    compact_grid,
    effective_interval,
    normalize,
    tabulated_model,
)
from mlechar.errors import InvalidConfig
from mlechar.estimator import DEFAULT_TOL, mle_block
from mlechar.score import LOCATION, SCALE
from mlechar.specfiles import load_family_spec, write_tabulated
from mlechar.suite import config_from_json, emit_report, run_suite


def kv(capsys):
    out = {}
    for line in capsys.readouterr().out.strip().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key] = value
    return out


@pytest.fixture()
def gauss_spec(tmp_path):
    path = tmp_path / "gauss.json"
    path.write_text(json.dumps({"catalog": "gaussian"}))
    return str(path)


@pytest.fixture()
def gamma_spec(tmp_path):
    path = tmp_path / "gamma.json"
    path.write_text(json.dumps({"catalog": "gamma", "params": {"alpha": 2}}))
    return str(path)


def test_spec_roundtrip_tabulated(tmp_path, gaussian):
    tilted = tilt(gaussian.model, 2.0, LOCATION)
    path = tmp_path / "tilted.json"
    write_tabulated(tilted, path)
    loaded, entry = load_family_spec(path)
    assert entry is None
    assert loaded.normalized
    for x in (-1.5, 0.0, 2.0):
        assert abs(loaded.log_pdf(x) - tilted.log_pdf(x)) < 1e-6


@pytest.mark.parametrize("d", [0.5, 2.0, 5.0])
def test_mle_on_a_loaded_tilt_meets_the_residual_contract(tmp_path, gaussian, d):
    # the tabulated score is the derivative of the table's own cubic pieces,
    # not a finite difference of them; the tilt of a gaussian is a gaussian,
    # so its location MLE is the sample mean
    path = tmp_path / "tilted.json"
    write_tabulated(tilt(gaussian.model, d, LOCATION), path)
    loaded, _ = load_family_spec(path)
    xs = np.linspace(-4.0, 4.0, 401) + 0.0137
    assert check_dlog_pdf(loaded, xs, tol=1e-6) < 1e-6
    rows = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        rows.append(rng.normal(rng.uniform(-1.0, 1.0), 1.0, 50))
    (roots,) = mle_block(LOCATION, [(loaded, Rows(np.concatenate(rows), np.full(60, 50)))],
                         DEFAULT_TOL)
    assert (np.abs(roots.residual) < DEFAULT_TOL).all()
    assert np.abs(roots.theta - np.mean(rows, axis=1)).max() < 1e-5


def _sinh_group_tilt():
    sinh = lookup("sinh_arcsinh_skew_normal")
    return tilt(sinh.model, 2.0, sinh.transform)


#: a model of each construction written as a tabulated file
WRITTEN_MODELS = {
    "location tilt": lambda: tilt(lookup("gaussian").model, 2.0, LOCATION),
    "half-line scale tilt": lambda: tilt(lookup("gamma", {"alpha": 2.0}).model, 2.0, SCALE),
    "group tilt": _sinh_group_tilt,
    "forged": lambda: forge_odd_h(lookup("gaussian").model, OddPower(1.0, 3)),
}


@pytest.mark.parametrize("build", WRITTEN_MODELS.values(), ids=list(WRITTEN_MODELS))
def test_a_written_grid_rule_loads_as_the_list_of_its_nodes(tmp_path, build):
    # the rule stands for the 4001 nodes uniform in t between the ends of
    # the effective interval, and the encoded log_pdf for its doubles, which
    # a file could list instead; both load to the same table, bit for bit
    model = build()
    ruled, listed = tmp_path / "rule.json", tmp_path / "list.json"
    write_tabulated(model, ruled)
    doc = json.loads(ruled.read_text())
    assert doc["tabulated"]["grid"]["points"] == 4001
    doc["tabulated"]["grid"] = compact_grid(model.support, *effective_interval(model),
                                            4001)[1].tolist()
    encoded = doc["tabulated"]["log_pdf"]["float64le"]
    doc["tabulated"]["log_pdf"] = np.frombuffer(base64.b64decode(encoded), "<f8").tolist()
    listed.write_text(json.dumps(doc))
    (a, _), (b, _) = load_family_spec(ruled), load_family_spec(listed)
    assert a.breaks.tobytes() == b.breaks.tobytes()
    # probes from halfway to the support's lower end (or a quarter of the
    # span beyond the first node) to a quarter of the span beyond the last
    lo, hi = a.breaks[0], a.breaks[-1]
    below = (lo - 0.25 * (hi - lo) if model.support.lower == -math.inf
             else 0.5 * (model.support.lower + lo))
    probe = np.linspace(below, hi + 0.25 * (hi - lo), 1999)
    assert a.log_pdf(probe).tobytes() == b.log_pdf(probe).tobytes()
    assert a.dlog_pdf(probe).tobytes() == b.dlog_pdf(probe).tobytes()


def test_a_density_without_values_at_its_outer_nodes_round_trips(tmp_path):
    # -inf beyond |x| = 2, where the effective interval's padding cell puts
    # both ends: the grid shrinks to the finite run's own rule
    raw = DensityModel("cut", SupportSet.full_line(),
                       lambda x: np.where(np.abs(x) < 2.0, -0.5 * x * x, -math.inf))
    assert not np.isfinite(raw.log_pdf(np.array(effective_interval(raw)))).any()
    path = tmp_path / "cut.json"
    write_tabulated(raw, path)
    grid = json.loads(path.read_text())["tabulated"]["grid"]
    assert grid["points"] < 4001
    loaded, _ = load_family_spec(path)
    nodes = loaded.breaks
    assert nodes.size == grid["points"] and -2.0 < nodes[0] and nodes[-1] < 2.0
    # normalized on load: the table is the density's shape plus a constant
    shift = loaded.log_pdf(nodes) - raw.log_pdf(nodes)
    assert np.ptp(shift) <= 1e-12


def test_spec_loader_catalog(gamma_spec):
    model, entry = load_family_spec(gamma_spec)
    assert entry is not None and entry.name == "gamma"
    assert model.support.kind == "positive_half_line"


#: a support spelling, a grid inside that support and the support it names
SUPPORT_SPECS = [
    ("full_line", [-3.0, -1.0, 0.0, 1.0, 3.0], SupportSet.full_line()),
    ("positive_half_line", [0.5, 1.0, 2.0, 3.0, 5.0], SupportSet.positive_half_line()),
    ("negative_half_line", [-5.0, -3.0, -2.0, -1.0, -0.5], SupportSet.negative_half_line()),
    ([0, 4], [0.5, 1.0, 2.0, 3.0, 3.5], SupportSet.open_interval(0.0, 4.0)),
    ([-2.5, 1e3], [-2.0, 0.0, 1.0, 2.0, 5.0], SupportSet.open_interval(-2.5, 1e3)),
]


@pytest.mark.parametrize("support,grid,expected", SUPPORT_SPECS)
def test_spec_loader_reads_each_support(tmp_path, support, grid, expected):
    path = tmp_path / "spec.json"
    # a log-density falling away from the middle node, so every tail decays
    path.write_text(json.dumps({"tabulated": {
        "support": support, "grid": grid, "log_pdf": [-abs(x - grid[2]) for x in grid]}}))
    model, entry = load_family_spec(path)
    assert entry is None and model.normalized
    assert model.support == expected


@pytest.mark.parametrize("support,message", [
    ("half_line", "unknown support name 'half_line'"),
    ("open_interval", "unknown support name 'open_interval'"),
    ([0.0], "unparseable support [0.0]"),
    ([0.0, 1.0, 2.0], "unparseable support [0.0, 1.0, 2.0]"),
    (["a", 1], "unparseable support ['a', 1]"),
    (7, "unparseable support 7"),
])
def test_spec_loader_rejects_unknown_and_malformed_supports(tmp_path, support, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"tabulated": {
        "support": support, "grid": [0.2, 0.4, 0.6, 0.8], "log_pdf": [0, 0, 0, 0]}}))
    with pytest.raises(InvalidConfig) as info:
        load_family_spec(path)
    assert str(info.value) == message


@pytest.mark.parametrize("support,grid,expected", SUPPORT_SPECS)
def test_write_tabulated_keeps_the_support(tmp_path, support, grid, expected):
    # a model on each support shape, written and read back
    model = tabulated_model(expected, grid, [-abs(x - grid[2]) for x in grid])
    _, model = normalize(model)
    path = tmp_path / "spec.json"
    write_tabulated(model, path)
    loaded, _ = load_family_spec(path)
    assert loaded.support == expected
    assert json.loads(path.read_text())["tabulated"]["support"] == (
        support if isinstance(support, str) else [float(v) for v in support])


def test_cli_mcss_reads_each_spelling_of_infinity(capsys):
    outputs = []
    for text in ("inf", "+inf", "Infinity", "INF", " inf ", "infinity"):
        assert main(["mcss", "--pminus", text, "--pplus", "2", "--n", "3"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].splitlines()[:3] == ["p_minus=inf", "p_plus=2.0", "mcss=inf"]
    assert all(out == outputs[0] for out in outputs)


def test_cli_mcss(capsys):
    assert main(["mcss", "--pminus", "1", "--pplus", "3", "--n", "3"]) == 0
    out = kv(capsys)
    assert out["mcss"] == "4"
    assert out["projection_interval"] == "(-1.0, 2.0)"
    assert out["projectable"] == "false"

    assert main(["mcss", "--pminus", "inf", "--pplus", "1"]) == 0
    assert kv(capsys)["mcss"] == "inf"


def test_cli_mcss_near_integer_ratio(capsys):
    assert main(["mcss", "--pminus", "1", "--pplus", "3.0000000001", "--n", "4"]) == 0
    out = kv(capsys)
    assert out["mcss"] == "4"
    assert out["projectable"] == "true"


def test_cli_mcss_rejects_bad_bounds(capsys):
    assert main(["mcss", "--pminus", "-1", "--pplus", "2"]) == 3
    assert "numeric error" in capsys.readouterr().err
    assert main(["mcss", "--pminus", "1e-320", "--pplus", "1e308"]) == 3
    assert capsys.readouterr().err.startswith("numeric error:")


def test_cli_analyze(capsys):
    assert main(["analyze", "--family", "student", "--params", "nu=3",
                 "--kind", "scale"]) == 0
    out = kv(capsys)
    assert out["mnss"] == "4"
    assert out["expected_mnss"] == "4"
    assert out["match"] == "true"
    assert out["characterizable"] == "true"

    assert main(["analyze", "--family", "laplace", "--kind", "loc"]) == 0
    out = kv(capsys)
    assert out["characterizable"] == "false"
    assert out["reason"] == "not_monotone"


def test_cli_analyze_names_a_score_that_does_not_cross_zero(capsys):
    # the numeric image of gamma(1e-300)'s scale score lies below 0 in
    # floating point, so the zero crossing fails before the profile's mcss
    assert main(["analyze", "--family", "gamma", "--params", "alpha=1e-300",
                 "--kind", "scale"]) == 3
    captured = capsys.readouterr()
    assert captured.err == ("numeric error: scale score on (0.0, inf) "
                            "does not cross zero\n")
    assert "characterizable" not in captured.out and "bounds" not in captured.out


def test_cli_analyze_unknown_family(capsys):
    assert main(["analyze", "--family", "nonesuch", "--kind", "loc"]) == 2


@pytest.mark.parametrize("params", ["nu=inf", "nu=nan", "nu=abc", "nu=1e308"])
def test_cli_analyze_bad_params(capsys, params):
    assert main(["analyze", "--family", "student", "--params", params,
                 "--kind", "scale"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_analyze_overflowing_bound_exits_2(capsys):
    assert main(["analyze", "--family", "generalized_gaussian", "--params",
                 "alpha=1e300,gamma=1e300", "--kind", "loc"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_mle_on_values_near_the_float_limit(tmp_path, capsys):
    spec, data = tmp_path / "logistic.json", tmp_path / "huge.txt"
    spec.write_text(json.dumps({"catalog": "logistic"}))
    data.write_text("1e308\n1.5e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["mle", "--family", str(spec), "--kind", "loc", "--data", str(data)]) == 0
    assert "theta_hat=1.25e+308" in capsys.readouterr().out


def test_cli_mle(tmp_path, capsys, gauss_spec, gamma_spec):
    data = tmp_path / "data.csv"
    data.write_text("1.0\n2.0\n3.0\n")
    assert main(["mle", "--family", gauss_spec, "--kind", "loc",
                 "--data", str(data)]) == 0
    out = kv(capsys)
    assert abs(float(out["theta_hat"]) - 2.0) < 1e-10

    assert main(["mle", "--family", gamma_spec, "--kind", "scale",
                 "--data", str(data)]) == 0
    out = kv(capsys)
    assert abs(float(out["theta_hat"]) - 1.0) < 1e-9
    assert abs(float(out["sigma_hat"]) - 1.0) < 1e-9


def test_cli_mle_without_a_score_sum_exits_3(tmp_path, capsys):
    # the scale bracket meets scores of -inf and +inf together
    spec = tmp_path / "weibull.json"
    spec.write_text(json.dumps({"catalog": "weibull", "params": {"k": 2}}))
    data = tmp_path / "data.csv"
    data.write_text("1e-300\n1.0\n1e300\n")
    assert main(["mle", "--family", str(spec), "--kind", "scale", "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric error: the score sum at theta=")
    assert "Traceback" not in err


def test_cli_tilt_same_class_cycle(tmp_path, capsys, gauss_spec):
    emitted = tmp_path / "tilted.json"
    assert main(["tilt", "--family", gauss_spec, "--d", "2", "--kind", "loc",
                 "--emit", str(emitted)]) == 0
    out = kv(capsys)
    assert abs(float(out["normalizer"]) - math.sqrt(4.0 * math.pi)) < 1e-6

    assert main(["same-class", "--f", gauss_spec, "--g", str(emitted),
                 "--kind", "loc"]) == 0
    out = kv(capsys)
    assert out["same_class"] == "true"
    assert abs(float(out["d"]) - 2.0) < 1e-3


def test_cli_same_class_distinct(tmp_path, capsys, gauss_spec):
    logi = tmp_path / "logi.json"
    logi.write_text(json.dumps({"catalog": "logistic"}))
    assert main(["same-class", "--f", gauss_spec, "--g", str(logi),
                 "--kind", "loc"]) == 0
    out = kv(capsys)
    assert out["same_class"] == "false"
    assert out["verdict"] == "distinct classes"


def test_cli_forge_and_verify(tmp_path, capsys, gauss_spec):
    forged = tmp_path / "forged.json"
    assert main(["forge", "--target", gauss_spec, "--h", "odd-power:d=1,p=3",
                 "--emit", str(forged)]) == 0
    capsys.readouterr()

    assert main(["verify-counterexample", "--f", gauss_spec, "--g", str(forged),
                 "--n", "2", "--trials", "30"]) == 0
    out = kv(capsys)
    assert float(out["agreement_fraction"]) == 1.0

    assert main(["verify-counterexample", "--f", gauss_spec, "--g", str(forged),
                 "--n", "3", "--trials", "30"]) == 0
    out = kv(capsys)
    assert float(out["agreement_fraction"]) < 0.05
    assert "worst_gap" in out


@pytest.mark.parametrize("argv", [
    ["tilt", "--d", "2", "--kind", "loc", "--family"],
    ["forge", "--h", "odd-power:d=1,p=3", "--target"],
])
def test_cli_emit_to_an_unwritable_path_prints_nothing(tmp_path, capsys, gauss_spec, argv):
    emit = tmp_path / "no_such_dir" / "out.json"
    assert main(argv + [gauss_spec, "--emit", str(emit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: cannot write family spec")


@pytest.mark.parametrize("command,tabulated,tol", [
    ("same-class", False, "1e-06"),
    ("same-class", True, "0.01"),
    ("verify-counterexample", False, "1e-07"),
    ("verify-counterexample", True, "0.0001"),
])
def test_cli_default_tolerances(tmp_path, capsys, gaussian, gauss_spec, command, tabulated, tol):
    other = tmp_path / "other.json"
    if tabulated:
        write_tabulated(tilt(gaussian.model, 2.0, LOCATION), other)
    else:
        other.write_text(json.dumps({"catalog": "logistic"}))
    extra = ["--kind", "loc"] if command == "same-class" else ["--n", "2", "--trials", "2"]
    assert main([command, "--f", gauss_spec, "--g", str(other), *extra]) == 0
    assert kv(capsys)["tol"] == tol


def test_cli_suite_restricted_config(tmp_path, capsys):
    config = {
        "families": [{"name": "gaussian", "params": {}, "kinds": ["location"]}],
        "equivalence": [{"name": "gaussian", "params": {}, "kind": "location"}],
        "trials": 10,
        "sample_sizes": [3],
        "seed": 11,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["suite", "--config", str(cfg_path), "--output", str(tmp_path / "report.json")]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    gauss_loc = doc["sections"]["catalog_mnss"][0]
    assert gauss_loc["mnss"] == 3 and gauss_loc["match"] is True


RESTRICTED = {
    "families": [{"name": "gaussian", "params": {}, "kinds": ["location"]}],
    "equivalence": [{"name": "gaussian", "params": {}, "kind": "location"}],
    "trials": 10,
    "sample_sizes": [3],
    "seed": 11,
}


def test_cli_suite_report_bytes_do_not_depend_on_the_output_path(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(RESTRICTED))
    for name in ("a.json", "b.json"):
        assert main(["suite", "--config", str(cfg_path), "--output", str(tmp_path / name)]) == 0
        assert kv(capsys)["report_written"] == str(tmp_path / name)
    written = (tmp_path / "a.json").read_bytes()
    assert written == (tmp_path / "b.json").read_bytes()
    assert written == emit_report(run_suite(config_from_json(RESTRICTED)), "machine")


def test_cli_suite_output_to_an_unwritable_path_prints_nothing(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(RESTRICTED))
    out = tmp_path / "no_such_dir" / "report.json"
    assert main(["suite", "--config", str(cfg_path), "--output", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: cannot write report to")


@pytest.mark.parametrize("argv,doc", [
    ("suite --config c.json", {"output_path": "report.json"}),
    ("suite --config c.json", {"trials": 1e30}),
    ("verify-counterexample --f g.json --g g.json --n 3 --trials 100000000000000000000", None),
    ("verify-counterexample --f g.json --g g.json --n 100000000000000000000 --trials 2", None),
])
def test_cli_refuses_output_path_keys_and_counts_no_array_can_hold(tmp_path, monkeypatch,
                                                                   capsys, argv, doc):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"catalog": "gaussian"}))
    (tmp_path / "c.json").write_text(json.dumps(doc))
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")


def _fresh(workdir, argv: str, flags=(), **options):
    """``mlechar argv`` run in a fresh interpreter (with ``flags``) in ``workdir``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *flags, "-m", "mlechar.cli", *argv.split()],
                          cwd=workdir, env=env, capture_output=True, text=True, timeout=120,
                          **options)


#: the address space of a capped interpreter: start-up fits, a count of 10^12
#: does not
ADDRESS_SPACE = 2 * 1024 ** 3


@pytest.mark.parametrize("argv,doc", [
    ("verify-counterexample --f g.json --g g.json --n 3 --trials 1000000000000", None),
    ("suite --config c.json", {"trials": 1000000000000}),
])
def test_cli_maps_running_out_of_memory_to_exit_2(tmp_path, argv, doc):
    # counts an array can address but this machine cannot hold; each command
    # runs in a fresh interpreter with its address space capped, never without
    resource = pytest.importorskip("resource")
    (tmp_path / "g.json").write_text(json.dumps({"catalog": "gaussian"}))
    (tmp_path / "c.json").write_text(json.dumps(doc))
    proc = _fresh(tmp_path, argv, preexec_fn=lambda: resource.setrlimit(
        resource.RLIMIT_AS, (ADDRESS_SPACE,) * 2))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("configuration error: out of memory")
    assert proc.stderr.count("\n") == 1


def test_cli_suite_invalid_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"trials": 0}))
    assert main(["suite", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("doc", [
    {"families": [{"name": "gaussian", "kind": ["location"]}]},
    {"equivalence": [{"name": "gaussian", "parms": {}, "kind": "location"}]},
    {"families": ["gaussian"]},
    {"trials": 2.9},
    {"sample_sizes": [2.7]},
    {"tilt_exponents": [10 ** 400]},
    # the config picks the workload; no threshold of a check is configurable
    {**RESTRICTED, "tolerances": {"agreement_tol": 1e300}},
    {"families": [{"name": "gamma", "params": {"alpha": True}, "kinds": ["scale"]}]},
])
def test_cli_suite_rejects_entry_keys_and_counts_it_would_drop(tmp_path, capsys, doc):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["suite", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flags", [(), ("-W", "error")])
@pytest.mark.parametrize("argv", [
    "tilt --family g.json --d 1e308 --kind loc",
    "tilt --family sinh.json --d 1e300 --kind group",
    "forge --target g.json --h odd-power:p=3,d=1e308",
    "forge --target g.json --h odd-power:p=301",
    "forge --target g.json --h cos-perturbation:amplitude=1e308",
])
def test_cli_overflow_is_one_numeric_error_line(tmp_path, argv, flags):
    # an overflowing tilt or forge prints no warning before its error, so
    # it exits 3 also when warnings are errors
    (tmp_path / "g.json").write_text(json.dumps({"catalog": "gaussian"}))
    (tmp_path / "sinh.json").write_text(json.dumps({"catalog": "sinh_arcsinh_skew_normal"}))
    proc = _fresh(tmp_path, argv, flags)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("numeric error: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flags", [(), ("-W", "error")])
def test_cli_scale_mle_whose_action_underflows_names_the_support(tmp_path, flags):
    # theta * 1e-300 underflows onto the origin of gamma's half-line: the
    # bracket fails there, not on a log-density at a point of no sample
    (tmp_path / "gamma2.json").write_text(json.dumps({"catalog": "gamma",
                                                      "params": {"alpha": 2}}))
    (tmp_path / "x.txt").write_text("1e-300\n1e300\n")
    proc = _fresh(tmp_path, "mle --family gamma2.json --kind scale --data x.txt", flags)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("numeric error: no sign change before the action leaves "
                                  "the support within ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("flags", [(), ("-W", "error")])
@pytest.mark.parametrize("family", ["gaussian", "student"])
def test_cli_scale_mle_on_subnormal_magnitudes_is_one_numeric_error_line(tmp_path, flags,
                                                                          family):
    (tmp_path / "f.json").write_text(json.dumps({"catalog": family, "params": (
        {"nu": 3} if family == "student" else {})}))
    (tmp_path / "x.txt").write_text("-0.0\n5e-324\n-5e-324\n")
    proc = _fresh(tmp_path, "mle --family f.json --kind scale --data x.txt", flags)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("numeric error: no sign change within ")
    assert proc.stderr.count("\n") == 1


def _tabulated(support, grid):
    return json.dumps({"tabulated": {"support": support, "grid": grid,
                                     "log_pdf": [-0.5 * x * x for x in grid]}})


@pytest.mark.parametrize("argv", [
    "verify-counterexample --f g.json --g g.json --n 2 --trials 0",
    "verify-counterexample --f g.json --g g.json --n 0",
    "tilt --family g.json --d -1 --kind loc",
    "tilt --family g.json --d nan --kind loc",
    "forge --target g.json --h odd-power:p=2",
    "forge --target g.json --h odd-power:d=-1",
    "forge --target g.json --h odd-power:p=3.5",
    "forge --target g.json --h odd-power:p=inf",
    "mcss --pminus 1 --pplus 2 --n 0",
    "mcss --pminus 1 --pplus 3 --n -3",
    "mcss --pminus abc --pplus 2",
    "same-class --f g.json --g g.json --kind loc --tol -1",
    "verify-counterexample --f g.json --g g.json --n 2 --tol -1",
    "verify-counterexample --f g.json --g g.json --n 2 --trials 5 --seed -1",
    "mle --family g.json --kind loc --data empty.txt",
    "mle --family g.json --kind loc --data nan.txt",
    "mle --family decreasing.json --kind loc --data one.txt",
    "mle --family reversed.json --kind loc --data one.txt",
    "mle --family two_points.json --kind loc --data one.txt",
    # files that are not UTF-8 or nest deeper than the parser recurses
    "mle --family latin1.json --kind loc --data one.txt",
    "mle --family nested.json --kind loc --data one.txt",
    "suite --config latin1.json",
    "suite --config nested.json",
])
def test_cli_invalid_arguments_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text(json.dumps({"catalog": "gaussian"}))
    (tmp_path / "empty.txt").write_text("")
    (tmp_path / "one.txt").write_text("1.0\n")
    (tmp_path / "nan.txt").write_text("1.0\nnan\n")
    (tmp_path / "decreasing.json").write_text(
        _tabulated("full_line", [2.0, 1.0, 0.0, -1.0, -2.0]))
    (tmp_path / "reversed.json").write_text(_tabulated([2, 1], [1.2, 1.4, 1.6, 1.8]))
    (tmp_path / "two_points.json").write_text(_tabulated("full_line", [0.0, 1.0]))
    (tmp_path / "latin1.json").write_bytes('{"catalog": "gaussian", "name": "Gauß"}'
                                           .encode("latin-1"))
    (tmp_path / "nested.json").write_text("[" * 200_000)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")


def _b64(values):
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


#: the canonical text of four values, one per node of ``_encoded``'s grid
FOUR_VALUES = _b64([0.0, -1.0, -1.0, 0.0])


def _encoded(payload, **extra):
    # encoded values on a grid of four nodes
    return {"tabulated": {"support": "full_line", "grid": [0, 1, 2, 3],
                          "log_pdf": {"float64le": payload, **extra}}}


def _rule(support, compact, points):
    # a grid rule of four values, which no count but 4 matches
    return {"tabulated": {"support": support, "grid": {"compact": compact, "points": points},
                          "log_pdf": [0, -1, -1, 0]}}


@pytest.mark.parametrize("doc", [
    5,
    {"catalog": ["gaussian"]},
    {"catalog": "gamma", "params": "alpha=2"},
    {"tabulated": {"support": ["a", 1], "grid": [0, 1, 2, 3], "log_pdf": [0, 0, 0, 0]}},
    {"tabulated": {"support": "full_line", "grid": ["a", 1, 2, 3], "log_pdf": [0, 0, 0, 0]}},
    {"tabulated": {"support": "full_line", "grid": [0, 1, 2, 3],
                   "log_pdf": [0, float("nan"), 0, 0]}},
    # JSON integers beyond the float range
    {"catalog": "gamma", "params": {"alpha": 10 ** 400}},
    {"tabulated": {"support": [0, 10 ** 400], "grid": [1, 2, 3, 4], "log_pdf": [0, 0, 0, 0]}},
    {"tabulated": {"support": "full_line", "grid": [0, 1, 2, 10 ** 400],
                   "log_pdf": [0, 0, 0, 0]}},
    # grid rules: the count, then the t-ends
    _rule("full_line", [-0.5, 0.5], 4.0),
    _rule("full_line", [-0.5, 0.5], True),
    _rule("full_line", [-0.5, 0.5], "4"),
    _rule("full_line", [-0.5, 0.5], 3),
    _rule("full_line", [-0.5, 0.5], 10 ** 12),
    _rule("full_line", [-0.5, 0.5], None),
    _rule("full_line", [-0.5], 4),
    _rule("full_line", [-0.5, "0.5"], 4),
    _rule("full_line", [-0.5, 10 ** 400], 4),
    _rule("full_line", [-0.5, float("inf")], 4),
    _rule("full_line", [float("nan"), 0.5], 4),
    _rule("full_line", [0.5, -0.5], 4),
    _rule("full_line", [0.5, 0.5], 4),
    _rule("full_line", [-1.0, 0.5], 4),
    _rule("full_line", [-0.5, 1.0], 4),
    _rule("positive_half_line", [0.1, 2.0], 4),
    # a count that the values do not match
    _rule([0, 4], [1.0, 3.0], 5),
    # encoded values: the payload, its text, its byte count, its doubles
    _encoded(5),
    _encoded(FOUR_VALUES[:20] + "\n" + FOUR_VALUES[20:]),
    _encoded(FOUR_VALUES.rstrip("=")),
    _encoded(base64.b64encode(bytes(31)).decode()),
    _encoded(_b64([0.0, -1.0, -1.0])),
    _encoded(_b64([0.0, float("nan"), -1.0, 0.0])),
    _encoded(FOUR_VALUES, extra="key"),
    {"tabulated": {"support": "full_line", "grid": [0, 1, 2, 3], "log_pdf": [0, -1, -1, 0],
                   "normalized": "false"}},
    # unknown keys: at the top, beside a catalog family, in a table, in a grid
    # rule, and a catalog family and a table in one spec
    {"catalog": "gaussian", "kind": "scale"},
    {"params": {}},
    {"tabulated": {"support": "full_line", "grid": [0, 1, 2, 3], "log_pdf": [0, -1, -1, 0],
                   "dlog_pdf": [1, 0, 0, -1]}},
    {"tabulated": {"support": "full_line", "grid": {"compact": [-0.5, 0.5], "points": 4,
                                                    "inset": 0.1},
                   "log_pdf": [0, -1, -1, 0]}},
    {"catalog": "gaussian",
     "tabulated": {"support": "full_line", "grid": [0, 1, 2, 3], "log_pdf": [0, -1, -1, 0]}},
])
def test_cli_malformed_spec_exit_2(tmp_path, capsys, doc):
    spec, data = tmp_path / "spec.json", tmp_path / "data.txt"
    spec.write_text(json.dumps(doc))
    data.write_text("1.0\n")
    assert main(["mle", "--family", str(spec), "--kind", "loc", "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
