import json
import math

import numpy as np
import pytest

from mlechar import tilt
from mlechar.cli import main
from mlechar.density import check_dlog_pdf
from mlechar.estimator import DEFAULT_TOL, mle_block
from mlechar.score import LOCATION
from mlechar.specfiles import load_family_spec, write_tabulated


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
    roots = mle_block(loaded, LOCATION, np.array(rows), DEFAULT_TOL)
    assert (np.abs(roots.residual) < DEFAULT_TOL).all()
    assert np.abs(roots.theta - np.mean(rows, axis=1)).max() < 1e-5


def test_spec_loader_catalog(gamma_spec):
    model, entry = load_family_spec(gamma_spec)
    assert entry is not None and entry.name == "gamma"
    assert model.support.kind == "positive_half_line"


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


def test_cli_analyze_unknown_family(capsys):
    assert main(["analyze", "--family", "nonesuch", "--kind", "loc"]) == 2


@pytest.mark.parametrize("params", ["nu=inf", "nu=nan", "nu=abc", "nu=1e308"])
def test_cli_analyze_bad_params(capsys, params):
    assert main(["analyze", "--family", "student", "--params", params,
                 "--kind", "scale"]) == 2
    assert "configuration error" in capsys.readouterr().err


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
        "output_path": str(tmp_path / "report.json"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["suite", "--config", str(cfg_path)]) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["passed"] is True
    gauss_loc = doc["sections"]["catalog_mnss"][0]
    assert gauss_loc["mnss"] == 3 and gauss_loc["match"] is True


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
])
def test_cli_suite_rejects_entry_keys_and_counts_it_would_drop(tmp_path, capsys, doc):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(doc))
    assert main(["suite", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")


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
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error:")


@pytest.mark.parametrize("doc", [
    5,
    {"catalog": ["gaussian"]},
    {"catalog": "gamma", "params": "alpha=2"},
    {"tabulated": {"support": ["a", 1], "grid": [0, 1, 2, 3], "log_pdf": [0, 0, 0, 0]}},
    {"tabulated": {"support": "full_line", "grid": ["a", 1, 2, 3], "log_pdf": [0, 0, 0, 0]}},
    {"tabulated": {"support": "full_line", "grid": [0, 1, 2, 3],
                   "log_pdf": [0, float("nan"), 0, 0]}},
])
def test_cli_malformed_spec_exit_2(tmp_path, capsys, doc):
    spec, data = tmp_path / "spec.json", tmp_path / "data.txt"
    spec.write_text(json.dumps(doc))
    data.write_text("1.0\n")
    assert main(["mle", "--family", str(spec), "--kind", "loc", "--data", str(data)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
