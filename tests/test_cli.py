import json
import math

import pytest

from mlechar import tilt
from mlechar.cli import main
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
