import json

import pytest

from mlechar.errors import InvalidConfig, IoFailure
from mlechar.suite import (
    SuiteConfig,
    config_from_json,
    emit_report,
    parse_report,
    run_suite,
)

SMALL = SuiteConfig(
    families=(("gaussian", {}, ("location",)), ("student", {"nu": 3.0}, ("scale",))),
    equivalence=(("gaussian", {}, "location"),),
    trials=8,
    sample_sizes=(3,),
    seed=123,
)


@pytest.fixture(scope="module")
def small_report():
    return run_suite(SMALL)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        SuiteConfig(trials=0).validate()
    with pytest.raises(InvalidConfig):
        SuiteConfig(sample_sizes=(0,)).validate()
    with pytest.raises(InvalidConfig):
        SuiteConfig(mle_tol=-1.0).validate()
    with pytest.raises(InvalidConfig):
        SuiteConfig(families=(("nonesuch", {}, ("location",)),)).validate()
    with pytest.raises(InvalidConfig):
        SuiteConfig(families=(("gaussian", {}, ("group",)),)).validate()
    with pytest.raises(InvalidConfig):
        config_from_json({"families": [{"params": {}}]})
    with pytest.raises(InvalidConfig):
        config_from_json({"trials": "abc"})
    with pytest.raises(InvalidConfig):
        SuiteConfig(equivalence=(("gamma", {"alpha": 2.0}, "location"),)).validate()
    with pytest.raises(InvalidConfig):
        SuiteConfig(equivalence=(("gaussian", {}, "scale"),),
                    tilt_exponents=(2.0,)).validate()
    with pytest.raises(InvalidConfig):
        SuiteConfig(tilt_exponents=(float("nan"),)).validate()
    with pytest.raises(InvalidConfig):
        config_from_json({"output_path": 7})
    with pytest.raises(InvalidConfig, match="trails"):
        config_from_json({"trails": 20})
    with pytest.raises(InvalidConfig, match="mle_tolerance"):
        config_from_json({"tolerances": {"mle_tolerance": 1e-3}})
    with pytest.raises(InvalidConfig, match="'gaussian': kind$"):
        config_from_json({"families": [{"name": "gaussian", "kind": ["location"]}]})
    with pytest.raises(InvalidConfig, match="parms"):
        config_from_json({"equivalence": [{"name": "gaussian", "parms": {},
                                           "kind": "location"}]})
    with pytest.raises(InvalidConfig, match="must be a JSON object"):
        config_from_json({"families": ["gaussian"]})
    with pytest.raises(InvalidConfig, match="must be a JSON object"):
        config_from_json({"equivalence": [["gaussian", {}, "location"]]})
    SuiteConfig().validate()


@pytest.mark.parametrize("doc", [
    {"trials": 2.9}, {"trials": "3"}, {"trials": True}, {"trials": None},
    {"sample_sizes": [2.7]}, {"sample_sizes": [3, "5"]}, {"sample_sizes": [False]},
    {"seed": 1.5}, {"seed": "42"}, {"seed": float("inf")},
])
def test_config_counts_must_be_integers(doc):
    with pytest.raises(InvalidConfig, match="integers"):
        config_from_json(doc)


def test_config_counts_accept_integral_floats():
    config = config_from_json({"trials": 3.0, "sample_sizes": [3.0, 5], "seed": 7.0})
    assert (config.trials, config.sample_sizes, config.seed) == (3, (3, 5), 7)
    assert all(type(v) is int for v in (config.trials, *config.sample_sizes, config.seed))


def test_config_from_json_roundtrip():
    config = config_from_json(SuiteConfig().to_jsonable())
    assert config == SuiteConfig()
    with pytest.raises(InvalidConfig):
        config_from_json({"trials": 0})


def test_small_report_passes(small_report):
    assert small_report.passed
    assert set(small_report.verdicts) == {
        "catalog_mnss", "equivalence", "counterexample", "projectability",
        "closed_form", "equivariance", "score_crosscheck",
    }


def test_machine_report_roundtrip(small_report):
    data = emit_report(small_report, "machine")
    parsed = parse_report(data)
    assert parsed == small_report
    assert emit_report(parsed, "machine") == data


@pytest.mark.parametrize("data", [b"[]", b'{"seed": 1}', b"{", b"\xff"])
def test_parse_report_rejects_a_malformed_document(data):
    with pytest.raises(IoFailure):
        parse_report(data)


def test_reports_are_deterministic(small_report):
    again = run_suite(SMALL)
    assert emit_report(again, "machine") == emit_report(small_report, "machine")


def test_text_report_lists_sections(small_report):
    text = emit_report(small_report, "text").decode()
    assert "overall: PASS" in text
    for section in small_report.sections:
        assert section in text


def test_failing_verdict_marks_report(tmp_path):
    # an agreement tolerance below solver resolution flips a verdict; the
    # d=5 tilt root differs from the base root by a few ulps at this seed
    config = SuiteConfig(
        families=(("gaussian", {}, ("location",)),),
        equivalence=(("gaussian", {}, "location"),),
        trials=20, sample_sizes=(5,), seed=7, agreement_tol=1e-300,
    )
    report = run_suite(config)
    assert not report.passed
    assert report.verdicts["equivalence"] == "fail"

    from mlechar.cli import main
    cfg_path = tmp_path / "impossible.json"
    cfg_path.write_text(json.dumps(config.to_jsonable()))
    assert main(["suite", "--config", str(cfg_path)]) == 1


def test_score_tolerance_flips_the_crosscheck_verdict():
    # no finite-difference score matches the analytic one to 1e-300
    config = SuiteConfig(families=(("gaussian", {}, ("location", "scale")),),
                         equivalence=(), trials=5, sample_sizes=(3,), seed=3,
                         score_tol=1e-300)
    report = run_suite(config)
    assert report.verdicts["score_crosscheck"] == "fail"
    assert report.verdicts["projectability"] == "pass"
    assert not report.passed


def test_empty_family_config_yields_empty_records():
    config = SuiteConfig(families=(), equivalence=(), trials=2,
                         sample_sizes=(2,), seed=1)
    report = run_suite(config)
    assert report.schema_version == "mlechar-report-1"
    assert report.sections["catalog_mnss"] == []
    assert report.sections["closed_form"] == []
    assert report.sections["equivariance"] == []
    assert report.passed  # the family-independent oracle checks still run


def test_every_record_has_provenance_and_verdict(small_report):
    for records in small_report.sections.values():
        for rec in records:
            assert rec["verdict"] in ("pass", "fail")
            assert rec["provenance"] in ("numeric", "analytic")


def test_report_json_is_plain(small_report):
    doc = json.loads(emit_report(small_report, "machine").decode())
    assert doc["schema_version"] == "mlechar-report-1"
    assert doc["seed"] == 123
    # every record value is a JSON scalar (infinities encoded as strings)
    for records in doc["sections"].values():
        for rec in records:
            for value in rec.values():
                assert isinstance(value, (str, int, float, bool)) or value is None
