import json
import os
import pickle
import re
import time
from dataclasses import fields, replace
from pathlib import Path

import pytest

from mlechar import catalog, suite
from mlechar.errors import BracketFailure, InvalidConfig, IoFailure, NotMonotone
from mlechar.score import kind_profiles
from mlechar.suite import (
    DEFAULT_FAMILIES,
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


@pytest.mark.parametrize("doc", [
    {"tilt_exponents": [True]}, {"tilt_exponents": ["2"]}, {"tilt_exponents": [True, "2"]},
])
def test_config_tilt_exponents_take_json_numbers(doc):
    with pytest.raises(InvalidConfig):
        config_from_json(doc)


def test_config_sets_no_tolerance():
    # every check's threshold is fixed beside the check
    with pytest.raises(InvalidConfig, match="^unknown suite config key: tolerances$"):
        config_from_json({"tolerances": {"agreement_tol": 1e300}})
    assert "tolerances" not in SuiteConfig().to_jsonable()
    assert [f.name for f in fields(SuiteConfig)] == [
        "families", "equivalence", "tilt_exponents", "trials", "sample_sizes", "seed"]


@pytest.mark.parametrize("config", [
    SuiteConfig(trials=2.5), SuiteConfig(seed=1.5), SuiteConfig(trials=10 ** 20),
    SuiteConfig(tilt_exponents=(True,)), SuiteConfig(tilt_exponents=("2",)),
])
def test_validate_checks_each_field_as_config_from_json_does(config):
    with pytest.raises(InvalidConfig):
        config.validate()


@pytest.mark.parametrize("config", [
    SuiteConfig(sample_sizes=5), SuiteConfig(families=5),
    SuiteConfig(families=(("gaussian", {}),)),
    SuiteConfig(equivalence=(("gaussian", None, "location"),)),
    SuiteConfig(tilt_exponents=2.0),
])
def test_validate_refuses_fields_whose_python_shape_has_no_json_form(config):
    with pytest.raises(InvalidConfig, match="^malformed suite config: "):
        config.validate()


@pytest.mark.parametrize("build", [
    lambda: config_from_json({"families": [{"name": "gaussian", "kinds": "location"}]}),
    lambda: SuiteConfig(families=(("gaussian", {}, "location"),)).validate(),
])
def test_config_kinds_must_be_a_list(build):
    with pytest.raises(InvalidConfig, match="kinds of family 'gaussian' must be a JSON list"):
        build()


@pytest.mark.parametrize("doc", [
    {"trials": 1e30}, {"sample_sizes": [3, 10 ** 20]}, {"seed": 1e30},
])
def test_config_counts_no_array_can_hold_are_refused(doc):
    with pytest.raises(InvalidConfig, match="must be <= "):
        config_from_json(doc)


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must be >= 0, got -1"),
    (-(2 ** 32) + 5, "seed must be >= 0, got -4294967291"),
    (2 ** 32, "seed must be <= 4294967295, got 4294967296"),
    (2 ** 32 + 5, "seed must be <= 4294967295, got 4294967301"),
])
def test_config_seeds_outside_32_bits_are_refused(seed, message):
    # seeds are kept to 32 bits, so a wider one would run a narrower one's sections
    for build in (lambda: config_from_json({"seed": seed}),
                  lambda: SuiteConfig(seed=seed).validate()):
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            build()
    assert [config_from_json({"seed": s}).seed for s in (0, 2 ** 32 - 1)] == [0, 2 ** 32 - 1]


def test_config_sample_sizes_must_not_be_empty():
    with pytest.raises(InvalidConfig, match="sample sizes must be >= 1"):
        config_from_json({"sample_sizes": []})
    with pytest.raises(InvalidConfig, match="sample sizes must be >= 1"):
        SuiteConfig(sample_sizes=()).validate()


def test_a_validated_config_pickles():
    config = SuiteConfig(equivalence=(("gaussian", {}, "scale"),), tilt_exponents=(1.0,))
    again = pickle.loads(pickle.dumps(config.validate()))
    assert again == config
    with pytest.raises(InvalidConfig, match="the class is a singleton"):
        replace(again, tilt_exponents=(2.0,)).validate()


def test_run_suite_runs_the_validated_config():
    config = replace(SMALL, trials=3.0)
    assert config.validate() == replace(SMALL, trials=3)
    report = run_suite(config)
    assert report.config["trials"] == 3 and type(report.config["trials"]) is int
    assert b'"trials": 3\n' in emit_report(report, "machine")


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


def test_failing_verdict_marks_report(tmp_path, monkeypatch):
    # an agreement tolerance below solver resolution flips a verdict; the
    # d=5 tilt root differs from the base root by a few ulps at this seed
    # (a forked section inherits the patch)
    monkeypatch.setattr(suite, "AGREEMENT_TOL", 1e-300)
    config = SuiteConfig(
        families=(("gaussian", {}, ("location",)),),
        equivalence=(("gaussian", {}, "location"),),
        trials=20, sample_sizes=(5,), seed=7,
    )
    report = run_suite(config)
    assert not report.passed
    assert report.verdicts["equivalence"] == "fail"

    from mlechar.cli import main
    cfg_path = tmp_path / "impossible.json"
    cfg_path.write_text(json.dumps(config.to_jsonable()))
    assert main(["suite", "--config", str(cfg_path)]) == 1


def test_a_wrong_analytic_score_flips_the_crosscheck_verdict(monkeypatch):
    # an error of 1e-5 in the gaussian's analytic location score is above
    # the check's fixed 1e-6
    def planted(params):
        entry = gaussian_entry(params)
        scores = {**entry.analytic_scores, "location": lambda x: x + 1e-5}
        return replace(entry, analytic_scores=scores)

    gaussian_entry = catalog._BUILDERS["gaussian"]
    monkeypatch.setitem(catalog._BUILDERS, "gaussian", planted)
    config = SuiteConfig(families=(("gaussian", {}, ("location", "scale")),),
                         equivalence=(), trials=5, sample_sizes=(3,), seed=3)
    report = run_suite(config)
    failed = [r["kind"] for r in report.sections["score_crosscheck"] if r["verdict"] == "fail"]
    assert failed == ["location"]
    assert report.verdicts["score_crosscheck"] == "fail"
    assert report.verdicts["projectability"] == "pass"
    assert not report.passed


def test_each_configured_family_kind_is_profiled_once(monkeypatch):
    # the MNSS record and the image-bound check of a (family, kind) share
    # one score image
    calls = []

    def counted(model, kind):
        calls.append((model.name, kind.label))
        return kind_profiles(model, kind)

    monkeypatch.setattr(suite, "kind_profiles", counted)
    run_suite(SuiteConfig(trials=2, sample_sizes=(3,), seed=9))
    assert len(calls) == 23 == sum(len(kinds) for _, _, kinds in DEFAULT_FAMILIES)
    assert len(set(calls)) == 23


@pytest.mark.parametrize("entry", [
    {"families": [{"name": "gamma", "params": {"alpha": True}, "kinds": ["scale"]}]},
    {"families": [{"name": "gamma", "params": {"alpha": "2"}, "kinds": ["scale"]}]},
    {"equivalence": [{"name": "weibull", "params": {"k": True}, "kind": "scale"}]},
    {"equivalence": [{"name": "weibull", "params": {"k": "2"}, "kind": "scale"}]},
])
def test_config_params_must_be_numbers(entry):
    with pytest.raises(InvalidConfig, match="parameters must be numbers"):
        config_from_json(entry)


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
    for section, records in small_report.sections.items():
        assert records
        for rec in records:
            assert rec["verdict"] in ("pass", "fail")
            assert rec["provenance"] in ("numeric", "analytic")
            # the text report prints the fields in this order
            if section != "catalog_mnss":
                keys = list(rec)
                assert keys[0] == "check" and keys[-2:] == ["provenance", "verdict"], keys


def test_readme_threshold_table_names_each_check_of_a_default_report(default_report):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Each check's fixed threshold\n", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, re.M)
    checks = {rec["check"] for section, records in default_report.sections.items()
              if section != "catalog_mnss" for rec in records}
    assert len(checks) == 12
    assert sorted(rows) == sorted(checks | {"catalog_mnss"})


def test_report_json_is_plain(small_report):
    doc = json.loads(emit_report(small_report, "machine").decode())
    assert doc["schema_version"] == "mlechar-report-1"
    assert doc["seed"] == 123
    # every record value is a JSON scalar (infinities encoded as strings)
    for records in doc["sections"].values():
        for rec in records:
            for value in rec.values():
                assert isinstance(value, (str, int, float, bool)) or value is None


# --- the equivalence section in a forked child -------------------------------

TINY = SuiteConfig(families=(("gaussian", {}, ("location",)),),
                   equivalence=(("gaussian", {}, "location"),),
                   tilt_exponents=(2.0,), trials=2, sample_sizes=(3,), seed=1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raising(error):
    def section(*args):
        raise error
    return section


@pytest.fixture(params=["fork", "no_fork"])
def forking(request, monkeypatch):
    if request.param == "no_fork":
        monkeypatch.delattr(os, "fork")
    return request.param


def test_a_passing_suite_leaves_no_child():
    assert run_suite(TINY).passed
    assert_no_child_left()


def test_the_report_does_not_depend_on_forking(monkeypatch, small_report):
    monkeypatch.delattr(os, "fork")
    assert emit_report(run_suite(SMALL), "machine") == emit_report(small_report, "machine")


def test_an_error_of_the_equivalence_section_reaches_the_caller(monkeypatch, forking):
    monkeypatch.setattr(suite, "_section_equivalence",
                        raising(BracketFailure("no sign change within [-1, 1]")))
    with pytest.raises(BracketFailure, match=r"^no sign change within \[-1, 1\]$"):
        run_suite(TINY)
    assert_no_child_left()


@pytest.mark.parametrize("failing, expected", [
    # (sections that raise, the error the caller sees): the earliest section
    # in report order wins, as when the sections run one after another
    ({"_section_equivalence": BracketFailure("equivalence"),
      "_section_counterexample": NotMonotone("counterexample")}, BracketFailure),
    ({"_section_equivalence": BracketFailure("equivalence"),
      "_section_equivariance": NotMonotone("equivariance")}, BracketFailure),
    ({"_section_families": NotMonotone("families"),
      "_section_equivalence": BracketFailure("equivalence")}, NotMonotone),
    ({"_section_closed_form": NotMonotone("closed form")}, NotMonotone),
    ({"_section_families": NotMonotone("families")}, NotMonotone),
])
def test_the_earliest_failing_section_gives_the_error(monkeypatch, forking, failing, expected):
    for name, error in failing.items():
        monkeypatch.setattr(suite, name, raising(error))
    with pytest.raises(expected):
        run_suite(TINY)
    assert_no_child_left()


def test_an_interrupt_kills_and_reaps_the_child(monkeypatch):
    monkeypatch.setattr(suite, "_section_equivalence", lambda *args: time.sleep(60))
    monkeypatch.setattr(suite, "_section_counterexample", raising(KeyboardInterrupt()))
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suite(TINY)
    assert time.perf_counter() - start < 30.0
    assert_no_child_left()


def test_a_numeric_error_of_the_forked_section_exits_3(monkeypatch, tmp_path, capsys):
    from mlechar.cli import main
    monkeypatch.setattr(suite, "_section_equivalence", raising(BracketFailure("no root")))
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(TINY.to_jsonable()))
    assert main(["suite", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err == "numeric error: no root\n"
    assert_no_child_left()
