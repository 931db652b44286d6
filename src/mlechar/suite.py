"""Verification-suite runner and report emission.

``run_suite`` executes the full battery of checks against the catalog and the
numeric pipeline:

a. catalog MNSS cross-validation (numeric image analysis vs recorded values),
b. equivalence-class shared-MLE trials with tilt exponents, plus score-ratio
   class discrimination,
c. forged-counterexample behavior at sample sizes 2 and 3,
d. the projectability lattice (covering rule vs enumeration oracle),
e. closed-form vs bracketed-root MLE agreement,
f. location/scale equivariance of the estimators,
g. analytic vs finite-difference score cross-checks and image-bound agreement.

Reports carry one record per check with a pass/fail verdict.  The machine
format is deterministic: an identical configuration (seed included) emits
byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import time
import zlib
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import catalog as cat
from .coverage import brute_force_projectable, is_projectable, mcss, mnss
from .density import FULL_LINE, DensityModel, Sample, effective_interval, probe_grid, sample_from
from .equivalence import same_class, tilt
from .errors import InvalidConfig, IoFailure, MlecharError
from .estimator import closed_form_mle, mle, mle_location
from .forge import OddPower, forge_odd_h, verify_counterexample
from .score import DEFAULT_PROBE, LOCATION, SCALE, ProbeConfig, kind_profiles, kind_score

SCHEMA_VERSION = "mlechar-report-1"

LATTICE = (0.5, 1.0, 1.5, 2.0, 3.0)
TILT_EXPONENTS = (0.5, 2.0, 5.0)

DEFAULT_FAMILIES = (
    ("gaussian", {}, ("location", "scale")),
    ("gamma", {"alpha": 0.5}, ("scale",)),
    ("gamma", {"alpha": 1.0}, ("scale",)),
    ("gamma", {"alpha": 2.0}, ("scale",)),
    ("gamma", {"alpha": 5.0}, ("scale",)),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0}, ("location", "scale")),
    ("laplace", {}, ("scale",)),
    ("weibull", {"k": 0.5}, ("scale",)),
    ("weibull", {"k": 1.0}, ("scale",)),
    ("weibull", {"k": 2.0}, ("scale",)),
    ("weibull", {"k": 3.0}, ("scale",)),
    ("gumbel", {}, ("location", "scale")),
    ("student", {"nu": 0.5}, ("scale",)),
    ("student", {"nu": 1.0}, ("scale",)),
    ("student", {"nu": 2.0}, ("scale",)),
    ("student", {"nu": 3.0}, ("scale",)),
    ("student", {"nu": 5.0}, ("scale",)),
    ("logistic", {}, ("location", "scale")),
    ("sinh_arcsinh_skew_normal", {}, ("group",)),
)

DEFAULT_EQUIVALENCE = (
    ("gaussian", {}, "location"),
    ("logistic", {}, "location"),
    ("gumbel", {}, "location"),
    ("gamma", {"alpha": 2.0}, "scale"),
    ("weibull", {"k": 2.0}, "scale"),
    ("sinh_arcsinh_skew_normal", {}, "group"),
)

# families exercised by the sampling-based sections (closed forms and
# equivariance); shapes chosen free of boundary singularities
CLOSED_FORM_CASES = (
    ("gaussian", {}, "location"),
    ("gaussian", {}, "scale"),
    ("gamma", {"alpha": 2.0}, "scale"),
    ("laplace", {}, "scale"),
    ("weibull", {"k": 2.0}, "scale"),
    ("gumbel", {}, "location"),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0}, "location"),
)

EQUIVARIANCE_LOCATION = (
    ("gaussian", {}),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0}),
    ("gumbel", {}),
    ("logistic", {}),
)
EQUIVARIANCE_SCALE = (
    ("gaussian", {}),
    ("gamma", {"alpha": 2.0}),
    ("laplace", {}),
    ("weibull", {"k": 2.0}),
    ("student", {"nu": 2.0}),
    ("logistic", {}),
    ("gumbel", {}),
)

LOCATION_SHIFTS = (-5.0, 1.0, 10.0)
SCALE_FACTORS = (0.5, 2.0, 10.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    families: tuple = DEFAULT_FAMILIES
    equivalence: tuple = DEFAULT_EQUIVALENCE
    tilt_exponents: tuple = TILT_EXPONENTS
    trials: int = 200
    sample_sizes: tuple = (3, 5, 8)
    seed: int = 42
    mle_tol: float = 1e-10
    score_tol: float = 1e-6
    agreement_tol: float = 1e-7
    output_path: Optional[str] = None

    def validate(self) -> None:
        if self.trials < 1:
            raise InvalidConfig(f"trials must be >= 1, got {self.trials}")
        if not self.sample_sizes or any(n < 1 for n in self.sample_sizes):
            raise InvalidConfig(f"sample sizes must be >= 1, got {self.sample_sizes}")
        for tol in (self.mle_tol, self.score_tol, self.agreement_tol):
            if not (tol > 0.0):
                raise InvalidConfig(f"tolerances must be > 0, got {tol}")
        if any(d <= 0.0 for d in self.tilt_exponents):
            raise InvalidConfig("tilt exponents must be positive")
        for name, params, kinds in self.families:
            try:
                entry = cat.lookup(name, params)
            except MlecharError as exc:
                raise InvalidConfig(f"family {name!r}: {exc}") from exc
            for kind in kinds:
                if kind not in ("location", "scale", "group"):
                    raise InvalidConfig(f"unknown kind {kind!r} for {name}")
                if kind not in entry.characterizable_kinds:
                    raise InvalidConfig(
                        f"{name}/{kind} is not characterizable; "
                        f"reason: {entry.blocked.get(kind, 'unknown')}"
                    )

    def to_jsonable(self) -> dict:
        return {
            "families": [
                {"name": n, "params": dict(p), "kinds": list(k)}
                for n, p, k in self.families
            ],
            "equivalence": [
                {"name": n, "params": dict(p), "kind": k}
                for n, p, k in self.equivalence
            ],
            "tilt_exponents": list(self.tilt_exponents),
            "trials": self.trials,
            "sample_sizes": list(self.sample_sizes),
            "seed": self.seed,
            "tolerances": {
                "mle_tol": self.mle_tol,
                "score_tol": self.score_tol,
                "agreement_tol": self.agreement_tol,
            },
            "output_path": self.output_path,
        }


def config_from_json(doc: dict) -> SuiteConfig:
    """Build a SuiteConfig from a parsed JSON document (missing keys default)."""
    if not isinstance(doc, dict):
        raise InvalidConfig("suite config must be a JSON object")
    kwargs: dict = {}
    if "families" in doc:
        kwargs["families"] = tuple(
            (f["name"], dict(f.get("params", {})), tuple(f.get("kinds", ())))
            for f in doc["families"]
        )
    if "equivalence" in doc:
        kwargs["equivalence"] = tuple(
            (f["name"], dict(f.get("params", {})), f["kind"])
            for f in doc["equivalence"]
        )
    if "tilt_exponents" in doc:
        kwargs["tilt_exponents"] = tuple(float(d) for d in doc["tilt_exponents"])
    for key in ("trials", "seed"):
        if key in doc:
            kwargs[key] = int(doc[key])
    if "sample_sizes" in doc:
        kwargs["sample_sizes"] = tuple(int(n) for n in doc["sample_sizes"])
    tols = doc.get("tolerances", {})
    for key in ("mle_tol", "score_tol", "agreement_tol"):
        if key in tols:
            kwargs[key] = float(tols[key])
    if "output_path" in doc:
        kwargs["output_path"] = doc["output_path"]
    config = SuiteConfig(**kwargs)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def enc(value):
    """JSON-safe scalar: infinities map to 'inf', numpy scalars to float."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    v = float(value)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


@dataclass(frozen=True)
class SuiteReport:
    schema_version: str
    seed: int
    config: dict
    sections: dict
    verdicts: dict
    passed: bool
    wall_clock_s: float = field(default=0.0, compare=False)

    def payload(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "config": self.config,
            "sections": self.sections,
            "verdicts": self.verdicts,
            "passed": self.passed,
        }


def emit_report(report: SuiteReport, format: str = "machine") -> bytes:
    """Serialize a report: deterministic JSON, or a human-readable table.

    Wall-clock time is volatile and deliberately excluded from the machine
    format so identical configurations emit byte-identical documents.
    """
    if format == "machine":
        return (json.dumps(report.payload(), sort_keys=True, indent=2) + "\n").encode()
    if format != "text":
        raise IoFailure(f"unknown report format {format!r}")
    lines = [
        f"verification report (schema {report.schema_version}, seed {report.seed})",
        f"overall: {'PASS' if report.passed else 'FAIL'}"
        + (f"  [{report.wall_clock_s:.1f}s]" if report.wall_clock_s else ""),
    ]
    for section, records in report.sections.items():
        verdict = report.verdicts[section]
        lines.append(f"-- {section}: {verdict.upper()} ({len(records)} records)")
        for rec in records:
            flat = " ".join(
                f"{k}={v}" for k, v in rec.items() if k not in ("verdict",)
            )
            lines.append(f"   [{rec['verdict'].upper()}] {flat}")
    return ("\n".join(lines) + "\n").encode()


def parse_report(data: bytes) -> SuiteReport:
    """Parse a machine report back into a SuiteReport (round-trip inverse)."""
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IoFailure(f"unparseable report: {exc}") from exc
    return SuiteReport(
        schema_version=doc["schema_version"],
        seed=doc["seed"],
        config=doc["config"],
        sections=doc["sections"],
        verdicts=doc["verdicts"],
        passed=doc["passed"],
    )


def _derive_seed(base: int, *labels) -> int:
    parts = [base & 0xFFFFFFFF]
    for lab in labels:
        if isinstance(lab, str):
            parts.append(zlib.crc32(lab.encode()))
        else:
            parts.append(int(lab) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _draw_blocks(model, sizes, seed) -> list[Sample]:
    """One sample per requested size, cut from a single seeded draw."""
    total = int(sum(sizes))
    block = sample_from(model, total, seed).values
    out, pos = [], 0
    for n in sizes:
        out.append(Sample(block[pos:pos + n]))
        pos += n
    return out


def build_profiles(entry, kind_label: str, probe: ProbeConfig = DEFAULT_PROBE,
                   analytic: bool = False):
    """Score profile(s) for a catalog entry and kind.

    Returns a single profile, or the (negative, positive) half-line pair for
    scale parameters of full-line families.  ``analytic`` switches the image
    bounds to the recorded catalog values instead of numeric estimation.
    """
    bounds = entry.analytic_bounds.get(kind_label) if analytic else None
    return kind_profiles(entry.model, cat.kind_for(entry, kind_label), probe, bounds)


def _mnss_match(computed, expected_value) -> bool:
    if math.isinf(expected_value):
        return not computed.is_finite
    return computed.is_finite and int(computed.value) == int(expected_value)


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _section_catalog_mnss(config: SuiteConfig) -> list[dict]:
    records = []
    for name, params, kinds in config.families:
        entry = cat.lookup(name, params)
        for kind_label in kinds:
            profiles = build_profiles(entry, kind_label)
            computed = mnss(profiles, cat.kind_for(entry, kind_label))
            expected = entry.expected[kind_label]
            match = _mnss_match(computed, expected)
            prof_list = profiles if isinstance(profiles, tuple) else (profiles,)
            rec = {
                "family": name,
                "params": json.dumps(params, sort_keys=True),
                "kind": kind_label,
                "bounds": " ".join(
                    f"({enc(p.p_minus)},{enc(p.p_plus)})@{p.domain}" for p in prof_list
                ),
                "provenance": prof_list[0].bounds_provenance.method,
                "mcss": enc(max(mcss(p.p_minus, p.p_plus).value for p in prof_list)),
                "mnss": enc(computed.value),
                "expected_mnss": enc(expected),
                "needs_scale_identification": entry.needs_scale_identification,
                "match": match,
                "verdict": "pass" if match else "fail",
            }
            records.append(rec)
    return records


def _section_equivalence(config: SuiteConfig, forged) -> list[dict]:
    records = []
    for name, params, kind_label in config.equivalence:
        entry = cat.lookup(name, params)
        kind = cat.kind_for(entry, kind_label)
        model = entry.model
        for d in config.tilt_exponents:
            tilted = tilt(model, d, kind)
            d_hat = same_class(model, tilted, kind, tol=config.score_tol)
            d_ok = d_hat is not None and abs(d_hat - d) < 1e-6
            max_gap = 0.0
            for size_i, n in enumerate(config.sample_sizes):
                seed = _derive_seed(config.seed, "equivalence", name, kind_label,
                                    int(d * 1000), size_i)
                sizes = [n] * config.trials
                for sample in _draw_blocks(model, sizes, seed):
                    tf = mle(model, kind, sample, config.mle_tol).theta_hat
                    tg = mle(tilted, kind, sample, config.mle_tol).theta_hat
                    max_gap = max(max_gap, abs(tf - tg))
            ok = d_ok and max_gap < config.agreement_tol
            records.append({
                "check": "shared_mle",
                "family": name,
                "kind": kind_label,
                "d": d,
                "trials_per_size": config.trials,
                "sizes": "/".join(str(n) for n in config.sample_sizes),
                "max_gap": enc(max_gap),
                "d_recovered": enc(d_hat) if d_hat is not None else "none",
                "provenance": "numeric",
                "verdict": "pass" if ok else "fail",
            })

    gaussian = cat.lookup("gaussian").model
    logistic = cat.lookup("logistic").model
    for label, other in (("gaussian_vs_logistic", logistic),
                         ("gaussian_vs_quartic_forge", forged)):
        verdict_d = same_class(gaussian, other, LOCATION, tol=config.score_tol)
        records.append({
            "check": "class_discrimination",
            "pair": label,
            "kind": "location",
            "d_recovered": enc(verdict_d) if verdict_d is not None else "distinct",
            "provenance": "numeric",
            "verdict": "pass" if verdict_d is None else "fail",
        })
    return records


def _section_counterexample(config: SuiteConfig, forged) -> list[dict]:
    gaussian = cat.lookup("gaussian").model
    records = []

    rep2 = verify_counterexample(gaussian, forged, n=2, trials=config.trials,
                                 seed=_derive_seed(config.seed, "forge", 2),
                                 tol=config.agreement_tol)
    records.append({
        "check": "agreement_n2",
        "trials": rep2.trials,
        "agreement_fraction": rep2.agreement_fraction,
        "worst_gap": enc(rep2.worst.gap) if rep2.worst else "none",
        "provenance": "numeric",
        "verdict": "pass" if rep2.agreement_fraction == 1.0 else "fail",
    })

    witness = Sample(np.array([0.0, 0.0, 3.0]))
    tf = mle_location(gaussian, witness, config.mle_tol).theta_hat
    tg = mle_location(forged, witness, config.mle_tol).theta_hat
    expected_tg = 3.0 / (1.0 + 2.0 ** (1.0 / 3.0))
    gap_ok = abs(tf - tg) > 0.3 and abs(tg - expected_tg) < 1e-6 and abs(tf - 1.0) < 1e-9
    records.append({
        "check": "witness_n3",
        "sample": "0,0,3",
        "theta_target": enc(tf),
        "theta_forged": enc(tg),
        "expected_forged": enc(expected_tg),
        "gap": enc(abs(tf - tg)),
        "provenance": "analytic",
        "verdict": "pass" if gap_ok else "fail",
    })

    rep3 = verify_counterexample(gaussian, forged, n=3, trials=config.trials,
                                 seed=_derive_seed(config.seed, "forge", 3),
                                 tol=1e-4)
    simultaneous = rep2.agreement_fraction == 1.0 and rep3.agreement_fraction == 1.0
    records.append({
        "check": "agreement_n3_random",
        "trials": rep3.trials,
        "agreement_fraction": rep3.agreement_fraction,
        "worst_sample": ",".join(f"{v:.6g}" for v in rep3.worst.sample)
        if rep3.worst else "none",
        "worst_gap": enc(rep3.worst.gap) if rep3.worst else "none",
        "no_simultaneous_agreement": not simultaneous,
        "provenance": "numeric",
        "verdict": "pass" if rep3.agreement_fraction < 0.05 and not simultaneous else "fail",
    })
    return records


def _section_projectability(config: SuiteConfig) -> list[dict]:
    agree = 0
    total = 0
    mismatches = []
    for pm in LATTICE:
        for pp in LATTICE:
            for n in range(2, 9):
                total += 1
                formula = is_projectable(pm, pp, n)
                oracle = brute_force_projectable(pm, pp, n, grid=41)
                if formula == oracle:
                    agree += 1
                else:
                    mismatches.append(f"({pm},{pp},n={n})")
    lattice_ok = agree == total
    records = [{
        "check": "lattice_oracle",
        "cases": total,
        "agreements": agree,
        "mismatches": ";".join(mismatches) or "none",
        "provenance": "numeric",
        "verdict": "pass" if lattice_ok else "fail",
    }]
    for (pm, pp), expected in (((1.0, 3.0), 4), ((1.0, 1.0), 2)):
        value = mcss(pm, pp).value
        records.append({
            "check": "mcss_example",
            "p_minus": pm,
            "p_plus": pp,
            "mcss": enc(value),
            "expected": expected,
            "provenance": "analytic",
            "verdict": "pass" if value == expected else "fail",
        })
    return records


def _configured(config: SuiteConfig, name: str, params: dict,
                kind_label: Optional[str] = None) -> bool:
    """Whether a (family, params[, kind]) case is part of the configuration."""
    for fam_name, fam_params, fam_kinds in config.families:
        if fam_name == name and fam_params == params:
            if kind_label is None or kind_label in fam_kinds:
                return True
    return False


def _section_closed_form(config: SuiteConfig, n_samples: int = 500) -> list[dict]:
    records = []
    sizes_cycle = [2 + (i % 11) for i in range(n_samples)]
    for name, params, kind_label in CLOSED_FORM_CASES:
        if not _configured(config, name, params, kind_label):
            continue
        entry = cat.lookup(name, params)
        kind = cat.kind_for(entry, kind_label)
        seed = _derive_seed(config.seed, "closed_form", name, kind_label)
        worst = 0.0
        for sample in _draw_blocks(entry.model, sizes_cycle, seed):
            closed = closed_form_mle(entry, kind, sample).theta_hat
            numeric = mle(entry.model, kind, sample, config.mle_tol).theta_hat
            # rates compare relatively, locations absolutely
            dev = abs(closed - numeric) / (abs(numeric) if kind is SCALE else 1.0)
            worst = max(worst, dev)
        ok = worst < 1e-8
        records.append({
            "check": "closed_vs_numeric",
            "family": name,
            "kind": kind_label,
            "formula": entry.closed_form[kind_label],
            "samples": n_samples,
            "max_deviation": enc(worst),
            "provenance": "numeric",
            "verdict": "pass" if ok else "fail",
        })
    return records


def _section_equivariance(config: SuiteConfig, n_samples: int = 200) -> list[dict]:
    records = []
    sizes_cycle = [3 + (i % 8) for i in range(n_samples)]
    # (kind, cases, check, record key, group elements, seed label,
    #  action on the data, deviation of the moved estimate)
    plan = (
        (LOCATION, EQUIVARIANCE_LOCATION, "location_shift", "shifts", LOCATION_SHIFTS,
         "equivariance_loc", lambda v, s: v + s, lambda got, base, s: abs(got - base - s)),
        (SCALE, EQUIVARIANCE_SCALE, "scale_rescale", "factors", SCALE_FACTORS,
         "equivariance_scale", lambda v, lam: v * lam,
         lambda got, base, lam: abs(got * lam - base) / abs(base)),
    )
    for kind, cases, check, key, elements, seed_label, act, deviation in plan:
        for name, params in cases:
            if not _configured(config, name, params, kind.label):
                continue
            model = cat.lookup(name, params).model
            worst = 0.0
            for sample in _draw_blocks(model, sizes_cycle,
                                       _derive_seed(config.seed, seed_label, name)):
                base = mle(model, kind, sample, config.mle_tol).theta_hat
                for g in elements:
                    got = mle(model, kind, Sample(act(sample.values, g)),
                              config.mle_tol).theta_hat
                    worst = max(worst, deviation(got, base, g))
            records.append({
                "check": check,
                "family": name,
                "samples": n_samples,
                key: "/".join(str(g) for g in elements),
                "max_deviation": enc(worst),
                "provenance": "numeric",
                "verdict": "pass" if worst < 1e-8 else "fail",
            })
    return records


def _crosscheck_grid(entry) -> np.ndarray:
    """201 interior probe points, kept inside the effective support so the
    finite-difference reference is not dominated by truncation/cancellation."""
    support = entry.model.support
    xs = probe_grid(support, effective_interval(entry.model, drop=60.0), 201, 8.0, 1e-2, 1e-3)
    # offset so the grid avoids 0 (kinked densities) and stays symmetric-ish
    return xs + 0.0137 if support.kind == FULL_LINE else xs


def _section_score_crosscheck(config: SuiteConfig) -> list[dict]:
    records = []
    for name, params, kinds in config.families:
        entry = cat.lookup(name, params)
        model = entry.model
        # finite-difference-only clone: same log-density, no analytic derivative
        fd_model = DensityModel(
            name=model.name + "~fd",
            support=model.support,
            log_pdf=model.log_pdf,
            dlog_pdf=None,
            params=dict(model.params),
        )
        for kind_label in kinds:
            analytic = entry.analytic_scores.get(kind_label)
            if analytic is None:
                continue
            kind = cat.kind_for(entry, kind_label)
            xs = _crosscheck_grid(entry)
            worst = 0.0
            for x in xs:
                x = float(x)
                worst = max(worst, abs(kind_score(fd_model, kind, x) - float(analytic(x))))
            score_ok = worst < config.score_tol
            records.append({
                "check": "fd_vs_analytic_score",
                "family": name,
                "kind": kind_label,
                "grid": len(xs),
                "max_deviation": enc(worst),
                "provenance": "numeric",
                "verdict": "pass" if score_ok else "fail",
            })

        for kind_label in kinds:
            bounds = entry.analytic_bounds.get(kind_label)
            if bounds is None:
                continue
            profiles = build_profiles(entry, kind_label)
            prof_list = profiles if isinstance(profiles, tuple) else (profiles,)
            ok = True
            details = []
            for prof in prof_list:
                for est, ref in ((prof.p_minus, bounds[0]), (prof.p_plus, bounds[1])):
                    if math.isinf(ref):
                        ok = ok and math.isinf(est)
                    else:
                        ok = ok and math.isfinite(est) and abs(est - ref) <= 1e-3 * abs(ref)
                details.append(f"({enc(prof.p_minus)},{enc(prof.p_plus)})")
            records.append({
                "check": "numeric_vs_analytic_bounds",
                "family": name,
                "kind": kind_label,
                "numeric": " ".join(details),
                "analytic": f"({enc(bounds[0])},{enc(bounds[1])})",
                "provenance": "numeric",
                "verdict": "pass" if ok else "fail",
            })
    return records


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute all verification sections and assemble the report."""
    config.validate()
    start = time.perf_counter()

    gaussian = cat.lookup("gaussian").model
    forged = forge_odd_h(gaussian, OddPower(1.0, 3))

    sections = {
        "catalog_mnss": _section_catalog_mnss(config),
        "equivalence": _section_equivalence(config, forged),
        "counterexample": _section_counterexample(config, forged),
        "projectability": _section_projectability(config),
        "closed_form": _section_closed_form(config),
        "equivariance": _section_equivariance(config),
        "score_crosscheck": _section_score_crosscheck(config),
    }
    verdicts = {
        name: "pass" if all(r["verdict"] == "pass" for r in records) else "fail"
        for name, records in sections.items()
    }
    passed = all(v == "pass" for v in verdicts.values())
    report = SuiteReport(
        schema_version=SCHEMA_VERSION,
        seed=config.seed,
        config=config.to_jsonable(),
        sections=sections,
        verdicts=verdicts,
        passed=passed,
        wall_clock_s=time.perf_counter() - start,
    )
    if config.output_path:
        try:
            with open(config.output_path, "wb") as fh:
                fh.write(emit_report(report, "machine"))
        except OSError as exc:
            raise IoFailure(f"cannot write report to {config.output_path}: {exc}") from exc
    return report
