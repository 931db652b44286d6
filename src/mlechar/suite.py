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

Sections a and g come from one pass over the configured families, which
profiles the score image of each (family, kind) once.

Reports carry one record per check with a pass/fail verdict.  The machine
format is deterministic: an identical configuration (seed included) emits
byte-identical JSON.
"""

from __future__ import annotations

import json
import math
import operator
import time
import zlib
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from typing import Optional

import numpy as np

from . import catalog as cat
from .coverage import brute_force_projectable, is_projectable, mcss, mnss
from .density import (
    FULL_LINE,
    InverseCdfSampler,
    Sample,
    call_elementwise,
    distinct,
    effective_interval,
    probe_grid,
)
from .equivalence import same_class, tilt
from .errors import InvalidConfig, IoFailure, MlecharError
from .estimator import closed_form_estimator, mle, mle_block
from .forge import OddPower, forge_odd_h, verify_counterexample
from .score import LOCATION, SCALE, kind_profiles, kind_score, u1_vanishes_inside

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
        if not all(math.isfinite(d) and d > 0.0 for d in self.tilt_exponents):
            raise InvalidConfig("tilt exponents must be positive reals")
        if not (self.output_path is None or isinstance(self.output_path, str)):
            raise InvalidConfig(f"output path must be a string, got {self.output_path!r}")
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
        for name, params, kind_label in self.equivalence:
            try:
                entry = cat.lookup(name, params)
                kind = cat.kind_for(entry, kind_label)
                kind.check(entry.model.support)
            except MlecharError as exc:
                raise InvalidConfig(f"equivalence {name!r}/{kind_label}: {exc}") from exc
            if (u1_vanishes_inside(kind, entry.model.support)
                    and any(d != 1.0 for d in self.tilt_exponents)):
                raise InvalidConfig(
                    f"equivalence {name!r}/{kind_label}: the class is a singleton, "
                    "so every tilt exponent must be 1"
                )

    def to_jsonable(self) -> dict:
        doc: dict = {}
        for name, (group, _, write) in _FIELDS.items():
            (doc.setdefault(group, {}) if group else doc)[name] = write(getattr(self, name))
        return doc


def _same(value):
    return value


def _count(value) -> int:
    """A JSON number with an integral value, as an int: 3 and 3.0 pass;
    2.9, "3" and true do not."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or (isinstance(value, float) and value.is_integer())):
        raise InvalidConfig(f"trials, sample_sizes and seed take integers, got {value!r}")
    return int(value)


def _entries(value, kind_key: str):
    """The objects of a ``families`` or ``equivalence`` list, each holding
    no key but ``name``, ``params`` and ``kind_key``."""
    for entry in value:
        if not isinstance(entry, dict):
            raise InvalidConfig(f"a suite config entry must be a JSON object, got {entry!r}")
        unknown = sorted(set(entry) - {"name", "params", kind_key})
        if unknown:
            raise InvalidConfig(f"unknown key in suite config entry {entry.get('name')!r}: "
                                f"{', '.join(unknown)}")
    return value


#: each SuiteConfig field: its JSON group (None: the top level), the reader
#: of its JSON value and the writer of it
_FIELDS = {
    "families": (
        None,
        lambda v: tuple((f["name"], dict(f.get("params", {})), tuple(f.get("kinds", ())))
                        for f in _entries(v, "kinds")),
        lambda v: [{"name": n, "params": dict(p), "kinds": list(k)} for n, p, k in v],
    ),
    "equivalence": (
        None,
        lambda v: tuple((f["name"], dict(f.get("params", {})), f["kind"])
                        for f in _entries(v, "kind")),
        lambda v: [{"name": n, "params": dict(p), "kind": k} for n, p, k in v],
    ),
    "tilt_exponents": (None, lambda v: tuple(float(d) for d in v), list),
    "trials": (None, _count, _same),
    "sample_sizes": (None, lambda v: tuple(_count(n) for n in v), list),
    "seed": (None, _count, _same),
    "mle_tol": ("tolerances", float, _same),
    "score_tol": ("tolerances", float, _same),
    "agreement_tol": ("tolerances", float, _same),
    "output_path": (None, _same, _same),
}


def _json_keys(group) -> set:
    """The keys the JSON object of ``group`` may hold (None: the top level,
    where a group is one key)."""
    return {name if g == group else g for name, (g, _, _) in _FIELDS.items()
            if group is None or g == group}


def config_from_json(doc: dict) -> SuiteConfig:
    """Build a SuiteConfig from a parsed JSON document: missing keys default,
    unknown keys raise InvalidConfig."""
    if not isinstance(doc, dict):
        raise InvalidConfig("suite config must be a JSON object")
    objects = {None: doc, "tolerances": doc.get("tolerances", {})}
    if not isinstance(objects["tolerances"], dict):
        raise InvalidConfig("suite config tolerances must be a JSON object")
    for group, obj in objects.items():
        unknown = sorted(set(obj) - _json_keys(group))
        if unknown:
            where = f" under {group!r}" if group else ""
            raise InvalidConfig(f"unknown suite config key{where}: {', '.join(unknown)}")
    try:
        config = SuiteConfig(**{name: read(objects[group][name])
                                for name, (group, read, _) in _FIELDS.items()
                                if name in objects[group]})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"malformed suite config: {exc!r}") from exc
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
        """Every field but the volatile wall-clock time."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.compare}


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
        return SuiteReport(**json.loads(data.decode()))
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise IoFailure(f"unparseable report: {exc}") from exc


def _derive_seed(base: int, *labels) -> int:
    parts = [base & 0xFFFFFFFF]
    for lab in labels:
        if isinstance(lab, str):
            parts.append(zlib.crc32(lab.encode()))
        else:
            parts.append(int(lab) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _draw_rows(sampler: InverseCdfSampler, sizes, seed) -> list[np.ndarray]:
    """One sample per requested size, cut in order from a single seeded draw."""
    draw = sampler.rows(int(sum(sizes)), [seed])[0]
    return [draw[end - n:end] for n, end in zip(sizes, accumulate(sizes))]


def _worst(sampler: InverseCdfSampler, sizes, seed, deviation) -> float:
    """Largest ``deviation(rows)`` over the rows of one ``_draw_rows`` draw;
    a NaN deviation makes the result NaN."""
    return float(np.max(deviation(_draw_rows(sampler, sizes, seed))))


_RULES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq}


def _verdict(*checks) -> str:
    """``"pass"`` when every ``(value, rule, threshold)`` check holds, where
    ``rule`` is ``<``, ``<=``, ``>`` or ``==``; a NaN value fails every rule."""
    return "pass" if all(_RULES[rule](value, threshold)
                         for value, rule, threshold in checks) else "fail"


def build_profiles(entry, kind_label: str):
    """Score profiles for a catalog entry and kind (see ``kind_profiles``):
    one profile, or the (negative, positive) half-line pair for scale
    parameters of full-line families.  Kept for callers outside the package."""
    return kind_profiles(entry.model, cat.kind_for(entry, kind_label))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _section_equivalence(config: SuiteConfig, gaussian, forged) -> list[dict]:
    records = []
    for name, params, kind_label in config.equivalence:
        entry = cat.lookup(name, params)
        kind = cat.kind_for(entry, kind_label)
        model = entry.model
        sampler = InverseCdfSampler(model)
        for d in config.tilt_exponents:
            tilted = tilt(model, d, kind)
            d_hat = same_class(model, tilted, kind, tol=config.score_tol)

            # the trials of every size, drawn per size, solved as one set of rows
            rows = [row for size_i, n in enumerate(config.sample_sizes)
                    for row in _draw_rows(sampler, [n] * config.trials,
                                          _derive_seed(config.seed, "equivalence", name,
                                                       kind_label, int(d * 1000), size_i))]
            max_gap = float(np.max(np.abs(mle_block(model, kind, rows, config.mle_tol).theta
                                          - mle_block(tilted, kind, rows, config.mle_tol).theta)))
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
                "verdict": _verdict((math.inf if d_hat is None else abs(d_hat - d), "<", 1e-6),
                                    (max_gap, "<", config.agreement_tol)),
            })

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
            "verdict": _verdict((verdict_d, "==", None)),
        })
    return records


def _section_counterexample(config: SuiteConfig, gaussian, forged) -> list[dict]:
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
        "verdict": _verdict((rep2.agreement_fraction, "==", 1.0)),
    })

    witness = Sample(np.array([0.0, 0.0, 3.0]))
    tf = mle(gaussian, LOCATION, witness, config.mle_tol).theta_hat
    tg = mle(forged, LOCATION, witness, config.mle_tol).theta_hat
    expected_tg = 3.0 / (1.0 + 2.0 ** (1.0 / 3.0))
    records.append({
        "check": "witness_n3",
        "sample": "0,0,3",
        "theta_target": enc(tf),
        "theta_forged": enc(tg),
        "expected_forged": enc(expected_tg),
        "gap": enc(abs(tf - tg)),
        "provenance": "analytic",
        "verdict": _verdict((abs(tf - tg), ">", 0.3), (abs(tg - expected_tg), "<", 1e-6),
                            (abs(tf - 1.0), "<", 1e-9)),
    })

    rep3 = verify_counterexample(gaussian, forged, n=3, trials=config.trials,
                                 seed=_derive_seed(config.seed, "forge", 3),
                                 tol=1e-4)
    records.append({
        "check": "agreement_n3_random",
        "trials": rep3.trials,
        "agreement_fraction": rep3.agreement_fraction,
        "worst_sample": ",".join(f"{v:.6g}" for v in rep3.worst.sample)
        if rep3.worst else "none",
        "worst_gap": enc(rep3.worst.gap) if rep3.worst else "none",
        "no_simultaneous_agreement": not (rep2.agreement_fraction == 1.0
                                          and rep3.agreement_fraction == 1.0),
        "provenance": "numeric",
        # a fraction below 0.05 also rules out simultaneous agreement
        "verdict": _verdict((rep3.agreement_fraction, "<", 0.05)),
    })
    return records


def _section_projectability(config: SuiteConfig) -> list[dict]:
    cases = [(pm, pp, n) for pm in LATTICE for pp in LATTICE for n in range(2, 9)]
    mismatches = [f"({pm},{pp},n={n})" for pm, pp, n in cases
                  if is_projectable(pm, pp, n) != brute_force_projectable(pm, pp, n, grid=41)]
    records = [{
        "check": "lattice_oracle",
        "cases": len(cases),
        "agreements": len(cases) - len(mismatches),
        "mismatches": ";".join(mismatches) or "none",
        "provenance": "numeric",
        "verdict": _verdict((len(mismatches), "==", 0)),
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
            "verdict": _verdict((value, "==", expected)),
        })
    return records


def _configured(config: SuiteConfig, name: str, params: dict, kind_label: str) -> bool:
    """Whether a (family, params, kind) case is part of the configuration."""
    return any(fam_name == name and fam_params == params and kind_label in fam_kinds
               for fam_name, fam_params, fam_kinds in config.families)


def _section_closed_form(config: SuiteConfig) -> list[dict]:
    records = []
    sizes_cycle = [2 + (i % 11) for i in range(500)]
    for name, params, kind_label in CLOSED_FORM_CASES:
        if not _configured(config, name, params, kind_label):
            continue
        entry = cat.lookup(name, params)
        kind = cat.kind_for(entry, kind_label)

        estimate = closed_form_estimator(entry, kind)

        def deviation(rows):
            # one closed-form call per row length, on the block of those rows
            lengths = np.array([row.size for row in rows])
            closed = np.empty(lengths.size)
            for n in distinct(lengths):
                group = np.flatnonzero(lengths == n)
                closed[group] = estimate(np.array([rows[i] for i in group]))
            numeric = mle_block(entry.model, kind, rows, config.mle_tol).theta
            # rates compare relatively, locations absolutely
            return np.abs(closed - numeric) / (np.abs(numeric) if kind is SCALE else 1.0)

        worst = _worst(InverseCdfSampler(entry.model), sizes_cycle,
                       _derive_seed(config.seed, "closed_form", name, kind_label), deviation)
        records.append({
            "check": "closed_vs_numeric",
            "family": name,
            "kind": kind_label,
            "formula": entry.closed_form[kind_label],
            "samples": len(sizes_cycle),
            "max_deviation": enc(worst),
            "provenance": "numeric",
            "verdict": _verdict((worst, "<", 1e-8)),
        })
    return records


def _section_equivariance(config: SuiteConfig) -> list[dict]:
    records = []
    sizes_cycle = [3 + (i % 8) for i in range(200)]
    # (kind, cases, check, record key, group elements, seed label,
    #  action on the data, deviation of the moved estimate)
    plan = (
        (LOCATION, EQUIVARIANCE_LOCATION, "location_shift", "shifts", LOCATION_SHIFTS,
         "equivariance_loc", lambda v, s: v + s, lambda got, base, s: np.abs(got - base - s)),
        (SCALE, EQUIVARIANCE_SCALE, "scale_rescale", "factors", SCALE_FACTORS,
         "equivariance_scale", lambda v, lam: v * lam,
         lambda got, base, lam: np.abs(got * lam - base) / np.abs(base)),
    )
    for kind, cases, check, key, elements, seed_label, act, deviation in plan:
        for name, params in cases:
            if not _configured(config, name, params, kind.label):
                continue
            model = cat.lookup(name, params).model

            def moved(rows):
                # the base rows and each moved copy of them, solved as one set
                moves = [act(row, g) for g in elements for row in rows]
                thetas = mle_block(model, kind, rows + moves, config.mle_tol).theta
                base, *got = thetas.reshape(len(elements) + 1, len(rows))
                return [deviation(theta, base, g) for theta, g in zip(got, elements)]

            worst = _worst(InverseCdfSampler(model), sizes_cycle,
                           _derive_seed(config.seed, seed_label, name), moved)
            records.append({
                "check": check,
                "family": name,
                "samples": len(sizes_cycle),
                key: "/".join(str(g) for g in elements),
                "max_deviation": enc(worst),
                "provenance": "numeric",
                "verdict": _verdict((worst, "<", 1e-8)),
            })
    return records


def _crosscheck_grid(entry) -> np.ndarray:
    """201 interior probe points, kept inside the effective support so the
    finite-difference reference is not dominated by truncation/cancellation."""
    support = entry.model.support
    xs = probe_grid(support, effective_interval(entry.model, drop=60.0), 201, 8.0, 1e-2, 1e-3)
    # offset so the grid avoids 0 (kinked densities) and stays symmetric-ish
    return xs + 0.0137 if support.kind == FULL_LINE else xs


def _section_families(config: SuiteConfig) -> tuple[list[dict], list[dict]]:
    """The ``catalog_mnss`` and ``score_crosscheck`` records, from one score
    image per configured (family, kind): its MNSS and its image bounds are
    read off the same profiles."""
    mnss_records, score_records = [], []
    for name, params, kinds in config.families:
        entry = cat.lookup(name, params)
        model = entry.model
        # finite-difference-only clone: same log-density, no analytic derivative
        fd_model = replace(model, name=model.name + "~fd", dlog_pdf=None,
                           params=dict(model.params))
        bound_records = []
        for kind_label in kinds:
            kind = cat.kind_for(entry, kind_label)
            profiles = kind_profiles(model, kind)
            computed = mnss(profiles, kind)
            expected = entry.expected[kind_label]
            mnss_records.append({
                "family": name,
                "params": json.dumps(params, sort_keys=True),
                "kind": kind_label,
                "bounds": " ".join(
                    f"({enc(p.p_minus)},{enc(p.p_plus)})@{p.domain}" for p in profiles
                ),
                "provenance": profiles[0].provenance,
                "mcss": enc(max(mcss(p.p_minus, p.p_plus).value for p in profiles)),
                "mnss": enc(computed.value),
                "expected_mnss": enc(expected),
                "needs_scale_identification": entry.needs_scale_identification,
                "match": computed.value == expected,
                "verdict": _verdict((computed.value, "==", expected)),
            })

            analytic = entry.analytic_scores.get(kind_label)
            if analytic is not None:
                xs = _crosscheck_grid(entry)
                worst = float(np.max(np.abs(kind_score(fd_model, kind, xs)
                                            - call_elementwise(analytic, xs))))
                score_records.append({
                    "check": "fd_vs_analytic_score",
                    "family": name,
                    "kind": kind_label,
                    "grid": len(xs),
                    "max_deviation": enc(worst),
                    "provenance": "numeric",
                    "verdict": _verdict((worst, "<", config.score_tol)),
                })

            bounds = entry.analytic_bounds.get(kind_label)
            if bounds is not None:
                # an infinite bound is matched exactly, a finite one to 1e-3 relative
                checks = [(est, "==", ref) if math.isinf(ref)
                          else (abs(est - ref), "<=", 1e-3 * abs(ref))
                          for p in profiles
                          for est, ref in ((p.p_minus, bounds[0]), (p.p_plus, bounds[1]))]
                bound_records.append({
                    "check": "numeric_vs_analytic_bounds",
                    "family": name,
                    "kind": kind_label,
                    "numeric": " ".join(f"({enc(p.p_minus)},{enc(p.p_plus)})" for p in profiles),
                    "analytic": f"({enc(bounds[0])},{enc(bounds[1])})",
                    "provenance": "numeric",
                    "verdict": _verdict(*checks),
                })
        # a family's bound checks follow its score checks
        score_records += bound_records
    return mnss_records, score_records


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute all verification sections and assemble the report."""
    config.validate()
    start = time.perf_counter()

    gaussian = cat.lookup("gaussian").model
    forged = forge_odd_h(gaussian, OddPower(1.0, 3))

    catalog_mnss, score_crosscheck = _section_families(config)
    sections = {
        "catalog_mnss": catalog_mnss,
        "equivalence": _section_equivalence(config, gaussian, forged),
        "counterexample": _section_counterexample(config, gaussian, forged),
        "projectability": _section_projectability(config),
        "closed_form": _section_closed_form(config),
        "equivariance": _section_equivariance(config),
        "score_crosscheck": score_crosscheck,
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
