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
profiles the score image of each (family, kind) once.  Section b, the
longest, runs in a forked child beside the others where ``os.fork`` exists,
and in-process when its records are asked for where it does not; the
sections share no state and each is seeded on its own, so the report does
not depend on it.

Reports carry one record per check with a pass/fail verdict.  The machine
format is deterministic: an identical configuration (seed included) emits
byte-identical JSON for one numpy build on one SIMD dispatch path, and the
same verdicts and non-numeric fields on every path.
"""

from __future__ import annotations

import json
import math
import operator
import os
import pickle
import signal
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import catalog as cat
from .coverage import brute_force_projectable, is_projectable, mcss, mnss
from .density import (
    FULL_LINE,
    MAX_COUNT,
    InverseCdfSampler,
    Rows,
    call_elementwise,
    compact_grid,
    effective_interval,
    integer,
    length_blocks,
    real,
)
from .equivalence import same_class, tilt
from .errors import InvalidConfig, InvalidParams, IoFailure, MlecharError
from .estimator import mle_block
from .forge import AGREEMENT_TOL, OddPower, forge_odd_h, verify_counterexample
from .score import LOCATION, SCALE, kind_profiles, kind_score, u1_zeros

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
    """The workload of a suite run: the families, the equivalence cases, the
    tilt exponents, the trials, the sample sizes and the seed.

    It chooses what the suite checks, not how a check is judged: each
    check's threshold is fixed beside the check, and none is configurable.
    """

    families: tuple = DEFAULT_FAMILIES
    equivalence: tuple = DEFAULT_EQUIVALENCE
    tilt_exponents: tuple = TILT_EXPONENTS
    trials: int = 200
    sample_sizes: tuple = (3, 5, 8)
    seed: int = 42

    def validate(self) -> SuiteConfig:
        """This configuration read back from its JSON form (see
        ``config_from_json``), as ``run_suite`` runs it.  A field whose
        Python shape has no JSON form raises InvalidConfig as well."""
        try:
            doc = self.to_jsonable()
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"malformed suite config: {exc!r}") from exc
        return config_from_json(doc)

    def to_jsonable(self) -> dict:
        return {name: write(getattr(self, name)) for name, (_, write) in _FIELDS.items()}


def _same(value):
    return value


def _count(value, what: str, low: int = 1, high: int = MAX_COUNT) -> int:
    """A JSON number with an integral value, as an int: 3 and 3.0 pass; 2.9,
    "3" and true do not, nor a value above MAX_COUNT, the most values an
    array holds.  The count named by ``what`` must also lie in [low, high]."""
    try:
        # JSON spells 3 as 3.0 too
        count = integer(int(value) if isinstance(value, float) and value.is_integer() else value)
    except InvalidParams as exc:
        raise InvalidConfig(f"trials, sample_sizes and seed take integers, got {value!r}") from exc
    if count > MAX_COUNT:
        raise InvalidConfig(f"trials, sample_sizes and seed must be <= {MAX_COUNT}, got {value}")
    if count > high:
        raise InvalidConfig(f"{what} must be <= {high}, got {count}")
    if count < low:
        raise InvalidConfig(f"{what} must be >= {low}, got {count}")
    return int(count)


def _tilt_exponents(value) -> tuple:
    try:
        exponents = tuple(map(real, value))
        admitted = all(math.isfinite(d) and d > 0.0 for d in exponents)
    except InvalidParams:
        admitted = False
    if not admitted:
        raise InvalidConfig("tilt exponents must be positive reals")
    return exponents


def _entries(value, kind_key: str, default):
    """``(name, params, kind)`` of each object of a ``families`` or
    ``equivalence`` list, which holds no key but ``name``, ``params`` and
    ``kind_key`` (``default`` when it is missing)."""
    for entry in value:
        if not isinstance(entry, dict):
            raise InvalidConfig(f"a suite config entry must be a JSON object, got {entry!r}")
        unknown = sorted(set(entry) - {"name", "params", kind_key})
        if unknown:
            raise InvalidConfig(f"unknown key in suite config entry {entry.get('name')!r}: "
                                f"{', '.join(unknown)}")
        yield entry["name"], dict(entry.get("params", {})), entry.get(kind_key, default)


def _families(value):
    """The ``families`` cases: catalog families with kinds the results
    characterize."""
    for name, params, kinds in _entries(value, "kinds", []):
        try:
            entry = cat.lookup(name, params)
        except MlecharError as exc:
            raise InvalidConfig(f"family {name!r}: {exc}") from exc
        if not isinstance(kinds, list):
            raise InvalidConfig(f"kinds of family {name!r} must be a JSON list, got {kinds!r}")
        for kind in kinds:
            if kind not in ("location", "scale", "group"):
                raise InvalidConfig(f"unknown kind {kind!r} for {name}")
            if kind not in entry.characterizable_kinds:
                raise InvalidConfig(f"{name}/{kind} is not characterizable; "
                                    f"reason: {entry.blocked.get(kind, 'unknown')}")
        yield name, params, tuple(kinds)


def _equivalence(value):
    """The ``equivalence`` cases: catalog families with kinds that admit
    their support."""
    for name, params, label in _entries(value, "kind", None):
        try:
            entry = cat.lookup(name, params)
            kind = cat.kind_for(entry, label)
            kind.check(entry.model.support)
        except MlecharError as exc:
            raise InvalidConfig(f"equivalence {name!r}/{label}: {exc}") from exc
        yield name, params, label


#: each SuiteConfig field: the reader of its JSON value, which checks all
#: the field's rules, and the writer of it
_FIELDS = {
    "families": (lambda v: tuple(_families(v)), lambda v: [
        {"name": n, "params": dict(p), "kinds": list(k) if isinstance(k, tuple) else k}
        for n, p, k in v]),
    "equivalence": (lambda v: tuple(_equivalence(v)), lambda v: [
        {"name": n, "params": dict(p), "kind": k} for n, p, k in v]),
    "tilt_exponents": (_tilt_exponents, list),
    "trials": (lambda v: _count(v, "trials"), _same),
    # an empty list reads as [0], so it is refused
    "sample_sizes": (lambda v: tuple(_count(n, "sample sizes") for n in v or [0]), list),
    # _derive_seed keeps 32 bits of each label, so a seed outside [0, 2**32 - 1]
    # would run the sections of one inside
    "seed": (lambda v: _count(v, "seed", 0, 0xFFFFFFFF), _same),
}


def config_from_json(doc: dict) -> SuiteConfig:
    """Build a SuiteConfig from a parsed JSON document: missing keys take the
    default, unknown keys and values outside their field's contract raise
    InvalidConfig."""
    if not isinstance(doc, dict):
        raise InvalidConfig("suite config must be a JSON object")
    unknown = sorted(set(doc) - set(_FIELDS))
    if unknown:
        raise InvalidConfig(f"unknown suite config key: {', '.join(unknown)}")
    # every field is read, a missing one from its default's JSON value
    values = {**SuiteConfig().to_jsonable(), **doc}
    try:
        config = SuiteConfig(**{name: read(values[name]) for name, (read, _) in _FIELDS.items()})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"malformed suite config: {exc!r}") from exc
    # the one rule that spans two fields
    if any(d != 1.0 for d in config.tilt_exponents):
        for name, params, label in config.equivalence:
            entry = cat.lookup(name, params)
            if u1_zeros(cat.kind_for(entry, label), entry.model.support):
                raise InvalidConfig(f"equivalence {name!r}/{label}: the class is a "
                                    "singleton, so every tilt exponent must be 1")
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
            flat = " ".join(f"{k}={v}" for k, v in rec.items() if k != "verdict")
            lines.append(f"   [{rec['verdict'].upper()}] {flat}")
    return ("\n".join(lines) + "\n").encode()


def parse_report(data: bytes) -> SuiteReport:
    """Parse a machine report back into a SuiteReport (round-trip inverse)."""
    try:
        return SuiteReport(**json.loads(data.decode()))
    except (UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise IoFailure(f"unparseable report: {exc}") from exc


def _derive_seed(base: int, *labels) -> int:
    parts = [zlib.crc32(lab.encode()) if isinstance(lab, str) else int(lab) & 0xFFFFFFFF
             for lab in (base, *labels)]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _solve(problems) -> list:
    """The ``mle_block`` roots of ``(kind, model, rows)`` problems, in their
    order, from one lockstep per kind."""
    solved = {kind: iter(mle_block(kind, [(model, rows) for k, model, rows in problems
                                          if k is kind]))
              for kind in dict.fromkeys(kind for kind, _, _ in problems)}
    return [next(solved[kind]) for kind, _, _ in problems]


_RULES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, "==": operator.eq}


def _verdict(*checks) -> str:
    """``"pass"`` when every ``(value, rule, threshold)`` check holds, where
    ``rule`` is ``<``, ``<=``, ``>`` or ``==``; a NaN value fails every rule."""
    return "pass" if all(_RULES[rule](value, threshold)
                         for value, rule, threshold in checks) else "fail"


def _record(check: str, checks, provenance: str = "numeric", **fields) -> dict:
    """One report record: ``check``, then ``fields`` in their order, each
    through ``enc``, then ``provenance`` and the verdict of the
    ``(value, rule, threshold)`` ``checks`` (see ``_verdict``)."""
    return {"check": check, **{key: enc(value) for key, value in fields.items()},
            "provenance": provenance, "verdict": _verdict(*checks)}


def build_profiles(entry, kind_label: str):
    """Score profiles for a catalog entry and kind (see ``kind_profiles``):
    one profile, or the (negative, positive) half-line pair for scale
    parameters of full-line families.  Kept for callers outside the package."""
    return kind_profiles(entry.model, cat.kind_for(entry, kind_label))


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------


def _section_equivalence(config: SuiteConfig, gaussian, forged) -> list[dict]:
    cases, problems = [], []
    for name, params, kind_label in config.equivalence:
        entry = cat.lookup(name, params)
        kind = cat.kind_for(entry, kind_label)
        model = entry.model
        # the trials of every exponent and size, drawn per exponent and size
        draws = InverseCdfSampler(model).draw([
            (_derive_seed(config.seed, "equivalence", name, kind_label, int(d * 1000), size_i),
             [n] * config.trials)
            for d in config.tilt_exponents for size_i, n in enumerate(config.sample_sizes)])
        # each exponent's rows, the same sizes from its own seeds
        for d, flat, lengths in zip(config.tilt_exponents,
                                    *(np.split(v, len(config.tilt_exponents)) for v in draws)):
            tilted = tilt(model, d, kind)
            cases.append((name, kind_label, d, same_class(model, tilted, kind)))
            problems += [(kind, model, Rows(flat, lengths)), (kind, tilted, Rows(flat, lengths))]

    records = []
    roots = _solve(problems)
    for (name, kind_label, d, d_hat), base, tilted in zip(cases, roots[::2], roots[1::2]):
        max_gap = float(np.max(np.abs(base.theta - tilted.theta)))
        checks = [(math.inf if d_hat is None else abs(d_hat - d), "<", 1e-6),
                  (max_gap, "<", AGREEMENT_TOL)]
        records.append(_record("shared_mle", checks,
                               family=name,
                               kind=kind_label,
                               d=d,
                               trials_per_size=config.trials,
                               sizes="/".join(str(n) for n in config.sample_sizes),
                               max_gap=max_gap,
                               d_recovered=d_hat if d_hat is not None else "none"))

    logistic = cat.lookup("logistic").model
    for label, other in (("gaussian_vs_logistic", logistic),
                         ("gaussian_vs_quartic_forge", forged)):
        verdict_d = same_class(gaussian, other, LOCATION)
        records.append(_record("class_discrimination", [(verdict_d, "==", None)],
                               pair=label,
                               kind="location",
                               d_recovered=verdict_d if verdict_d is not None else "distinct"))
    return records


def _section_counterexample(config: SuiteConfig, gaussian, forged) -> list[dict]:
    records = []

    rep2 = verify_counterexample(gaussian, forged, n=2, trials=config.trials,
                                 seed=_derive_seed(config.seed, "forge", 2),
                                 tol=AGREEMENT_TOL)
    records.append(_record("agreement_n2", [(rep2.agreement_fraction, "==", 1.0)],
                           trials=rep2.trials,
                           agreement_fraction=rep2.agreement_fraction,
                           worst_gap=rep2.worst.gap if rep2.worst else "none"))

    witness = Rows(np.array([0.0, 0.0, 3.0]), np.array([3]))
    tf, tg = (float(roots.theta[0]) for roots in mle_block(
        LOCATION, [(gaussian, witness), (forged, witness)]))
    expected_tg = 3.0 / (1.0 + 2.0 ** (1.0 / 3.0))
    checks = [(abs(tf - tg), ">", 0.3), (abs(tg - expected_tg), "<", 1e-6),
              (abs(tf - 1.0), "<", 1e-9)]
    records.append(_record("witness_n3", checks, "analytic",
                           sample="0,0,3",
                           theta_target=tf,
                           theta_forged=tg,
                           expected_forged=expected_tg,
                           gap=abs(tf - tg)))

    rep3 = verify_counterexample(gaussian, forged, n=3, trials=config.trials,
                                 seed=_derive_seed(config.seed, "forge", 3),
                                 tol=1e-4)
    # a fraction below 0.05 also rules out simultaneous agreement
    records.append(_record("agreement_n3_random", [(rep3.agreement_fraction, "<", 0.05)],
                           trials=rep3.trials,
                           agreement_fraction=rep3.agreement_fraction,
                           worst_sample=",".join(f"{v:.6g}" for v in rep3.worst.sample)
                           if rep3.worst else "none",
                           worst_gap=rep3.worst.gap if rep3.worst else "none",
                           no_simultaneous_agreement=not (rep2.agreement_fraction == 1.0
                                                          and rep3.agreement_fraction == 1.0)))
    return records


def _section_projectability(config: SuiteConfig) -> list[dict]:
    cases = [(pm, pp, n) for pm in LATTICE for pp in LATTICE for n in range(2, 9)]
    mismatches = [f"({pm},{pp},n={n})" for pm, pp, n in cases
                  if is_projectable(pm, pp, n) != brute_force_projectable(pm, pp, n)]
    records = [_record("lattice_oracle", [(len(mismatches), "==", 0)],
                       cases=len(cases),
                       agreements=len(cases) - len(mismatches),
                       mismatches=";".join(mismatches) or "none")]
    for (pm, pp), expected in (((1.0, 3.0), 4), ((1.0, 1.0), 2)):
        value = mcss(pm, pp).value
        records.append(_record("mcss_example", [(value, "==", expected)], "analytic",
                               p_minus=pm,
                               p_plus=pp,
                               mcss=value,
                               expected=expected))
    return records


def _configured(config: SuiteConfig, name: str, params: dict, kind_label: str) -> bool:
    """Whether a (family, params, kind) case is part of the configuration."""
    return any(fam_name == name and fam_params == params and kind_label in fam_kinds
               for fam_name, fam_params, fam_kinds in config.families)


def _section_closed_form(config: SuiteConfig) -> list[dict]:
    records = []
    sizes_cycle = [2 + (i % 11) for i in range(500)]
    cases = [case for case in CLOSED_FORM_CASES if _configured(config, *case)]
    entries = [cat.lookup(name, params) for name, params, _ in cases]
    draws = [InverseCdfSampler(entry.model).draw(
        [(_derive_seed(config.seed, "closed_form", name, kind_label), sizes_cycle)])
             for entry, (name, _, kind_label) in zip(entries, cases)]
    kinds = [cat.kind_for(entry, kind_label) for entry, (_, _, kind_label) in zip(entries, cases)]
    roots = _solve(list(zip(kinds, [entry.model for entry in entries], draws)))
    for (name, _, _), entry, kind, rows, numeric in zip(cases, entries, kinds, draws, roots):
        formula, estimate = entry.closed_form[kind.label]
        # one closed-form call per row length, on the block of those rows
        closed = np.empty(rows.lengths.size)
        for group, block in length_blocks(rows):
            closed[group] = estimate(block)
        # rates compare relatively, locations absolutely
        worst = float(np.max(np.abs(closed - numeric.theta)
                             / (np.abs(numeric.theta) if kind is SCALE else 1.0)))
        records.append(_record("closed_vs_numeric", [(worst, "<", 1e-8)],
                               family=name,
                               kind=kind.label,
                               formula=formula,
                               samples=len(sizes_cycle),
                               max_deviation=worst))
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
        cases = [(name, params) for name, params in cases
                 if _configured(config, name, params, kind.label)]
        problems = []
        for name, params in cases:
            model = cat.lookup(name, params).model
            base = InverseCdfSampler(model).draw([(_derive_seed(config.seed, seed_label, name),
                                                   sizes_cycle)])
            # the base rows and each moved copy of them, one problem per family
            flat = np.concatenate([base.flat] + [act(base.flat, g) for g in elements])
            problems.append((model, Rows(flat, np.tile(base.lengths, len(elements) + 1))))
        for (name, _), roots in zip(cases, mle_block(kind, problems)):
            base, *got = roots.theta.reshape(len(elements) + 1, len(sizes_cycle))
            worst = float(np.max([deviation(theta, base, g) for theta, g in zip(got, elements)]))
            records.append(_record(check, [(worst, "<", 1e-8)],
                                   family=name,
                                   samples=len(sizes_cycle),
                                   **{key: "/".join(str(g) for g in elements)},
                                   max_deviation=worst))
    return records


def _crosscheck_grid(entry) -> np.ndarray:
    """The 201 interior nodes of a 203-node :func:`compact_grid` over the
    effective support, kept inside it so the finite-difference reference is
    not dominated by truncation/cancellation."""
    support = entry.model.support
    xs = compact_grid(support, *effective_interval(entry.model, drop=60.0), 203)[1][1:-1]
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
        fd_model = replace(model, name=model.name + "~fd", dlog_pdf=None)
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
                score_records.append(_record("fd_vs_analytic_score", [(worst, "<", 1e-6)],
                                             family=name,
                                             kind=kind_label,
                                             grid=len(xs),
                                             max_deviation=worst))

            bounds = entry.analytic_bounds.get(kind_label)
            if bounds is not None:
                # an infinite bound is matched exactly, a finite one to 1e-3 relative
                checks = [(est, "==", ref) if math.isinf(ref)
                          else (abs(est - ref), "<=", 1e-3 * abs(ref))
                          for p in profiles
                          for est, ref in ((p.p_minus, bounds[0]), (p.p_plus, bounds[1]))]
                numeric = " ".join(f"({enc(p.p_minus)},{enc(p.p_plus)})" for p in profiles)
                bound_records.append(_record("numeric_vs_analytic_bounds", checks,
                                             family=name,
                                             kind=kind_label,
                                             numeric=numeric,
                                             analytic=f"({enc(bounds[0])},{enc(bounds[1])})"))
        # a family's bound checks follow its score checks
        score_records += bound_records
    return mnss_records, score_records


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


@contextmanager
def _beside(fn, *args):
    """Run ``fn(*args)`` in a forked child while the ``with`` block runs.

    Yields ``result()``, which waits for the child and returns what ``fn``
    returned or raises what it raised (same type and message).  The child
    sends its outcome through a pipe as one pickle and ends with
    ``os._exit(0)``.  Leaving the block reaps the child, killing it first if
    ``result`` was not called, and closes the pipe.  Where ``os.fork`` does
    not exist, ``result`` is the call ``fn(*args)`` itself, run here when it
    is made, so a block that leaves without asking never runs ``fn``.
    """
    if not hasattr(os, "fork"):
        yield lambda: fn(*args)
        return

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:
                outcome = (False, exc)
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
        finally:
            os._exit(0)
    os.close(write_fd)
    waiting = True

    def result():
        nonlocal waiting
        with os.fdopen(read_fd, "rb", closefd=False) as pipe:
            data = pipe.read()
        _, status = os.waitpid(pid, 0)
        waiting = False
        if not data:
            raise ChildProcessError(f"{fn.__name__} ended without a result "
                                    f"(wait status {status})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield result
    finally:
        if waiting:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(read_fd)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Execute all verification sections and assemble the report.

    An error raised by a section is the one of the first failing section in
    report order, as if the sections ran one after another.
    """
    config = config.validate()
    start = time.perf_counter()

    gaussian = cat.lookup("gaussian").model
    forged = forge_odd_h(gaussian, OddPower(1.0, 3))

    with _beside(_section_equivalence, config, gaussian, forged) as equivalence:
        catalog_mnss, score_crosscheck = _section_families(config)
        try:
            later = {
                "counterexample": _section_counterexample(config, gaussian, forged),
                "projectability": _section_projectability(config),
                "closed_form": _section_closed_form(config),
                "equivariance": _section_equivariance(config),
            }
        except Exception:
            equivalence()  # an error of the earlier section comes first
            raise
        sections = {
            "catalog_mnss": catalog_mnss,
            "equivalence": equivalence(),
            **later,
            "score_crosscheck": score_crosscheck,
        }
    verdicts = {
        name: "pass" if all(r["verdict"] == "pass" for r in records) else "fail"
        for name, records in sections.items()
    }
    passed = all(v == "pass" for v in verdicts.values())
    return SuiteReport(
        schema_version=SCHEMA_VERSION,
        seed=config.seed,
        config=config.to_jsonable(),
        sections=sections,
        verdicts=verdicts,
        passed=passed,
        wall_clock_s=time.perf_counter() - start,
    )
