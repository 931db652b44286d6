"""Equivalence-class transformations and class-membership tests.

Two densities whose scores (of a given parameter kind) are positive multiples
of each other share every MLE of that parameter.  The constructive direction
is the *tilt* with exponent ``d > 0``:

    log g = (d-1) * int u2/u1 + d log f + log c,

with the kind's closed-form ``int u2/u1`` where it has one (``0`` for
location, ``log|x|`` for scale on a half-line) and a numeric antiderivative
otherwise.  Classes whose ``u1`` vanishes at an interior point, scale over
the full line among them, are singletons: only ``d = 1`` is admissible.  The
reverse direction, :func:`same_class`, recovers ``d`` from the pointwise
score ratio when that ratio is constant on a probe grid.

Half-line scale families additionally admit a scale-identification filter, a
limit comparison of ``g(lambda x)/g(x)`` against the target at the origin,
which pins ``d = 1`` within a class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .density import (
    NEGATIVE_HALF_LINE,
    POSITIVE_HALF_LINE,
    DensityModel,
    call_elementwise,
    effective_interval,
    median,
    normalize,
    probe_grid,
)
from .errors import DegenerateScore, InvalidParams, SingletonClass, UnsupportedSupport
from .score import Kind, analyze_image, anchored_antiderivative, kind_score, u1_zero_structure


def tilt_with_spec(model: DensityModel, d: float,
                   kind: Kind) -> tuple[DensityModel, float, str]:
    """Like :func:`tilt` but also returns the normalizer and a note.

    The note says why ``d`` was left free when ``u1`` vanishes at a support
    endpoint; it is empty otherwise.
    """
    if not (math.isfinite(d) and d > 0.0):
        raise InvalidParams(f"tilt exponent must be a positive real, got {d}")
    kind.check(model.support)
    u1, u2 = kind.u1, kind.u2
    base_log = model.log_pdf
    base_dlog = model.dlog_pdf
    structure = u1_zero_structure(kind, model.support)
    breaks = model.breaks
    notes = ""

    if structure == "interior":
        if d != 1.0:
            raise SingletonClass(
                f"u1 of the {kind!r} kind vanishes inside {model.support}; "
                "the class is a singleton (d = 1 only)"
            )
        log_pdf, dlog = base_log, base_dlog
    else:
        antider = kind.antiderivative
        if antider is None:
            if structure == "endpoint":
                notes = "u1 vanishes at a support endpoint; d left free"
            antider = anchored_antiderivative(model, analyze_image(model, kind),
                                              lambda y: u2(y) / u1(y), max(80.0, 80.0 / d))
            breaks = np.concatenate([breaks, antider.nodes])

        def log_pdf(x):
            return (d - 1.0) * antider(x) + d * base_log(x)

        dlog = (
            (lambda x: (d - 1.0) * call_elementwise(u2, x) / call_elementwise(u1, x)
             + d * call_elementwise(base_dlog, x))
            if base_dlog
            else None
        )

    raw = DensityModel(
        name=f"{model.name}~tilt(d={d:g},{kind.label})",
        support=model.support,
        log_pdf=log_pdf,
        dlog_pdf=dlog,
        params={**model.params, "tilt_d": d},
        breaks=breaks,
    )
    c, tilted = normalize(raw)
    return tilted, c, notes


def tilt(model: DensityModel, d: float, kind: Kind) -> DensityModel:
    """Equivalence-class member of ``model`` with exponent ``d`` (normalized)."""
    return tilt_with_spec(model, d, kind)[0]


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------


def _default_grid(f: DensityModel, g: DensityModel) -> np.ndarray:
    """41 probe points inside the overlap of both models' effective regions.

    Tabulated or forged densities may be finite only on a bounded hull;
    confining the grid keeps both scores evaluable, as the comparison
    requires.
    """
    f_lo, f_hi = effective_interval(f, drop=40.0)
    g_lo, g_hi = effective_interval(g, drop=40.0)
    lo, hi = max(f_lo, g_lo), min(f_hi, g_hi)
    if not lo < hi:
        raise DegenerateScore("effective supports do not overlap")
    return probe_grid(f.support, (lo, hi), 41, 8.0, 0.05, 1e-3)


def same_class(f: DensityModel, g: DensityModel, kind: Kind,
               tol: float = 1e-6) -> Optional[float]:
    """Common score multiplier ``d`` if ``f`` and ``g`` share a class, else None.

    Evaluates the ratio ``score_g / score_f`` at grid points where the
    reference score is not numerically zero; the pair belongs to one class
    when the ratio deviates from its median by less than ``tol`` and the
    median is positive.
    """
    if not tol > 0.0:
        raise InvalidParams(f"tolerance must be > 0, got {tol}")
    if f.support != g.support:
        raise UnsupportedSupport("class comparison requires a common support")
    xs = _default_grid(f, g)
    sf = kind_score(f, kind, xs)
    usable = np.abs(sf) > tol
    if not usable.any():
        raise DegenerateScore("reference score vanishes on the whole grid")
    ratios = kind_score(g, kind, xs[usable]) / sf[usable]
    d = float(median(ratios))
    if d > 0.0 and float(np.max(np.abs(ratios - d))) < tol:
        return d
    return None


# ---------------------------------------------------------------------------
# scale-identification condition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScaleIdentification:
    """Outcome of the origin-limit comparison for half-line scale families."""

    verdict: str  # "match" | "mismatch" | "inconclusive"
    limit_target: float
    limit_candidate: float
    lam: float
    note: str = ""


def _origin_ratio_limit(model: DensityModel, lam: float) -> tuple[float, bool]:
    """Limit of f(lam*x)/f(x) as x tends to 0 along the half-line.

    Returns (limit, stable); stability requires the probe sequence at
    x = 10^-k to settle (successive agreement within 1e-3 relative).
    """
    sign = 1.0 if model.support.kind == POSITIVE_HALF_LINE else -1.0
    vals = []
    for k in (3, 4, 5, 6):
        x = sign * 10.0 ** (-k)
        num, den = model.log_pdf(lam * x), model.log_pdf(x)
        if not (math.isfinite(num) and math.isfinite(den)):
            return math.nan, False
        vals.append(math.exp(num - den))
    last, prev = vals[-1], vals[-2]
    stable = abs(last - prev) <= 1e-3 * max(1.0, abs(last))
    return last, stable


def scale_identification(target: DensityModel, candidate: DensityModel,
                         lam: float = 2.0) -> ScaleIdentification:
    """Compare origin limits of ``g(lam x)/g(x)`` against the target's.

    Matching limits are what the identification condition demands of an
    admissible class member; within a tilt family only ``d = 1`` passes.
    The pathological limit ``1/lam`` precludes identification and is
    reported as inconclusive, as are unstable probe sequences.
    """
    if target.support.kind not in (POSITIVE_HALF_LINE, NEGATIVE_HALF_LINE):
        raise UnsupportedSupport("scale identification applies to half-line supports")
    if candidate.support != target.support:
        raise UnsupportedSupport("scale identification requires a common support")
    if lam <= 0.0 or lam == 1.0:
        raise InvalidParams("lam must be positive and different from 1")

    lt, stable_t = _origin_ratio_limit(target, lam)
    lc, stable_c = _origin_ratio_limit(candidate, lam)
    if not (stable_t and stable_c):
        return ScaleIdentification("inconclusive", lt, lc, lam,
                                   note="origin limits did not stabilize")
    if abs(lt - 1.0 / lam) <= 1e-6 * max(1.0, 1.0 / lam):
        return ScaleIdentification("inconclusive", lt, lc, lam,
                                   note="pathological limit 1/lam")
    if abs(lc - lt) <= 1e-3 * max(1.0, abs(lt)):
        return ScaleIdentification("match", lt, lc, lam)
    return ScaleIdentification("mismatch", lt, lc, lam)
