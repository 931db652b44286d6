"""Equivalence-class transformations and class-membership tests.

Two densities whose scores (of a given parameter kind) are positive multiples
of each other share every MLE of that parameter.  The constructive direction
is the *tilt* with exponent ``d > 0``:

    log g = (d-1) * log|u1| + d log f + log c,

where ``log|u1| = int u2/u1`` because a group kind has ``u2 = u1'``: ``0``
for location, ``log|x|`` for scale on a half-line, ``log sqrt(1 + x^2)`` for
the sinh-arcsinh transform.  Classes whose ``u1`` vanishes at an interior
point, scale over the full line among them, are singletons: only ``d = 1``
is admissible.  The reverse direction, :func:`same_class`, recovers ``d``
from the pointwise score ratio when that ratio is constant on a grid.

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
    call_array,
    call_elementwise,
    compact_grid,
    effective_interval,
    median,
    normalize,
    quiet_overflow,
    real,
    scan_grid,
    tolerance,
)
from .errors import DegenerateScore, InvalidParams, SingletonClass, UnsupportedSupport
from .score import Kind, kind_score, u1_zeros

#: how far ``same_class``'s score ratios may stray from their median, and how
#: small a reference score it leaves out, for analytic densities
CLASS_RATIO_TOL = 1e-6


def tilt_with_spec(model: DensityModel, d: float,
                   kind: Kind) -> tuple[DensityModel, float]:
    """Like :func:`tilt` but also returns the normalizer.

    Raises :class:`InvalidParams` when ``u2`` is not the derivative of
    ``u1`` (central differences on the support's scan grid, with steps of
    1e-6 of ``1 + |x|`` or of the distance to a finite end, whichever is
    less, within 1e-6 relative plus absolute): such a pair belongs to no
    group.
    """
    d = real(d)
    if not (math.isfinite(d) and d > 0.0):
        raise InvalidParams(f"tilt exponent must be a positive real, got {d}")
    kind.check(model.support)
    u1, u2 = kind.u1, kind.u2
    base_log = model.log_pdf
    base_dlog = model.dlog_pdf

    if u1_zeros(kind, model.support):
        if d != 1.0:
            raise SingletonClass(
                f"u1 of the {kind!r} kind vanishes inside {model.support}; "
                "the class is a singleton (d = 1 only)"
            )
        log_pdf, dlog = base_log, base_dlog
    else:
        xs = scan_grid(model.support)
        lo, hi = model.support.lower, model.support.upper
        # the step shrinks toward a finite end, so the differences stay
        # inside; near an end it is a few hundred ulps of x, so the slope
        # divides by the step the rounded points actually take
        step = 1e-6 * np.minimum(1.0 + np.abs(xs), np.minimum(xs - lo, hi - xs))
        below, above = xs - step, xs + step
        slope = (call_array(u1, above) - call_array(u1, below)) / (above - below)
        derivative = call_array(u2, xs)
        if not (np.abs(derivative - slope) <= 1e-6 * (1.0 + np.abs(derivative))).all():
            raise InvalidParams(f"u2 of the {kind!r} kind is not the derivative of u1, "
                                "so the kind is not a group's")

        # constant factors (location) stay 0-d; the base terms give the shape;
        # a large d overflows to an infinity, which normalize refuses
        log_pdf = quiet_overflow(
            lambda x: (d - 1.0) * np.log(np.abs(call_array(u1, x))) + d * base_log(x))
        dlog = (
            quiet_overflow(lambda x: (d - 1.0) * call_array(u2, x) / call_array(u1, x)
                           + d * call_elementwise(base_dlog, x))
            if base_dlog
            else None
        )

    raw = DensityModel(
        name=f"{model.name}~tilt(d={d:g},{kind.label})",
        support=model.support,
        log_pdf=log_pdf,
        dlog_pdf=dlog,
        breaks=model.breaks,
    )
    c, tilted = normalize(raw)
    return tilted, c


def tilt(model: DensityModel, d: float, kind: Kind) -> DensityModel:
    """Equivalence-class member of ``model`` with exponent ``d`` (normalized)."""
    return tilt_with_spec(model, d, kind)[0]


# ---------------------------------------------------------------------------
# class membership
# ---------------------------------------------------------------------------


def _default_grid(f: DensityModel, g: DensityModel) -> np.ndarray:
    """The 41 interior nodes of a 43-node :func:`compact_grid` over the
    overlap of both models' effective regions.

    Tabulated or forged densities may be finite only on a bounded hull;
    confining the grid keeps both scores evaluable, as the comparison
    requires.
    """
    f_lo, f_hi = effective_interval(f, drop=40.0)
    g_lo, g_hi = effective_interval(g, drop=40.0)
    lo, hi = max(f_lo, g_lo), min(f_hi, g_hi)
    if not lo < hi:
        raise DegenerateScore("effective supports do not overlap")
    return compact_grid(f.support, lo, hi, 43)[1][1:-1]


def same_class(f: DensityModel, g: DensityModel, kind: Kind,
               tol: float = CLASS_RATIO_TOL) -> Optional[float]:
    """Common score multiplier ``d`` if ``f`` and ``g`` share a class, else None.

    Evaluates the ratio ``score_g / score_f`` at grid points where the
    reference score is not numerically zero; the pair belongs to one class
    when the ratio deviates from its median by less than ``tol`` and the
    median is positive.
    """
    tol = tolerance(tol)
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
    lam = real(lam)
    if not (math.isfinite(lam) and lam > 0.0 and lam != 1.0):
        raise InvalidParams(f"lam must be finite, positive and different from 1, got {lam}")

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
