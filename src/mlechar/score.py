"""Parameter kinds, score functions and image analysis.

Every parameter kind is a :class:`Kind`: factor functions ``(u1, u2)`` of the
score ``u2(x) + u1(x) f'(x)/f(x)``, the action ``h(theta, x)`` of the
parameter on the data, and optionally a closed form of ``int u2/u1``:

- location: ``(u1, u2) = (-1, 0)``, ``h = x - theta``, so the score is
  ``phi(x) = -f'(x)/f(x)`` on the full line (stored with this sign so that
  well-behaved targets have *increasing* scores), ``int u2/u1 = 0``,
- scale:    ``(u1, u2) = (x, 1)``, ``h = theta x`` with ``theta = e^t``, so
  the score is ``psi(x) = 1 + x f'(x)/f(x)`` on the full line or a
  half-line, ``int u2/u1 = log|x|``,
- group:    any transformation pair (u1, u2) with its own ``H_theta``.

``analyze_image`` classifies a kind's score over a domain: strict
monotonicity, zero crossing, and the image bounds ``(-p_minus, p_plus)`` with
the two endpoint limits estimated along geometric sequences approaching the
domain endpoints.
``kind_profiles`` analyzes the score on each monotone piece of the support:
the support itself, or the two half-lines when ``u1`` vanishes inside it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .density import (
    FULL_LINE,
    NEGATIVE_HALF_LINE,
    POSITIVE_HALF_LINE,
    DensityModel,
    Sample,
    SupportSet,
    eval_dlogf,
    probe_grid,
)
from .errors import AllZeroSample, NonFiniteLogDensity, NotMonotone, UnsupportedSupport

# ---------------------------------------------------------------------------
# parameter kinds
# ---------------------------------------------------------------------------


def _same(t: float) -> float:
    return t


@dataclass(frozen=True, eq=False, repr=False)
class Kind:
    """A parameter kind: the score ``u2 + u1 f'/f`` and the action of theta.

    ``h(theta, x)`` maps an observation of the family member at ``theta``
    into the coordinates of the base density f (``dh_dx`` is its
    x-derivative, needed to assemble member densities); the MLE is the root
    of ``sum_i score(h(theta, x_i))``.  The solver searches a coordinate ``t``
    with ``theta = to_theta(t)``, inside ``theta_window`` (in t), starting
    from ``seed(values) -> (centre, half-width)`` (default: centre 0).  Any
    common factor T(theta) of the score is dropped, so the window must keep
    it of constant nonzero sign.  ``antiderivative`` is a closed form of
    ``int u2/u1`` (tilts integrate the ratio numerically without one), and
    ``supports`` lists the admitted support shapes (``None``: any).

    A kind without an action still has scores, image profiles and tilts,
    but no estimator.  ``u1`` must be nonzero on the support except possibly
    at isolated points; an interior zero collapses the equivalence class to
    a singleton.
    """

    u1: Callable[[float], float]
    u2: Callable[[float], float]
    h: Optional[Callable[[float, float], float]] = None
    dh_dx: Optional[Callable[[float, float], float]] = None
    theta_window: tuple[float, float] = (-16.0, 16.0)
    label: str = "group"
    antiderivative: Optional[Callable[[float], float]] = None
    supports: Optional[tuple[str, ...]] = None
    seed: Optional[Callable[[np.ndarray], tuple[float, float]]] = None
    to_theta: Callable[[float], float] = _same

    def __repr__(self) -> str:
        return self.label

    def check(self, support: SupportSet) -> None:
        """Raise :class:`UnsupportedSupport` unless ``support`` is admitted."""
        if self.supports is not None and support.kind not in self.supports:
            raise UnsupportedSupport(
                f"{self.label} parameters need {' or '.join(self.supports)} "
                f"support, got {support}"
            )


#: a transformation family H_theta acting on the data is a kind with an action
GroupTransform = Kind


def Group(u1: Callable[[float], float], u2: Callable[[float], float]) -> Kind:
    """Action-less kind with the factor functions ``u1``, ``u2``."""
    return Kind(u1, u2)


def _median(values: np.ndarray) -> float:
    # the value np.median returns, without its call overhead (which rivals a
    # whole small-sample solve)
    v = np.sort(values)
    mid = v.size // 2
    return float(v[mid]) if v.size % 2 else float((v[mid - 1] + v[mid]) / 2.0)


def _location_seed(values: np.ndarray) -> tuple[float, float]:
    # the sample median, with half-width one plus the sample range
    return _median(values), float(values.max() - values.min()) + 1.0


def _rate_seed(values: np.ndarray) -> tuple[float, float]:
    # log-rate that maps the median nonzero magnitude to one
    nonzero = np.abs(values[values != 0.0])
    if nonzero.size == 0:
        raise AllZeroSample("scale estimation needs a nonzero observation")
    return -math.log(_median(nonzero)), math.log(2.0)


LOCATION = Kind(
    u1=lambda x: -1.0,
    u2=lambda x: 0.0,
    h=lambda theta, x: x - theta,
    theta_window=(-math.inf, math.inf),
    label="location",
    antiderivative=lambda x: 0.0,
    supports=(FULL_LINE,),
    seed=_location_seed,
)

#: rate convention ``theta * f(theta * x)``, solved for ``t = log theta``
#: inside the range where ``e^t`` is a normal double
SCALE = Kind(
    u1=lambda x: x,
    u2=lambda x: 1.0,
    h=lambda theta, x: theta * x,
    theta_window=(math.log(sys.float_info.min), math.log(sys.float_info.max)),
    label="scale",
    antiderivative=lambda x: math.log(abs(x)),
    supports=(FULL_LINE, POSITIVE_HALF_LINE, NEGATIVE_HALF_LINE),
    seed=_rate_seed,
    to_theta=math.exp,
)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def _score_at(model: DensityModel, u1, u2, x: float) -> float:
    # support admission is the caller's job (once per profile, solve or tilt)
    a = u1(x)
    if a == 0.0:
        # where u1 vanishes (the origin, for scale) the score is u2 wherever
        # log f is finite, whether or not f is differentiable there
        if not math.isfinite(model.log_pdf(x)):
            raise NonFiniteLogDensity(f"log-density not finite at x={x}")
        return u2(x)
    return u2(x) + a * eval_dlogf(model, x)


def kind_score(model: DensityModel, kind: Kind, x: float) -> float:
    """Score ``u2(x) + u1(x) f'(x)/f(x)`` of ``kind`` at ``x``."""
    kind.check(model.support)
    return _score_at(model, kind.u1, kind.u2, x)


def score_sum(model: DensityModel, kind: Kind, sample: Sample, theta: float) -> float:
    """``math.fsum`` of the kind's score at ``h(theta, x_i)`` over the sample."""
    h, u1, u2 = kind.h, kind.u1, kind.u2
    return math.fsum(_score_at(model, u1, u2, h(theta, x)) for x in sample.values)


def location_score(model: DensityModel, x: float) -> float:
    """Location score ``-f'(x)/f(x)`` (full-line supports only)."""
    return kind_score(model, LOCATION, x)


def scale_score(model: DensityModel, x: float) -> float:
    """Scale score ``1 + x f'(x)/f(x)``."""
    return kind_score(model, SCALE, x)


def group_score(model: DensityModel, u1: Callable[[float], float],
                u2: Callable[[float], float], x: float) -> float:
    """Group-family score ``u2(x) + u1(x) f'(x)/f(x)``."""
    return _score_at(model, u1, u2, x)


# ---------------------------------------------------------------------------
# image analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundsProvenance:
    method: str  # "numeric"
    note: str = ""


@dataclass(frozen=True, eq=False)
class ScoreProfile:
    """Monotonicity, zero crossing and image bounds of a score function.

    A profile is only ever produced for strictly monotone scores;
    ``monotone_increasing`` records the direction.  When the score crosses
    zero its image is the open interval ``(-p_minus, p_plus)`` with both
    bounds positive (possibly infinite).
    """

    kind: Kind
    domain: SupportSet
    evaluate: Callable[[float], float]
    monotone_increasing: bool
    crosses_zero: bool
    p_minus: float
    p_plus: float
    bounds_provenance: BoundsProvenance


#: endpoint sequences: geometric ratio, step budget, Cauchy tolerance of a
#: finite limit and the magnitude that declares a limit infinite
TAIL_RATIO = 2.0
TAIL_STEPS = 80
CAUCHY_TOL = 1e-6
INFINITE_THRESHOLD = 1e8


def _central_grid(domain: SupportSet) -> np.ndarray:
    # 201 points within |x| <= 20, from 1e-3 off a half-line origin
    return probe_grid(domain, (domain.lower, domain.upper), 201, 20.0, 1e-3, 1e-6)


def _tail_points(domain: SupportSet, side: str, start: float):
    """Geometric sequence from ``start`` toward the given domain endpoint."""
    end = domain.lower if side == "lower" else domain.upper
    x = start
    for _ in range(TAIL_STEPS):
        if math.isinf(end):
            # starting points share the endpoint's sign (central grids end at
            # +-20 or at +-1e-3 on the matching side)
            x = x * TAIL_RATIO
        else:
            x = end + (x - end) / TAIL_RATIO
        yield x


def _aitken(v0: float, v1: float, v2: float) -> float:
    """Aitken delta-squared acceleration of a geometrically converging tail."""
    d1, d2 = v1 - v0, v2 - v1
    denom = d2 - d1
    if denom == 0.0 or not math.isfinite(denom):
        return v2
    accel = v2 - d2 * d2 / denom
    # reject wild extrapolations (non-geometric tails): stay near the last value
    if not math.isfinite(accel) or abs(accel - v2) > 8.0 * abs(d2):
        return v2
    return accel


def _estimate_limit(evaluate, domain: SupportSet, side: str, start: float,
                    v_start: float, expected: float) -> tuple[float, str]:
    """Endpoint limit of a monotone score: (value, 'finite'|'infinite').

    Walks a geometric sequence toward the endpoint; a limit is declared
    infinite once |value| reaches ``INFINITE_THRESHOLD`` (or overflows),
    finite once successive values agree within the Cauchy tolerance.  Finite
    limits are sharpened by Aitken extrapolation of the last three values
    (the tails of all smooth scores converge geometrically along geometric
    probe sequences).  ``expected`` is the sign the increments must keep
    (ties allowed); a reversal means the score is not monotone out to the
    endpoint.
    """
    values = [v_start]
    for x in _tail_points(domain, side, start):
        try:
            v = evaluate(float(x))
        except (OverflowError, NonFiniteLogDensity):
            return math.copysign(math.inf, expected), "infinite"
        if math.isnan(v):
            return math.copysign(math.inf, expected), "infinite"
        if math.isinf(v) or abs(v) >= INFINITE_THRESHOLD:
            return math.copysign(math.inf, v), "infinite"
        dv = v - values[-1]
        if dv * expected < -1e-9 * max(1.0, abs(v)):
            raise NotMonotone(
                f"score reverses direction approaching the {side} endpoint (x={x:g})"
            )
        values.append(v)
        # gather three tail values so the acceleration step has material
        if abs(dv) < CAUCHY_TOL and len(values) >= 3:
            return _aitken(values[-3], values[-2], values[-1]), "finite"
    # no convergence within budget: the values kept drifting, treat as infinite
    return math.copysign(math.inf, expected), "infinite"


def analyze_image(model: DensityModel, kind: Kind,
                  domain: Optional[SupportSet] = None) -> ScoreProfile:
    """Build a :class:`ScoreProfile` for ``kind``'s score of ``model``.

    The score is analyzed on ``domain`` (default: the model's support).
    Strict monotonicity is required across the central probe grid (slack 0);
    violations raise :class:`NotMonotone`, which signals that the family is
    outside the scope of the characterization theory for this kind.  Image
    bounds come from endpoint limit estimation.
    """
    kind.check(model.support)
    domain = model.support if domain is None else domain
    u1, u2 = kind.u1, kind.u2

    def evaluate(x: float) -> float:
        return _score_at(model, u1, u2, x)

    xs = _central_grid(domain)
    vs = np.empty(xs.size)
    for i, x in enumerate(xs):
        v = evaluate(float(x))
        if not math.isfinite(v):
            raise NonFiniteLogDensity(f"score is not finite at probe x={x:g}")
        vs[i] = v
    diffs = np.diff(vs)
    if (diffs > 0).all():
        increasing = True
    elif (diffs < 0).all():
        increasing = False
    else:
        raise NotMonotone(
            "score is not strictly monotone on the probe grid "
            f"(domain {domain})"
        )

    # walking toward the lower endpoint, an increasing score must keep
    # decreasing; toward the upper endpoint it must keep increasing
    lo_limit, lo_class = _estimate_limit(evaluate, domain, "lower",
                                         float(xs[0]), float(vs[0]),
                                         -1.0 if increasing else 1.0)
    hi_limit, hi_class = _estimate_limit(evaluate, domain, "upper",
                                         float(xs[-1]), float(vs[-1]),
                                         1.0 if increasing else -1.0)
    inf_limit, sup_limit = (lo_limit, hi_limit) if increasing else (hi_limit, lo_limit)
    crosses = inf_limit < 0.0 < sup_limit

    note = f"inf {lo_class if increasing else hi_class}, " \
           f"sup {hi_class if increasing else lo_class}"

    return ScoreProfile(
        kind=kind,
        domain=domain,
        evaluate=evaluate,
        monotone_increasing=increasing,
        crosses_zero=crosses,
        p_minus=-inf_limit,
        p_plus=sup_limit,
        bounds_provenance=BoundsProvenance("numeric", note=note),
    )


def u1_zero_structure(kind: Kind, support: SupportSet) -> str:
    """'interior', 'endpoint' or 'none' depending on where ``kind.u1`` vanishes."""
    # u1 is probed on twice the points of a score, and closer to half-line
    # origins
    xs = probe_grid(support, (support.lower, support.upper), 401, 20.0, 1e-8, 1e-6)
    vals = np.array([float(kind.u1(float(x))) for x in xs])
    if (np.abs(vals) < 1e-12).any() or (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0).any():
        return "interior"
    # vanishing limits at the ends count as endpoint zeros, not interior ones
    if abs(vals[0]) < 1e-6 or abs(vals[-1]) < 1e-6:
        return "endpoint"
    return "none"


#: the two sides of an interior zero of u1, taken to be the origin
_HALF_LINES = (SupportSet.negative_half_line(), SupportSet.positive_half_line())


def kind_profiles(model: DensityModel, kind: Kind) -> tuple[ScoreProfile, ...]:
    """Score profiles of ``kind`` on the monotone pieces of the model's support.

    One piece, the support itself; or, when ``u1`` vanishes inside the
    support (scale on the full line), the ``(negative, positive)`` half-lines.
    """
    if u1_zero_structure(kind, model.support) != "interior":
        return (analyze_image(model, kind),)
    return tuple(analyze_image(model, kind, half) for half in _HALF_LINES)


def split_halflines(model: DensityModel) -> tuple[ScoreProfile, ScoreProfile]:
    """Scale-score profiles on the two open half-lines of a full-line model.

    Returns ``(negative half-line profile, positive half-line profile)``.
    """
    if model.support.kind != FULL_LINE:
        raise UnsupportedSupport("split_halflines needs a full-line support")
    return kind_profiles(model, SCALE)


def bracketed_root(profile: ScoreProfile) -> float:
    """Zero crossing of a monotone score, located by bracketed root-finding."""
    if not profile.crosses_zero:
        raise NotMonotone("score does not cross zero; no root to bracket")
    xs = _central_grid(profile.domain)
    vs = np.array([profile.evaluate(float(x)) for x in xs])
    sign = np.sign(vs)
    flips = np.where(sign[:-1] * sign[1:] <= 0)[0]
    if flips.size == 0:
        raise NotMonotone("no sign change on the probe grid")
    i = int(flips[0])
    if vs[i] == 0.0:
        return float(xs[i])
    return float(brentq(profile.evaluate, float(xs[i]), float(xs[i + 1]),
                        xtol=1e-13, rtol=8.9e-16))
