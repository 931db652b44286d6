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

Scores follow the array contract of :mod:`mlechar.density`: a kind's
``u1``, ``u2``, ``h``, ``to_theta`` and ``antiderivative`` take floats or
ndarrays, ``score_sum`` scores a whole sample, or m samples as rows of
equal or different lengths, in one call, and probe grids are scored in one
call each.  Each row sum is the correctly rounded exact sum of the row's
scores, the value ``math.fsum`` gives: rows shorter than ``EXTRACT_MIN_ROW``
(1024) go through ``math.fsum`` over a list, longer rows through error-free
extraction on the score array (:func:`row_fsum`), which is faster there.
:func:`brent_lanes` is the one root finder: Brent's method run lane by
lane over a batch of brackets, step for step as SciPy's Brent solver runs it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice, repeat
from typing import Callable, Optional

import numpy as np

from .density import (
    FULL_LINE,
    NEGATIVE_HALF_LINE,
    POSITIVE_HALF_LINE,
    CumulativeIntegral,
    DensityModel,
    Sample,
    SupportSet,
    call_elementwise,
    effective_interval,
    eval_dlogf,
    median,
    probe_grid,
)
from .errors import (
    AllZeroSample,
    BracketFailure,
    InvalidParams,
    NonFiniteLogDensity,
    NotMonotone,
    UnsupportedSupport,
)

# ---------------------------------------------------------------------------
# parameter kinds
# ---------------------------------------------------------------------------


def _same(t):
    return t


@dataclass(frozen=True, eq=False, repr=False)
class Kind:
    """A parameter kind: the score ``u2 + u1 f'/f`` and the action of theta.

    ``h(theta, x)`` maps an observation of the family member at ``theta``
    into the coordinates of the base density f (``dh_dx`` is its
    x-derivative, needed to assemble member densities); the MLE is the root
    of ``sum_i score(h(theta, x_i))``.  The solver searches a coordinate ``t``
    with ``theta = to_theta(t)``, inside ``theta_window`` (in t), starting
    from ``seed(block) -> (centres, half-widths)`` (default: centre 0).
    ``seed`` receives an ``(m, n)`` block of samples, one per row (the
    solver calls it once per row length), and returns two arrays of m
    values; it is the one field that is never called per element.  Any
    common factor T(theta) of the score is dropped, so the window must keep
    it of constant nonzero sign.  ``antiderivative`` is a closed form of
    ``int u2/u1`` (tilts integrate the ratio numerically without one), and
    ``supports`` lists the admitted support shapes (``None``: any).

    A kind without an action still has scores, image profiles and tilts,
    but no estimator.  ``u1`` must be nonzero on the support except possibly
    at isolated points; an interior zero collapses the equivalence class to
    a singleton.
    """

    u1: Callable
    u2: Callable
    h: Optional[Callable] = None
    dh_dx: Optional[Callable] = None
    theta_window: tuple[float, float] = (-16.0, 16.0)
    label: str = "group"
    antiderivative: Optional[Callable] = None
    supports: Optional[tuple[str, ...]] = None
    seed: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    to_theta: Callable = _same

    def __repr__(self) -> str:
        return self.label

    def check(self, support: SupportSet) -> None:
        """Raise :class:`UnsupportedSupport` unless ``support`` is admitted."""
        if self.supports is not None and support.kind not in self.supports:
            raise UnsupportedSupport(
                f"{self.label} parameters need {' or '.join(self.supports)} "
                f"support, got {support}"
            )


def Group(u1: Callable, u2: Callable) -> Kind:
    """Action-less kind with the factor functions ``u1``, ``u2``."""
    return Kind(u1, u2)


def _location_seed(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the sample median, with half-width one plus the sample range
    return median(block), block.max(axis=1) - block.min(axis=1) + 1.0


def _rate_seed(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # log-rate that maps the median nonzero magnitude to one; zeros sort last
    nonzero = block != 0.0
    counts = nonzero.sum(axis=1)
    if (counts == 0).any():
        raise AllZeroSample("scale estimation needs a nonzero observation")
    mags = np.sort(np.where(nonzero, np.abs(block), np.inf), axis=1)
    rows = np.arange(block.shape[0])
    median = mags[rows, counts // 2]
    even = counts % 2 == 0
    # half of each middle value: their sum can overflow, their halves cannot
    median[even] = mags[rows[even], counts[even] // 2 - 1] / 2.0 + median[even] / 2.0
    return -np.log(median), np.full(rows.size, math.log(2.0))


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
    antiderivative=lambda x: np.log(np.abs(x)),
    supports=(FULL_LINE, POSITIVE_HALF_LINE, NEGATIVE_HALF_LINE),
    seed=_rate_seed,
    to_theta=np.exp,
)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


def _scores(model: DensityModel, u1: Callable, u2: Callable, x: np.ndarray) -> np.ndarray:
    # support admission is the caller's job (once per profile, solve or tilt)
    a = call_elementwise(u1, x)
    b = call_elementwise(u2, x)
    zero = a == 0.0
    if not zero.any():
        return b + a * eval_dlogf(model, x)
    # where u1 vanishes (the origin, for scale) the score is u2 wherever log f
    # is finite, whether or not f is differentiable there
    if not np.isfinite(model.log_pdf(x[zero])).all():
        raise NonFiniteLogDensity(f"log-density not finite at x={x[zero][0]}")
    rest = ~zero
    out = b.copy()
    out[rest] = b[rest] + a[rest] * eval_dlogf(model, x[rest])
    return out


def _score_like(model: DensityModel, u1: Callable, u2: Callable, x):
    # a float for a float, an array for an array
    out = _scores(model, u1, u2, np.asarray(x, dtype=float))
    return out if np.ndim(x) else float(out)


def kind_score(model: DensityModel, kind: Kind, x):
    """Score ``u2(x) + u1(x) f'(x)/f(x)`` of ``kind`` at ``x`` (float or ndarray)."""
    kind.check(model.support)
    return _score_like(model, kind.u1, kind.u2, x)


def score_sum(model: DensityModel, kind: Kind, sample, theta):
    """Correctly rounded exact sum of the kind's score at ``h(theta, x_i)``
    over a sample, the value ``math.fsum`` gives.

    ``sample`` is a :class:`Sample` and ``theta`` a float, which gives a
    float; or ``sample`` holds m samples as rows, an ``(m, n)`` block or m
    1-D rows of any lengths, and ``theta`` holds m values, which gives the
    m row sums.  :func:`row_score_sums` says how a row is summed.
    """
    if isinstance(sample, Sample):
        return float(row_score_sums(model, kind, sample.values, [sample.n], [theta])[0])
    return row_score_sums(model, kind, *flatten_rows(sample), theta)


def flatten_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """The rows of an ``(m, n)`` block, or m 1-D rows of any lengths, back to
    back as one float array, with the m row lengths.

    Makes no numpy call per row.  Raises :class:`InvalidParams` unless there
    are m >= 1 rows of n >= 1 observations.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim == 2 and rows.size:
            return np.asarray(rows, dtype=float).ravel(), np.full(rows.shape[0], rows.shape[1])
    elif np.iterable(rows):
        rows = list(rows)
        try:
            # len rejects scalars, concatenate no rows or rows of mixed
            # dimensions
            lengths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
            flat = np.concatenate(rows)
        except (TypeError, ValueError):
            pass
        else:
            if flat.ndim == 1 and lengths.min() >= 1:
                return flat.astype(float, copy=False), lengths
    raise InvalidParams("a block holds m >= 1 samples of n >= 1 observations")


#: rows of at least this many observations are summed by extraction
#: (:func:`row_fsum`); below about a thousand floats ``math.fsum`` over a
#: list costs less
EXTRACT_MIN_ROW = 1024


def row_fsum(row: np.ndarray) -> float:
    """``math.fsum(row.tolist())`` bit for bit, for a 1-D float array.

    A row of at least ``EXTRACT_MIN_ROW`` floats is summed by error-free
    extraction (``ExtractVector`` of Rump, Ogita and Oishi, "Accurate
    floating-point summation, part I", SIAM J. Sci. Comput. 31(1), 2008).
    With ``2^M >= n + 2`` and ``sigma = 2^M 2^e`` for ``max|p| < 2^e``, the
    parts ``q = (sigma + p) - sigma`` are multiples of ``2^-53 sigma`` whose
    sum is exact in any order, and ``p - q`` is exact.  Each round takes its
    ``sigma`` from the largest remainder, until no remainder is left; one
    ``math.fsum`` of the exact part sums rounds the total correctly.  A row
    with an infinite or NaN score, or whose ``sigma`` would pass ``2^1022``,
    goes through ``math.fsum`` itself, which then raises or overflows as it
    would on the scores.
    """
    if row.size < EXTRACT_MIN_ROW:
        return math.fsum(row.tolist())
    hi, lo = float(row.max()), float(row.min())
    top = max(hi, -lo)
    spread = (row.size + 1).bit_length()  # M = ceil(log2(n + 2))
    if not (math.isfinite(hi) and math.isfinite(lo)) or spread + math.frexp(top)[1] > 1022:
        return math.fsum(row.tolist())
    parts = []
    rest, part = row.copy(), np.empty_like(row)
    while top != 0.0:
        sigma = math.ldexp(1.0, spread + math.frexp(top)[1])
        np.add(rest, sigma, out=part)
        part -= sigma
        parts.append(float(part.sum()))
        rest -= part
        top = max(float(rest.max()), -float(rest.min()))
    return math.fsum(parts)


def row_score_sums(model: DensityModel, kind: Kind, flat: np.ndarray, lengths,
                   theta) -> np.ndarray:
    """m row sums of the kind's score, row i at ``h(theta[i], x)``.

    ``flat`` holds the m rows back to back and ``lengths`` their sizes.
    Each row sum is the correctly rounded exact sum of that row's own
    scores, ``math.fsum`` of them, so it does not depend on the other rows.
    Rows shorter than ``EXTRACT_MIN_ROW`` go through ``math.fsum`` over a
    list of their scores; longer ones are summed from the score array by
    error-free extraction (:func:`row_fsum`), which gives the same
    value bit for bit.  A sum that ``math.fsum`` cannot form, such as scores
    of both infinite signs, raises :class:`BracketFailure`.
    """
    theta = np.asarray(theta, dtype=float)
    one = len(lengths) == 1
    # a single row needs neither theta repeated nor its scores cut apart
    # (math.fsum runs faster over a list than over an islice of it)
    moved = call_elementwise(kind.h, theta if one else np.repeat(theta, lengths), flat)
    scores = _scores(model, kind.u1, kind.u2, moved)
    if flat.size >= EXTRACT_MIN_ROW and np.max(lengths) >= EXTRACT_MIN_ROW:
        sums = map(row_fsum, np.split(scores, np.cumsum(lengths)[:-1]))
    else:
        values = scores.tolist()
        sums = map(math.fsum, [values] if one else map(islice, repeat(iter(values)), lengths))
    try:
        return np.array(list(sums))
    except (ValueError, OverflowError):
        # sum again row by row, only to name the row that failed
        rows = iter(scores.tolist())
        for row_theta, n in zip(theta.tolist(), lengths):
            try:
                math.fsum(islice(rows, n))
            except (ValueError, OverflowError) as exc:
                raise BracketFailure(f"the score sum at theta={row_theta!r} "
                                     f"has no value: {exc}") from exc
        raise


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
    evaluate: Callable
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

    def evaluate(x):
        return _score_like(model, u1, u2, x)

    xs = _central_grid(domain)
    vs = evaluate(xs)
    bad = ~np.isfinite(vs)
    if bad.any():
        raise NonFiniteLogDensity(f"score is not finite at probe x={xs[bad][0]:g}")
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
    vals = call_elementwise(kind.u1, xs)
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


def bracketed_root(profile: ScoreProfile) -> float:
    """Zero crossing of a monotone score, located by bracketed root-finding."""
    if not profile.crosses_zero:
        raise NotMonotone("score does not cross zero; no root to bracket")
    xs = _central_grid(profile.domain)
    vs = profile.evaluate(xs)
    sign = np.sign(vs)
    flips = np.where(sign[:-1] * sign[1:] <= 0)[0]
    if flips.size == 0:
        raise NotMonotone("no sign change on the probe grid")
    i = int(flips[0])
    roots, _, _, converged = brent_lanes(lambda x, lanes: profile.evaluate(x),
                                      xs[i:i + 1], xs[i + 1:i + 2], vs[i:i + 1],
                                      vs[i + 1:i + 2], xtol=1e-13, maxiter=100)
    if not converged[0]:
        raise BracketFailure("Brent iteration did not converge within 100 steps")
    return float(roots[0])


def anchored_antiderivative(model: DensityModel, profile: ScoreProfile, integrand: Callable,
                            drop: float) -> CumulativeIntegral:
    """Antiderivative of ``integrand`` that vanishes at the zero of a score.

    ``profile`` is a zero-crossing score profile of ``model``; the anchor is
    its root.  The table spans the model's effective interval at ``drop``,
    widened to reach at least one unit beyond the anchor on either side.
    """
    anchor = bracketed_root(profile)
    lo, hi = effective_interval(model, drop=drop)
    return CumulativeIntegral(integrand, anchor, min(lo, anchor - 1.0), max(hi, anchor + 1.0))


#: relative tolerance of every Brent solve, just above the 4 eps floor that
#: SciPy's Brent solver admits
BRENT_RTOL = 8.9e-16


def brent_lanes(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a: np.ndarray,
                b: np.ndarray, fa: np.ndarray, fb: np.ndarray, xtol: float,
                maxiter: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of m functions by Brent's method, one lane per function.

    A lane-wise port of the iteration of SciPy's Brent solver
    (its ``optimize`` package, ``zeros.c``).  Lane i starts from the bracket
    ``[a[i], b[i]]`` with function values ``fa[i]`` and ``fb[i]`` of
    opposite signs (or one of them zero).  It takes the same steps, and
    stops at the same iterate, as that solver with this ``xtol`` and
    ``maxiter`` and ``rtol=BRENT_RTOL``.  ``f(x, lanes)`` evaluates the
    functions of the listed lanes at their points ``x``.  Returns the roots,
    the function values there (the last ones evaluated, or the zero at a
    bracket end), the iteration counts and whether each lane converged.
    """
    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    fpre, fcur = np.array(fa, dtype=float), np.array(fb, dtype=float)
    roots, iterations = np.where(fpre == 0.0, xpre, xcur), np.zeros(xcur.size, dtype=int)
    values = np.where(fpre == 0.0, fpre, fcur)
    # a zero at an end returns that end before any iteration
    converged = (fpre == 0.0) | (fcur == 0.0)
    active = ~converged
    xblk, fblk, spre, scur = (np.zeros(xcur.size) for _ in range(4))
    # every lane steps in lockstep, but only active lanes are evaluated and
    # recorded; the step candidates are computed also where their
    # denominators vanish, and only well-defined ones are taken
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(maxiter):
            if not active.any():
                break
            iterations += active
            flip = (fpre != 0.0) & (fcur != 0.0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
            spre, scur = np.where(flip, xcur - xpre, spre), np.where(flip, xcur - xpre, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (xtol + BRENT_RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            done = active & ((fcur == 0.0) | (np.abs(sbis) < delta))
            roots, values = np.where(done, xcur, roots), np.where(done, fcur, values)
            converged |= done
            active &= ~done
            if not active.any():
                break
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            inverse_quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, secant, inverse_quadratic)
            # C's MIN(a, b) is b unless a < b
            limit, cap = np.abs(spre), 3 * np.abs(sbis) - delta
            take = ((limit > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.where(limit < cap, limit, cap)))
            spre, scur = np.where(take, scur, sbis), np.where(take, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = np.where(np.abs(scur) > delta, xcur + scur,
                            xcur + np.where(sbis > 0, delta, -delta))
            lanes = np.flatnonzero(active)
            fcur = fcur.copy()
            fcur[lanes] = f(xcur[lanes], lanes)
    roots, values = np.where(active, xcur, roots), np.where(active, fcur, values)
    return roots, values, iterations, converged
