"""Parameter kinds, score functions and image analysis.

Every parameter kind is a :class:`Kind`: factor functions ``(u1, u2)`` of the
score ``u2(x) + u1(x) f'(x)/f(x)`` with ``u2 = u1'``, and the action
``h(theta, x)`` of the parameter on the data, the flow of ``u1``:

- location: ``(u1, u2) = (-1, 0)``, ``h = x - theta``, so the score is
  ``phi(x) = -f'(x)/f(x)`` on the full line (stored with this sign so that
  well-behaved targets have *increasing* scores),
- scale:    ``(u1, u2) = (x, 1)``, ``h = theta x`` with ``theta = e^t``, so
  the score is ``psi(x) = 1 + x f'(x)/f(x)`` on the full line or a
  half-line,
- group:    any transformation pair (u1, u2) with its own ``H_theta``.

Since ``u2/u1 = (log|u1|)'``, ``log|u1|`` is the one log-Jacobian of a kind:
tilts weigh by ``|u1|^(d-1)`` and family members by ``u1(h)/u1``.

``analyze_image`` classifies a kind's score over a domain: strict
monotonicity, zero crossing, and the image bounds ``(-p_minus, p_plus)`` with
the two endpoint limits estimated along geometric sequences approaching the
domain endpoints.
``kind_profiles`` analyzes the score on each monotone piece of the support:
the support itself, or the two half-lines when ``u1`` vanishes inside it.

Scores follow the array contract of :mod:`mlechar.density`: a kind's
``u1``, ``u2``, ``h`` and ``to_theta`` take floats or ndarrays, and
``u1`` and ``u2`` may return a constant, which the score keeps scalar (a
location score is ``0 + (-1) f'/f`` without arrays of -1 and 0).
One evaluator serves every score: :class:`Scorer` binds one model's score
once (support test, factors, derivative) and :class:`ScoreSums` the action
and the row sums of a solve, so each step of a solve does only their
arithmetic.  :func:`kind_score` scores a point or a whole probe grid in one
call, and :func:`row_score_sums` scores m samples, as rows of equal or
different lengths back to back, in one call, with one model or with
consecutive runs of rows each scored by its own model.  Each row sum is the
correctly rounded exact sum of the row's scores, the value ``math.fsum``
gives (:func:`row_fsums`): one row of at least ``EXTRACT_MIN_ONE_ROW``
(700) scores is summed by error-free extraction on its score array alone
(:func:`fsum_row`); otherwise a call of fewer than ``EXTRACT_MIN_SCORES``
(1024) scores sums each row with ``math.fsum`` over a list, and a larger
one sums all its rows at once by error-free extraction.
:func:`brent_lanes` is the one root finder: Brent's method run lane by
lane over a batch of brackets, step for step as SciPy's Brent solver runs it,
in numpy lockstep over the lanes not yet converged, and in Python floats for
one lane.
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
    Rows,
    Sample,
    SupportSet,
    bind_array,
    bind_dlogf,
    bind_elementwise,
    call_elementwise,
    effective_interval,
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

# glibc serves the 80-800 KB temporaries of a score evaluation at
# n = 10,000-100,000 from the top of its heap.  Under its default 128 KiB
# trim threshold it may return them to the system after each evaluation and
# fault them in again (3,500-4,900 minor page faults, and a third more time,
# per 16 solves at n = 1,000 and 10,000; about 10,000 faults per solve at
# n = 100,000), depending on what the process freed before.  A freed
# 16 MiB block, which glibc maps on its own, raises the mmap threshold to
# 16 MiB and the trim threshold to 32 MiB (mallopt(3), dynamic mmap
# threshold, capped at 32 MiB on 64-bit hosts, so a larger block does
# nothing), and every process keeps its heap.
np.empty(1 << 21)

# ---------------------------------------------------------------------------
# parameter kinds
# ---------------------------------------------------------------------------


def identity(t):
    """The default ``Kind.to_theta``: the solver coordinate is theta itself."""
    return t


@dataclass(frozen=True, eq=False, repr=False)
class Kind:
    """A parameter kind: the score ``u2 + u1 f'/f`` and the action of theta.

    ``u2`` is the derivative of ``u1``, so ``log|u1|`` is the kind's
    log-Jacobian: tilts weigh by ``|u1|^(d-1)``.  Either factor may return
    a constant (location's -1 and 0, scale's 1); scores and tilts keep it
    scalar.  ``h(theta, x)``, the flow of ``u1``, maps an observation of the
    family member at ``theta`` into the coordinates of the base density f,
    with x-derivative ``u1(h(theta, x)) / u1(x)``; the MLE is the root of
    ``sum_i score(h(theta, x_i))``.  The solver searches a coordinate ``t``
    with ``theta = to_theta(t)``, inside ``theta_window`` (in t), starting
    from ``seed(block) -> (centres, half-widths)`` (default: centre 0).
    ``seed`` receives an ``(m, n)`` block of samples, one per row (the
    solver calls it once per row length), and returns two arrays of m
    values; it is the one field that is never called per element.  Any
    common factor T(theta) of the score is dropped, so the window must keep
    it of constant nonzero sign.  ``supports`` lists the admitted support
    shapes (``None``: any).

    A kind without an action still has scores, image profiles and tilts,
    but no estimator.  ``u1`` must be nonzero on the support except possibly
    at isolated points; an interior zero collapses the equivalence class to
    a singleton.
    """

    u1: Callable
    u2: Callable
    h: Optional[Callable] = None
    theta_window: tuple[float, float] = (-16.0, 16.0)
    label: str = "group"
    supports: Optional[tuple[str, ...]] = None
    seed: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    to_theta: Callable = identity

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
    """Action-less kind with the factor functions ``u1`` and ``u2 = u1'``."""
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
    lo, hi = mags[rows[even], counts[even] // 2 - 1], median[even]
    # beyond magnitude 1 the halves of the middle values are added, whose
    # sum cannot overflow; below it their sum is halved, as halving a
    # subnormal can round it to 0
    half = np.where(hi > 1.0, 0.5, 1.0)
    median[even] = (lo * half + hi * half) / (2.0 * half)
    return -np.log(median), np.full(rows.size, math.log(2.0))


LOCATION = Kind(
    u1=lambda x: -1.0,
    u2=lambda x: 0.0,
    h=lambda theta, x: x - theta,
    theta_window=(-math.inf, math.inf),
    label="location",
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
    supports=(FULL_LINE, POSITIVE_HALF_LINE, NEGATIVE_HALF_LINE),
    seed=_rate_seed,
    to_theta=np.exp,
)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


class Scorer:
    """The kind's score ``u2 + u1 f'/f`` of one model on float arrays, with
    its evaluation bound once, for a solve or for one call.

    A call tests the support first: a point outside it raises
    :class:`OutsideSupport`.  ``u1``, ``u2`` and the model's derivative
    (analytic or a central difference, :func:`~mlechar.density.bind_dlogf`)
    each take the arrays, or are called once per element, from their first
    call on (:func:`~mlechar.density.bind_array`).  A factor that gives one
    0-d value for several points is that constant from then on, kept
    scalar: a location score is ``0 + (-1) f'/f`` without arrays of -1 and
    0, and only a u1 that is not a nonzero constant is tested for zeros.
    Where u1 vanishes (the origin, for scale on the full line) the score is
    u2 wherever log f is finite, whether or not f is differentiable there.
    """

    def __init__(self, model: DensityModel, kind: Kind):
        self.model, self.dlog = model, bind_dlogf(model)
        self.u1, self.u2 = bind_array(kind.u1), bind_array(kind.u2)
        # the constant factors, once a call of several points shows them
        self.a = self.b = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        self.model.support.require(x)
        a = self.u1(x) if self.a is None else self.a
        b = self.u2(x) if self.b is None else self.b
        if x.size > 1:
            if not a.ndim and a != 0.0:
                self.a = a
            if not b.ndim:
                self.b = b
        if self.a is not None or a.all():
            scores = a * self.dlog(x)
            scores += b
            return scores
        a, zero = np.broadcast_to(a, x.shape), np.broadcast_to(a == 0.0, x.shape)
        if not np.isfinite(self.model.log_pdf(x[zero])).all():
            raise NonFiniteLogDensity(f"log-density not finite at x={x[zero][0]}")
        rest = ~zero
        out = np.broadcast_to(b, x.shape).copy()
        out[rest] += a[rest] * self.dlog(x[rest])
        return out

    def at(self, x):
        """The score at ``x``: a float for a float, an ndarray for an ndarray."""
        out = self(np.asarray(x, dtype=float))
        return out if np.ndim(x) else float(out)


def kind_score(model: DensityModel, kind: Kind, x):
    """Score ``u2(x) + u1(x) f'(x)/f(x)`` of ``kind`` at ``x``: a float for a
    float, an ndarray for an ndarray."""
    kind.check(model.support)
    return Scorer(model, kind).at(x)


def flatten_rows(rows) -> Rows:
    """The rows of an ``(m, n)`` block, m 1-D rows of any lengths or a
    :class:`Rows`, back to back as one float array, with the m row lengths;
    a :class:`Sample` is one row.

    Makes no numpy call per row.  Raises :class:`InvalidParams` unless there
    are m >= 1 rows of n >= 1 observations.
    """
    if isinstance(rows, Sample):
        return Rows(rows.values, np.array([rows.n]))
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        rows = Rows(rows.ravel(), np.full(rows.shape[0], rows.shape[1]))
    elif not isinstance(rows, Rows) and np.iterable(rows):
        rows = list(rows)
        try:
            # concatenate rejects scalars, no rows or rows of mixed dimensions
            rows = Rows(np.concatenate(rows), np.array(list(map(len, rows))))
        except (TypeError, ValueError):
            pass
    if isinstance(rows, Rows):
        flat, lengths = np.asarray(rows.flat, dtype=float), np.asarray(rows.lengths)
        if flat.ndim == 1 and lengths.size and lengths.min() >= 1 and lengths.sum() == flat.size:
            return Rows(flat, lengths)
    raise InvalidParams("a block holds m >= 1 samples of n >= 1 observations")


#: calls of at least this many scores are summed by extraction
#: (:func:`row_fsums`); below about a thousand floats ``math.fsum`` over a
#: list costs less
EXTRACT_MIN_SCORES = 1024
#: a call of one row is summed by extraction from this many scores on, where
#: its rounds, with no ``reduceat``, cost less than ``math.fsum`` over a list
#: (the two tie between 450 and 700 scores on a 2-vCPU x86-64 host, Python
#: 3.11, numpy 2.4)
EXTRACT_MIN_ONE_ROW = 700


def row_fsums(scores: np.ndarray, lengths) -> np.ndarray:
    """``math.fsum`` of each row, bit for bit: m rows of the given lengths
    back to back in the 1-D float array ``scores``.

    One row is summed by :func:`fsum_row`.  Otherwise fewer than
    ``EXTRACT_MIN_SCORES`` scores go through ``math.fsum`` over a list, and
    more are summed all at once by error-free extraction
    (``ExtractVector`` of Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008).  With
    ``2^M >= n + 2`` for a row of n and ``sigma = 2^M 2^e`` for its
    ``max|p| < 2^e``, the parts ``q = (sigma + p) - sigma`` are multiples of
    ``2^-53 sigma`` whose sum is exact in any order, and ``p - q`` is exact.
    Two rounds, each with its ``sigma`` from the row's largest remainder,
    leave no remainder in nearly every row; the one IEEE addition of its two
    exact part sums then rounds the row's exact sum correctly (for
    ``sigma <= 2^1023`` nothing overflows).  Each row's ``sigma`` comes from
    one ``np.maximum.reduceat`` of the remainders' magnitudes and its part
    sums from ``np.add.reduceat``.  A row with a remainder left takes more
    rounds alone, and ``math.fsum`` of its part sums rounds the total; a row
    with an infinite or NaN score, or whose ``sigma`` overflows, leaves NaN
    behind and goes through ``math.fsum`` itself, which then raises or
    overflows as it would on the scores.
    """
    lengths = np.asarray(lengths)
    if lengths.size == 1:
        return np.array([fsum_row(scores)])
    if scores.size < EXTRACT_MIN_SCORES:
        return np.array(list(map(math.fsum, map(islice, repeat(iter(scores.tolist())), lengths))))
    starts = np.cumsum(lengths) - lengths
    # M = ceil(log2(n + 2)), the bit length of n + 1
    spread = np.frexp(lengths + 1)[1]
    rest, part, sums = scores.copy(), np.empty_like(scores), []
    # an infinite or NaN score, or a sigma that overflows, leaves NaN in its
    # row's remainder
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            top = np.maximum.reduceat(np.abs(rest, out=part), starts)
            sigma = np.repeat(np.ldexp(1.0, spread + np.frexp(top)[1]), lengths)
            np.add(rest, sigma, out=part)
            part -= sigma
            sums.append(np.add.reduceat(part, starts))
            rest -= part
        out = sums[0] + sums[1]
    left = np.zeros(lengths.size, dtype=bool)
    left[np.searchsorted(starts, np.flatnonzero(rest), side="right") - 1] = True
    for i in np.flatnonzero(left).tolist():
        row = slice(starts[i], starts[i] + lengths[i])
        out[i] = _fsum_rest(scores[row], rest[row], int(spread[i]), [sums[0][i], sums[1][i]])
    return out


def fsum_row(scores: np.ndarray) -> float:
    """``math.fsum`` of one row of scores, bit for bit: by the extraction
    rounds of :func:`_fsum_rest` from ``EXTRACT_MIN_ONE_ROW`` scores on,
    with no ``reduceat``, and by ``math.fsum`` over a list below."""
    if scores.size >= EXTRACT_MIN_ONE_ROW:
        return _fsum_rest(scores, scores, (scores.size + 1).bit_length(), [])
    return math.fsum(scores.tolist())


def _fsum_rest(row: np.ndarray, rest: np.ndarray, spread: int, parts: list) -> float:
    """``math.fsum`` of a row from the exact part sums extracted so far and
    the remainder ``rest`` (the row itself before any round), which it
    leaves as it is: ``math.fsum`` of the row where the remainder is not
    finite or its ``sigma`` would pass the float limit, else more rounds of
    the row alone until no remainder is left.  The first round takes its
    ``sigma`` from the largest remainder; a round leaves
    ``|rest| <= 2^-53 sigma``, so each later one takes ``sigma`` from that
    bound, with no pass over the remainder, and updates it in place."""
    part = np.empty_like(rest)
    top = float(np.abs(rest, out=part).max())
    if not math.isfinite(top) or spread + math.frexp(top)[1] > 1023:
        return math.fsum(row.tolist())
    if top == 0.0:
        return math.fsum(parts)
    # a power of two times a power of two: exact until it underflows, and a
    # sigma of zero takes what is left as its part
    sigma, shrink = math.ldexp(1.0, spread + math.frexp(top)[1]), math.ldexp(1.0, spread - 53)
    np.add(rest, sigma, out=part)
    part -= sigma
    parts.append(float(part.sum()))
    rest = rest - part
    # the second round runs unasked: the first one nearly always leaves a
    # remainder
    while True:
        sigma *= shrink
        np.add(rest, sigma, out=part)
        part -= sigma
        parts.append(float(part.sum()))
        rest -= part
        if not rest.any():
            return math.fsum(parts)


class ScoreSums:
    """Exact row sums of one kind's score, bound once for a solve: the
    action ``kind.h`` and each model's :class:`Scorer`, whose callables
    decide on their first call whether they take arrays.

    A call moves the rows by one ``h`` call, scores each model's rows and
    sums each row with :func:`row_fsums`; :meth:`row` sums one row to a
    float.  A sum that ``math.fsum`` cannot form, such as scores of both
    infinite signs, raises :class:`BracketFailure`.
    """

    def __init__(self, kind: Kind, models):
        self.h = bind_elementwise(kind.h)
        self.scorers = [Scorer(model, kind) for model in models]

    def __call__(self, theta: np.ndarray, flat: np.ndarray, lengths: np.ndarray,
                 ends=None) -> np.ndarray:
        """m row sums, row i at ``h(theta[i], x)``: ``flat`` holds the rows
        back to back, and model j scores the rows from ``ends[j-1]`` (0 for
        the first) up to ``ends[j]`` (all rows, for one model)."""
        # a single row needs no theta repeated
        moved = self.h(theta if theta.size == 1 else np.repeat(theta, lengths), flat)
        if len(self.scorers) == 1:
            scores = self.scorers[0](moved)
        else:
            # each model scores the contiguous slice of its rows' points
            stops = np.concatenate([[0], np.cumsum(lengths)])[ends].tolist()
            scores = np.empty_like(moved)
            for scorer, start, stop in zip(self.scorers, [0] + stops, stops):
                if start < stop:
                    scores[start:stop] = scorer(moved[start:stop])
        # the moved points go before the row sums take two arrays of their size
        del moved
        try:
            return row_fsums(scores, lengths)
        except (ValueError, OverflowError):
            # sum again row by row, only to name the row that failed
            rows = iter(scores.tolist())
            for row_theta, n in zip(theta.tolist(), lengths):
                try:
                    math.fsum(islice(rows, n))
                except (ValueError, OverflowError) as exc:
                    raise _no_sum(row_theta, exc) from exc
            raise

    def row(self, theta: np.ndarray, x: np.ndarray) -> float:
        """The sum of the one row ``x`` of the first model at ``h(theta, x)``,
        for ``theta`` an array of one."""
        scores = self.scorers[0](self.h(theta, x))
        try:
            return fsum_row(scores)
        except (ValueError, OverflowError) as exc:
            raise _no_sum(theta.item(), exc) from exc


def _no_sum(theta: float, exc: Exception) -> BracketFailure:
    return BracketFailure(f"the score sum at theta={theta!r} has no value: {exc}")


def row_score_sums(model, kind: Kind, flat: np.ndarray, lengths, theta,
                   ends=None) -> np.ndarray:
    """m row sums of the kind's score, row i at ``h(theta[i], x)``.

    ``flat`` holds the m rows back to back and ``lengths`` their sizes.  The
    one :class:`DensityModel` ``model`` scores every row; with ``ends``,
    ``model`` is a sequence of models and model j scores the rows from
    ``ends[j-1]`` (0 for the first) up to ``ends[j]``, all moved by one
    ``kind.h`` call.  Each row sum is the correctly rounded exact sum of
    that row's own scores, ``math.fsum`` of them (:func:`row_fsums`), so it
    does not depend on the other rows.  A sum that ``math.fsum`` cannot
    form, such as scores of both infinite signs, raises
    :class:`BracketFailure`.  This is one call of :class:`ScoreSums`.
    """
    sums = ScoreSums(kind, [model] if ends is None else model)
    return sums(np.asarray(theta, dtype=float), np.asarray(flat, dtype=float),
                np.asarray(lengths), ends)


# ---------------------------------------------------------------------------
# image analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScoreProfile:
    """Monotonicity, zero crossing and image bounds of a score function.

    A profile is only ever produced for strictly monotone scores;
    ``monotone_increasing`` records the direction.  When the score crosses
    zero its image is the open interval ``(-p_minus, p_plus)`` with both
    bounds positive (possibly infinite).  ``provenance`` says how the bounds
    were found: ``"numeric"``, by endpoint limit estimation.
    """

    domain: SupportSet
    evaluate: Callable
    monotone_increasing: bool
    crosses_zero: bool
    p_minus: float
    p_plus: float
    provenance: str


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
                    v_start: float, expected: float) -> float:
    """Endpoint limit of a monotone score.

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
            return math.copysign(math.inf, expected)
        if math.isnan(v):
            return math.copysign(math.inf, expected)
        if math.isinf(v) or abs(v) >= INFINITE_THRESHOLD:
            return math.copysign(math.inf, v)
        dv = v - values[-1]
        if dv * expected < -1e-9 * max(1.0, abs(v)):
            raise NotMonotone(
                f"score reverses direction approaching the {side} endpoint (x={x:g})"
            )
        values.append(v)
        # gather three tail values so the acceleration step has material
        if abs(dv) < CAUCHY_TOL and len(values) >= 3:
            return _aitken(values[-3], values[-2], values[-1])
    # no convergence within budget: the values kept drifting, treat as infinite
    return math.copysign(math.inf, expected)


def analyze_image(model: DensityModel, kind: Kind,
                  domain: Optional[SupportSet] = None) -> ScoreProfile:
    """Build a :class:`ScoreProfile` for ``kind``'s score of ``model``.

    The score is analyzed on ``domain`` (default: the model's support).
    Strict monotonicity is required across the central probe grid (slack 0);
    violations raise :class:`NotMonotone`, which signals that the family is
    outside the scope of the characterization theory for this kind.  Image
    bounds come from endpoint limit estimation.
    """
    domain = model.support if domain is None else domain
    # one scorer serves the grid, the tail walks and later callers of the
    # profile
    kind.check(model.support)
    evaluate = Scorer(model, kind).at
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
    lo_limit = _estimate_limit(evaluate, domain, "lower", float(xs[0]), float(vs[0]),
                               -1.0 if increasing else 1.0)
    hi_limit = _estimate_limit(evaluate, domain, "upper", float(xs[-1]), float(vs[-1]),
                               1.0 if increasing else -1.0)
    inf_limit, sup_limit = (lo_limit, hi_limit) if increasing else (hi_limit, lo_limit)
    crosses = inf_limit < 0.0 < sup_limit

    return ScoreProfile(
        domain=domain,
        evaluate=evaluate,
        monotone_increasing=increasing,
        crosses_zero=crosses,
        p_minus=-inf_limit,
        p_plus=sup_limit,
        provenance="numeric",
    )


def u1_vanishes_inside(kind: Kind, support: SupportSet) -> bool:
    """Whether ``kind.u1`` vanishes or changes sign inside ``support``.

    Vanishing limits at the support's ends do not count.
    """
    # u1 is probed on twice the points of a score, and closer to half-line
    # origins
    xs = probe_grid(support, (support.lower, support.upper), 401, 20.0, 1e-8, 1e-6)
    vals = call_elementwise(kind.u1, xs)
    return bool((np.abs(vals) < 1e-12).any()
                or (np.sign(vals[:-1]) * np.sign(vals[1:]) < 0).any())


#: the two sides of an interior zero of u1, taken to be the origin
_HALF_LINES = (SupportSet.negative_half_line(), SupportSet.positive_half_line())


def kind_profiles(model: DensityModel, kind: Kind) -> tuple[ScoreProfile, ...]:
    """Score profiles of ``kind`` on the monotone pieces of the model's support.

    One piece, the support itself; or, when ``u1`` vanishes inside the
    support (scale on the full line), the ``(negative, positive)`` half-lines.
    """
    if not u1_vanishes_inside(kind, model.support):
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


def brent_one(f: Callable[[float], float], xpre: float, xcur: float, fpre: float, fcur: float,
              xtol: float, maxiter: int) -> tuple[float, float, int, bool]:
    """:func:`brent_lanes` on one lane, of a function of a Python float: the
    loop of SciPy's Brent solver as written, in Python floats."""
    if fpre == 0.0:
        return xpre, fpre, 0, True
    if fcur == 0.0:
        return xcur, fcur, 0, True
    xblk = fblk = spre = scur = 0.0
    for steps in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur, steps, True
        take = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass  # in C an infinite or NaN step fails the test below
            else:
                limit, cap = abs(spre), 3 * abs(sbis) - delta
                take = 2 * abs(stry) < (limit if limit < cap else cap)
        spre, scur = (scur, stry) if take else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return xcur, fcur, maxiter, False


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
    bracket end), the iteration counts (0 for a zero at a bracket end) and
    whether each lane converged.

    Several lanes step in numpy lockstep, which keeps the state of the live
    lanes only and drops each lane from it as it converges, so a step costs
    about as much for 25 lanes as for 800 and the slow last lanes step
    alone.  One lane steps in Python floats, where a
    numpy step would cost far more than the arithmetic; a secant or
    inverse-quadratic step whose denominator is zero is not taken, as an
    infinite or NaN step is not in C.  Both give the same bits.
    """
    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    fpre, fcur = np.array(fa, dtype=float), np.array(fb, dtype=float)
    if xcur.size == 1:
        lane = np.zeros(1, dtype=int)
        return tuple(np.array([v]) for v in brent_one(
            lambda x: float(f(np.array([x]), lane)[0]), xpre.item(), xcur.item(), fpre.item(),
            fcur.item(), xtol, maxiter))
    roots, values = np.where(fpre == 0.0, xpre, xcur), np.where(fpre == 0.0, fpre, fcur)
    # a zero at an end returns that end before any iteration
    converged = (fpre == 0.0) | (fcur == 0.0)
    iterations = np.zeros(xcur.size, dtype=int)
    # the state of the live lanes only, in the order of their lane numbers;
    # the step candidates are computed also where their denominators vanish,
    # and only well-defined ones are taken
    live = np.flatnonzero(~converged)
    xpre, xcur, fpre, fcur = xpre[live], xcur[live], fpre[live], fcur[live]
    xblk, fblk, spre, scur = (np.zeros(live.size) for _ in range(4))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(1, maxiter + 1):
            if not live.size:
                break
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
            done = (fcur == 0.0) | (np.abs(sbis) < delta)
            if done.any():
                # record the converged lanes and drop them from the state
                ends = live[done]
                roots[ends], values[ends], iterations[ends] = xcur[done], fcur[done], step
                converged[ends] = True
                keep = ~done
                live = live[keep]
                xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis = (
                    v[keep] for v in (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
                                      sbis))
                if not live.size:
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
            fcur = np.asarray(f(xcur, live), dtype=float)
    # lanes still live after maxiter steps end at their last iterate
    roots[live], values[live], iterations[live] = xcur, fcur, maxiter
    return roots, values, iterations, converged
