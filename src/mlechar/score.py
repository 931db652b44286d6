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

``analyze_image`` classifies a kind's score over a domain from its values on
the domain's scan grid (:func:`~mlechar.density.scan_grid`): monotonicity,
zero crossing, and the image bounds ``(-p_minus, p_plus)``.  A score is
monotone when no step turns back by more than round-off and every flat run
(steps within a few ulps) is one where the score has reached its float
limit: a flat run that a larger step enters or leaves, and still does when
that step's cell is split finer, such as Laplace's sign(x) or Huber's
clipped score, is refused.  An end of the grid where the score is flat
gives that value as its bound, and one where it is not finite the infinity
it was heading for.  Past any other end, a walk by powers of two (from the
power of two just past the grid's end, or just below it toward a half-line
origin) estimates the limit, its first step held to the flat-run rule with
the grid's last one: a walk that settles gives a finite limit, one that
reverses is not monotone, and one that does not settle ends at the
infinity it was heading for.
``kind_profiles`` analyzes the score on each monotone piece of the support:
the support itself, or its two sides of the origin when ``u1`` vanishes
there.  A kind's ``u1`` also says where it acts: ``h``, the flow of ``u1``,
cannot cross a zero of it, so ``Kind.check`` admits a support exactly when
``u1`` vanishes at each of its finite ends.

Scores follow the array contract of :mod:`mlechar.density`: a kind's
``u1``, ``u2``, ``h`` and ``to_theta`` take floats or ndarrays, and
``u1`` and ``u2`` may return a constant, which the score keeps scalar (a
location score is ``0 + (-1) f'/f`` without arrays of -1 and 0).
One evaluator serves every score: :class:`Scorer` scores one model
(support test, factors, derivative) and :class:`ScoreSums` adds the action
and the row sums of a solve; neither keeps what one call finds about its
callables for the next.  :func:`kind_score` scores a point or a whole grid in
one call, and one :class:`ScoreSums` call scores m samples, as rows
of equal or different lengths back to back (a :class:`~mlechar.density.Rows`),
each consecutive run of rows by its own model.  Each row sum is the
correctly rounded exact sum of the row's scores, the value ``math.fsum``
gives, by error-free extraction: all rows at once (:func:`row_fsums`), or
the one row of :meth:`ScoreSums.row` on its score array alone
(:func:`fsum_row`).
:func:`brent_lanes` is the root finder of every batch: Brent's method run
lane by lane over a batch of brackets, step for step as SciPy's Brent solver
runs it, in numpy lockstep over the lanes not yet converged;
:func:`brent_one` runs the same steps in Python floats for the one-row
solve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import partial, wraps
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .density import (
    DensityModel,
    SupportSet,
    call_array,
    call_elementwise,
    eval_dlogf,
    median,
    middle_mean,
    scan_grid,
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
    it of constant nonzero sign.

    A kind without an action still has scores, image profiles and tilts,
    but no estimator.  ``u1`` must be nonzero on the support except possibly
    at the origin, where a zero collapses the equivalence class to a
    singleton, and it must vanish at each finite end of the support
    (:meth:`check`).

    What :func:`u1_zeros` and :func:`require_group` find on a support
    depends on the kind and the support alone, so the kind keeps it, per
    support, as a model keeps its scan.
    """

    u1: Callable
    u2: Callable
    h: Optional[Callable] = None
    theta_window: tuple[float, float] = (-16.0, 16.0)
    label: str = "group"
    seed: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None
    to_theta: Callable = identity
    _facts: dict = field(default_factory=dict, init=False)

    def __repr__(self) -> str:
        return self.label

    def check(self, support: SupportSet) -> None:
        """Raise :class:`UnsupportedSupport` unless ``u1`` vanishes at each
        finite end of ``support``: its flow ``h`` cannot cross a zero of it,
        so otherwise ``h`` does not map the support onto itself.  ``u1`` is
        called once per finite end, with a float."""
        for end in filter(math.isfinite, (support.lower, support.upper)):
            if not vanishes(u := _u1(self, support, end)):
                raise UnsupportedSupport(f"{self.label} parameters need u1 to vanish at the "
                                         f"finite ends of {support}, got u1({end:g}) = {u:g}")


#: ``Group(u1, u2)`` is the action-less kind with the factor functions
#: ``u1`` and ``u2 = u1'``
Group = Kind


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
    mid = middle_mean(mags[rows, (counts - 1) // 2], mags[rows, counts // 2])
    return -np.log(mid), np.full(rows.size, math.log(2.0))


LOCATION = Kind(
    u1=lambda x: -1.0,
    u2=lambda x: 0.0,
    h=lambda theta, x: x - theta,
    theta_window=(-math.inf, math.inf),
    label="location",
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
    seed=_rate_seed,
    to_theta=np.exp,
)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------


class Scorer:
    """The kind's score ``u2 + u1 f'/f`` of one model on float arrays, for a
    solve or for one call.

    A point outside the support raises :class:`OutsideSupport`.  ``u1`` and
    ``u2`` go through :func:`~mlechar.density.call_array` and the model's
    derivative through :func:`~mlechar.density.eval_dlogf`, so each call
    tries the arrays first and falls back to one call per element only when
    a callable rejects them.  A factor that returns a constant stays 0-d: a
    location score is ``0 + (-1) f'/f`` without arrays of -1 and 0.  Where
    u1 vanishes (the origin, for scale on the full line) the score is u2
    wherever log f is finite, whether or not f is differentiable there.
    """

    def __init__(self, model: DensityModel, kind: Kind):
        self.model = model
        self.u1, self.u2 = partial(call_array, kind.u1), partial(call_array, kind.u2)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        a, b = self.u1(x), self.u2(x)
        if a.all():
            # the derivative tests the support
            scores = a * eval_dlogf(self.model, x)
            scores += b
            return scores
        self.model.support.require(x)
        a, zero = np.broadcast_to(a, x.shape), np.broadcast_to(a == 0.0, x.shape)
        if not np.isfinite(self.model.log_pdf(x[zero])).all():
            raise NonFiniteLogDensity(f"log-density not finite at x={x[zero][0]}")
        rest = ~zero
        out = np.broadcast_to(b, x.shape).copy()
        out[rest] += a[rest] * eval_dlogf(self.model, x[rest])
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


def row_fsums(scores: np.ndarray, lengths) -> np.ndarray:
    """``math.fsum`` of each row, bit for bit: m rows of the given lengths
    back to back in the 1-D float array ``scores``.

    The rows are summed all at once by error-free extraction
    (``ExtractVector`` of Rump, Ogita and Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008).  With
    ``2^M >= n + 2`` for a row of n and ``sigma = 2^M 2^e`` for its
    ``max|p| < 2^e``, the parts ``q = (sigma + p) - sigma`` are multiples of
    ``2^-53 sigma`` whose sum is exact in any order, and ``p - q`` is exact.
    Two rounds leave no remainder in nearly every row; the one IEEE addition
    of its two exact part sums then rounds the row's exact sum correctly
    (for ``sigma <= 2^1023`` nothing overflows).  The first round's
    ``sigma`` comes from one ``np.maximum.reduceat`` of the scores'
    magnitudes; it leaves ``|rest| <= 2^-53 sigma``, so the second round's
    is ``2^(M - 53) sigma``, as in :func:`_fsum_rest`.  The part sums come
    from ``np.add.reduceat``.  A row with a remainder left takes more
    rounds alone, and ``math.fsum`` of its part sums rounds the total; a row
    with an infinite or NaN score, or whose ``sigma`` overflows, leaves NaN
    behind and goes through ``math.fsum`` itself, which then raises or
    overflows as it would on the scores.
    """
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    # M = ceil(log2(n + 2)), the bit length of n + 1
    spread = np.frexp(lengths + 1)[1]
    rest, part, sums = scores.copy(), np.empty_like(scores), []
    # an infinite or NaN score, or a sigma that overflows, leaves NaN in its
    # row's remainder
    with np.errstate(over="ignore", invalid="ignore"):
        top = np.maximum.reduceat(np.abs(rest, out=part), starts)
        first = spread + np.frexp(top)[1]
        # the first round leaves |rest| <= 2^-53 sigma, which gives the
        # second round's sigma with no pass over the remainders
        for exponent in (first, first + spread - 53):
            sigma = np.repeat(np.ldexp(1.0, exponent), lengths)
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
    rounds of :func:`_fsum_rest`, with no ``reduceat``."""
    return _fsum_rest(scores, scores, (scores.size + 1).bit_length(), [])


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
    """Exact row sums of one kind's score, for a solve or for one call: the
    action ``kind.h`` (:func:`~mlechar.density.call_elementwise`) and each
    model's :class:`Scorer`.

    A call moves the rows by one ``h`` call, scores each model's rows and
    sums each row with :func:`row_fsums`; :meth:`row` sums one row to a
    float.  A sum that ``math.fsum`` cannot form, such as scores of both
    infinite signs, raises :class:`BracketFailure`.
    """

    def __init__(self, kind: Kind, models):
        self.h = partial(call_elementwise, kind.h)
        self.scorers = [Scorer(model, kind) for model in models]

    def __call__(self, theta: np.ndarray, flat: np.ndarray, lengths: np.ndarray,
                 ends=None) -> np.ndarray:
        """m row sums, row i at ``h(theta[i], x)``: ``flat`` holds the rows
        back to back, and model j scores the rows from ``ends[j-1]`` (0 for
        the first) up to ``ends[j]`` (by default, one model scores all
        rows)."""
        moved = self.h(np.repeat(theta, lengths), flat)
        # each model scores the contiguous slice of its rows' points
        ends = [lengths.size] if ends is None else ends
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


# ---------------------------------------------------------------------------
# image analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ScoreProfile:
    """Monotonicity, zero crossing and image bounds of a score function.

    A profile is only ever produced for monotone scores, flat only where
    they have reached their float limit (see :func:`analyze_image`);
    ``monotone_increasing`` records the direction.  When the score crosses
    zero its image is the open interval ``(-p_minus, p_plus)`` with both
    bounds positive (possibly infinite).  ``provenance`` says how the bounds
    were found: ``"numeric"``, by endpoint limit estimation.
    """

    domain: SupportSet
    evaluate: Callable
    monotone_increasing: bool
    p_minus: float
    p_plus: float
    provenance: str

    @property
    def crosses_zero(self) -> bool:
        """Whether the image ``(-p_minus, p_plus)`` holds zero."""
        return self.p_minus > 0.0 < self.p_plus


#: endpoint sequences: geometric ratio, step budget and the Cauchy tolerance
#: of a finite limit; a walk that does not settle within the budget heads for
#: an infinite limit
TAIL_RATIO = 2.0
TAIL_STEPS = 80
CAUCHY_TOL = 1e-6

#: the largest step against its direction that a monotone score may take,
#: relative to max(1, |score|): round-off, not a turn
REVERSAL_SLACK = 1e-9

#: steps within this many ulps of the score are flat
FLAT_ULPS = 8.0

#: points a cell is split into before a flat step next to its larger step is
#: refused: enough that a smooth score passes through steps between the two
#: sizes on its way to its float limit
EDGE_POINTS = 64


def _tail_points(domain: SupportSet, side: str, start: float) -> np.ndarray:
    """``TAIL_STEPS`` points from ``start`` toward the given domain endpoint:
    doubling from the power of two just past ``start`` toward an infinite
    end, or halving the gap to a finite end from the power of two just below
    ``start``'s gap, so that toward a half-line origin every point is a power
    of two."""
    end = domain.lower if side == "lower" else domain.upper
    powers = TAIL_RATIO ** np.arange(TAIL_STEPS)
    if math.isinf(end):
        return math.copysign(math.ldexp(1.0, math.frexp(start)[1]), start) * powers
    gap = start - end
    return end + math.copysign(math.ldexp(0.5, math.frexp(gap)[1]), gap) / powers


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


def _steps(vs: np.ndarray):
    """The steps of the scores ``vs``; which of them are flat (within
    ``FLAT_ULPS`` ulps of the score they reach) and which large (past
    ``REVERSAL_SLACK``); and the edges, the indices ``j`` where one of the
    steps ``j`` and ``j + 1`` is flat and the other large."""
    steps, size = np.diff(vs), np.abs(vs[1:])
    flat = np.abs(steps) <= FLAT_ULPS * np.spacing(size)
    large = np.abs(steps) > REVERSAL_SLACK * np.maximum(1.0, size)
    return steps, flat, large, np.flatnonzero((flat[1:] & large[:-1]) | (flat[:-1] & large[1:]))


def _refuse_sharp_edges(evaluate, xs: np.ndarray, large: np.ndarray, edges: np.ndarray,
                        where: str) -> None:
    """Raise :class:`NotMonotone` for an edge (see :func:`_steps`) of scores
    at ``xs`` that stays an edge when the large step's cell is split into
    ``EDGE_POINTS`` points (geometric where its ends share a sign): a
    clipped score's does, while a smooth score that reaches its float limit
    inside a wide cell passes through steps of sizes in between."""
    for j in edges.tolist():
        a, b, far = (j, j + 1, j + 2) if large[j] else (j + 2, j + 1, j)
        split = np.geomspace if xs[a] * xs[b] > 0.0 else np.linspace
        fine = np.append(split(xs[a], xs[b], EDGE_POINTS), xs[far])
        if _steps(_scan_scores(evaluate, fine))[3].size:
            raise NotMonotone(f"score is flat short of its float limit at x={xs[j + 1]:g} {where}")


def _estimate_limit(evaluate, domain: SupportSet, side: str, start: float,
                    v_start: float, expected: float,
                    before: Optional[tuple[float, float]] = None) -> float:
    """Endpoint limit of a monotone score past the scan grid's end point
    ``start``, where the score is ``v_start``; ``before`` is the scan's
    point before ``start`` with its score, if it has one.

    Walks the geometric sequence of :func:`_tail_points` toward the
    endpoint, with one rule per outcome.  A walk that settles, once
    successive values agree within the Cauchy tolerance, gives a finite
    limit, sharpened by Aitken extrapolation of its last three values (the
    tails of all smooth scores converge geometrically along geometric probe
    sequences).  ``expected`` is the sign the increments must keep, within
    ``REVERSAL_SLACK``; a reversal means the score is not monotone out to
    the endpoint and raises :class:`NotMonotone`, and so does a flat first
    step that makes an edge with the scan's last step
    (:func:`_refuse_sharp_edges`).  Past its first step the walk reads a
    flat run as the limit reached.  A walk that does not settle ends at the
    infinity of the expected sign: a value that is NaN or infinite, an
    overflow while scoring, or the ``TAIL_STEPS`` budget running out.

    The ``TAIL_STEPS`` points are scored in one array call, and the walk
    reads their values in order up to its stopping point.  If that call
    raises (a point past the stopping point may reach a bounded end, or
    overflow a ``math``-based callable), the walk scores point by point, and
    only up to its stopping point, with NaN where a point overflows.  Both
    modes score quietly.
    """
    xs = _tail_points(domain, side, start)
    values = [v_start]
    with np.errstate(all="ignore"):
        try:
            scores = evaluate(xs).tolist()
        except Exception:
            scores = map(partial(_quiet_point, evaluate), xs.tolist())
        for x, v in zip(xs.tolist(), scores):
            if not math.isfinite(v):
                break
            # a flat first step may make an edge with the scan's last one
            first = before is not None and len(values) == 1
            if first and abs(v - v_start) <= FLAT_ULPS * math.ulp(v):
                edge_xs = np.array([before[0], start, x])
                edge_vs = np.array([before[1], v_start, v])
                _refuse_sharp_edges(evaluate, edge_xs, *_steps(edge_vs)[2:],
                                    f"approaching the {side} endpoint")
            dv = v - values[-1]
            if dv * expected < -REVERSAL_SLACK * max(1.0, abs(v)):
                raise NotMonotone(
                    f"score reverses direction approaching the {side} endpoint (x={x:g})"
                )
            values.append(v)
            # three values of the walk itself give the acceleration step its
            # material
            if abs(dv) < CAUCHY_TOL and len(values) > 3:
                return _aitken(values[-3], values[-2], values[-1])
    return math.copysign(math.inf, expected)


def _scan_scores(evaluate, xs: np.ndarray) -> np.ndarray:
    """The score on a scan grid, quietly: in one array call, or where that
    call raises, one point at a time, with NaN where a point overflows."""
    with np.errstate(all="ignore"):
        try:
            return evaluate(xs)
        except Exception:
            return np.array([_quiet_point(evaluate, x) for x in xs.tolist()])


def _quiet_point(evaluate, x: float) -> float:
    try:
        return evaluate(x)
    except (OverflowError, NonFiniteLogDensity):
        return math.nan


def analyze_image(model: DensityModel, kind: Kind,
                  domain: Optional[SupportSet] = None) -> ScoreProfile:
    """Build a :class:`ScoreProfile` for ``kind``'s score of ``model``.

    The score is analyzed on ``domain`` (default: the model's support), on
    its scan grid (:func:`~mlechar.density.scan_grid`), in one quiet call.
    Non-finite scores are allowed only in runs that reach an end of the
    grid; one elsewhere raises :class:`NonFiniteLogDensity`.  The score's
    direction is that of its whole change.  A step against it larger than
    ``REVERSAL_SLACK``, a score none of whose steps is larger, or a flat run
    (steps within ``FLAT_ULPS`` ulps) that a larger step enters or leaves,
    also in that step's cell split finer (:func:`_refuse_sharp_edges`),
    raises :class:`NotMonotone`, which signals that the family is outside
    the scope of the characterization theory for this kind.  So a score may
    be flat only where it has reached its float limit.  Each image bound is
    the value of a flat run at that end, the infinity of a non-finite end,
    or the limit of :func:`_estimate_limit`'s walk on from the grid's end,
    whose first step is held to the flat-run rule with the grid's last one.
    """
    domain = model.support if domain is None else domain
    # one scorer serves the grid, the tail walks and later callers of the
    # profile
    kind.check(model.support)
    evaluate = Scorer(model, kind).at
    xs = scan_grid(domain)
    vs = _scan_scores(evaluate, xs)
    bad = ~np.isfinite(vs)
    # the finite scores lo:hi; a non-finite one inside them is refused
    lo, hi = int(np.argmin(bad)), bad.size - int(np.argmin(bad[::-1]))
    if bad[lo:hi].any():
        raise NonFiniteLogDensity("score is not finite at scan point "
                                  f"x={xs[lo + int(np.argmax(bad[lo:hi]))]:g}")
    xs, v = xs[lo:hi], vs[lo:hi]
    steps, flat, large, edges = _steps(v)
    direction = 1.0 if v[-1] >= v[0] else -1.0
    if not large.any():
        raise NotMonotone(f"score does not change on the scan grid (domain {domain})")
    turns = np.flatnonzero(large & (steps * direction < 0.0))
    if turns.size:
        raise NotMonotone(f"score reverses direction at x={xs[turns[0] + 1]:g} "
                          f"on the scan grid (domain {domain})")
    _refuse_sharp_edges(evaluate, xs, large, edges, f"on the scan grid (domain {domain})")

    # toward the lower endpoint an increasing score must keep decreasing,
    # toward the upper endpoint it must keep increasing
    lo_limit = _end_limit(evaluate, domain, "lower", xs[1::-1], v[1::-1], -direction,
                          flat[0], lo > 0)
    hi_limit = _end_limit(evaluate, domain, "upper", xs[-2:], v[-2:], direction,
                          flat[-1], hi < vs.size)
    inf_limit, sup_limit = (lo_limit, hi_limit) if direction > 0.0 else (hi_limit, lo_limit)

    return ScoreProfile(
        domain=domain,
        evaluate=evaluate,
        monotone_increasing=direction > 0.0,
        p_minus=-inf_limit,
        p_plus=sup_limit,
        provenance="numeric",
    )


def _end_limit(evaluate, domain: SupportSet, side: str, xs: np.ndarray, vs: np.ndarray,
               expected: float, flat: bool, cut: bool) -> float:
    """One image bound of :func:`analyze_image` from the scan's last two
    points ``xs`` toward that end and their scores ``vs``: the score at the
    end point when the step to it is flat, the infinity of the expected sign
    when the scan is cut short by non-finite scores, otherwise the limit of
    the walk on from the end point."""
    if flat:
        return float(vs[1])
    if cut:
        return math.copysign(math.inf, expected)
    return _estimate_limit(evaluate, domain, side, float(xs[1]), float(vs[1]), expected,
                           (float(xs[0]), float(vs[0])))


def vanishes(u):
    """Whether ``|u1|`` is below 1e-12: a float, or each element of an ndarray."""
    return abs(u) < 1e-12


def _u1(kind: Kind, support: SupportSet, x):
    """``kind.u1`` at the float ``x``, as a float, or on the array ``x``, as
    an array.  Where ``u1`` raises ``ValueError`` or ``ArithmeticError``,
    numpy's division by zero and invalid operations included, it is not
    defined, which raises :class:`UnsupportedSupport`; an overflow is quiet."""
    try:
        with np.errstate(divide="raise", over="ignore", invalid="raise"):
            return call_elementwise(kind.u1, x) if isinstance(x, np.ndarray) else float(kind.u1(x))
    except (ValueError, ArithmeticError) as exc:
        raise UnsupportedSupport(
            f"u1 of the {kind!r} kind is not defined on {support}: {exc}") from exc


def _per_support(find: Callable) -> Callable:
    """``find(kind, support)`` found once per support and kept by the kind;
    a call that raises keeps nothing, so the next one raises again."""
    @wraps(find)
    def known(kind: Kind, support: SupportSet):
        key = (find, support)
        if key not in kind._facts:
            kind._facts[key] = find(kind, support)
        return kind._facts[key]

    return known


@_per_support
def _u1_zeros(kind: Kind, support: SupportSet) -> tuple[float, ...]:
    xs = scan_grid(support)
    u = _u1(kind, support, xs)
    small = vanishes(u)
    # each run of vanishing nodes starts and stops where `small` flips
    flips = np.flatnonzero(np.diff(small, prepend=False, append=False)).tolist()
    zeros = [a + int(np.argmin(np.abs(u[a:b]))) for a, b in zip(flips[::2], flips[1::2])]
    i = np.flatnonzero((np.signbit(u[:-1]) != np.signbit(u[1:])) & ~small[:-1] & ~small[1:])
    secants = xs[i] - u[i] * (xs[i + 1] - xs[i]) / (u[i + 1] - u[i])
    return tuple(sorted(xs[zeros].tolist() + secants.tolist()))


def u1_zeros(kind: Kind, support: SupportSet) -> list[float]:
    """The zeros of ``kind.u1`` inside ``support``, in order, as a new list;
    found once per (kind, support).

    On the support's scan grid: each run of nodes where ``u1`` vanishes
    (:func:`vanishes`) is one zero, at its least ``|u1|``, and each sign
    change between two nodes where it does not is one, at the secant zero.
    Vanishing limits at the support's ends do not count.
    """
    return list(_u1_zeros(kind, support))


@_per_support
def require_group(kind: Kind, support: SupportSet) -> None:
    """Raise :class:`InvalidParams` unless ``u2`` is the derivative of
    ``u1``: central differences on the support's scan grid, with steps of
    1e-6 of ``1 + |x|`` or of the distance to a finite end, whichever is
    less, within 1e-6 relative plus absolute.  Any other pair belongs to no
    group.  Checked once per (kind, support) that passes."""
    xs = scan_grid(support)
    # the step shrinks toward a finite end, so the differences stay inside;
    # near an end it is a few hundred ulps of x, so the slope divides by the
    # step the rounded points actually take
    step = 1e-6 * np.minimum(1.0 + np.abs(xs), np.minimum(xs - support.lower, support.upper - xs))
    below, above = xs - step, xs + step
    slope = (call_array(kind.u1, above) - call_array(kind.u1, below)) / (above - below)
    derivative = call_array(kind.u2, xs)
    if not (np.abs(derivative - slope) <= 1e-6 * (1.0 + np.abs(derivative))).all():
        raise InvalidParams(f"u2 of the {kind!r} kind is not the derivative of u1, "
                            "so the kind is not a group's")


def kind_profiles(model: DensityModel, kind: Kind) -> tuple[ScoreProfile, ...]:
    """Score profiles of ``kind`` on the monotone pieces of the model's support.

    One piece, the support itself; or, when ``u1`` vanishes at the origin
    alone (scale on the full line), the support's ``(negative, positive)``
    sides of it.  Any other zero raises :class:`UnsupportedSupport` naming
    every zero: the pieces would end at it, and a support cannot.
    """
    zeros = u1_zeros(kind, model.support)
    if not zeros:
        return (analyze_image(model, kind),)
    if zeros != [0.0]:
        where = " and ".join(f"x={zero:g}" for zero in zeros)
        raise UnsupportedSupport(f"u1 of the {kind!r} kind vanishes at {where}, not at 0 alone")
    halves = (SupportSet(model.support.lower, 0.0), SupportSet(0.0, model.support.upper))
    return tuple(analyze_image(model, kind, half) for half in halves)


#: relative tolerance of every Brent solve, just above the 4 eps floor that
#: SciPy's Brent solver admits
BRENT_RTOL = 8.9e-16


def brent_one(f: Callable[[float], float], xpre: float, xcur: float, fpre: float, fcur: float,
              xtol: float, maxiter: int) -> tuple[float, float, int, bool]:
    """:func:`brent_lanes` on one lane, of a function of a Python float: the
    loop of SciPy's Brent solver as written, in Python floats, where a numpy
    step would cost far more than the arithmetic.  A secant or
    inverse-quadratic step whose denominator is zero is not taken, as an
    infinite or NaN step is not in C.  Both give the same bits."""
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
    alone.
    """
    xpre, xcur = np.array(a, dtype=float), np.array(b, dtype=float)
    fpre, fcur = np.array(fa, dtype=float), np.array(fb, dtype=float)
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
