"""Densities on declared open supports.

A :class:`DensityModel` couples a log-density with an open support and
(optionally) an analytic derivative of the log-density.  Everything downstream
(scores, tilts, estimators, forged counterexamples) consumes densities through
this interface, so the module also provides the shared numeric machinery:

- one way to call any callable on arrays (``call_array``, which keeps a
  constant 0-d, and ``call_elementwise``, which broadcasts it), with no
  state between calls,
- one derivative of a log-density (``eval_dlogf``): the analytic one, or
  central finite differences with a boundary-aware step,
- the log of a density's mass over its support (``log_mass``, ``normalize``),
  summed in log space on arrays: fixed-order Gauss-Legendre cells between
  the model's breaks and double-exponential rules (Takahasi & Mori, Publ.
  RIMS 9, 1974) on the two outer pieces,
- one discretization of a support: grids uniform in a compactified
  coordinate (``compact_grid``) and fixed-order Gauss-Legendre cell
  integrals.  Each support has one scan grid (``scan_grid``), 4097 such
  points over the whole support: each model keeps its log-density there
  (``DensityModel.scan``), which effective intervals, normalizer cuts and
  samplers read, and the image analysis, its root and the checks on a
  kind's factors score it there.  A grid over a window, such as an
  effective interval, is ``compact_grid`` of the window,
- one interpolation table (``_Table``): monotone cubic (PCHIP) pieces through
  nodes, continued linearly past the end nodes, with its derivative; a numpy
  port of SciPy's ``PchipInterpolator`` that gives its values bit for bit.
  Tabulated densities, the cumulative integrals of forged densities
  (``CumulativeIntegral``) and the sampler's CDF are such tables,
- sort-based twins of ``np.unique`` and ``np.median`` (``distinct``,
  ``median``), whose first calls would import ``numpy.ma``,
- seeded inverse-CDF sampling from an arbitrary log-density
  (``InverseCdfSampler``, ``sample_from``).  A sampler is built on each
  call of ``sample_from``; callers that draw from one model many times hold
  one sampler and call its ``draw``.

Supports are open sets; endpoints are never evaluated.  Infinite ranges are
mapped through ``x = t / (1 - t**2)`` when a finite parameterization is
needed (effective-range scans, sampling grids, tabulated files).

Array contract: log-densities, their derivatives, score factors, actions and
antiderivatives take a float or an ndarray and work elementwise.  Grids,
sampler cells and whole samples are evaluated in one call each.  Callables
written for Python floats only (``math.*``) still work: ``call_array``
calls them once per element whenever they reject an array, and tries the
array again on the next call.  A model's guarded log-density passes a
scalar straight to the wrapped function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    DivergentIntegral,
    InvalidParams,
    InversionFailure,
    NonFiniteLogDensity,
    OutsideSupport,
)

LogPdf = Callable[[Any], Any]

#: the most float64 values one array can address
MAX_COUNT = int(np.iinfo(np.intp).max) // 8

#: relative finite-difference step for d/dx log f
FD_STEP_SCALE = 1e-6

#: relative change of the mass between two step halvings at which the
#: double-exponential rules stop, and the bound on their end terms
MASS_TOL = 1e-13

#: step halvings of the double-exponential rules before a mass counts as divergent
DE_LEVELS = 10

#: the double-exponential rules sum over u in [-DE_SPAN, DE_SPAN]
DE_SPAN = 5.0

#: step halvings whose nodes the first log-density call of each rule takes
DE_BATCH = 6

#: log-density drop below the mode that delimits the effective support
EFFECTIVE_DROP = 60.0

#: supports whose scan grids are kept (the catalog has three shapes)
SCAN_GRIDS = 8

#: Gauss-Legendre cells of the sampler's CDF and of cumulative integrals
TABLE_CELLS = 2048

#: steps of the sampler's search for a quantile inside its CDF cell at most;
#: the Newton steps end in 3 to 6
INVERT_STEPS = 60


def integer(value):
    """``value`` itself when it is an integer, a numpy one included, and not
    a bool; :class:`InvalidParams` otherwise.  The one rule for every count,
    seed and other integer argument."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidParams(f"counts and seeds must be integers, got {value!r}")
    return value


def real(value) -> float:
    """``value`` as a float when it is a real number, a numpy one included,
    and not a bool; :class:`InvalidParams` otherwise, also for an integer
    beyond the float range.  The one rule for every real argument; NaN and
    the infinities pass, for each caller's range check to judge."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidParams(f"reals must be numbers, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise InvalidParams(f"reals must be finite: {exc}") from exc


def reals(value) -> np.ndarray:
    """``value`` as a float array when numpy converts each of its elements
    to a float; :class:`InvalidParams` otherwise.  The one rule for every
    array of reals."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"arrays must hold numbers: {exc}") from exc


def tolerance(value) -> float:
    """``value`` as a float when it is a :func:`real` above 0, an infinity
    included; :class:`InvalidParams` otherwise.  The one rule for every
    tolerance."""
    tol = real(value)
    # a NaN fails the comparison
    if not tol > 0.0:
        raise InvalidParams(f"tolerance must be > 0, got {tol}")
    return tol


def call_array(fn: Callable, *args) -> np.ndarray:
    """``fn(*args)`` as a float array, 0-d where ``fn`` returns a constant.

    ``fn`` is called once, on the arrays.  A callable that rejects arrays is
    called once per element, with Python floats, instead: numpy raises
    ``TypeError`` when such a callable converts an array to a scalar and
    ``ValueError`` when it asks for an array's truth value.  Errors of any
    other type propagate.  Each call tries the arrays first, so what one
    call finds decides nothing for the next.
    """
    arrays = [np.asarray(a, dtype=float) for a in args]
    try:
        return np.asarray(fn(*arrays), dtype=float)
    except (TypeError, ValueError):
        return _per_element(fn, *arrays)


def _per_element(fn: Callable, *arrays) -> np.ndarray:
    shape = np.broadcast(*arrays).shape
    columns = [np.broadcast_to(a, shape).ravel().tolist() for a in arrays]
    return np.array(list(map(fn, *columns)), dtype=float).reshape(shape)


def call_elementwise(fn: Callable, *args) -> np.ndarray:
    """``fn(*args)`` as a float array of the arguments' broadcast shape: the
    value of :func:`call_array`, a constant broadcast to that shape.  The
    broadcast shape is formed only for a 0-d value or one without the last
    argument's shape."""
    arrays = [np.asarray(a, dtype=float) for a in args]
    try:
        out = np.asarray(fn(*arrays), dtype=float)
    except (TypeError, ValueError):
        return _per_element(fn, *arrays)
    if not out.ndim or out.shape != arrays[-1].shape:
        shape = np.broadcast(*arrays).shape
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
    return out


# np.unique and np.median import numpy.ma on their first call (15-20 ms of
# start-up); these two give their values without it


def distinct(values) -> np.ndarray:
    """The distinct values of a 1-D array, sorted, as ``np.unique`` gives them."""
    values = np.sort(values)
    return values[np.diff(values, prepend=-math.inf) > 0]


def median(a: np.ndarray) -> np.ndarray:
    """Medians along the last axis, as ``np.median(a, axis=-1)`` gives them,
    except where the sum of the two middle values overflows: their mean is
    still finite there.  A NaN makes its median NaN."""
    a = np.sort(a, axis=-1)
    n = a.shape[-1]
    # one value twice for odd n
    mid = middle_mean(a[..., (n - 1) // 2], a[..., n // 2])
    # NaNs sort last
    return np.where(np.isnan(a[..., -1]), math.nan, mid)


def middle_mean(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The mean of two sorted middle values ``lo <= hi``, formed as
    ``np.median`` forms it, ``lo`` itself where ``lo == hi``; beyond
    magnitude 1 their halves are added instead, whose sum cannot overflow
    (halving a subnormal can round)."""
    half = np.where(np.maximum(-lo, hi) > 1.0, 0.5, 1.0)
    return (lo * half + hi * half) / (2.0 * half)


def quiet_overflow(fn: Callable) -> Callable:
    """``fn`` whose floating-point overflow gives an infinity without a
    warning: the one overflow rule of the catalog's and the forge's formulas.

    Each call, whatever its arguments, runs under ``np.errstate(over=
    "ignore")``; other floating-point errors keep the caller's setting.
    """
    def call(*args):
        with np.errstate(over="ignore"):
            return fn(*args)

    return call


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------

FULL_LINE = "full_line"
POSITIVE_HALF_LINE = "positive_half_line"
NEGATIVE_HALF_LINE = "negative_half_line"
OPEN_INTERVAL = "open_interval"
#: the shapes spelled by name, each also the name of its ``SupportSet``
#: constructor
NAMED_SUPPORTS = (FULL_LINE, POSITIVE_HALF_LINE, NEGATIVE_HALF_LINE)


@dataclass(frozen=True)
class SupportSet:
    """Open subset of the real line on which a density lives.

    The four admissible shapes are the full line, the two open half-lines
    ``(0, inf)`` and ``(-inf, 0)``, and a bounded open interval
    ``(lower, upper)``; any other infinite end is invalid.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        bounds = f"invalid support bounds ({self.lower}, {self.upper})"
        try:
            lo, hi = real(self.lower), real(self.upper)
        except InvalidParams as exc:
            raise InvalidParams(f"{bounds}: {exc}") from exc
        # a NaN fails the comparison
        if not lo < hi:
            raise InvalidParams(bounds)
        if math.isinf(lo) != math.isinf(hi) and 0.0 not in (lo, hi):
            raise InvalidParams(f"a half-line support must end at 0, got ({lo}, {hi})")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @classmethod
    def full_line(cls) -> "SupportSet":
        return cls(-math.inf, math.inf)

    @classmethod
    def positive_half_line(cls) -> "SupportSet":
        return cls(0.0, math.inf)

    @classmethod
    def negative_half_line(cls) -> "SupportSet":
        return cls(-math.inf, 0.0)

    @classmethod
    def open_interval(cls, a: float, b: float) -> "SupportSet":
        if not (math.isfinite(real(a)) and math.isfinite(real(b))):
            raise InvalidParams("open_interval requires finite endpoints")
        return cls(a, b)

    @property
    def kind(self) -> str:
        if self.lower == -math.inf and self.upper == math.inf:
            return FULL_LINE
        if self.lower == 0.0 and self.upper == math.inf:
            return POSITIVE_HALF_LINE
        if self.lower == -math.inf and self.upper == 0.0:
            return NEGATIVE_HALF_LINE
        return OPEN_INTERVAL

    def contains(self, x):
        """Strict interior membership of a float, or of each element of an ndarray."""
        return (self.lower < x) & (x < self.upper)

    def holds(self, xs: np.ndarray) -> bool:
        """Whether every element of a non-empty array is interior: two
        reductions and no boolean arrays.  A NaN fails."""
        return bool(self.lower < xs.min() and xs.max() < self.upper)

    def require(self, xs: np.ndarray) -> None:
        """Raise :class:`OutsideSupport`, naming the first point outside,
        unless every element of the float array is interior."""
        if xs.size and not self.holds(xs):
            raise OutsideSupport(f"x={xs[~self.contains(xs)][0]} is not interior to {self}")

    def __str__(self) -> str:
        return f"({self.lower}, {self.upper})"


# ---------------------------------------------------------------------------
# density model and samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityModel:
    """A density on a declared support, accessed through its log-density.

    ``log_pdf`` is wrapped so that it returns ``-inf`` outside the support
    (the unwrapped function is kept for :func:`normalize`); on an array it
    evaluates the unwrapped function once, on the interior points.
    ``dlog_pdf``, when present, is the analytic ``d/dx log f`` and must match
    central finite differences of ``log_pdf`` on the interior (this is
    checked by the test-suite for every catalog family, and can be checked
    for any model with :func:`check_dlog_pdf`).  ``breaks`` are the nodes of
    the tables the log-density is built on, where it is only once
    continuously differentiable; they are kept sorted, once each and only
    inside the support, and :func:`log_mass` cuts the support there.
    """

    name: str
    support: SupportSet
    log_pdf: LogPdf
    dlog_pdf: Optional[LogPdf] = None
    normalized: bool = False
    breaks: np.ndarray = ()
    _raw_log_pdf: Optional[LogPdf] = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        raw = self.log_pdf
        contains = self.support.contains

        def guarded(x):
            if not isinstance(x, np.ndarray):
                return raw(x) if contains(x) else -math.inf
            inside = contains(x)
            if inside.all():
                return call_elementwise(raw, x)
            out = np.full(x.shape, -math.inf)
            out[inside] = call_elementwise(raw, x[inside])
            return out

        breaks = distinct(np.asarray(self.breaks, dtype=float))
        object.__setattr__(self, "breaks", breaks[contains(breaks)])
        object.__setattr__(self, "_raw_log_pdf", raw)
        object.__setattr__(self, "log_pdf", guarded)

    @functools.cached_property
    def scan(self) -> tuple[np.ndarray, np.ndarray]:
        """The support's scan grid and the log-density there, with ``-inf``
        where it is not finite, as read-only arrays; computed once per model
        (a ``dataclasses.replace`` copy scans anew).  The effective interval,
        the cut of :func:`log_mass` and the sampler's range read it."""
        xs = scan_grid(self.support)
        return xs, _scan_values(self.log_pdf(xs))


@dataclass(frozen=True, eq=False)
class Sample:
    """Ordered collection of observations (values are not mutated)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = reals(self.values)
        if vals.ndim != 1 or vals.size < 1:
            raise InvalidParams("a sample holds at least one scalar observation")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)


class Rows(NamedTuple):
    """m samples back to back in one 1-D float array, with their m lengths."""

    flat: np.ndarray
    lengths: np.ndarray


def length_blocks(rows: Rows):
    """Per distinct row length n, the row numbers of that length and their
    rows as one ``(count, n)`` block."""
    starts = np.cumsum(rows.lengths) - rows.lengths
    for n in distinct(rows.lengths):
        group = np.flatnonzero(rows.lengths == n)
        yield group, rows.flat[starts[group, None] + np.arange(n)]


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _central_difference(model: DensityModel, xs: np.ndarray) -> np.ndarray:
    """``(log f(x + step) - log f(x - step)) / (2 step)`` at interior points,
    with step ``FD_STEP_SCALE * max(1, |x|)`` shrunk so ``x +- step`` stay
    inside the support."""
    support = model.support
    gap = np.minimum(xs - support.lower, support.upper - xs)
    step = FD_STEP_SCALE * np.maximum(1.0, np.abs(xs))
    step = np.where(np.isfinite(gap), np.minimum(step, 0.5 * gap), step)
    leaves = ~(support.contains(xs - step) & support.contains(xs + step))
    if leaves.any():
        raise OutsideSupport(f"x +- {step[leaves][0]} leaves the support "
                             f"around x={xs[leaves][0]}")
    hi, lo = model.log_pdf(xs + step), model.log_pdf(xs - step)
    bad = ~(np.isfinite(hi) & np.isfinite(lo))
    if bad.any():
        raise NonFiniteLogDensity(f"log-density not finite near x={xs[bad][0]}")
    return (hi - lo) / (2.0 * step)


def eval_dlogf(model: DensityModel, x):
    """Evaluate ``d/dx log f`` at interior points: a float for a float, an
    ndarray for an ndarray.

    A point outside the support raises :class:`OutsideSupport`.  Uses the
    analytic derivative when the model carries one (:func:`call_elementwise`),
    otherwise a central finite difference with step ``FD_STEP_SCALE *
    max(1, |x|)`` shrunk so both probe points stay inside the support.
    """
    xs = reals(x)
    model.support.require(xs)
    out = (_central_difference(model, xs) if model.dlog_pdf is None
           else call_elementwise(model.dlog_pdf, xs))
    return out if xs.ndim else float(out)


def check_dlog_pdf(model: DensityModel, xs, tol: float = 1e-6) -> float:
    """Max |analytic - finite difference| of d/dx log f over probe points."""
    if model.dlog_pdf is None:
        raise InvalidParams("model has no analytic dlog_pdf to check")
    xs = reals(xs)
    fd = _central_difference(model, xs)
    worst = float(np.max(np.abs(fd - call_elementwise(model.dlog_pdf, xs))))
    if not worst < tolerance(tol):
        raise NonFiniteLogDensity(
            f"analytic dlog_pdf deviates from finite differences by {worst:.3e}"
        )
    return worst


# ---------------------------------------------------------------------------
# discretizing a support
# ---------------------------------------------------------------------------


def _from_t(t: np.ndarray) -> np.ndarray:
    return t / (1.0 - t * t)


def _to_t(x: float) -> float:
    if math.isinf(x):
        return math.copysign(1.0, x)
    # the root of x t^2 + t - x in (-1, 1), in the form free of cancellation
    # near 0 (and of overflow in 4 x^2 far out)
    return 2.0 * x / (1.0 + math.hypot(1.0, 2.0 * x))


def _dx_dt(t: np.ndarray) -> np.ndarray:
    return (1.0 + t * t) / (1.0 - t * t) ** 2


def _mapped(support: SupportSet) -> bool:
    """Whether the support is unbounded, so grids live in ``t``."""
    return support.kind != OPEN_INTERVAL


def compact_nodes(support: SupportSet, t_lo: float, t_hi: float,
                  points: int) -> tuple[np.ndarray, np.ndarray]:
    """``(t, x)`` grids of ``points`` nodes uniform in ``t`` between t-ends.

    On unbounded supports ``x = t / (1 - t**2)``; on bounded ones ``t = x``.
    The t-ends and the count fix the nodes bit for bit: they are the rule a
    tabulated file stores in place of its grid.
    """
    ts = np.linspace(t_lo, t_hi, points)
    return ts, (_from_t(ts) if _mapped(support) else ts)


def compact_grid(support: SupportSet, lo: float, hi: float, points: int,
                 inset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`compact_nodes` between x-ends, whose infinite ends map to
    ``t = +-1`` on unbounded supports.  ``inset`` pulls both t-ends in by
    that fraction of the t-range.
    """
    t_lo, t_hi = (_to_t(lo), _to_t(hi)) if _mapped(support) else (lo, hi)
    margin = (t_hi - t_lo) * inset
    return compact_nodes(support, t_lo + margin, t_hi - margin, points)


@functools.lru_cache(maxsize=SCAN_GRIDS)
def scan_grid(support: SupportSet) -> np.ndarray:
    """The support's scan grid: 4097 points uniform in the compactified
    coordinate, inset from its ends by 1e-7 of the coordinate's range,
    read-only.  On the full line |x| reaches about 2.5e6; on a half-line it
    runs from about 1e-7 to about 5e6."""
    _, xs = compact_grid(support, support.lower, support.upper, 4097, inset=1e-7)
    xs.flags.writeable = False
    return xs


def _scan_values(vals: np.ndarray) -> np.ndarray:
    """Log-density values of a scan, read-only, with ``-inf`` where they are
    not finite; raises :class:`NonFiniteLogDensity` when none is finite."""
    finite = np.isfinite(vals)
    if not finite.any():
        raise NonFiniteLogDensity("log-density is -inf on the whole scan grid")
    vals = np.where(finite, vals, -math.inf)
    vals.flags.writeable = False
    return vals


def effective_interval(model: DensityModel,
                       drop: float = EFFECTIVE_DROP) -> tuple[float, float]:
    """Finite interval outside which the density is negligible.

    Reads the model's scan of 4097 points of the (compactified) support and
    keeps the hull of points whose log-density lies within ``drop`` of the
    maximum, padded by one scan cell.
    """
    xs, vals = model.scan
    keep = np.flatnonzero(vals >= vals.max() - drop)
    i0, i1 = max(int(keep[0]) - 1, 0), min(int(keep[-1]) + 1, xs.size - 1)
    return float(xs[i0]), float(xs[i1])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _cell_integrals(integrand: Callable, edges: np.ndarray) -> np.ndarray:
    """Per-cell integrals of ``integrand`` with fixed-order Gauss-Legendre."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = call_elementwise(integrand, nodes)
    return (vals * _GL_WEIGHTS[None, :]).sum(axis=1) * half


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _de_map(a: float, b: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes ``x(u)`` and log Jacobians ``log dx/du`` of the double-exponential
    map of the u-line onto ``(a, b)``, of which at most one end is infinite.

    With ``s = pi/2 sinh u``: exp-sinh ``x = a + e^s`` (or ``b - e^s``)
    toward an infinite end, tanh-sinh onto a bounded interval, its nodes
    measured from their nearer end so that they resolve it.
    """
    s = 0.5 * math.pi * np.sinh(u)
    log_ds = np.log(0.5 * math.pi * np.cosh(u))
    if math.isinf(a) or math.isinf(b):
        return (a + np.exp(s) if b == math.inf else b - np.exp(s)), s + log_ds
    x = np.where(s <= 0.0, a + (b - a) / (1.0 + np.exp(-2.0 * s)),
                 b - (b - a) / (1.0 + np.exp(2.0 * s)))
    return x, math.log(2.0 * (b - a)) + log_ds - 2.0 * np.logaddexp(s, -s)


def _de_level(k: int) -> np.ndarray:
    """The u-nodes level ``k`` adds: the integers of ``[-DE_SPAN, DE_SPAN]``
    at level 0, the odd multiples of ``2**-k`` there at level ``k >= 1``."""
    if k == 0:
        return np.arange(-DE_SPAN, DE_SPAN + 1.0)
    h = 0.5 ** k
    return np.arange(h - DE_SPAN, DE_SPAN, 2.0 * h)


@functools.lru_cache(maxsize=None)
def _de_nodes(first: int, last: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The u-nodes of levels ``first`` to ``last``, back to back, and the
    offsets at which each level starts, with the end."""
    us = [_de_level(k) for k in range(first, last + 1)]
    return np.concatenate(us), tuple(int(i) for i in np.cumsum([0] + [u.size for u in us]))


def log_mass(model: DensityModel) -> float:
    """Log of the model's mass over its support, summed in log space.

    The support is cut at the model's breaks, or without them at the
    maximum of the scan behind :func:`effective_interval`.  Each cell
    between two cuts takes the fixed-order Gauss-Legendre rule, on a
    smooth piece of the model's tables.  Each of the two outer pieces takes
    the double-exponential rule of :func:`_de_map` over ``|u| <= DE_SPAN``,
    with the step halved until the mass changes by at most ``MASS_TOL``,
    relative.  The nodes of level 0 and of the first ``DE_BATCH`` halvings
    take one array call of the log-density per piece, and each later level
    one more; the mass is still summed and tested level by level, so the
    batch changes no bit of it.  Densities whose values underflow still
    have a mass.

    Raises :class:`DivergentIntegral` when ``DE_LEVELS`` halvings do not
    settle the mass, when the terms at ``u = +-DE_SPAN`` (level 0's first
    and last nodes) exceed ``MASS_TOL`` of it, or when it is not finite and
    positive.
    """
    support, cuts = model.support, model.breaks
    if not cuts.size:
        xs, vals = model.scan
        cuts = xs[[int(np.argmax(vals))]]
    pieces = ((support.lower, float(cuts[0])), (float(cuts[-1]), support.upper))

    def terms(first, last):
        # per level, the terms of both pieces back to back
        u, bounds = _de_nodes(first, last)
        per_piece = [model.log_pdf(x) + log_dx for x, log_dx in (_de_map(*p, u) for p in pieces)]
        return [np.concatenate([t[a:b] for t in per_piece]) for a, b in zip(bounds, bounds[1:])]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        batch = terms(0, DE_BATCH)
        found = batch[0]
        # exponents relative to the largest first term or break value keep
        # the sums in range and the tolerances relative to the mass
        ref = float(np.max(np.concatenate([found, model.log_pdf(cuts)])))
        if not math.isfinite(ref):
            raise DivergentIntegral(f"mass of {model.name} is not finite and positive")
        # one cut leaves no cell
        cells = (_cell_integrals(lambda x: np.exp(model.log_pdf(x) - ref), cuts).sum()
                 if cuts.size > 1 else 0.0)
        h, mass = 1.0, float(np.log(cells + np.exp(found - ref).sum()))
        for k in range(1, DE_LEVELS + 1):
            h /= 2.0
            found = np.concatenate([found, batch[k] if k <= DE_BATCH else terms(k, k)[0]])
            settled, mass = mass, float(np.log(cells + h * np.exp(found - ref).sum()))
            if abs(mass - settled) <= MASS_TOL:
                break
        else:
            raise DivergentIntegral(f"mass of {model.name} did not settle in "
                                    f"{DE_LEVELS} step halvings")
        # level 0 holds each piece's nodes from u = -DE_SPAN to DE_SPAN
        n = batch[0].size // 2
        ends = float(np.max(batch[0][[0, n - 1, n, -1]])) - ref
    if ends + math.log(h) > mass + math.log(MASS_TOL):
        raise DivergentIntegral(f"mass of {model.name} does not decay toward "
                                f"the ends of {support}")
    return ref + mass


def normalize(model: DensityModel):
    """Normalizing constant and normalized copy of ``model``.

    Returns ``(c, normalized_model)``: adding ``log c = -log_mass(model)``
    to the log-density makes it integrate to one over the support.  ``c``
    itself overflows to ``inf`` when ``log c`` lies beyond exp's range.
    When ``model`` has its scan, the copy takes it plus ``log c``: that is
    the copy's own scan, bit for bit, for a log-density of float64 values.
    """
    shift = -log_mass(model)
    with np.errstate(over="ignore"):
        c = float(np.exp(shift))
    inner = model._raw_log_pdf
    normalized = replace(model, log_pdf=lambda x: inner(x) + shift, normalized=True)
    if "scan" in vars(model):
        xs, vals = model.scan
        vals = vals + shift
        # a shift that overflows every value is left to the copy's own
        # scan, which raises when it is asked for
        if np.isfinite(vals).any():
            object.__setattr__(normalized, "scan", (xs, _scan_values(vals)))
    return c, normalized


# ---------------------------------------------------------------------------
# interpolation tables
# ---------------------------------------------------------------------------


def _cubic(a, s):
    """``a[0] + a[1] s + a[2] s^2 + a[3] s^3``, summed as SciPy's ``PPoly``
    sums it; ``a`` holds the coefficients in rising powers."""
    s2 = s * s
    return a[0] + a[1] * s + a[2] * s2 + a[3] * (s2 * s)


def _cubic_slope(a, s):
    """The derivative of :func:`_cubic`, as ``PPoly.derivative()`` evaluates it."""
    return a[1] + (2.0 * a[2]) * s + (3.0 * a[3]) * (s * s)


def _end_slope(h0, h1, m0, m1):
    """Moler's one-sided three-point node slope at an end of a PCHIP table
    (``h0``, ``m0``: the end cell's width and secant slope)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class _Table:
    """Monotone cubic (PCHIP) interpolant through nodes ``(x, y)``, continued
    linearly past its end nodes; a float or an ndarray in, the same out.

    A numpy port of SciPy's ``PchipInterpolator`` that gives its values bit
    for bit: the node slopes are Fritsch-Butland weighted harmonic means of
    the secant slopes with Moler's one-sided end rule (two nodes give a
    line), and each cell holds the cubic Hermite coefficients in the powers
    of the offset from its left node.  A point's cell is the last one whose
    left node it reaches; the last cell also holds its right node.  Secant
    slopes that are subnormal make the harmonic mean overflow; its node slope
    is then 0, without a warning.

    ``ends`` holds the slopes of the continuation below ``x[0]`` and above
    ``x[-1]``; by default they are the interpolant's own end derivatives.
    :meth:`derivative` is the derivative of the same pieces.  A float is
    evaluated as a 0-d array.
    """

    def __init__(self, x, y, ends=None):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        if x.size == 2:
            d = np.array([m[0], m[0]])
        else:
            w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
            # 0 where the secant slopes change sign or one of them is 0
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                mean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d = np.zeros_like(y)
            d[1:-1][~flat] = 1.0 / mean[~flat]
            d[0] = _end_slope(h[0], h[1], m[0], m[1])
            d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.nodes = x
        self._coef = np.stack((y[:-1], d[:-1], (m - d[:-1]) / h - t, t / h))
        self._last = x.size - 2
        self.lo, self.hi = float(x[0]), float(x[-1])
        self._y_lo, self._y_hi = float(y[0]), float(y[-1])
        if ends is None:
            ends = _cubic_slope(self._coef[:, [0, -1]], np.array([0.0, h[-1]]))
        self._slope_lo, self._slope_hi = float(ends[0]), float(ends[1])

    def _cells(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each point's cell coefficients and its offset from the cell's left
        node, for the point clipped to the tabulated range."""
        clipped = np.clip(x, self.lo, self.hi)
        cells = np.minimum(np.searchsorted(self.nodes, clipped, side="right") - 1,
                           self._last)
        return np.take(self._coef, cells, axis=1), clipped - np.take(self.nodes, cells)

    def __call__(self, x):
        if not isinstance(x, np.ndarray):
            return float(self(np.asarray(x, dtype=float)))
        out = _cubic(*self._cells(x))
        below, above = x < self.lo, x > self.hi
        # far tail points overflow to an infinity without a warning
        with np.errstate(over="ignore"):
            if below.any():
                out = np.where(below, self._y_lo + self._slope_lo * (x - self.lo), out)
            if above.any():
                out = np.where(above, self._y_hi + self._slope_hi * (x - self.hi), out)
        return out

    def derivative(self, x):
        """Derivative of the interpolant: of its cubic inside the tabulated
        range and the end slopes beyond it."""
        if not isinstance(x, np.ndarray):
            return float(self.derivative(np.asarray(x, dtype=float)))
        out = _cubic_slope(*self._cells(x))
        return np.where(x < self.lo, self._slope_lo, np.where(x > self.hi, self._slope_hi, out))


class CumulativeIntegral(_Table):
    """Antiderivative of an integrand, vanishing at the left node of the
    cell that holds the anchor.

    The integral is tabulated once on ``TABLE_CELLS`` Gauss-Legendre cells
    across ``(lo, hi)``, summed outward from that node, so an anchor in
    another cell changes it by a constant up to rounding; beyond the
    tabulated range it is extended linearly using the integrand value at the
    nearest end.  Cheap enough to sit inside MLE root-finding loops.  ``lo``
    and ``hi`` are the ends of the tabulated range.
    """

    def __init__(self, integrand: Callable, anchor: float,
                 lo: float, hi: float):
        if not lo < anchor < hi:
            raise InvalidParams("anchor must lie strictly inside (lo, hi)")
        edges = np.linspace(lo, hi, TABLE_CELLS + 1)
        # summed outward from the left node of the anchor's cell, so that no
        # value near the anchor is a difference of two large sums; a sum that
        # overflows is refused below
        k = int(np.searchsorted(edges, anchor, side="right")) - 1
        with np.errstate(over="ignore", invalid="ignore"):
            cells = _cell_integrals(integrand, edges)
            cum = np.concatenate([-np.cumsum(cells[:k][::-1])[::-1], [0.0],
                                  np.cumsum(cells[k:])])
        if not np.isfinite(cum).all():
            raise DivergentIntegral("cumulative integrand is not finite on the grid")
        super().__init__(edges, cum, ends=(integrand(lo), integrand(hi)))


# ---------------------------------------------------------------------------
# inverse-CDF sampling
# ---------------------------------------------------------------------------


class InverseCdfSampler:
    """Seeded draws from a normalized model.

    The CDF is tabulated once, by cumulative quadrature on a compactified
    grid, as a monotone cubic table.  Each draw inverts that table inside the
    cell that holds its uniform, by Newton steps on the cell's cubic kept
    inside a shrinking bracket (the safeguarded Newton-Raphson of Press et
    al., Numerical Recipes, section 9.4).
    """

    def __init__(self, model: DensityModel):
        if not model.normalized:
            raise InvalidParams("sampling requires a normalized model")
        mapped = _mapped(model.support)
        edges, _ = compact_grid(model.support, *effective_interval(model), TABLE_CELLS + 1)

        def mass(t: np.ndarray) -> np.ndarray:
            lp = model.log_pdf(_from_t(t)) + np.log(_dx_dt(t)) if mapped else model.log_pdf(t)
            return np.where(lp > -745.0, np.exp(lp), 0.0)

        cdf = np.concatenate([[0.0], np.cumsum(_cell_integrals(mass, edges))])
        total = float(cdf[-1])
        if not math.isfinite(total) or total <= 0.0:
            raise DivergentIntegral("sampling grid carries no finite mass")
        cdf /= total
        cdf[-1] = 1.0
        self._edges, self._cdf, self._mapped = edges, cdf, mapped
        self._coef = _Table(edges, cdf)._coef

    def invert(self, u: np.ndarray) -> np.ndarray:
        """Quantiles of the uniforms ``u`` (any shape), elementwise."""
        t = self._grid_quantiles(u)
        return np.asarray(_from_t(t)) if self._mapped else t

    def _grid_quantiles(self, u: np.ndarray) -> np.ndarray:
        """The points of the grid coordinate where the tabulated CDF is ``u``.

        Each search runs on the offset ``s`` from the left edge of the cell
        that holds ``u``.  It starts from the cell's secant and takes Newton
        steps on the cell cubic minus ``u`` (whose constant term is exact
        inside the cell); a step that would leave the bracket of the root
        bisects it instead.  A search stops when its step moves ``s`` by at
        most ``4`` ulps of the cell width, after ``INVERT_STEPS`` steps at
        most.  A cell without mass gives its left edge.
        """
        idx = np.clip(np.searchsorted(self._cdf, u, side="right") - 1, 0,
                      self._edges.size - 2)
        left, right = self._edges[idx], self._edges[idx + 1]
        width, mass = right - left, self._cdf[idx + 1] - self._cdf[idx]
        a = np.take(self._coef, idx, axis=1)
        a[0] -= u
        active = mass > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.clip(np.where(active, -a[0] / mass * width, 0.0), 0.0, width)
            lo, hi, tol = np.zeros_like(s), width, 4.0 * np.spacing(width)
            for _ in range(INVERT_STEPS):
                if not active.any():
                    break
                r = _cubic(a, s)
                lo, hi = np.where(r < 0.0, s, lo), np.where(r > 0.0, s, hi)
                new = s - r / _cubic_slope(a, s)
                # a NaN fails both tests and bisects
                new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
                moved = np.abs(new - s)
                s = np.where(active, new, s)
                active &= moved > tol
        t = np.minimum(left + s, right)
        if not np.isfinite(t).all():
            raise InversionFailure("CDF inversion produced non-finite quantiles")
        return t

    def draw(self, runs) -> Rows:
        """Rows of seeded draws, back to back, from one :meth:`invert` call:
        ``runs`` lists ``(seed, sizes)``, and each seed gives one row per
        size, in order, from the uniforms of ``numpy.random.default_rng(seed)``.
        Seeds and sizes are integers, at least 0."""
        values = [v for seed, sizes in runs for v in (seed, *sizes)]
        # the rule reads a value's type only: the first value of each type is checked
        for cls in dict.fromkeys(map(type, values)):
            integer(next(v for v in values if type(v) is cls))
        if min(values, default=0) < 0:
            raise InvalidParams("sampler seeds and sizes must be >= 0")
        counts = [sum(sizes) for _, sizes in runs]
        if sum(counts) > MAX_COUNT:
            raise InvalidParams(f"{sum(counts)} values exceed the {MAX_COUNT} an array holds")
        # no runs draw no rows
        return Rows(self.invert(np.concatenate([np.random.default_rng(int(seed)).random(n)
                                                for (seed, _), n in zip(runs, counts)]
                                               or [np.empty(0)])),
                    np.array([n for _, sizes in runs for n in sizes]))


def sample_from(model: DensityModel, n: int, seed: int) -> Sample:
    """Draw ``n`` i.i.d. observations from a normalized model.

    The one row of ``InverseCdfSampler(model).draw([(seed, [n])])``.  Each
    call builds the CDF anew; repeated draws from one model go through one
    :class:`InverseCdfSampler`.
    """
    return Sample(InverseCdfSampler(model).draw([(seed, [n])]).flat)


# ---------------------------------------------------------------------------
# tabulated densities
# ---------------------------------------------------------------------------


def tabulated_model(support: SupportSet, grid, log_pdf_values, name: str = "tabulated",
                    normalized: bool = False) -> DensityModel:
    """Density interpolated from ``(grid, log_pdf)`` pairs.

    The grid must be strictly increasing and lie inside the support; the
    log-density is joined with monotone cubic pieces, whose derivative is
    the model's ``dlog_pdf`` and whose nodes are its breaks.  Inside the
    support but beyond the tabulated hull the log-density continues linearly
    with the end slopes (exponential tails), so scores stay evaluable
    wherever solvers probe; a rising end slope simply makes ``normalize``
    fail with :class:`DivergentIntegral`, as it should.
    """
    xs, ys = reals(grid), reals(log_pdf_values)
    if xs.ndim != 1 or xs.size < 4 or xs.shape != ys.shape:
        raise InvalidParams("tabulated density needs matching 1-d arrays (>= 4 points)")
    if not (np.diff(xs) > 0).all():
        raise InvalidParams("tabulated grid must be strictly increasing")
    if not np.isfinite(ys).all():
        raise InvalidParams("tabulated log-density values must be finite")
    if not support.contains(xs[[0, -1]]).all():
        raise InvalidParams("tabulated grid must lie inside the declared support")
    table = _Table(xs, ys)
    return DensityModel(name=name, support=support, log_pdf=table,
                        dlog_pdf=table.derivative, normalized=normalized, breaks=xs)
