"""Densities on declared open supports.

A :class:`DensityModel` couples a scalar log-density with an open support and
(optionally) an analytic derivative of the log-density.  Everything downstream
(scores, tilts, estimators, forged counterexamples) consumes densities through
this interface, so the module also provides the shared numeric machinery:

- central finite differences with a boundary-aware step (``eval_dlogf``),
- adaptive quadrature over possibly infinite supports (``normalize``),
- one discretization of a support: probe points per support shape
  (``probe_grid``), grids uniform in a compactified coordinate
  (``compact_grid``) and fixed-order Gauss-Legendre cell integrals,
- seeded inverse-CDF sampling from an arbitrary log-density (``sample_from``),
- tabulated densities interpolated with monotone cubic pieces,
- cached cumulative integrals anchored at a score's zero, used by tilt and
  forge constructions (``anchored_antiderivative``).

Supports are open sets; endpoints are never evaluated.  Infinite ranges are
mapped through ``x = t / (1 - t**2)`` when a finite parameterization is
needed (effective-range scans, sampling grids, tabulated files).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator

from .errors import (
    DivergentIntegral,
    InversionFailure,
    NonFiniteLogDensity,
    OutsideSupport,
)

LogPdf = Callable[[float], float]

#: relative finite-difference step for d/dx log f
FD_STEP_SCALE = 1e-6

#: absolute quadrature tolerance (relative fallback applied on top)
QUAD_ABS_TOL = 1e-10

#: log-density drop below the mode that delimits the effective support
EFFECTIVE_DROP = 60.0


# ---------------------------------------------------------------------------
# supports
# ---------------------------------------------------------------------------

FULL_LINE = "full_line"
POSITIVE_HALF_LINE = "positive_half_line"
NEGATIVE_HALF_LINE = "negative_half_line"
OPEN_INTERVAL = "open_interval"


@dataclass(frozen=True)
class SupportSet:
    """Open subset of the real line on which a density lives.

    The four admissible shapes are the full line, the two open half-lines
    and a bounded open interval ``(lower, upper)``.
    """

    lower: float
    upper: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lower), float(self.upper)
        if math.isnan(lo) or math.isnan(hi) or not lo < hi:
            raise ValueError(f"invalid support bounds ({self.lower}, {self.upper})")
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
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("open_interval requires finite endpoints")
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

    def contains(self, x: float) -> bool:
        """Strict interior membership test."""
        return self.lower < x < self.upper

    def __str__(self) -> str:
        return f"({self.lower}, {self.upper})"


# ---------------------------------------------------------------------------
# density model and samples
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DensityModel:
    """A density on a declared support, accessed through its log-density.

    ``log_pdf`` is wrapped so that it returns ``-inf`` outside the support
    (the unwrapped function is kept for :meth:`with_log_shift`).
    ``dlog_pdf``, when present, is the analytic ``d/dx log f`` and must match
    central finite differences of ``log_pdf`` on the interior (this is
    checked by the test-suite for every catalog family, and can be checked
    for any model with :func:`check_dlog_pdf`).
    """

    name: str
    support: SupportSet
    log_pdf: LogPdf
    dlog_pdf: Optional[Callable[[float], float]] = None
    params: dict = field(default_factory=dict)
    normalized: bool = False
    _sampler: Any = field(default=None, init=False, repr=False, compare=False)
    _raw_log_pdf: Optional[LogPdf] = field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self) -> None:
        raw = self.log_pdf
        support = self.support

        def guarded(x: float) -> float:
            if not support.contains(x):
                return -math.inf
            return raw(x)

        object.__setattr__(self, "_raw_log_pdf", raw)
        object.__setattr__(self, "log_pdf", guarded)

    def pdf(self, x: float) -> float:
        lp = self.log_pdf(x)
        return math.exp(lp) if lp > -math.inf else 0.0

    def with_log_shift(self, shift: float, normalized: bool = False) -> "DensityModel":
        """New model whose log-density is shifted by the constant ``shift``."""
        inner = self._raw_log_pdf
        return DensityModel(
            name=self.name,
            support=self.support,
            log_pdf=lambda x: inner(x) + shift,
            dlog_pdf=self.dlog_pdf,
            params=dict(self.params),
            normalized=normalized,
        )


@dataclass(frozen=True, eq=False)
class Sample:
    """Ordered collection of observations (values are not mutated)."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("a sample holds at least one scalar observation")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def require_inside(self, model: DensityModel) -> None:
        lo, hi = model.support.lower, model.support.upper
        if not ((self.values > lo) & (self.values < hi)).all():
            raise OutsideSupport(
                f"sample contains values outside support {model.support}"
            )


# ---------------------------------------------------------------------------
# differentiation
# ---------------------------------------------------------------------------


def _fd_step(support: SupportSet, x: float) -> float:
    """``FD_STEP_SCALE * max(1, |x|)``, shrunk so ``x +- step`` stay inside."""
    step = FD_STEP_SCALE * max(1.0, abs(x))
    gap = min(x - support.lower, support.upper - x)
    if math.isfinite(gap):
        step = min(step, 0.5 * gap)
    return step


def eval_dlogf(model: DensityModel, x: float, step: Optional[float] = None) -> float:
    """Evaluate ``d/dx log f`` at an interior point.

    Uses the analytic derivative when the model carries one, otherwise a
    central finite difference with step ``FD_STEP_SCALE * max(1, |x|)``
    shrunk so both probe points stay inside the support.
    """
    if not model.support.contains(x):
        raise OutsideSupport(f"x={x} is not interior to {model.support}")
    if model.dlog_pdf is not None:
        return float(model.dlog_pdf(x))
    if step is None:
        step = _fd_step(model.support, x)
    if step <= 0.0:
        raise ValueError("finite-difference step must be positive")
    if not (model.support.contains(x - step) and model.support.contains(x + step)):
        raise OutsideSupport(f"x +- {step} leaves the support around x={x}")
    hi, lo = model.log_pdf(x + step), model.log_pdf(x - step)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NonFiniteLogDensity(f"log-density not finite near x={x}")
    return (hi - lo) / (2.0 * step)


def check_dlog_pdf(model: DensityModel, xs, tol: float = 1e-6) -> float:
    """Max |analytic - finite difference| of d/dx log f over probe points."""
    if model.dlog_pdf is None:
        raise ValueError("model has no analytic dlog_pdf to check")
    worst = 0.0
    for x in xs:
        step = _fd_step(model.support, x)
        fd = (model.log_pdf(x + step) - model.log_pdf(x - step)) / (2.0 * step)
        worst = max(worst, abs(fd - float(model.dlog_pdf(x))))
    if worst >= tol:
        raise NonFiniteLogDensity(
            f"analytic dlog_pdf deviates from finite differences by {worst:.3e}"
        )
    return worst


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def integrate(fn: Callable[[float], float], lo: float, hi: float,
              abs_tol: float = QUAD_ABS_TOL) -> float:
    """Adaptive quadrature of ``fn`` over ``(lo, hi)``.

    Raises :class:`DivergentIntegral` when the integrator reports failure
    beyond both the absolute tolerance and a relative fallback, or when the
    value itself is not finite.
    """
    out = quad(fn, lo, hi, epsabs=abs_tol, epsrel=1e-10, limit=400, full_output=1)
    value, abserr = float(out[0]), float(out[1])
    trouble = len(out) > 3
    if not math.isfinite(value):
        raise DivergentIntegral(f"integral over ({lo}, {hi}) is not finite")
    if trouble and abserr > max(1e-8, 1e-6 * abs(value)):
        raise DivergentIntegral(
            f"quadrature did not converge over ({lo}, {hi}): "
            f"value={value:.6g}, abserr={abserr:.3g}"
        )
    return value


def normalize(model: DensityModel, tol: float = QUAD_ABS_TOL):
    """Normalizing constant and normalized copy of ``model``.

    Returns ``(c, normalized_model)`` with ``c > 0`` such that adding
    ``log c`` to the log-density integrates to one over the support.
    """
    total = integrate(model.pdf, model.support.lower, model.support.upper, abs_tol=tol)
    if not math.isfinite(total) or total <= 0.0:
        raise DivergentIntegral(f"density mass {total} is not positive and finite")
    c = 1.0 / total
    return c, model.with_log_shift(math.log(c), normalized=True)


# ---------------------------------------------------------------------------
# discretizing a support
# ---------------------------------------------------------------------------


def probe_grid(support: SupportSet, window: tuple[float, float], points: int,
               radius: float, inner: float, pad: float) -> np.ndarray:
    """``points`` increasing probe points in ``window`` for the support's shape.

    Full line: uniform within ``+-radius``.  Half-line: geometric from
    ``inner`` out to ``radius`` (mirrored on the negative one).  Bounded
    interval: uniform, inset from both window ends by ``pad`` of its width.
    """
    lo, hi = window
    kind = support.kind
    if kind == FULL_LINE:
        return np.linspace(max(lo, -radius), min(hi, radius), points)
    if kind == POSITIVE_HALF_LINE:
        return np.geomspace(max(lo, inner), min(hi, radius), points)
    if kind == NEGATIVE_HALF_LINE:
        return -np.geomspace(max(-hi, inner), min(-lo, radius), points)[::-1]
    inset = (hi - lo) * pad
    return np.linspace(lo + inset, hi - inset, points)


def _from_t(t: np.ndarray) -> np.ndarray:
    return t / (1.0 - t * t)


def _to_t(x: float) -> float:
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.copysign(1.0, x)
    return (math.sqrt(1.0 + 4.0 * x * x) - 1.0) / (2.0 * x)


def _dx_dt(t: np.ndarray) -> np.ndarray:
    return (1.0 + t * t) / (1.0 - t * t) ** 2


def _mapped(support: SupportSet) -> bool:
    """Whether the support is unbounded, so grids live in ``t``."""
    return support.kind != OPEN_INTERVAL


def compact_grid(support: SupportSet, lo: float, hi: float, points: int,
                 inset: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """``(t, x)`` grids of ``points`` nodes uniform in ``t`` between x-ends.

    On unbounded supports ``x = t / (1 - t**2)``, so infinite ends map to
    ``t = +-1``; on bounded ones ``t = x``.  ``inset`` pulls both t-ends in
    by that fraction of the t-range.
    """
    mapped = _mapped(support)
    t_lo, t_hi = (_to_t(lo), _to_t(hi)) if mapped else (lo, hi)
    margin = (t_hi - t_lo) * inset
    ts = np.linspace(t_lo + margin, t_hi - margin, points)
    return ts, (_from_t(ts) if mapped else ts)


def effective_interval(model: DensityModel, drop: float = EFFECTIVE_DROP,
                       scan: int = 4097) -> tuple[float, float]:
    """Finite interval outside which the density is negligible.

    Scans the (compactified) support and keeps the hull of points whose
    log-density lies within ``drop`` of the maximum, padded by one scan cell.
    """
    support = model.support
    _, xs = compact_grid(support, support.lower, support.upper, scan, inset=1e-7)
    vals = np.array([model.log_pdf(float(x)) for x in xs])
    finite = np.isfinite(vals)
    if not finite.any():
        raise NonFiniteLogDensity("log-density is -inf on the whole scan grid")
    peak = vals[finite].max()
    keep = np.where(finite & (vals >= peak - drop))[0]
    i0, i1 = max(int(keep[0]) - 1, 0), min(int(keep[-1]) + 1, scan - 1)
    return float(xs[i0]), float(xs[i1])


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


def _cell_integrals(integrand: Callable[[float], float], edges: np.ndarray) -> np.ndarray:
    """Per-cell integrals of ``integrand`` with fixed-order Gauss-Legendre."""
    mids = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = mids[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = np.array([integrand(float(x)) for x in nodes.ravel()]).reshape(nodes.shape)
    return (vals * _GL_WEIGHTS[None, :]).sum(axis=1) * half


# ---------------------------------------------------------------------------
# inverse-CDF sampling
# ---------------------------------------------------------------------------


class _InverseCdfSampler:
    """Grid CDF (cumulative quadrature) plus vectorized bisection inversion."""

    def __init__(self, model: DensityModel, cells: int = 2048):
        mapped = _mapped(model.support)
        edges, _ = compact_grid(model.support, *effective_interval(model), cells + 1)

        if mapped:
            def log_mass(t: float) -> float:
                lp = model.log_pdf(float(_from_t(np.asarray(t))))
                return lp + math.log(float(_dx_dt(np.asarray(t))))
        else:
            log_mass = model.log_pdf

        def mass(t: float) -> float:
            lp = log_mass(t)
            return math.exp(lp) if lp > -745.0 else 0.0

        masses = _cell_integrals(mass, edges)
        cdf = np.concatenate([[0.0], np.cumsum(masses)])
        total = float(cdf[-1])
        if not math.isfinite(total) or total <= 0.0:
            raise DivergentIntegral("sampling grid carries no finite mass")
        cdf /= total
        cdf[-1] = 1.0
        self.total = total
        self._edges = edges
        self._cdf = cdf
        self._mapped = mapped
        self._interp = PchipInterpolator(edges, cdf, extrapolate=False)

    def draw(self, n: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        idx = np.searchsorted(self._cdf, u, side="right") - 1
        idx = np.clip(idx, 0, len(self._edges) - 2)
        lo = self._edges[idx]
        hi = self._edges[idx + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            below = self._interp(mid) < u
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        t = 0.5 * (lo + hi)
        if not np.isfinite(t).all():
            raise InversionFailure("CDF inversion produced non-finite quantiles")
        return np.asarray(_from_t(t)) if self._mapped else t


def sample_from(model: DensityModel, n: int, seed: int) -> Sample:
    """Draw ``n`` i.i.d. observations from a normalized model.

    The CDF is built once per model by cumulative quadrature on a
    compactified grid and cached; inversion runs a bracketed bisection per
    draw.  Identical ``(model, n, seed)`` triples yield identical samples.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not model.normalized:
        raise ValueError("sample_from requires a normalized model")
    # memoized per model; a concurrent first call may build the grid twice,
    # both results are equivalent and the model stays semantically immutable
    sampler = model._sampler
    if sampler is None:
        sampler = _InverseCdfSampler(model)
        object.__setattr__(model, "_sampler", sampler)
    return Sample(sampler.draw(n, seed))


def numeric_cdf(model: DensityModel, x: float) -> float:
    """CDF value by direct quadrature (independent of the sampling grid)."""
    lo = model.support.lower
    if x <= lo:
        return 0.0
    if x >= model.support.upper:
        return 1.0
    return integrate(model.pdf, lo, x, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# cached cumulative integrals (tilt and forge constructions)
# ---------------------------------------------------------------------------


class CumulativeIntegral:
    """Antiderivative of a scalar integrand, anchored at a point.

    The antiderivative is tabulated once on ``cells`` Gauss-Legendre cells
    across ``(lo, hi)`` and interpolated with monotone cubic pieces; beyond
    the tabulated range it is extended linearly using the integrand value at
    the nearest end.  Cheap enough to sit inside MLE root-finding loops.
    ``lo`` and ``hi`` are the ends of the tabulated range.
    """

    def __init__(self, integrand: Callable[[float], float], anchor: float,
                 lo: float, hi: float, cells: int = 2048):
        if not lo < anchor < hi:
            raise ValueError("anchor must lie strictly inside (lo, hi)")
        edges = np.linspace(lo, hi, cells + 1)
        masses = _cell_integrals(integrand, edges)
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        if not np.isfinite(cum).all():
            raise DivergentIntegral("cumulative integrand is not finite on the grid")
        self._interp = PchipInterpolator(edges, cum, extrapolate=False)
        self.lo, self.hi = float(lo), float(hi)
        self._cum_lo, self._cum_hi = float(cum[0]), float(cum[-1])
        self._slope_lo = float(integrand(lo))
        self._slope_hi = float(integrand(hi))
        self._offset = float(self._interp(anchor))

    def __call__(self, x: float) -> float:
        if x < self.lo:
            base = self._cum_lo + self._slope_lo * (x - self.lo)
        elif x > self.hi:
            base = self._cum_hi + self._slope_hi * (x - self.hi)
        else:
            base = float(self._interp(x))
        return base - self._offset


def anchored_antiderivative(model: DensityModel, profile, integrand: Callable[[float], float],
                            drop: float) -> CumulativeIntegral:
    """Antiderivative of ``integrand`` that vanishes at the zero of a score.

    ``profile`` is a zero-crossing score profile of ``model``; the anchor is
    its root.  The table spans the model's effective interval at ``drop``,
    widened to reach at least one unit beyond the anchor on either side.
    """
    from .score import bracketed_root  # score builds on this module

    anchor = bracketed_root(profile)
    lo, hi = effective_interval(model, drop=drop)
    return CumulativeIntegral(integrand, anchor, min(lo, anchor - 1.0), max(hi, anchor + 1.0))


# ---------------------------------------------------------------------------
# tabulated densities
# ---------------------------------------------------------------------------


def tabulated_model(support: SupportSet, grid, log_pdf_values, name: str = "tabulated",
                    normalized: bool = False) -> DensityModel:
    """Density interpolated from ``(grid, log_pdf)`` pairs.

    The grid must be strictly increasing and lie inside the support; the
    log-density is joined with monotone cubic pieces.  Inside the support
    but beyond the tabulated hull the log-density continues linearly with
    the end slopes (exponential tails), so scores stay evaluable wherever
    solvers probe; a rising end slope simply makes ``normalize`` fail with
    :class:`DivergentIntegral`, as it should.
    """
    xs = np.asarray(grid, dtype=float)
    ys = np.asarray(log_pdf_values, dtype=float)
    if xs.ndim != 1 or xs.size < 4 or xs.shape != ys.shape:
        raise ValueError("tabulated density needs matching 1-d arrays (>= 4 points)")
    if not (np.diff(xs) > 0).all():
        raise ValueError("tabulated grid must be strictly increasing")
    if not (support.contains(float(xs[0])) and support.contains(float(xs[-1]))):
        raise ValueError("tabulated grid must lie inside the declared support")
    interp = PchipInterpolator(xs, ys, extrapolate=False)
    deriv = interp.derivative()
    x_min, x_max = float(xs[0]), float(xs[-1])
    y_min, y_max = float(ys[0]), float(ys[-1])
    slope_min, slope_max = float(deriv(x_min)), float(deriv(x_max))

    def log_pdf(x: float) -> float:
        if x < x_min:
            return y_min + slope_min * (x - x_min)
        if x > x_max:
            return y_max + slope_max * (x - x_max)
        return float(interp(x))

    return DensityModel(name=name, support=support, log_pdf=log_pdf,
                        normalized=normalized)
