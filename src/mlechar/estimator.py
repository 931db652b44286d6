"""Maximum-likelihood estimation by score-equation root solving.

For every parameter kind the MLE is the root of the sample score sum
``sum_i score(h(theta, x_i)) = 0``, with the kind's score ``u2 + u1 f'/f`` and
action ``h``:

- location: ``sum_i phi(x_i - theta)``          (phi = -f'/f),
- scale:    ``sum_i psi(theta * x_i)``          (psi = 1 + x f'/f),
  under the rate-like convention ``theta * f(theta * x)``, solved for
  ``log theta``; the conventional scale is ``sigma = 1/theta``,
- group:    ``sum_i [u2 + u1 f'/f](H_theta(x_i))``.

Monotone scores that cross zero make each sum strictly monotone in theta
with a unique root.  One solver serves every kind and every batch:
:func:`mle_block` solves m samples, one lane per row, given as an ``(m, n)``
block or as rows of different lengths, and returns arrays (θ, residual,
iterations, bracket).  Each lane seeds a bracket from its sample, doubles
its half-width (clipped to the kind's window) until the sum changes sign,
and refines it with Brent's bisection/secant iteration
(``score.brent_lanes``).  A lane's result does not depend on the other rows,
so :func:`mle`, the one place that builds an :class:`MleResult` from a
solve, is a block of one.  Catalog families with closed-form estimators get
a direct fast path via :func:`closed_form_mle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .density import DensityModel, Sample, call_elementwise, distinct
from .errors import (
    AllZeroSample,
    BracketFailure,
    NoClosedForm,
    NotCharacterizable,
    OutsideSupport,
)
from .score import (
    LOCATION,
    SCALE,
    Kind,
    brent_lanes,
    flatten_rows,
    identity,
    row_score_sums,
)

DEFAULT_TOL = 1e-10      # score-sum residual tolerance
MAX_DOUBLINGS = 60


@dataclass(frozen=True)
class ClosedForm:
    name: str


@dataclass(frozen=True)
class BracketedRoot:
    iterations: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class MleResult:
    """An estimated parameter with its residual score sum and diagnostics."""

    theta_hat: float
    residual: float
    method: Union[ClosedForm, BracketedRoot]
    kind: Kind

    @property
    def sigma_hat(self) -> float:
        """Conventional scale 1/theta (scale kind only)."""
        return 1.0 / self.theta_hat


def mle(model: DensityModel, kind: Kind, sample: Sample,
        tol: float = DEFAULT_TOL) -> MleResult:
    """MLE of ``kind``'s parameter: root of ``sum_i score(h(theta, x_i))``.

    ``model`` is the base density f; the family members share its support,
    so the sample must lie inside it.  The search runs in the kind's solver
    coordinate t (``theta = kind.to_theta(t)``): the bracket starts at the
    kind's sample seed and its half-width doubles, clipped to the kind's
    window, until the score sum changes sign.  The root must bring the sum
    below ``tol`` in absolute value.
    """
    roots = mle_block(model, kind, [sample.values], tol)
    lo, hi = roots.bracket[0].tolist()
    return MleResult(float(roots.theta[0]), float(roots.residual[0]),
                     BracketedRoot(int(roots.iterations[0]), (lo, hi)), kind)


class BlockRoots(NamedTuple):
    """The MLEs of m rows, as arrays of m: ``bracket`` is ``(m, 2)``, in theta."""

    theta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    bracket: np.ndarray


def mle_block(model: DensityModel, kind: Kind, rows,
              tol: float = DEFAULT_TOL) -> BlockRoots:
    """MLEs of m samples, one lane per row, as :func:`mle`.

    ``rows`` is an ``(m, n)`` block or a sequence of m 1-D rows of any
    lengths.  Lane i equals ``mle(model, kind, Sample(rows[i]), tol)`` bit
    for bit.  Raises as soon as one row fails.
    """
    if kind.h is None:
        raise NotCharacterizable(f"the {kind!r} kind carries no action to estimate")
    kind.check(model.support)
    flat, lengths = flatten_rows(rows)
    Sample(flat).require_inside(model)
    m = lengths.size
    starts = np.cumsum(lengths) - lengths
    w_lo, w_hi = kind.theta_window
    if kind.seed is None:
        center, half = np.zeros(m), np.full(m, min(0.5, (w_hi - w_lo) / 4.0))
    else:
        # the seed sees one (count, n) block per row length; a sample range
        # near the float limit overflows to an infinite half-width
        center, half = np.empty(m), np.empty(m)
        with np.errstate(over="ignore"):
            for n in distinct(lengths):
                group = np.flatnonzero(lengths == n)
                center[group], half[group] = kind.seed(flat[starts[group, None] + np.arange(n)])
    center = np.minimum(np.maximum(center, w_lo), w_hi)

    def to_theta(t: np.ndarray) -> np.ndarray:
        return t if kind.to_theta is identity else call_elementwise(kind.to_theta, t)

    def s(t: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        if lanes.size == m:
            return row_score_sums(model, kind, flat, lengths, to_theta(t))
        counts = lengths[lanes]
        # positions in flat of the listed rows, row after row
        gather = np.repeat(starts[lanes] - (np.cumsum(counts) - counts), counts) \
            + np.arange(counts.sum())
        return row_score_sums(model, kind, flat[gather], counts, to_theta(t))

    lo, hi, s_lo, s_hi = (np.empty(m) for _ in range(4))
    doublings = 0
    pending = np.arange(m)
    while pending.size:
        try:
            # a bracket end or an action that overflows gives an infinity,
            # outside every support
            with np.errstate(over="ignore"):
                lo_p = np.maximum(w_lo, center[pending] - half[pending])
                hi_p = np.minimum(w_hi, center[pending] + half[pending])
                slo_p, shi_p = s(lo_p, pending), s(hi_p, pending)
        except OutsideSupport as exc:
            raise BracketFailure(f"no sign change before the action leaves the support "
                                 f"within [{lo_p.min():.6g}, {hi_p.max():.6g}]") from exc
        found = (slo_p == 0.0) | (shi_p == 0.0) | ((slo_p > 0.0) != (shi_p > 0.0))
        for dest, src in ((lo, lo_p), (hi, hi_p), (s_lo, slo_p), (s_hi, shi_p)):
            dest[pending[found]] = src[found]
        stuck = ~found & ((doublings == MAX_DOUBLINGS) | ((lo_p == w_lo) & (hi_p == w_hi)))
        if stuck.any():
            i = int(np.flatnonzero(stuck)[0])
            raise BracketFailure(
                f"no sign change within {doublings} doublings (last bracket "
                f"[{lo_p[i]:.6g}, {hi_p[i]:.6g}] with sums [{slo_p[i]:.3g}, {shi_p[i]:.3g}])"
            )
        pending = pending[~found]
        half[pending] *= 2.0
        doublings += 1

    # refine far below a 1e-12 interval so the residual contract holds even
    # for interpolated (slightly jittery) scores
    roots, residuals, iterations, converged = brent_lanes(s, lo, hi, s_lo, s_hi, xtol=1e-15,
                                                          maxiter=300)
    if not converged.all():
        raise BracketFailure(f"Brent iteration did not converge within 300 steps "
                             f"(theta={float(roots[~converged][0])!r})")
    bad = ~(np.abs(residuals) < tol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise BracketFailure(
            f"residual {residuals[i]:.3e} at theta={float(roots[i])!r} exceeds tol={tol:g}"
        )
    return BlockRoots(to_theta(roots), residuals, iterations,
                      np.stack([to_theta(lo), to_theta(hi)], axis=1))


def mle_location(model: DensityModel, sample: Sample, tol: float = DEFAULT_TOL) -> MleResult:
    """Location MLE: root of ``sum_i phi(x_i - theta)``.

    The score sum is strictly decreasing in theta for monotone increasing
    ``phi``.  Kept for callers outside the package.
    """
    return mle(model, LOCATION, sample, tol)


def mle_scale(model: DensityModel, sample: Sample, tol: float = DEFAULT_TOL) -> MleResult:
    """Scale MLE under the rate convention: root of ``sum_i psi(theta x_i)``.

    The returned ``theta_hat`` is the rate; use ``sigma_hat`` for the
    conventional scale.  Kept for callers outside the package.
    """
    return mle(model, SCALE, sample, tol)


def mle_group(model: DensityModel, transform: Kind, sample: Sample,
              tol: float = DEFAULT_TOL) -> MleResult:
    """Group-parameter MLE: root of the transformed score sum.  Kept for
    callers outside the package."""
    return mle(model, transform, sample, tol)


def _per_row(fn: Callable, *columns: np.ndarray):
    # fn on Python floats, once per row: math.log and ** give the bits they
    # give on a single row
    return np.frompyfunc(fn, len(columns), 1)(*columns)


def _log_mean_exp(u: np.ndarray):
    # log(mean(exp(u))) along the last axis, shifted by the maximum so exp
    # cannot overflow
    top = np.max(u, axis=-1, keepdims=True)
    means = np.mean(np.exp(u - top), axis=-1)
    return _per_row(lambda top, mean: top + math.log(mean), top[..., 0], means)


def _power_mean_rate(x: np.ndarray, power: float):
    # mean(|x|^power)^(-1/power) along the last axis, with x divided by
    # max|x| so neither the power nor the sum can overflow
    top = np.max(np.abs(x), axis=-1, keepdims=True)
    if not top.all():
        raise AllZeroSample("scale estimation needs a nonzero observation")
    means = np.mean(np.abs(x / top) ** power, axis=-1)
    return _per_row(lambda mean, top: mean ** (-1.0 / power) / top, means, top[..., 0])


_CLOSED_FORMS: dict[str, Callable[[np.ndarray, dict], np.ndarray]] = {
    "gaussian_location": lambda x, p: np.mean(x, axis=-1),
    "gaussian_scale": lambda x, p: _power_mean_rate(x, 2.0),
    "gamma_scale": lambda x, p: p["alpha"] * _power_mean_rate(x, 1.0),
    "laplace_scale": lambda x, p: _power_mean_rate(x, 1.0),
    "weibull_scale": lambda x, p: _power_mean_rate(x, p["k"]),
    "gumbel_location": lambda x, p: -_log_mean_exp(-x),
    "ferguson_location": lambda x, p: _log_mean_exp(p["gamma"] * x) / p["gamma"],
}


def closed_form_estimator(entry, kind: Kind) -> Callable[[np.ndarray], np.ndarray]:
    """A catalog entry's closed-form estimator for the given kind, as a
    function of the observations alone: no support check and no residual.

    The function takes one sample, or a block of equal-length samples as
    rows, and returns one estimate per row, as floats: an ``(m, n)`` block
    gives m of them, each equal bit for bit to the row's own estimate.
    ``entry`` must expose ``closed_form`` (kind label to formula id) and
    ``params``; raises :class:`NoClosedForm` otherwise.
    """
    formula = entry.closed_form.get(kind.label)
    if formula is None:
        raise NoClosedForm(f"{entry.name} has no closed-form {kind.label} MLE")
    estimate, params = _CLOSED_FORMS[formula], entry.params
    return lambda values: np.asarray(estimate(values, params), dtype=float)


def closed_form_mle(entry, kind: Kind, sample: Sample) -> MleResult:
    """Evaluate a catalog entry's closed-form estimator for the given kind.

    ``entry`` must expose ``closed_form`` (kind label to formula id),
    ``params`` and ``model``; raises :class:`NoClosedForm` otherwise.  The
    sample must lie inside the model's support, as for :func:`mle`.
    """
    estimate = closed_form_estimator(entry, kind)
    kind.check(entry.model.support)
    sample.require_inside(entry.model)
    theta = estimate(sample.values)
    residual = row_score_sums(entry.model, kind, sample.values, [sample.n], [theta])[0]
    return MleResult(float(theta), float(residual), ClosedForm(entry.closed_form[kind.label]),
                     kind)
