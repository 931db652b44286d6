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
:func:`mle_block` takes a kind and a list of problems, each a model with its
samples as a :class:`~mlechar.density.Rows` (rows of any lengths back to
back), and solves every sample of every problem as one lane of a single
lockstep, returning per problem the arrays (θ, residual, iterations,
bracket).  One seeding step gives each lane a bracket
centre and half-width from its sample; the lane doubles its half-width
(clipped to the kind's window) until the sum changes sign, and refines the
bracket with Brent's bisection/secant iteration
(``score.brent_lanes``).  A solve holds one ``score.ScoreSums`` (the
action and each model's score) and one ``to_theta``; every callable is
tried on the arrays at each call.
A step moves all live lanes with one action call, tests the support
once, scores each problem's lanes with its own model and sums every row
with one exact row summation.  A lane's result does not depend on the other
rows or problems, so :func:`mle`, the one place that builds an
:class:`MleResult` from a solve, is one problem of one row, bracketed by
the lockstep's doubling on its one lane, refined in Python floats and
summed by extraction on its score array, with no block scaffolding.
A catalog family that writes a closed-form estimator for a kind gets a
direct fast path via :func:`closed_form_mle`; the formulas live in the
catalog's family builders, so this module names no family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Union

import numpy as np

from .density import DensityModel, Rows, Sample, call_elementwise, length_blocks, reals, tolerance
from .errors import (
    BracketFailure,
    InvalidParams,
    NoClosedForm,
    NotCharacterizable,
    OutsideSupport,
)
from .score import (
    LOCATION,
    SCALE,
    Kind,
    ScoreSums,
    brent_lanes,
    brent_one,
    identity,
)

DEFAULT_TOL = 1e-10      # score-sum residual tolerance
MAX_DOUBLINGS = 60
#: Brent's absolute tolerance in t, far below a 1e-12 interval so the
#: residual contract holds even for interpolated (slightly jittery) scores,
#: and its step budget
XTOL = 1e-15
MAX_ITER = 300


@dataclass(frozen=True)
class ClosedForm:
    name: str


@dataclass(frozen=True)
class BracketedRoot:
    iterations: int
    bracket: tuple[float, float]


@dataclass(frozen=True)
class MleResult:
    """An estimated parameter with its residual score sum and the method that
    found it: a closed form, or a bracketed root with its Brent steps and
    bracket in theta."""

    theta_hat: float
    residual: float
    method: Union[ClosedForm, BracketedRoot]

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
    below ``tol`` (> 0) in absolute value.  This is :func:`mle_block`'s lane on
    the one row ``sample``, bracketed by the lockstep's doubling on one lane,
    refined in Python floats (``score.brent_one``) and summed by extraction
    on its score array.
    """
    _, tol = _admit(kind, [(model, Rows(sample.values, np.array([sample.n])))], tol)
    sums = ScoreSums(kind, [model])
    to_theta = _to_theta(kind)

    def s(t: float) -> float:
        return sums.row(to_theta(np.array([t])), sample.values)

    center, half = _seed(kind, 1, [(slice(None), sample.values[None])])
    lo, hi, s_lo, s_hi, _ = (v.item() for v in _bracket_lanes(
        kind.theta_window, center, half, lambda t, lanes: np.array([s(t.item())])))
    root, residual, iterations, converged = brent_one(s, lo, hi, s_lo, s_hi, XTOL, MAX_ITER)
    if not converged:
        raise _unconverged(root)
    if not abs(residual) < tol:
        raise _above_tol(residual, root, tol)
    theta, lo, hi = to_theta(np.array([root, lo, hi])).tolist()
    return MleResult(theta, residual, BracketedRoot(iterations, (lo, hi)))


class BlockRoots(NamedTuple):
    """The MLEs of m rows, as arrays of m: ``bracket`` is ``(m, 2)``, in
    theta.  A lane doubled its bracket's half-width ``doublings`` times and
    took ``iterations`` Brent steps, so it evaluated its score sum
    ``2 (doublings + 1) + max(iterations - 1, 0)`` times: at both ends of
    each bracket tried and once per Brent step but the last."""

    theta: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray
    bracket: np.ndarray
    doublings: np.ndarray


def mle_block(kind: Kind, problems, tol: float = DEFAULT_TOL) -> list[BlockRoots]:
    """MLEs of the rows of several models in one solve, as :func:`mle`.

    ``problems`` lists ``(model, rows)`` pairs, where ``rows`` is a
    :class:`~mlechar.density.Rows` of m >= 1 rows of n >= 1 observations;
    any other value raises :class:`InvalidParams`.  Returns one
    :class:`BlockRoots` per problem, whose lane i equals
    ``mle(model, kind, Sample(row_i), tol)`` bit for bit.  Each
    solve holds one ``score.ScoreSums``.  One bracket
    search and one Brent lockstep serve the lanes of all problems: each
    step moves every live lane with one ``kind.h`` call, scores each
    problem's lanes with its own model and sums all rows with one
    ``row_fsums`` call, also when there is one lane.  Raises as soon as one
    row fails.
    """
    blocks, tol = _admit(kind, problems, tol)
    if not blocks:
        return []
    flat, lengths = rows = Rows(*map(np.concatenate, zip(*blocks))) if blocks[1:] else blocks[0]
    # the lane after each problem's last
    ends = np.cumsum([block.lengths.size for block in blocks]).tolist()
    m = lengths.size
    starts = np.cumsum(lengths) - lengths
    sums = ScoreSums(kind, [model for model, _ in problems])
    to_theta = _to_theta(kind)

    def s(t: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        if lanes.size == m:
            return sums(to_theta(t), flat, lengths, ends)
        counts = lengths[lanes]
        # positions in flat of the listed rows, row after row, summed in place
        # and dropped once the points are taken, to hold one index array
        x = np.repeat(starts[lanes] - (np.cumsum(counts) - counts), counts)
        x += np.arange(counts.sum())
        x = flat[x]
        return sums(to_theta(t), x, counts, np.searchsorted(lanes, ends))

    lo, hi, s_lo, s_hi, doublings = _bracket_lanes(
        kind.theta_window, *_seed(kind, m, length_blocks(rows)), s)
    roots, residuals, iterations, converged = brent_lanes(s, lo, hi, s_lo, s_hi, xtol=XTOL,
                                                          maxiter=MAX_ITER)
    if not converged.all():
        raise _unconverged(roots[~converged][0])
    bad = ~(np.abs(residuals) < tol)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise _above_tol(residuals[i], roots[i], tol)
    fields = (to_theta(roots), residuals, iterations,
              np.stack([to_theta(lo), to_theta(hi)], axis=1), doublings)
    return [BlockRoots(*(v[a:b] for v in fields)) for a, b in zip([0] + ends[:-1], ends)]


def _admit(kind: Kind, problems, tol: float) -> tuple[list[Rows], float]:
    """Each problem's rows and the tolerance as a float, once the kind has
    an action, the tolerance is a :func:`~mlechar.density.tolerance`, each
    problem's rows are a :class:`~mlechar.density.Rows` of m >= 1 rows of n
    >= 1 observations, and each problem's support admits the kind and holds
    its rows."""
    if kind.h is None:
        raise NotCharacterizable(f"the {kind!r} kind carries no action to estimate")
    tol = tolerance(tol)
    blocks = []
    for model, rows in problems:
        if isinstance(rows, Rows):
            rows = Rows(reals(rows.flat), np.asarray(rows.lengths))
        if not (isinstance(rows, Rows) and rows.flat.ndim == 1 and rows.lengths.size
                and rows.lengths.dtype.kind in "iu" and rows.lengths.min() >= 1
                and rows.lengths.sum() == rows.flat.size):
            raise InvalidParams("a block holds m >= 1 samples of n >= 1 observations")
        kind.check(model.support)
        model.support.require(rows.flat)
        blocks.append(rows)
    return blocks, tol


def _to_theta(kind: Kind) -> Callable[[np.ndarray], np.ndarray]:
    return identity if kind.to_theta is identity else partial(call_elementwise, kind.to_theta)


def _unconverged(root) -> BracketFailure:
    return BracketFailure(f"Brent iteration did not converge within {MAX_ITER} steps "
                          f"(theta={float(root)!r})")


def _above_tol(residual, root, tol: float) -> BracketFailure:
    return BracketFailure(f"residual {residual:.3e} at theta={float(root)!r} exceeds tol={tol:g}")


def _seed(kind: Kind, m: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Each lane's bracket centre in t, clipped to the kind's window, and
    half-width, as arrays of m.  The seed sees each ``(group, block)`` of
    ``blocks``: one ``(count, n)`` block per row length, or the row's
    ``(1, n)`` view when there is one row; without a seed every centre is
    0."""
    w_lo, w_hi = kind.theta_window
    if kind.seed is None:
        return np.zeros(m), np.full(m, min(0.5, (w_hi - w_lo) / 4.0))
    center, half = np.empty(m), np.empty(m)
    # a sample range near the float limit overflows to an infinite half-width
    with np.errstate(over="ignore"):
        for group, block in blocks:
            center[group], half[group] = kind.seed(block)
    return np.minimum(np.maximum(center, w_lo), w_hi), half


def _bracket_lanes(window, center: np.ndarray, half: np.ndarray, s: Callable):
    """Each lane's bracket in t, doubled in lockstep from its seed inside
    ``window``, with the score sums ``s`` at its ends and its doublings, as
    arrays of m."""
    m = center.size
    w_lo, w_hi = window
    lo, hi, s_lo, s_hi = (np.empty(m) for _ in range(4))
    doubled = np.empty(m, dtype=int)
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
        doubled[pending[found]] = doublings
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
    return lo, hi, s_lo, s_hi, doubled


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


def closed_form_mle(entry, kind: Kind, sample: Sample) -> MleResult:
    """Evaluate a catalog entry's closed-form estimator for the given kind.

    ``entry`` must expose ``closed_form`` (kind label to a ``(name,
    estimate)`` pair) and ``model``; raises :class:`NoClosedForm` otherwise.
    The sample must lie inside the model's support, as for :func:`mle`.
    An estimate outside the kind's open range of theta (finite, and positive
    for a scale) raises :class:`NoClosedForm`, naming the closed form.
    """
    if kind.label not in entry.closed_form:
        raise NoClosedForm(f"{entry.name} has no closed-form {kind.label} MLE")
    name, estimate = entry.closed_form[kind.label]
    kind.check(entry.model.support)
    entry.model.support.require(sample.values)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        theta = float(estimate(sample.values))
        lo, hi = (float(kind.to_theta(t)) for t in (-math.inf, math.inf))
    if not lo < theta < hi:
        raise NoClosedForm(f"closed form {name} has no {kind.label} value in "
                           f"({lo:g}, {hi:g}) on this sample")
    residual = ScoreSums(kind, [entry.model]).row(np.array([theta]), sample.values)
    return MleResult(theta, residual, ClosedForm(name))
