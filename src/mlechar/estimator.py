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
samples (an ``(m, n)`` block, rows of different lengths, or a
:class:`~mlechar.density.Rows`), and solves every sample of every problem
as one lane of a single lockstep, returning per problem the arrays (θ,
residual, iterations, bracket).  Each lane seeds a bracket from its sample,
doubles its half-width (clipped to the kind's window) until the sum changes
sign, and refines it with Brent's bisection/secant iteration
(``score.brent_lanes``).  A step moves all live lanes with one action call,
scores each problem's lanes with its own model and sums every row with one
exact row summation.  A lane's result does not depend on the other rows or
problems, so :func:`mle`, the one place that builds an :class:`MleResult`
from a solve, is one problem of one row, bracketed and refined in Python
floats and summed by extraction from ``score.EXTRACT_MIN_ONE_ROW``
observations on.  A
catalog family that writes a closed-form estimator for a kind gets a direct
fast path via :func:`closed_form_mle`; the formulas live in the catalog's
family builders, so this module names no family.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

from .density import DensityModel, Rows, Sample, call_elementwise, length_blocks
from .errors import (
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
    below ``tol`` in absolute value.  This is :func:`mle_block` on one
    problem of the one row ``sample``, which it brackets and refines in
    Python floats and sums by extraction from ``EXTRACT_MIN_ONE_ROW``
    observations on.
    """
    (roots,) = mle_block(kind, [(model, sample)], tol)
    (theta,), (residual,), (iterations,), ((lo, hi),) = (
        v.tolist() for v in (roots.theta, roots.residual, roots.iterations, roots.bracket))
    return MleResult(theta, residual, BracketedRoot(iterations, (lo, hi)), kind)


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

    ``problems`` lists ``(model, rows)`` pairs, where ``rows`` is an
    ``(m, n)`` block, a sequence of m 1-D rows of any lengths, a
    :class:`~mlechar.density.Rows` or a :class:`~mlechar.density.Sample`
    (one row).  Returns one :class:`BlockRoots` per problem, whose lane i
    equals ``mle(model, kind, Sample(rows[i]), tol)`` bit for bit.  One
    bracket search and one Brent lockstep serve the lanes of all problems:
    each step moves every live lane with one ``kind.h`` call, scores each
    problem's lanes with its own model and sums all rows with one
    ``row_fsums`` call.  One problem of one row seeds its row as a
    ``(1, n)`` view and brackets and refines it in Python floats, where
    numpy steps on arrays of one would cost more than the arithmetic.
    Raises as soon as one row fails.
    """
    if kind.h is None:
        raise NotCharacterizable(f"the {kind!r} kind carries no action to estimate")
    if not problems:
        return []
    models, blocks = zip(*((model, flatten_rows(rows)) for model, rows in problems))
    for (model, given), block in zip(problems, blocks):
        kind.check(model.support)
        # a Sample was checked as one row when it was made
        (given if isinstance(given, Sample) else Sample(block.flat)).require_inside(model)
    flat, lengths = rows = Rows(*map(np.concatenate, zip(*blocks))) if blocks[1:] else blocks[0]
    # the lane after each problem's last
    ends = np.cumsum([block.lengths.size for block in blocks]).tolist()
    m = lengths.size
    starts = np.cumsum(lengths) - lengths

    def to_theta(t: np.ndarray) -> np.ndarray:
        return t if kind.to_theta is identity else call_elementwise(kind.to_theta, t)

    def s(t: np.ndarray, lanes: np.ndarray) -> np.ndarray:
        if lanes.size == m:
            return row_score_sums(models, kind, flat, lengths, to_theta(t), ends)
        counts = lengths[lanes]
        # positions in flat of the listed rows, row after row, summed in place
        # and dropped once the points are taken, to hold one index array
        x = np.repeat(starts[lanes] - (np.cumsum(counts) - counts), counts)
        x += np.arange(counts.sum())
        x = flat[x]
        return row_score_sums(models, kind, x, counts, to_theta(t), np.searchsorted(lanes, ends))

    lo, hi, s_lo, s_hi, doublings = (_bracket_one if m == 1 else _bracket_lanes)(kind, rows, s)
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
    fields = (to_theta(roots), residuals, iterations,
              np.stack([to_theta(lo), to_theta(hi)], axis=1), doublings)
    return [BlockRoots(*(v[a:b] for v in fields)) for a, b in zip([0] + ends[:-1], ends)]


def _bracket_lanes(kind: Kind, rows: Rows, s: Callable):
    """Each lane's bracket in t, from its seed, with the score sums ``s`` at
    its ends and its doublings, as arrays of m."""
    m = rows.lengths.size
    w_lo, w_hi = kind.theta_window
    if kind.seed is None:
        center, half = np.zeros(m), np.full(m, min(0.5, (w_hi - w_lo) / 4.0))
    else:
        # the seed sees one (count, n) block per row length; a sample range
        # near the float limit overflows to an infinite half-width
        center, half = np.empty(m), np.empty(m)
        with np.errstate(over="ignore"):
            for group, block in length_blocks(rows):
                center[group], half[group] = kind.seed(block)
    center = np.minimum(np.maximum(center, w_lo), w_hi)
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


def _bracket_one(kind: Kind, rows: Rows, s: Callable):
    """:func:`_bracket_lanes` on one lane, step for step in Python floats,
    from the seed of the row's ``(1, n)`` view."""
    w_lo, w_hi = kind.theta_window
    if kind.seed is None:
        center, half = 0.0, min(0.5, (w_hi - w_lo) / 4.0)
    else:
        with np.errstate(over="ignore"):
            center, half = (np.asarray(v, dtype=float).item() for v in kind.seed(rows.flat[None]))
    # max and min with the candidate first keep a NaN, as numpy does
    center = min(max(center, w_lo), w_hi)
    lane = np.zeros(1, dtype=int)
    for doublings in range(MAX_DOUBLINGS + 1):
        lo, hi = max(center - half, w_lo), min(center + half, w_hi)
        try:
            with np.errstate(over="ignore"):
                s_lo, s_hi = s(np.array([lo]), lane).item(), s(np.array([hi]), lane).item()
        except OutsideSupport as exc:
            raise BracketFailure(f"no sign change before the action leaves the support "
                                 f"within [{lo:.6g}, {hi:.6g}]") from exc
        if s_lo == 0.0 or s_hi == 0.0 or (s_lo > 0.0) != (s_hi > 0.0):
            return tuple(np.array([v]) for v in (lo, hi, s_lo, s_hi, doublings))
        if doublings == MAX_DOUBLINGS or (lo == w_lo and hi == w_hi):
            raise BracketFailure(
                f"no sign change within {doublings} doublings (last bracket "
                f"[{lo:.6g}, {hi:.6g}] with sums [{s_lo:.3g}, {s_hi:.3g}])"
            )
        half *= 2.0


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


def closed_form_estimator(entry, kind: Kind) -> Callable[[np.ndarray], np.ndarray]:
    """A catalog entry's closed-form estimator for the given kind, as a
    function of the observations alone: no support check and no residual.

    The function takes one sample, or a block of equal-length samples as
    rows, and returns one estimate per row, as floats: an ``(m, n)`` block
    gives m of them, each equal bit for bit to the row's own estimate.
    ``entry`` must expose ``closed_form`` (kind label to a ``(name,
    estimate)`` pair); raises :class:`NoClosedForm` otherwise.
    """
    if kind.label not in entry.closed_form:
        raise NoClosedForm(f"{entry.name} has no closed-form {kind.label} MLE")
    _, estimate = entry.closed_form[kind.label]
    return lambda values: np.asarray(estimate(values), dtype=float)


def closed_form_mle(entry, kind: Kind, sample: Sample) -> MleResult:
    """Evaluate a catalog entry's closed-form estimator for the given kind.

    ``entry`` must expose ``closed_form`` (kind label to a ``(name,
    estimate)`` pair) and ``model``; raises :class:`NoClosedForm` otherwise.
    The sample must lie inside the model's support, as for :func:`mle`.
    """
    estimate = closed_form_estimator(entry, kind)
    kind.check(entry.model.support)
    sample.require_inside(entry.model)
    theta = estimate(sample.values)
    residual = row_score_sums(entry.model, kind, sample.values, [sample.n], [theta])[0]
    name, _ = entry.closed_form[kind.label]
    return MleResult(float(theta), float(residual), ClosedForm(name), kind)
