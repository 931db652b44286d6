"""Counterexample densities sharing a target's location MLE below the MNSS.

Given a target f with odd, strictly increasing location score phi, any odd
strictly increasing h yields a density g with ``-g'/g = h o phi``:

    log g(x) = -int_{x0}^{x} h(phi(y)) dy + log c.

The anchor x0 is the node of the target's scan where its log-density is
largest, the cut of ``log_mass``.  Any interior x0 gives the same g: moving
it adds a constant to log g, and the normalizer c removes that constant.

Such a g shares f's MLE on every symmetric two-point sample (both
estimators return the midpoint) while, for h other than a positive multiple
of the identity, g sits in a different equivalence class and the shared-MLE
property breaks down at sample size 3.

Two shapes of h are supported: odd powers ``h(y) = d * y**p`` and the
even-derivative perturbation ``h(y) = y + w'(y)`` for an even differentiable
w (guarded numerically so h stays strictly increasing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .density import (
    MAX_COUNT,
    CumulativeIntegral,
    DensityModel,
    InverseCdfSampler,
    call_elementwise,
    effective_interval,
    integer,
    normalize,
    quiet_overflow,
    real,
    tolerance,
)
from .errors import InvalidParams, NotMonotone
from .estimator import mle_block
from .score import LOCATION, analyze_image

#: the gap below which two location MLEs of one sample agree, for analytic
#: densities: the suite's shared-MLE checks and the command-line default
AGREEMENT_TOL = 1e-7


@dataclass(frozen=True)
class OddPower:
    """h(y) = d * y**p with d > 0 and odd p.

    p = 1 reproduces the tilt class of the target; odd p >= 3 leaves it,
    which is the counterexample construction.
    """

    d: float
    p: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", real(self.d))
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise InvalidParams(f"OddPower needs d > 0, got {self.d}")
        # np.power takes p as a float, so p must have a float value
        if real(integer(self.p)) < 1 or self.p % 2 == 0:
            raise InvalidParams(f"OddPower needs odd p >= 1, got {self.p}")


@dataclass(frozen=True, eq=False)
class PlusEvenDerivative:
    """h(y) = y + w'(y) for an even differentiable w, with ``w_prime`` its
    derivative w'.  Only ``w_prime`` is read; ``w`` is kept for callers that
    still pass it.  :func:`forge_odd_h` rejects w whose perturbation
    destroys strict monotonicity of h (min slope at most 1e-3 on a uniform
    grid over the target score's range).
    """

    w: Callable[[float], float]
    w_prime: Callable[[float], float]


HSpec = Union[OddPower, PlusEvenDerivative]


def h_function(spec: HSpec) -> Callable:
    """The map h described by an :class:`HSpec`.

    Both take floats or ndarrays.  An even-derivative perturbation forms
    ``y + w'(y)`` on the array, and only ``w'`` is called once per element
    when it rejects arrays (:func:`~mlechar.density.call_elementwise`).
    """
    if isinstance(spec, OddPower):
        d, p = spec.d, spec.p
        # np.power overflows to an infinity where a float's ** would raise
        return quiet_overflow(lambda y: d * np.power(y, p))
    w_prime = spec.w_prime
    return lambda y: y + call_elementwise(w_prime, y)


def _check_h_increasing(h: Callable, y_lo: float, y_hi: float) -> None:
    # a uniform grid over the score's range: sorted score samples repeat
    # where the score saturates, and a slope between equal values is 0/0
    ys = np.linspace(y_lo, y_hi, 201)
    slopes = np.diff(call_elementwise(h, ys)) / np.diff(ys)
    if not np.all(slopes > 1e-3):
        raise NotMonotone(
            f"h is not strictly increasing on the probe grid "
            f"(min slope {slopes.min():.3e} <= guard 0.001)"
        )


def forge_odd_h(target: DensityModel, h_spec: HSpec) -> DensityModel:
    """Density g with ``-g'/g = h o phi_target``, normalized.

    Raises :class:`NotMonotone` when the target's location score is not
    strictly monotone/crossing (or when h fails its amplitude guard), and
    :class:`DivergentIntegral` when the composed density is not integrable.
    """
    profile = analyze_image(target, LOCATION)
    phi = profile.evaluate
    h = h_function(h_spec)

    def h_phi(y):
        # phi once on the whole array; h per element if it needs to be
        out = call_elementwise(h, phi(y))
        return out if np.ndim(y) else float(out)

    # the antiderivative is anchored at the target's scan mode, which is
    # interior to the effective interval when it is not a grid end
    if not profile.crosses_zero:
        raise NotMonotone("score does not cross zero; no root to bracket")
    xs, vals = target.scan
    mode = int(np.argmax(vals))
    if mode in (0, xs.size - 1):
        raise NotMonotone("no sign change on the scan grid")
    antider = CumulativeIntegral(h_phi, float(xs[mode]), *effective_interval(target, drop=80.0))
    if isinstance(h_spec, PlusEvenDerivative):
        phis = phi(np.linspace(antider.lo, antider.hi, 201))
        _check_h_increasing(h, float(phis.min()), float(phis.max()))

    raw = DensityModel(
        name=f"forged({target.name})",
        support=target.support,
        log_pdf=lambda x: -antider(x),
        dlog_pdf=lambda x: -h_phi(x),
        breaks=np.concatenate([target.breaks, antider.nodes]),
    )
    _, forged = normalize(raw)
    return forged


# ---------------------------------------------------------------------------
# empirical verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    sample: tuple
    theta_f: float
    theta_g: float

    @property
    def gap(self) -> float:
        return abs(self.theta_f - self.theta_g)


@dataclass(frozen=True)
class CounterexampleReport:
    n: int
    trials: int
    tol: float
    agree_count: int
    worst: Optional[Witness]

    @property
    def agreement_fraction(self) -> float:
        return self.agree_count / self.trials


def verify_counterexample(f: DensityModel, g: DensityModel, n: int, trials: int,
                          seed: int, tol: float) -> CounterexampleReport:
    """Fraction of seeded size-n samples from f on which the two location
    MLEs agree within ``tol``, plus the worst disagreeing witness.

    Per-trial seeds are split from the master seed in counter mode, so the
    report is reproducible and trials are independent.  All trials are drawn
    in one call and solved for both densities in one lockstep.
    """
    if integer(trials) < 1:
        raise InvalidParams("trials must be >= 1")
    if trials > MAX_COUNT:
        raise InvalidParams(f"trials must be <= {MAX_COUNT}, got {trials}")
    if integer(seed) < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")
    tol = tolerance(tol)
    if integer(n) < 1:
        raise InvalidParams("n must be >= 1")
    seeds = np.random.SeedSequence(seed).generate_state(trials)
    rows = InverseCdfSampler(f).draw([(s, [n]) for s in seeds])
    # the solver residual requirement stays subordinate to the agreement
    # tolerance under test: interpolated densities carry evaluation noise
    # that a 1e-10 residual demand cannot beat
    solver_tol = max(1e-10, 1e-3 * tol)
    agree = 0
    worst: Optional[Witness] = None
    roots_f, roots_g = mle_block(LOCATION, [(f, rows), (g, rows)], solver_tol)
    for values, tf, tg in zip(rows.flat.reshape(trials, n), roots_f.theta.tolist(),
                              roots_g.theta.tolist()):
        gap = abs(tf - tg)
        if gap < tol:
            agree += 1
        elif worst is None or gap > worst.gap:
            worst = Witness(tuple(float(v) for v in values), tf, tg)
    return CounterexampleReport(n, trials, tol, agree, worst)
