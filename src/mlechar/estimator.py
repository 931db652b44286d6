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
with a unique root.  One solver serves every kind: it seeds a bracket from
the sample, doubles its half-width (clipped to the kind's window) until the
sum changes sign, and refines it with Brent's bisection/secant iteration.
Catalog families with closed-form estimators get a direct fast path via
:func:`closed_form_mle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.optimize import brentq

from .density import DensityModel, Sample
from .errors import BracketFailure, NoClosedForm, NotCharacterizable
from .score import LOCATION, SCALE, GroupTransform, Kind, score_sum

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
    if kind.h is None:
        raise NotCharacterizable(f"the {kind!r} kind carries no action to estimate")
    kind.check(model.support)
    sample.require_inside(model)
    w_lo, w_hi = kind.theta_window
    if kind.seed is None:
        center, half = 0.0, min(0.5, (w_hi - w_lo) / 4.0)
    else:
        center, half = kind.seed(sample.values)
    center = min(max(center, w_lo), w_hi)
    to_theta = kind.to_theta

    def s(t: float) -> float:
        return score_sum(model, kind, sample, to_theta(t))

    doublings = 0
    while True:
        lo, hi = max(w_lo, center - half), min(w_hi, center + half)
        s_lo, s_hi = s(lo), s(hi)
        if s_lo == 0.0 or s_hi == 0.0 or (s_lo > 0.0) != (s_hi > 0.0):
            break
        if doublings == MAX_DOUBLINGS or (lo, hi) == (w_lo, w_hi):
            raise BracketFailure(
                f"no sign change within {doublings} doublings (last bracket "
                f"[{lo:.6g}, {hi:.6g}] with sums [{s_lo:.3g}, {s_hi:.3g}])"
            )
        doublings += 1
        half *= 2.0

    # refine far below a 1e-12 interval so the residual contract holds even
    # for interpolated (slightly jittery) scores
    root, info = brentq(s, lo, hi, xtol=1e-15, rtol=8.9e-16,
                        maxiter=300, full_output=True)
    residual = s(float(root))
    if abs(residual) >= tol:
        raise BracketFailure(
            f"residual {residual:.3e} at theta={root!r} exceeds tol={tol:g}"
        )
    return MleResult(to_theta(float(root)), float(residual),
                     BracketedRoot(int(info.iterations), (to_theta(lo), to_theta(hi))),
                     kind)


def mle_location(model: DensityModel, sample: Sample, tol: float = DEFAULT_TOL) -> MleResult:
    """Location MLE: root of ``sum_i phi(x_i - theta)``.

    The score sum is strictly decreasing in theta for monotone increasing
    ``phi``.
    """
    return mle(model, LOCATION, sample, tol)


def mle_scale(model: DensityModel, sample: Sample, tol: float = DEFAULT_TOL) -> MleResult:
    """Scale MLE under the rate convention: root of ``sum_i psi(theta x_i)``.

    The returned ``theta_hat`` is the rate; use ``sigma_hat`` for the
    conventional scale.
    """
    return mle(model, SCALE, sample, tol)


def mle_group(model: DensityModel, transform: GroupTransform, sample: Sample,
              tol: float = DEFAULT_TOL) -> MleResult:
    """Group-parameter MLE: root of the transformed score sum."""
    return mle(model, transform, sample, tol)


_CLOSED_FORMS: dict[str, Callable[[np.ndarray, dict], float]] = {
    "gaussian_location": lambda x, p: float(np.mean(x)),
    "gaussian_scale": lambda x, p: float(1.0 / math.sqrt(np.mean(x * x))),
    "gamma_scale": lambda x, p: float(p["alpha"] / np.mean(x)),
    "laplace_scale": lambda x, p: float(1.0 / np.mean(np.abs(x))),
    "weibull_scale": lambda x, p: float(np.mean(x ** p["k"]) ** (-1.0 / p["k"])),
    "gumbel_location": lambda x, p: float(-math.log(np.mean(np.exp(-x)))),
    "ferguson_location": lambda x, p: float(
        math.log(np.mean(np.exp(p["gamma"] * x))) / p["gamma"]
    ),
}


def closed_form_mle(entry, kind: Kind, sample: Sample) -> MleResult:
    """Evaluate a catalog entry's closed-form estimator for the given kind.

    ``entry`` must expose ``closed_form`` (kind label to formula id),
    ``params`` and ``model``; raises :class:`NoClosedForm` otherwise.
    """
    formula = entry.closed_form.get(kind.label)
    if formula is None:
        raise NoClosedForm(f"{entry.name} has no closed-form {kind.label} MLE")
    theta = _CLOSED_FORMS[formula](np.asarray(sample.values, dtype=float), entry.params)
    residual = score_sum(entry.model, kind, sample, theta)
    return MleResult(float(theta), float(residual), ClosedForm(formula), kind)
