"""Covering sample sizes, projectability, and the necessary-sample-size rule.

For a strictly monotone score with image ``(-p_minus, p_plus)``, the zero-sum
tuples of attainable score values determine how large a sample must be before
every coordinate projection covers the whole image ("projectable").  The
minimal covering sample size (MCSS) is

- ``2``                          when the bounds are equal (possibly infinite),
- ``ceil(max/min + 1)``          when both are finite and unequal,
- ``infinity``                   when exactly one bound is infinite.

The minimal necessary sample size (MNSS) for a characterization is then
``max(MCSS, 3)``, combined across the two sides of the origin when ``u1``
vanishes there (scale parameters on the full line).  A brute-force
enumeration oracle over a discretized image is provided as an independent
check of the covering rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .density import integer, real
from .errors import BudgetExceeded, InvalidBounds, InvalidParams, NotCharacterizable
from .score import Kind, ScoreProfile

#: relative fuzz applied before the ceiling so floating noise cannot
#: inflate an exact-integer ratio into the next sample size
CEIL_FUZZ = 1e-9

#: lattice points of the image in the brute-force projectability oracle
ORACLE_GRID = 41


def _validate_bound(value: float, name: str) -> float:
    v = real(value)
    if math.isnan(v) or v <= 0.0:
        raise InvalidBounds(f"{name} must be > 0 (possibly inf), got {value}")
    return v


def _bounds_equal(a: float, b: float) -> bool:
    if math.isinf(a) and math.isinf(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= CEIL_FUZZ * max(a, b)


@dataclass(frozen=True)
class SampleSize:
    """A minimal covering or necessary sample size: an int, or ``math.inf``."""

    value: Union[int, float]

    def __str__(self) -> str:
        return "inf" if math.isinf(self.value) else str(int(self.value))


def mcss(p_minus: float, p_plus: float) -> SampleSize:
    """Minimal covering sample size for image bounds ``(p_minus, p_plus)``.

    ``ceil(ratio + 1)`` takes ``ratio + 1`` down by ``CEIL_FUZZ`` of itself
    first, so a value that noise lifted just above an integer counts as that
    integer, but never below the integer under the value, ``floor(ratio) +
    1`` in integer arithmetic: from a ratio of about 1e9 on the fuzz exceeds
    one, and from 2^53 on ``ratio + 1.0`` rounds back to the ratio, and an
    integer ratio k still gives k + 1.
    """
    pm = _validate_bound(p_minus, "p_minus")
    pp = _validate_bound(p_plus, "p_plus")
    if _bounds_equal(pm, pp):
        return SampleSize(2)
    if math.isinf(pm) or math.isinf(pp):
        return SampleSize(math.inf)
    ratio = max(pm, pp) / min(pm, pp)
    if math.isinf(ratio):
        raise InvalidBounds(f"the bound ratio {max(pm, pp):g}/{min(pm, pp):g} "
                            "overflows a double")
    value = ratio + 1.0
    n = max(math.ceil(value - CEIL_FUZZ * value), math.floor(ratio) + 1)
    return SampleSize(max(n, 2))


def projection_interval(p_minus: float, p_plus: float, n: int) -> tuple[float, float]:
    """Coordinate projection of the zero-sum tuples inside the image cube.

    For sample size ``n`` the projection is the open interval
    ``(-min(p_minus, (n-1) p_plus), min(p_plus, (n-1) p_minus))``.  Where
    ``n - 1`` is not a double, each product is compared with the other
    bound exactly, so the interval reaches a bound exactly from the minimal
    covering sample size on.
    """
    pm = _validate_bound(p_minus, "p_minus")
    pp = _validate_bound(p_plus, "p_plus")
    if integer(n) < 1:
        raise InvalidParams("n must be >= 1")
    return -_reach(n - 1, pp, pm), _reach(n - 1, pm, pp)


def _reach(count: int, p: float, bound: float) -> float:
    """``min(bound, count * p)``.  Where ``count`` is not a double, the
    comparison is exact, on the doubles' integer ratios, and a product below
    the bound stays below it."""
    if count <= 2 ** 53:
        return min(bound, count * p)
    if math.isinf(p):
        return bound
    a, b = p.as_integer_ratio()
    for edge in (bound, math.nextafter(bound, 0.0)):
        if math.isfinite(edge):
            c, d = edge.as_integer_ratio()
            if count * a * d >= c * b:
                return edge
    # int division rounds correctly
    return count * a / b


def is_projectable(p_minus: float, p_plus: float, n: int) -> bool:
    """Whether every coordinate projection covers the full image at size ``n``.

    That is the covering rule ``n >= mcss``: the projection interval of
    :func:`projection_interval` reaches both image bounds exactly from the
    minimal covering sample size on.
    """
    return integer(n) >= mcss(p_minus, p_plus).value


def brute_force_projectable(p_minus: float, p_plus: float, n: int) -> bool:
    """Enumeration oracle for projectability over a discretized image.

    The image ``(-p_minus, p_plus)`` is discretized into ``ORACLE_GRID``
    lattice points.  Candidate coordinates are the strictly interior lattice
    values; companion coordinates may sit anywhere on the closed lattice hull
    (approaching the open endpoints arbitrarily closely).  The attainable
    ``(n-1)``-fold sums are enumerated by repeated discrete convolution, and
    the oracle reports whether ``-b1`` is attainable for every candidate
    ``b1``.  Intended for small budgets only.
    """
    pm = _validate_bound(p_minus, "p_minus")
    pp = _validate_bound(p_plus, "p_plus")
    if not (math.isfinite(pm) and math.isfinite(pp)):
        raise BudgetExceeded("brute force handles finite bounds only")
    if integer(n) < 2 or n > 8:
        raise BudgetExceeded(f"n={n} outside the enumeration budget (2..8)")

    lattice = np.linspace(-pm, pp, ORACLE_GRID)
    h = (pp + pm) / (ORACLE_GRID - 1)
    probes = lattice[1:-1]

    # attainable sums of (n-1) companion values, over the sum lattice
    # starting at (n-1) * (-p_minus) with step h
    indicator = np.ones(ORACLE_GRID)
    reach = indicator.copy()
    for _ in range(n - 2):
        reach = np.convolve(reach, indicator)
    attainable = reach > 0.0
    base = (n - 1) * (-pm)

    for b1 in probes:
        target = -float(b1)
        j = int(round((target - base) / h))
        if j < 0 or j >= attainable.size or not attainable[j]:
            return False
        if abs(base + j * h - target) > 0.5000001 * h:
            return False
    return True


def mnss(profiles: Sequence[ScoreProfile], kind: Kind) -> SampleSize:
    """Minimal necessary sample size from the profiles of a score's pieces.

    ``profiles`` is what :func:`~mlechar.score.kind_profiles` returns: one
    profile, which yields ``max(mcss, 3)``, or the profiles of the two sides
    of the origin where ``u1`` vanishes (scale parameters on the full line),
    which yield the maximum of the two sides' values.  Profiles that do not
    cross zero fall outside the characterization results and raise
    :class:`NotCharacterizable`.
    """
    if len(profiles) not in (1, 2):
        raise InvalidParams("mnss expects one profile or a half-line pair")

    for prof in profiles:
        if not prof.crosses_zero:
            raise NotCharacterizable(
                f"{kind!r} score on {prof.domain} does not cross zero"
            )
    # an infinite MCSS stays infinite
    return SampleSize(max(3, *(mcss(prof.p_minus, prof.p_plus).value for prof in profiles)))
