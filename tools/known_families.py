"""Count how often the image analysis answers families with known images right.

Each family is a location family whose score is a sum of shifted tanh terms,

    phi(x) = alpha + sum_i a_i tanh(b_i x + c_i),   a_i, b_i > 0, |alpha| < A = sum_i a_i,

so log f = -alpha x - sum_i (a_i / b_i) log cosh(b_i x + c_i).  The score
increases strictly from alpha - A to alpha + A, so the image bounds are
exactly ``(A - alpha, A + alpha)`` and the MNSS is ``max(mcss, 3)`` of them.
With ``alpha = 0`` and one term ``(1, b, 0)`` it is the hyperbolic secant law
(Perks 1932; Talacko 1956), with bounds (1, 1) and MNSS 3.

For each range of log10 b_i below it draws COUNT families from
``numpy.random.default_rng((SEED, range number))``: 1 to 3 terms, a_i
log-uniform in [1e-2, 1e2], log10 b_i uniform in the range, c_i uniform in
[-10, 10] and alpha uniform in [-0.95 A, 0.95 A].  With the package under SRC
(default: this tree's ``src``) first on the import path, and every warning an
error, it runs each through ``kind_profiles`` and ``mnss`` and prints one
line per range: how many were right (both bounds within 1e-8 relative and the
exact MNSS), the count of each error class raised, and how many came back
wrong, with a wrong bound only or a wrong MNSS.  It exits 0 whatever the
counts; run it on two source trees and diff the outputs to compare them:

    python tools/known_families.py SEED COUNT [SRC]
"""

from __future__ import annotations

import math
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

#: the ranges of log10 b_i, one line of counts each
B_RANGES = ((-3.0, 3.0), (-1.0, 1.0), (-0.5, 0.5))

#: the relative error a right bound may have
BOUND_RTOL = 1e-8


def tanh_family(alpha: float, terms):
    """The location family of ``phi = alpha + sum a tanh(b x + c)`` over
    ``terms`` of ``(a, b, c)``, with its analytic ``dlog_pdf``."""
    from mlechar import DensityModel, SupportSet

    a, b, c = (np.array(column, dtype=float) for column in zip(*terms))

    def log_pdf(x):
        y = b * np.asarray(x)[..., None] + c
        # log cosh y = logaddexp(y, -y) - log 2, free of overflow
        return -alpha * x - (a / b * (np.logaddexp(y, -y) - math.log(2.0))).sum(axis=-1)

    def dlog_pdf(x):
        return -(alpha + (a * np.tanh(b * np.asarray(x)[..., None] + c)).sum(axis=-1))

    return DensityModel("tanh family", SupportSet.full_line(), log_pdf, dlog_pdf)


def exact_answer(alpha: float, terms) -> tuple[float, float, float]:
    """The exact image bounds ``(p_minus, p_plus)`` and MNSS of a family."""
    from mlechar import mcss

    total = math.fsum(a for a, _, _ in terms)
    p_minus, p_plus = total - alpha, total + alpha
    return p_minus, p_plus, max(mcss(p_minus, p_plus).value, 3)


def judge(alpha: float, terms) -> str:
    """``right``, ``wrong_bounds``, ``wrong_mnss`` or the class of the
    :class:`~mlechar.MlecharError` that the analysis raised."""
    from mlechar import LOCATION, MlecharError, mnss
    from mlechar.score import kind_profiles

    p_minus, p_plus, size = exact_answer(alpha, terms)
    try:
        profiles = kind_profiles(tanh_family(alpha, terms), LOCATION)
        got = mnss(profiles, LOCATION).value
    except MlecharError as exc:
        return type(exc).__name__
    if got != size:
        return "wrong_mnss"
    (profile,) = profiles
    if (abs(profile.p_minus - p_minus) <= BOUND_RTOL * p_minus
            and abs(profile.p_plus - p_plus) <= BOUND_RTOL * p_plus):
        return "right"
    return "wrong_bounds"


def draw(rng: np.random.Generator, lo: float, hi: float) -> tuple[float, list]:
    """One family's ``(alpha, terms)`` with log10 b_i uniform in [lo, hi]."""
    n = int(rng.integers(1, 4))
    a = 10.0 ** rng.uniform(-2.0, 2.0, n)
    b = 10.0 ** rng.uniform(lo, hi, n)
    c = rng.uniform(-10.0, 10.0, n)
    alpha = float(rng.uniform(-0.95, 0.95)) * math.fsum(a.tolist())
    return alpha, list(zip(a.tolist(), b.tolist(), c.tolist()))


def count(seed: int, families: int) -> list[str]:
    """One line of counts per range of log10 b_i."""
    lines = []
    for i, (lo, hi) in enumerate(B_RANGES):
        rng = np.random.default_rng((seed, i))
        tally = Counter(judge(*draw(rng, lo, hi)) for _ in range(families))
        errors = sorted(key for key in tally if key[0].isupper())
        lines.append(f"log10_b=[{lo:g},{hi:g}] families={families} right={tally['right']}"
                     + "".join(f" {key}={tally[key]}" for key in errors)
                     + f" wrong_bounds={tally['wrong_bounds']} wrong_mnss={tally['wrong_mnss']}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3) or not all(arg.isdigit() for arg in argv[:2]):
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    src = Path(argv[2]) if len(argv) == 3 else Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src.resolve()))
    warnings.simplefilter("error")
    print("\n".join(count(int(argv[0]), int(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
