import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlechar import lookup
from mlechar.density import DensityModel, SupportSet
from mlechar.errors import NotMonotone, UnsupportedSupport
from mlechar.score import (
    EXTRACT_MIN_SCORES,
    LOCATION,
    SCALE,
    Group,
    analyze_image,
    bracketed_root,
    kind_profiles,
    kind_score,
    row_fsums,
    row_score_sums,
)


def test_location_score_values(gaussian, logistic, gumbel):
    assert kind_score(gaussian.model, LOCATION, 2.0) == 2.0
    assert abs(kind_score(logistic.model, LOCATION, 0.0)) < 1e-15
    assert abs(kind_score(gumbel.model, LOCATION, 0.0)) < 1e-15
    # tanh(x/2) shape
    assert abs(kind_score(logistic.model, LOCATION, 1.0) - math.tanh(0.5)) < 1e-12


def test_location_score_needs_full_line(gamma2):
    with pytest.raises(UnsupportedSupport):
        kind_score(gamma2.model, LOCATION, 1.0)


def test_scale_score_values(gaussian, gamma2):
    assert abs(kind_score(gaussian.model, SCALE, 1.0)) < 1e-15
    assert abs(kind_score(gamma2.model, SCALE, 2.0)) < 1e-15
    weibull = lookup("weibull", {"k": 2.0})
    assert abs(kind_score(weibull.model, SCALE, 1.0)) < 1e-15
    # the formula value at the origin of a full-line support is 1
    assert kind_score(gaussian.model, SCALE, 0.0) == 1.0


def test_group_score_values(gaussian, sinh_arcsinh):
    tr = sinh_arcsinh.transform
    got = kind_score(gaussian.model, Group(tr.u1, tr.u2), 1.0)
    assert abs(got - (-1.0 / math.sqrt(2.0))) < 1e-12
    # (u1, u2) = (x, 1) reduces to the scale score
    assert abs(kind_score(gaussian.model, Group(lambda x: x, lambda x: 1.0), 1.0)) < 1e-15
    # (u1, u2) = (1, 0) is the raw log-derivative
    assert abs(kind_score(gaussian.model, Group(lambda x: 1.0, lambda x: 0.0), 2.0)
               - (-2.0)) < 1e-15


@pytest.mark.parametrize("name", ["gaussian", "laplace", "student", "logistic"])
def test_symmetric_families_have_odd_location_scores(name):
    params = {"nu": 2.0} if name == "student" else {}
    model = lookup(name, params).model
    for x in np.linspace(0.1, 8.0, 40):
        plus = -float(model.dlog_pdf(float(x)))
        minus = -float(model.dlog_pdf(float(-x)))
        assert abs(plus + minus) < 1e-8


def test_group_score_reductions_pointwise(gaussian):
    xs = np.linspace(-6.0, 6.0, 25) + 0.01
    for x in xs:
        x = float(x)
        raw = kind_score(gaussian.model, Group(lambda y: 1.0, lambda y: 0.0), x)
        assert abs(raw - (-kind_score(gaussian.model, LOCATION, x))) < 1e-12
        as_scale = kind_score(gaussian.model, Group(lambda y: y, lambda y: 1.0), x)
        assert abs(as_scale - kind_score(gaussian.model, SCALE, x)) < 1e-12


def test_analyze_image_gaussian_location(gaussian):
    prof = analyze_image(gaussian.model, LOCATION)
    assert prof.monotone_increasing and prof.crosses_zero
    assert math.isinf(prof.p_minus) and math.isinf(prof.p_plus)
    assert prof.provenance == "numeric"


def test_analyze_image_gumbel_location(gumbel):
    prof = analyze_image(gumbel.model, LOCATION)
    assert math.isinf(prof.p_minus)
    assert abs(prof.p_plus - 1.0) < 1e-3


def test_analyze_image_student_scale_halfline():
    model = lookup("student", {"nu": 3.0}).model
    prof = analyze_image(model, SCALE, SupportSet.positive_half_line())
    assert not prof.monotone_increasing
    assert prof.crosses_zero
    assert abs(prof.p_minus - 3.0) < 3e-3
    assert abs(prof.p_plus - 1.0) < 1e-3


def test_split_halflines_images(gaussian):
    neg, pos = kind_profiles(gaussian.model, SCALE)
    for prof in (neg, pos):
        assert math.isinf(prof.p_minus)
        assert abs(prof.p_plus - 1.0) < 1e-3
    laplace = lookup("laplace").model
    for prof in kind_profiles(laplace, SCALE):
        assert math.isinf(prof.p_minus) and abs(prof.p_plus - 1.0) < 1e-3
    cauchy = lookup("student", {"nu": 1.0}).model
    for prof in kind_profiles(cauchy, SCALE):
        assert abs(prof.p_minus - 1.0) < 1e-3 and abs(prof.p_plus - 1.0) < 1e-3


def test_not_monotone_families():
    with pytest.raises(NotMonotone):
        analyze_image(lookup("laplace").model, LOCATION)
    with pytest.raises(NotMonotone):
        analyze_image(lookup("student", {"nu": 3.0}).model, LOCATION)
    # a visibly skewed member of the sinh-arcsinh family has a location
    # score with an interior dip (the base at theta=0 is just the normal)
    skewed = lookup("sinh_arcsinh_skew_normal").group_density(1.5)
    with pytest.raises(NotMonotone):
        analyze_image(skewed, LOCATION)


def test_score_turning_back_beyond_the_probe_grid_is_not_monotone():
    # log f = 400 exp(-x^2/800): the location score x exp(-x^2/800) rises on
    # |x| < 20, the probe grid, and falls beyond it
    bump = DensityModel("bump", SupportSet.full_line(),
                        lambda x: 400.0 * np.exp(-x * x / 800.0),
                        lambda x: -x * np.exp(-x * x / 800.0))
    with pytest.raises(NotMonotone, match="reverses direction"):
        analyze_image(bump, LOCATION)


@pytest.mark.parametrize("name,params,kind", [
    ("gaussian", {}, "location"),
    ("gumbel", {}, "location"),
    ("logistic", {}, "location"),
    ("gamma", {"alpha": 2.0}, "scale"),
    ("weibull", {"k": 2.0}, "scale"),
])
def test_score_root_is_tiny_at_bracketed_zero(name, params, kind):
    entry = lookup(name, params)
    if kind == "location":
        prof = analyze_image(entry.model, LOCATION)
    else:
        prof = analyze_image(entry.model, SCALE)
    root = bracketed_root(prof)
    assert abs(prof.evaluate(root)) < 1e-8


def test_group_profile_symmetric_image(gaussian, sinh_arcsinh):
    tr = sinh_arcsinh.transform
    prof = analyze_image(gaussian.model, Group(tr.u1, tr.u2))
    assert math.isinf(prof.p_minus) and math.isinf(prof.p_plus)
    assert prof.crosses_zero and not prof.monotone_increasing


#: the gaussian location score is x itself; with u2 = -0.0 it keeps the sign
#: of a zero, so the scores are exactly the data
SIGNED_LOCATION = dataclasses.replace(LOCATION, u2=lambda x: -0.0)
#: values whose sums tie or sit at the edge of the double range
SPECIAL = np.array([1.0, 2.0 ** -53, 2.0 ** -106, 0.0, -0.0, 5e-324, -2.0 ** -1022])


def _long_row(style: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if style == "spread":
        # mantissas at random exponents between 2^-1074 and 2^1000, both signs
        lo, hi = sorted(rng.integers(-1074, 1001, 2))
        x = rng.uniform(0.5, 1.0, n) * 2.0 ** rng.integers(lo, hi + 1, n) * rng.choice([-1, 1], n)
    elif style == "dense":
        # one sign, one exponent, mantissas just below a power of two: the
        # parts of the first round sum to nearly n times 2^e
        x = rng.choice([-1.0, 1.0]) * rng.uniform(1 - 2.0 ** -20, 1.0, n) \
            * 2.0 ** int(rng.integers(-1060, 1000))
    elif style == "ties":
        x = rng.choice(SPECIAL, n) * rng.choice([-1.0, 1.0], n)
    else:
        # pairs x, -x: the exact sum is zero
        half = rng.standard_normal(n // 2) * 2.0 ** rng.integers(-1000, 1000, n // 2)
        x = np.concatenate([half, -half, np.zeros(n % 2)])
        rng.shuffle(x)
        return x
    at = rng.integers(0, n, n // 50)
    x[at] = rng.choice(SPECIAL, at.size) * rng.choice([-1.0, 1.0], at.size)
    return x


@given(style=st.sampled_from(["spread", "dense", "ties", "cancel"]),
       n=st.sampled_from([1023, 1024, 1025, 10000]), seed=st.integers(0, 2 ** 32 - 1))
@example(style="dense", n=10000, seed=6)  # wrong with sigma half as large
@settings(max_examples=150, deadline=None)
def test_long_row_sums_are_math_fsum_bit_for_bit(gaussian, style, n, seed):
    x = _long_row(style, n, seed)
    model, kind = gaussian.model, SIGNED_LOCATION
    want = math.fsum(kind_score(model, kind, x).tolist())
    assert row_score_sums(model, kind, x, [n], [0.0])[0].hex() == want.hex()
    if style == "cancel":
        assert want.hex() == "0x0.0p+0"
    # next to a short row, in one call
    short = x[:3]
    both = row_score_sums(model, kind, np.concatenate([short, x]), [3, n], [0.0, 0.0])
    assert [s.hex() for s in both.tolist()] == [math.fsum(short.tolist()).hex(), want.hex()]


@given(m=st.integers(100, 300), cancelling=st.floats(0.0, 1.0),
       special=st.sampled_from([None, None, math.inf, -math.inf, math.nan, "both infinities"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_many_short_rows_sum_as_math_fsum_bit_for_bit(m, cancelling, special, seed):
    # rows of 1 to 16 scores, at least 1,024 in all so that they are summed by
    # extraction, with magnitudes from 1e-300 to 1e300; a cancelling row
    # pairs all its values but one or two with their negations
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 17, m)
    while lengths.sum() < EXTRACT_MIN_SCORES:
        lengths = np.append(lengths, 16)
    rows = []
    for n in lengths.tolist():
        x = 10.0 ** rng.uniform(-300.0, 300.0, n) * rng.choice([-1.0, 1.0], n)
        if n > 2 and rng.random() < cancelling:
            k = (n - 1) // 2
            x = np.concatenate([x[:k], -x[:k], x[2 * k:]])
            rng.shuffle(x)
        rows.append(x)
    if special is not None:
        row = rows[rng.integers(0, len(rows))]
        row[rng.integers(0, row.size)] = math.inf if special == "both infinities" else special
        if special == "both infinities":
            row[rng.integers(0, row.size)] = -math.inf
    want = _fsums_or_error(rows)
    try:
        got = [s.hex() for s in row_fsums(np.concatenate(rows), lengths).tolist()]
    except (ValueError, OverflowError) as exc:
        got = type(exc), str(exc)
    assert got == want


GROUP_KINDS = [LOCATION, SCALE, lookup("sinh_arcsinh_skew_normal").transform]


def _close(got, want):
    return abs(got - want) <= 1e-8 * max(1.0, abs(want))


@given(kind=st.sampled_from(GROUP_KINDS), x=st.floats(-20.0, 20.0), t=st.floats(-3.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_group_kinds_have_u2_as_the_derivative_of_u1_and_h_as_its_flow(kind, x, t):
    # u2 = u1', which makes log|u1| the tilt weight, and d/dt h(theta(t), x)
    # = u1(h), which makes u1(h)/u1 the Jacobian of a family member
    step = 1e-5 * (1.0 + abs(x))
    assert _close((float(kind.u1(x + step)) - float(kind.u1(x - step))) / (2.0 * step),
                  float(kind.u2(x)))
    flow = lambda t: float(kind.h(float(kind.to_theta(t)), x))
    assert _close((flow(t + 1e-5) - flow(t - 1e-5)) / 2e-5, float(kind.u1(flow(t))))


def _block_row(style: str, n: int, rng) -> np.ndarray:
    signs = rng.choice([-1.0, 1.0], n)
    if style == "normal":
        return rng.standard_normal(n)
    if style == "spread":
        return rng.uniform(0.5, 1.0, n) * 2.0 ** rng.integers(-1074, 1001, n) * signs
    if style == "ties":
        return rng.choice(SPECIAL, n) * signs
    if style == "cancel":
        # x and -x: the exact sum is zero, which fsum gives as +0.0
        half = rng.standard_normal(n // 2) * 2.0 ** rng.integers(-1000, 1000, n // 2)
        return rng.permutation(np.concatenate([half, -half, np.zeros(n % 2)]))
    if style == "three rounds":
        # a unit and values 50 to 900 binades below it, with low mantissa
        # bits: two rounds of extraction leave a remainder
        x = (1.0 + rng.integers(1, 2 ** 20, n) * 2.0 ** -52) * 2.0 ** -rng.integers(50, 900, n)
        x[0] = 1.0
        return x * signs
    if style == "near 2^1022":
        # sigma passes 2^1022; some of these sums overflow
        return rng.uniform(0.5, 1.0, n) * 2.0 ** rng.integers(1010, 1024, n) * signs
    x = rng.standard_normal(n)
    x[rng.integers(0, n)] = rng.choice([math.nan, math.inf, -math.inf])
    if n > 1 and rng.random() < 0.5:
        x[rng.integers(0, n)] = -math.inf  # maybe beside +inf: no value
    return x


def _fsums_or_error(rows):
    try:
        return [math.fsum(row.tolist()).hex() for row in rows]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


@given(rows=st.lists(st.tuples(
           st.sampled_from(["normal", "spread", "ties", "cancel", "three rounds", "normal",
                            "spread", "cancel", "near 2^1022", "non-finite"]),
           st.one_of(st.integers(1, 12), st.integers(1, 12), st.integers(1024, 3000))),
           min_size=1, max_size=30),
       seed=st.integers(0, 2 ** 32 - 1))
@example(rows=[("three rounds", 12), ("normal", 1100)], seed=0)
@example(rows=[("cancel", 12), ("cancel", 1024)], seed=1)
@settings(max_examples=200, deadline=None)
def test_block_row_sums_are_math_fsum_per_row_bit_for_bit(rows, seed):
    # short and long rows in one call, summed at once by extraction from
    # 1,024 scores on: each row sum is math.fsum of that row alone, or the
    # block raises as math.fsum raises on the first row that has no sum
    rng = np.random.default_rng(seed)
    block = [_block_row(style, n, rng) for style, n in rows]
    lengths = [n for _, n in rows]
    want = _fsums_or_error(block)
    try:
        got = [s.hex() for s in row_fsums(np.concatenate(block), lengths).tolist()]
    except (ValueError, OverflowError) as exc:
        got = type(exc), str(exc)
    assert got == want
    # the scores of SIGNED_LOCATION on the gaussian are the data, which must
    # be finite
    flat = np.concatenate(block)
    if np.isfinite(flat).all() and isinstance(want, list):
        sums = row_score_sums(lookup("gaussian").model, SIGNED_LOCATION, flat, lengths,
                              np.zeros(len(rows)))
        assert [s.hex() for s in sums.tolist()] == want
