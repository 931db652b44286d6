import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mlechar import (
    brute_force_projectable,
    is_projectable,
    mcss,
    mnss,
    projection_interval,
)
from mlechar.errors import BudgetExceeded, InvalidBounds, InvalidParams, NotCharacterizable
from mlechar.score import LOCATION, SCALE, analyze_image, kind_profiles
from mlechar import lookup

INF = math.inf

bounds_strategy = st.floats(min_value=0.05, max_value=50.0,
                            allow_nan=False, allow_infinity=False)


def test_mcss_examples():
    assert mcss(1.0, 1.0).value == 2
    assert mcss(1.0, 3.0).value == 4
    assert math.isinf(mcss(INF, 1.0).value)
    assert math.isinf(mcss(1.0, INF).value)
    assert mcss(INF, INF).value == 2  # equal (infinite) bounds


def test_mcss_rejects_bad_bounds():
    with pytest.raises(InvalidBounds):
        mcss(0.0, 1.0)
    with pytest.raises(InvalidBounds):
        mcss(1.0, -2.0)
    with pytest.raises(InvalidBounds):
        mcss(float("nan"), 1.0)
    # a ratio beyond the doubles: max/min overflows, and inf - fuzz * inf is NaN
    for p_minus, p_plus in ((5e-324, 1.0), (1e-320, 1e308), (1e308, 1e-300)):
        with pytest.raises(InvalidBounds, match="overflows"):
            mcss(p_minus, p_plus)


def test_mcss_exact_integer_ratio_not_inflated():
    # ratio exactly 3 -> 4, and floating noise on the ratio must not push
    # the ceiling to 5
    assert mcss(1.0, 3.0).value == 4
    assert mcss(1.0, 3.0 * (1.0 + 1e-12)).value == 4
    assert mcss(0.1, 0.2).value == 3


@given(a=bounds_strategy, b=bounds_strategy)
@settings(max_examples=300, deadline=None)
def test_mcss_symmetric(a, b):
    assert mcss(a, b).value == mcss(b, a).value


@given(a=bounds_strategy, b=bounds_strategy,
       lam=st.floats(min_value=0.01, max_value=100.0))
@settings(max_examples=300, deadline=None)
def test_mcss_scale_invariant(a, b, lam):
    assert mcss(a, b).value == mcss(lam * a, lam * b).value


@given(a=bounds_strategy, b=bounds_strategy)
@settings(max_examples=200, deadline=None)
def test_mcss_value_two_only_for_equal_bounds(a, b):
    value = mcss(a, b).value
    assert value >= 2
    if value == 2:
        assert abs(a - b) <= 1e-9 * max(a, b)



#: integer-valued double bound ratios k, log-uniform in [1, 2^990], and a
#: power-of-two scale that keeps each ratio exact; from 2^53 on, k + 1 and
#: k - 1 are not doubles
integer_ratios = st.floats(min_value=0.0, max_value=990.0).map(
    lambda e: max(round(2.0 ** e), 1))


@given(k=integer_ratios, scale=st.integers(min_value=-30, max_value=30), swap=st.booleans())
@example(k=1, scale=0, swap=False)
@example(k=10 ** 9, scale=0, swap=False)
@example(k=2 ** 53 - 2, scale=0, swap=True)
@example(k=2 ** 53, scale=0, swap=False)
@example(k=2 ** 53 + 2, scale=0, swap=True)
@example(k=2 ** 60, scale=0, swap=False)
@example(k=2 ** 990, scale=30, swap=True)
@settings(max_examples=300, deadline=None)
def test_mcss_is_k_plus_one_at_every_integer_ratio(k, scale, swap):
    c = 2.0 ** scale
    assert float(k) == k
    pm, pp = (c, k * c) if swap else (k * c, c)
    assert mcss(pm, pp).value == k + 1
    assert not is_projectable(pm, pp, k) and is_projectable(pm, pp, k + 1)
    assert projection_interval(pm, pp, k + 1) == (-pm, pp)
    assert projection_interval(pm, pp, k) != (-pm, pp)


@given(e=st.floats(min_value=0.0, max_value=math.log2(5e8)), swap=st.booleans())
@settings(max_examples=300, deadline=None)
def test_mcss_is_the_ceiling_away_from_integer_ratios(e, swap):
    ratio = 2.0 ** e
    # below a ratio of 5e8 the ceiling fuzz only moves ratios within 1e-9
    # (relative) of an integer
    assume(abs(ratio - round(ratio)) >= 1e-6 * ratio)
    pm, pp = (1.0, ratio) if swap else (ratio, 1.0)
    assert mcss(pm, pp).value == math.ceil(ratio + 1.0)

def test_projection_interval_examples():
    assert projection_interval(INF, 1.0, 3) == (-2.0, 1.0)
    assert projection_interval(1.0, 3.0, 3) == (-1.0, 2.0)
    assert projection_interval(1.0, 1.0, 2) == (-1.0, 1.0)
    # a count beyond the doubles: (n - 1) p is compared with the other bound
    # exactly, and one past the float range stays below an infinite bound
    assert projection_interval(1.0, 3.0, 10 ** 400) == (-1.0, 3.0)
    assert projection_interval(INF, 1.0, 10 ** 400) == (-1.7976931348623157e308, 1.0)


@given(a=bounds_strategy, b=bounds_strategy)
@settings(max_examples=200, deadline=None)
def test_projection_nested_and_converges_at_mcss(a, b):
    cover = mcss(a, b).value
    prev = projection_interval(a, b, 1)
    for n in range(2, 10):
        cur = projection_interval(a, b, n)
        assert cur[0] <= prev[0] and cur[1] >= prev[1]
        full = cur[0] <= -a * (1 - 1e-12) and cur[1] >= b * (1 - 1e-12)
        assert full == (n >= cover)
        prev = cur


def test_is_projectable_examples():
    assert is_projectable(1.0, 3.0, 4)
    assert not is_projectable(1.0, 3.0, 3)
    assert is_projectable(INF, INF, 2)
    assert not is_projectable(INF, 1.0, 1000)


def test_is_projectable_near_integer_ratio():
    # a ratio within the mcss ceiling fuzz of 3 has covering size 4
    assert mcss(1.0, 3.0 + 1e-10).value == 4
    assert is_projectable(1.0, 3.0 + 1e-10, 4)
    assert not is_projectable(1.0, 3.0 + 1e-10, 3)


@given(a=st.one_of(bounds_strategy, st.just(INF)),
       b=st.one_of(bounds_strategy, st.just(INF)),
       n=st.integers(min_value=2, max_value=12))
@settings(max_examples=400, deadline=None)
def test_is_projectable_matches_interval_and_two_sided_rule(a, b, n):
    finite = math.isfinite(a) and math.isfinite(b)
    if finite:
        # ratios inside the ceiling fuzz band of an integer are decided by
        # the fuzz, not by exact comparisons
        ratio = max(a, b) / min(a, b)
        assume(abs(ratio - round(ratio)) > 1e-6 * ratio)
    got = is_projectable(a, b, n)
    lo, hi = projection_interval(a, b, n)
    assert got == (-lo >= a and hi >= b)
    if finite:
        assert got == (max(a, b) <= (n - 1) * min(a, b))


def test_brute_force_examples():
    assert brute_force_projectable(1.0, 1.0, 2)
    assert not brute_force_projectable(1.0, 3.0, 3)
    assert brute_force_projectable(1.0, 3.0, 4)


def test_brute_force_budget():
    with pytest.raises(BudgetExceeded):
        brute_force_projectable(1.0, 2.0, 9)
    with pytest.raises(BudgetExceeded):
        brute_force_projectable(INF, 2.0, 4)


@pytest.mark.parametrize("call", [
    lambda: projection_interval(1.0, 2.0, 2.5),
    lambda: projection_interval(1.0, 2.0, True),
    lambda: is_projectable(1.0, 2.0, 2.5),
    lambda: brute_force_projectable(1.0, 2.0, 2.5),
], ids=["interval_2.5", "interval_true", "projectable_2.5", "brute_force_2.5"])
def test_a_sample_size_that_is_no_integer_is_refused(call):
    # the interval gave (-1.0, 1.5) at 2.5 and (-0.0, 0.0) at True, and
    # is_projectable gave False
    with pytest.raises(InvalidParams, match="^counts and seeds must be integers"):
        call()


def test_lattice_agreement():
    lattice = (0.5, 1.0, 1.5, 2.0, 3.0)
    for pm in lattice:
        for pp in lattice:
            for n in range(2, 9):
                assert is_projectable(pm, pp, n) == \
                    brute_force_projectable(pm, pp, n), (pm, pp, n)


def test_mnss_from_profiles(gaussian):
    prof = analyze_image(gaussian.model, LOCATION)
    assert mnss((prof,), LOCATION).value == 3

    pair = kind_profiles(gaussian.model, SCALE)
    result = mnss(pair, SCALE)
    assert math.isinf(result.value)

    student3 = lookup("student", {"nu": 3.0}).model
    assert mnss(kind_profiles(student3, SCALE), SCALE).value == 4


def test_mnss_is_at_least_three():
    prof = analyze_image(lookup("logistic").model, LOCATION)
    r = mnss((prof,), LOCATION)
    assert r.value == 3  # symmetric image, covering size 2, floor 3


def test_mnss_requires_zero_crossing(gaussian):
    prof = analyze_image(gaussian.model, LOCATION)
    shifted = type(prof)(
        domain=prof.domain,
        evaluate=lambda x: prof.evaluate(x) ** 2 + 1.0,
        p_minus=-1.0, p_plus=math.inf,
        provenance=prof.provenance,
    )
    with pytest.raises(NotCharacterizable):
        mnss((shifted,), LOCATION)
