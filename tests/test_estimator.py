import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from mlechar import (
    LOCATION,
    SCALE,
    closed_form_mle,
    lookup,
    mle_group,
    mle_location,
    mle_scale,
    sample_from,
    tilt,
)
from mlechar.catalog import kind_for
from mlechar.density import (
    DensityModel,
    InverseCdfSampler,
    Sample,
    SupportSet,
    quiet_overflow,
)
from mlechar.errors import (
    AllZeroSample,
    BracketFailure,
    InvalidParams,
    MlecharError,
    NoClosedForm,
    OutsideSupport,
)
from mlechar.estimator import (
    BracketedRoot,
    ClosedForm,
    closed_form_estimator,
    mle,
    mle_block,
)
from mlechar.score import (
    BRENT_RTOL,
    EXTRACT_MIN_ONE_ROW,
    Kind,
    Scorer,
    brent_lanes,
    flatten_rows,
    row_score_sums,
    _rate_seed,
)
from mlechar.suite import CLOSED_FORM_CASES, DEFAULT_EQUIVALENCE, DEFAULT_FAMILIES


def s(*values):
    return Sample(np.asarray(values, dtype=float))


def test_gaussian_location_is_sample_mean(gaussian):
    r = mle_location(gaussian.model, s(1.0, 2.0, 3.0))
    assert abs(r.theta_hat - 2.0) < 1e-12
    assert isinstance(r.method, BracketedRoot)
    assert abs(r.residual) < 1e-10


def test_ferguson_location_closed_form_value():
    entry = lookup("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0})
    r = mle_location(entry.model, s(0.0, math.log(3.0)))
    assert abs(r.theta_hat - math.log(2.0)) < 1e-10


def test_quartic_location_root(quartic_unnormalized):
    # oracle: the score sum for exp(-y^4/4) is sum (x_i - t)^3; solve it
    # directly with an independent bracketed bisection
    sample = (0.0, 0.0, 3.0)

    def cubic_sum(t):
        return sum((x - t) ** 3 for x in sample)

    oracle = brentq(cubic_sum, -10.0, 10.0, xtol=1e-14)
    assert abs(oracle - 3.0 / (1.0 + 2.0 ** (1.0 / 3.0))) < 1e-10

    r = mle_location(quartic_unnormalized, s(*sample))
    assert abs(r.theta_hat - oracle) < 1e-9


def test_laplace_scale_from_mean_abs():
    r = mle_scale(lookup("laplace").model, s(1.0, -1.0, 2.0))
    assert abs(r.theta_hat - 0.75) < 1e-10
    assert abs(r.sigma_hat - 4.0 / 3.0) < 1e-9


def test_gaussian_scale_unit(gaussian):
    r = mle_scale(gaussian.model, s(1.0, 1.0))
    assert abs(r.theta_hat - 1.0) < 1e-12


def test_gamma_scale_alpha_over_mean(gamma2):
    r = mle_scale(gamma2.model, s(1.0, 3.0))
    assert abs(r.theta_hat - 1.0) < 1e-10


def test_group_mle_symmetric_sample_is_zero(gaussian, sinh_arcsinh):
    tr = sinh_arcsinh.transform
    for a in (0.3, 1.1, 2.0):
        r = mle_group(gaussian.model, tr, s(a, -a))
        assert abs(r.theta_hat) < 1e-10


def test_group_mle_matches_grid_scan_oracle(gaussian, sinh_arcsinh):
    tr = sinh_arcsinh.transform
    sample = (0.5, 1.0, 1.5)

    # oracle: the transformed score sum, written out from scratch, scanned
    # on a fine grid for its sign change and bisected
    def score_sum(delta):
        total = 0.0
        for x in sample:
            hx = math.sinh(math.asinh(x) + delta)
            total += -hx ** 3 / math.sqrt(1.0 + hx * hx)
        return total

    grid = np.linspace(-3.0, 3.0, 6001)
    vals = np.array([score_sum(float(d)) for d in grid])
    flip = int(np.where(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0][0])
    oracle = brentq(score_sum, float(grid[flip]), float(grid[flip + 1]), xtol=1e-13)

    r = mle_group(gaussian.model, tr, s(*sample))
    assert abs(r.theta_hat - oracle) < 1e-6


def test_group_mle_reduces_to_location(gaussian):
    shift_group = Kind(
        u1=lambda x: 1.0,
        u2=lambda x: 0.0,
        h=lambda theta, x: x - theta,
        theta_window=(-64.0, 64.0),
    )
    r = mle_group(gaussian.model, shift_group, s(1.0, 2.0, 3.0))
    assert abs(r.theta_hat - 2.0) < 1e-10


def test_closed_forms_examples(gaussian):
    gumbel = lookup("gumbel")
    r = closed_form_mle(gumbel, LOCATION, s(0.0, 0.0))
    assert r.theta_hat == 0.0
    assert isinstance(r.method, ClosedForm)

    weibull = lookup("weibull", {"k": 2.0})
    r = closed_form_mle(weibull, SCALE, s(1.0, 1.0))
    assert abs(r.theta_hat - 1.0) < 1e-14

    r = closed_form_mle(gaussian, LOCATION, s(5.0))
    assert r.theta_hat == 5.0


def test_closed_form_missing(logistic):
    with pytest.raises(NoClosedForm):
        closed_form_mle(logistic, LOCATION, s(1.0, 2.0))


@pytest.mark.parametrize("name,params,kind", [
    ("gaussian", {}, "location"),
    ("gaussian", {}, "scale"),
    ("gamma", {"alpha": 2.0}, "scale"),
    ("laplace", {}, "scale"),
    ("weibull", {"k": 2.0}, "scale"),
    ("gumbel", {}, "location"),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0}, "location"),
])
def test_closed_form_agrees_with_root_solver(name, params, kind):
    entry = lookup(name, params)
    rng_sizes = [2 + (i % 11) for i in range(60)]
    block = sample_from(entry.model, sum(rng_sizes), seed=1234)
    pos = 0
    for n in rng_sizes:
        sample = Sample(block.values[pos:pos + n])
        pos += n
        if kind == "location":
            closed = closed_form_mle(entry, LOCATION, sample).theta_hat
            numeric = mle_location(entry.model, sample).theta_hat
            assert abs(closed - numeric) < 1e-8
        else:
            closed = closed_form_mle(entry, SCALE, sample).theta_hat
            numeric = mle_scale(entry.model, sample).theta_hat
            assert abs(closed - numeric) / abs(numeric) < 1e-8


def test_location_equivariance(gumbel):
    base_sample = sample_from(gumbel.model, 6, seed=5)
    base = mle_location(gumbel.model, base_sample).theta_hat
    for c in (-5.0, 1.0, 10.0):
        shifted = Sample(base_sample.values + c)
        got = mle_location(gumbel.model, shifted).theta_hat
        assert abs(got - base - c) < 1e-8


def test_scale_equivariance(weibull2):
    base_sample = sample_from(weibull2.model, 6, seed=6)
    base = mle_scale(weibull2.model, base_sample).theta_hat
    for lam in (0.5, 2.0, 10.0):
        rescaled = Sample(base_sample.values * lam)
        got = mle_scale(weibull2.model, rescaled).theta_hat
        assert abs(got * lam - base) / base < 1e-8


@pytest.mark.parametrize("d", [0.5, 2.0, 5.0])
def test_equivalence_class_members_share_mles(gaussian, gamma2, d):
    t_loc = tilt(gaussian.model, d, LOCATION)
    t_sca = tilt(gamma2.model, d, SCALE)
    for seed in range(5):
        sample = sample_from(gaussian.model, 5, seed=seed)
        a = mle_location(gaussian.model, sample).theta_hat
        b = mle_location(t_loc, sample).theta_hat
        assert abs(a - b) < 1e-7
        sample = sample_from(gamma2.model, 5, seed=seed)
        a = mle_scale(gamma2.model, sample).theta_hat
        b = mle_scale(t_sca, sample).theta_hat
        assert abs(a - b) < 1e-7


def test_residual_contract(gaussian, gamma2):
    def score_sum(model, kind, sample, theta):
        return row_score_sums(model, kind, sample.values, [sample.n], [theta])[0]

    sample = sample_from(gaussian.model, 7, seed=9)
    r = mle_location(gaussian.model, sample, tol=1e-10)
    assert abs(score_sum(gaussian.model, LOCATION, sample, r.theta_hat)) < 1e-10
    sample = sample_from(gamma2.model, 7, seed=9)
    r = mle_scale(gamma2.model, sample, tol=1e-10)
    assert abs(score_sum(gamma2.model, SCALE, sample, r.theta_hat)) < 1e-10


def test_scale_requires_positive_values_in_support(gamma2):
    with pytest.raises(OutsideSupport):
        mle_scale(gamma2.model, s(1.0, -2.0))


def test_all_zero_sample(gaussian):
    with pytest.raises(AllZeroSample):
        mle_scale(gaussian.model, s(0.0, 0.0))


def test_all_zero_sample_closed_form(gaussian):
    with pytest.raises(AllZeroSample):
        closed_form_mle(gaussian, SCALE, s(0.0, 0.0))


def test_residual_above_tol_is_a_bracket_failure(logistic):
    with pytest.raises(BracketFailure, match="exceeds tol"):
        mle(logistic.model, LOCATION, s(0.3, -1.2, 2.5, 0.7), tol=1e-300)


def test_bracket_failure_outside_window(gaussian, sinh_arcsinh):
    narrow = Kind(
        u1=sinh_arcsinh.transform.u1,
        u2=sinh_arcsinh.transform.u2,
        h=sinh_arcsinh.transform.h,
        theta_window=(-0.01, 0.01),
    )
    with pytest.raises(BracketFailure):
        mle_group(gaussian.model, narrow, s(5.0, 6.0, 7.0))


@pytest.mark.parametrize("name,label,values", [
    ("weibull", "scale", (1e-300, 1.0, 1e300)),
    ("sinh_arcsinh_skew_normal", "group", (-1e300, 0.0, 1e300)),
    # a row long enough to be summed by extraction
    ("weibull", "scale", (1e-300, 1e300) + (1.0,) * 2000),
])
def test_a_score_sum_of_both_infinities_is_a_bracket_failure(name, label, values):
    # the bracket reaches a theta where the sample's scores overflow to -inf
    # and +inf together: math.fsum has no sum to give
    entry = lookup(name, {"k": 2.0} if name == "weibull" else {})
    with pytest.raises(BracketFailure, match="score sum at theta="):
        mle(entry.model, kind_for(entry, label), s(*values))


@pytest.mark.parametrize("rows", [2.0, [], np.ones(3), np.ones((2, 0)), np.ones((1, 2, 2)),
                                  [np.ones(2), np.ones(0)]])
def test_block_needs_rows_of_observations(gaussian, rows):
    with pytest.raises(InvalidParams):
        mle_block(LOCATION, [(gaussian.model, rows)])


def test_rate_below_the_scale_window_is_a_bracket_failure():
    # the closed-form rate, 8e-309, is subnormal: below the window, where the
    # bracket grows until theta * x overflows
    laplace = lookup("laplace")
    sample = s(1e308, 1.5e308)
    assert closed_form_mle(laplace, SCALE, sample).theta_hat == 8e-309
    with pytest.raises(BracketFailure):
        mle(laplace.model, SCALE, sample)


#: a row whose two nonzero magnitudes are the smallest subnormal
SUBNORMAL_ROW = (-0.0, 5e-324, -5e-324)


@pytest.mark.parametrize("name,params", [("gaussian", {}), ("student", {"nu": 3.0})])
def test_a_subnormal_scale_row_is_a_bracket_failure_without_a_warning(name, params):
    # the seed's median of the two middle magnitudes is 5e-324: halving each
    # first would round both to 0 and take the log of 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketFailure):
            mle(lookup(name, params).model, SCALE, s(*SUBNORMAL_ROW))


@given(st.lists(st.floats(min_value=2.0 ** -1021, max_value=1e300) | st.sampled_from([0.0]),
                min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_the_rate_seed_is_minus_the_log_of_the_median_magnitude(values):
    # on normal magnitudes whose middle sum stays finite, the seed is
    # np.median's midpoint of the nonzero magnitudes
    mags = np.abs([v for v in values if v != 0.0])
    assume(mags.size)
    centre, _ = _rate_seed(np.array([values]))
    assert centre[0] == -np.log(np.median(mags))


def test_a_closed_form_without_a_positive_finite_rate_names_itself():
    # 1 / 5e-324 overflows: the gaussian rate is not a finite float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoClosedForm) as info:
            closed_form_mle(lookup("gaussian"), SCALE, s(*SUBNORMAL_ROW))
    assert str(info.value) == ("closed form gaussian_scale has no scale value in (0, inf) "
                               "on this sample")


@pytest.mark.parametrize("name,values", [
    ("logistic", (1e308, 1.5e308, 1.7e308, 1.2e308)),
    ("logistic", (-1e308, 1e308)),
    ("gaussian", (-1e308, 0.0, 1e308)),
])
def test_location_rows_near_the_float_limit_fail_without_a_warning(name, values):
    # the sample range and the bracket ends overflow to infinities, which the
    # support excludes; the solve fails cleanly instead of warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketFailure):
            mle(lookup(name).model, LOCATION, s(*values))


@pytest.mark.parametrize("values", [(1e-300, 2e-300), (1e200, 3e200)])
def test_scale_mle_at_extreme_magnitudes(gamma2, values):
    # the bracket is seeded at the sample's own magnitude, so rates near the
    # ends of the double range are found without overflow
    sample = s(*values)
    closed = closed_form_mle(gamma2, SCALE, sample).theta_hat
    got = mle_scale(gamma2.model, sample).theta_hat
    assert abs(got - closed) / closed < 1e-8


def test_group_solver_reduces_to_scale(gamma2):
    # (u1, u2) = (x, 1) acting by e^t x is the scale kind on the log-rate
    log_rate = Kind(u1=lambda x: x, u2=lambda x: 1.0,
                    h=lambda t, x: math.exp(t) * x)
    for seed in range(3):
        sample = sample_from(gamma2.model, 7, seed=seed)
        t_hat = mle_group(gamma2.model, log_rate, sample).theta_hat
        theta = mle_scale(gamma2.model, sample).theta_hat
        assert abs(math.exp(t_hat) - theta) / theta < 1e-10


@given(seed=st.integers(min_value=0, max_value=10_000),
       shift=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=60, deadline=None)
def test_location_equivariance_property(gumbel, seed, shift):
    sample = sample_from(gumbel.model, 6, seed=seed)
    base = mle(gumbel.model, LOCATION, sample).theta_hat
    got = mle(gumbel.model, LOCATION, Sample(sample.values + shift)).theta_hat
    assert abs(got - base - shift) < 1e-8


@given(seed=st.integers(min_value=0, max_value=10_000),
       lam=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=60, deadline=None)
def test_scale_equivariance_property(weibull2, seed, lam):
    sample = sample_from(weibull2.model, 6, seed=seed)
    base = mle(weibull2.model, SCALE, sample).theta_hat
    got = mle(weibull2.model, SCALE, Sample(sample.values * lam)).theta_hat
    assert abs(got * lam - base) / base < 1e-8


@given(seed=st.integers(min_value=0, max_value=10_000),
       skew=st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_group_equivariance_property(sinh_arcsinh, seed, skew):
    kind = sinh_arcsinh.transform
    sample = sample_from(sinh_arcsinh.model, 6, seed=seed)
    base = mle(sinh_arcsinh.model, kind, sample).theta_hat
    moved = Sample(np.array([math.sinh(math.asinh(x) - skew) for x in sample.values]))
    got = mle(sinh_arcsinh.model, kind, moved).theta_hat
    assert abs(got - base - skew) < 1e-8


@pytest.mark.parametrize("name,params,kind,values", [
    ("gumbel", {}, LOCATION, (-800.0, 0.0)),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0}, LOCATION, (0.0, 800.0)),
    ("gaussian", {}, SCALE, (1e200, 3e200)),
    ("weibull", {"k": 2.0}, SCALE, (1e200, 3e200)),
    ("gaussian", {}, SCALE, (1e-300, 3e-300)),
    ("laplace", {}, SCALE, (3e307, 3.5e307, 4e307, 4.5e307, 5e307)),
    ("gamma", {"alpha": 2.0}, SCALE, (3e307, 3.5e307, 4e307, 4.5e307, 5e307)),
])
def test_closed_form_matches_mle_where_the_formula_would_overflow(name, params, kind, values):
    # exp(800), (1e200)^2 and a sum of 2e308 overflow a double: the formulas
    # shift by, or divide by, the sample maximum instead
    entry = lookup(name, params)
    sample = s(*values)
    closed = closed_form_mle(entry, kind, sample)
    numeric = mle(entry.model, kind, sample)
    scale = abs(numeric.theta_hat) if kind is SCALE else 1.0
    assert abs(closed.theta_hat - numeric.theta_hat) / scale < 1e-8
    assert abs(closed.residual) < 1e-10


def test_closed_form_rejects_data_outside_the_support(gamma2):
    with pytest.raises(OutsideSupport):
        closed_form_mle(gamma2, SCALE, s(-1.0, -2.0))


# every (family, kind) of the default suite, the skew group included
CATALOG_KINDS = [(name, params, label) for name, params, labels in DEFAULT_FAMILIES
                 for label in labels]


def _block(entry, n, m, seed):
    return InverseCdfSampler(entry.model).rows(n, range(seed, seed + m))


@given(case=st.sampled_from(CATALOG_KINDS), n=st.integers(min_value=1, max_value=12),
       m=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=10_000),
       widths=st.tuples(st.floats(min_value=0.05, max_value=3.0),
                        st.floats(min_value=0.05, max_value=3.0)))
@settings(max_examples=80, deadline=None)
def test_brent_lanes_reproduces_scipy_brentq(case, n, m, seed, widths):
    # scipy's brentq is the oracle: on each lane's score sum, in the solver
    # coordinate t, the port must end at brentq's root after as many steps
    name, params, label = case
    entry = lookup(name, params)
    kind = kind_for(entry, label)
    block = _block(entry, n, m, seed)
    to_t = np.log if kind is SCALE else (lambda theta: theta)
    t_hat = to_t(mle_block(kind, [(entry.model, block)])[0].theta)
    lo, hi = t_hat - widths[0], t_hat + widths[1]

    def lanes_fn(t, lanes):
        return row_score_sums(entry.model, kind, *flatten_rows(block[lanes]),
                              kind.to_theta(t))

    f_lo, f_hi = lanes_fn(lo, np.arange(m)), lanes_fn(hi, np.arange(m))
    assume(np.all(np.isfinite(f_lo) & np.isfinite(f_hi) & (f_lo * f_hi < 0.0)))
    roots, _, iterations, converged = brent_lanes(lanes_fn, lo, hi, f_lo, f_hi, xtol=1e-15,
                                                  maxiter=300)
    assert converged.all()
    for i in range(m):
        lane = np.array([i])
        root, info = brentq(lambda t: float(lanes_fn(np.array([t]), lane)[0]),
                            float(lo[i]), float(hi[i]), xtol=1e-15, rtol=BRENT_RTOL,
                            maxiter=300, full_output=True)
        assert roots[i] == root
        assert iterations[i] == info.iterations


@given(c=st.lists(st.floats(min_value=-50.0, max_value=50.0), max_size=6),
       maxiter=st.integers(min_value=1, max_value=60))
@settings(max_examples=60, deadline=None)
def test_brent_lanes_returns_the_function_values_at_its_roots(c, maxiter):
    # the last two lanes have an exact zero at a bracket end; a small maxiter
    # leaves lanes unconverged at their last iterate
    c = np.array(c + [64.0, -64.0])
    a, b, lanes = np.full(c.size, -4.0), np.full(c.size, 4.0), np.arange(c.size)

    def f(x, lanes):
        return x ** 3 - c[lanes]

    together = brent_lanes(f, a, b, f(a, lanes), f(b, lanes), xtol=1e-15, maxiter=maxiter)
    roots, values, _, _ = together
    assert np.array_equal(values, f(roots, lanes))
    assert values[-2:].tolist() == [0.0, 0.0]
    # each lane alone runs in Python floats and ends as it ended in lockstep
    for i in lanes:
        lane = lanes[i:i + 1]
        alone = brent_lanes(lambda x, _: f(x, lane), a[lane], b[lane], f(a[lane], lane),
                            f(b[lane], lane), xtol=1e-15, maxiter=maxiter)
        assert np.array_equal(alone[1], f(alone[0], lane))
        assert [v.tolist() for v in alone] == [v[lane].tolist() for v in together]


def _flat_ramp(root, rise, cap, tiny):
    # flat beyond +-cap, and a staircase of half-integers for a finite rise:
    # no zero, so the solve ends at a jump; tiny values make the slopes'
    # products underflow, so the inverse-quadratic denominator vanishes
    if rise is None:
        return lambda x: tiny * np.clip(x - root, -cap, cap)
    return lambda x: tiny * (np.floor(np.clip(x - root, -cap, cap) * rise) + 0.5)


@given(root=st.floats(min_value=-2.0, max_value=2.0),
       rise=st.sampled_from([None, 0.5, 1.0, 4.0, 1e3]),
       cap=st.floats(min_value=0.1, max_value=5.0),
       tiny=st.sampled_from([1.0, 1e-160, 1e-300]),
       ends=st.tuples(st.floats(min_value=2.5, max_value=8.0), st.floats(min_value=2.5, max_value=8.0)),
       maxiter=st.integers(min_value=1, max_value=100))
@settings(max_examples=150, deadline=None)
def test_one_lane_brent_matches_brentq_on_flat_functions(root, rise, cap, tiny, ends, maxiter):
    g = _flat_ramp(root, rise, cap, tiny)
    a, b = np.array([-ends[0]]), np.array([ends[1]])
    alone = brent_lanes(lambda x, _: g(x), a, b, g(a), g(b), xtol=1e-15, maxiter=maxiter)
    root_, info = brentq(lambda t: float(g(np.array([t]))[0]), float(a[0]), float(b[0]),
                         xtol=1e-15, rtol=BRENT_RTOL, maxiter=maxiter, full_output=True,
                         disp=False)
    assert (alone[0][0], alone[2][0], alone[3][0]) == (root_, info.iterations, info.converged)
    # as lane 0 of two, beside a lane that needs other steps
    h = _flat_ramp(-root, rise and rise * 2.0, cap, tiny)
    pair = brent_lanes(lambda x, lanes: np.where(lanes == 0, g(x), h(x)), np.append(a, a),
                       np.append(b, b), np.append(g(a), h(a)), np.append(g(b), h(b)),
                       xtol=1e-15, maxiter=maxiter)
    assert [v.tolist() for v in alone] == [v[:1].tolist() for v in pair]


@given(case=st.sampled_from(CATALOG_KINDS),
       lengths=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_block_residuals_are_the_score_sums_at_the_roots(case, lengths, seed):
    # the residuals are the solver's own last evaluations, not a second sum
    name, params, label = case
    entry = lookup(name, params)
    kind = kind_for(entry, label)
    draw = InverseCdfSampler(entry.model).rows(sum(lengths), [seed])[0]
    rows = np.split(draw, np.cumsum(lengths)[:-1])
    try:
        (roots,) = mle_block(kind, [(entry.model, rows)])
    except MlecharError:
        return
    for i, row in enumerate(rows):
        alone = float(row_score_sums(entry.model, kind, row, [row.size], [roots.theta[i]])[0])
        assert float(roots.residual[i]).hex() == alone.hex()


def assert_lanes_equal_single_sample_mles(entry, kind, rows):
    """``mle_block`` on the rows equals ``mle`` on each row alone, field for
    field and bit for bit; a failing block fails as its first failing row."""
    try:
        (roots,) = mle_block(kind, [(entry.model, rows)])
    except MlecharError as exc:
        # a block fails exactly when one of its rows fails alone
        with pytest.raises(type(exc)):
            for row in rows:
                mle(entry.model, kind, Sample(row))
        return
    for i, row in enumerate(rows):
        alone = mle(entry.model, kind, Sample(row))
        assert alone.theta_hat == roots.theta[i]
        assert alone.residual == roots.residual[i]
        assert alone.method == BracketedRoot(int(roots.iterations[i]),
                                             tuple(roots.bracket[i].tolist()))
        assert alone.kind is kind


#: the perfbench mle_large cases, then every other (family, kind) of the
#: default suite
ONE_LANE_CASES = [
    ("gaussian", {}, "location"), ("gaussian", {}, "scale"), ("logistic", {}, "location"),
    ("gumbel", {}, "location"), ("gamma", {"alpha": 2.0}, "scale"),
    ("weibull", {"k": 2.0}, "scale"), ("student", {"nu": 3.0}, "scale"),
    ("sinh_arcsinh_skew_normal", {}, "group"),
]
ONE_LANE_CASES += [case for case in CATALOG_KINDS if case not in ONE_LANE_CASES]


@pytest.mark.parametrize("n", [1000, 10_000, EXTRACT_MIN_ONE_ROW - 1, EXTRACT_MIN_ONE_ROW, 1024])
@pytest.mark.parametrize("name,params,label", ONE_LANE_CASES)
def test_one_lane_equals_a_lockstep_lane_at_large_n(name, params, label, n):
    # one row brackets and solves in Python floats and is summed by
    # extraction from EXTRACT_MIN_ONE_ROW scores on; two rows step in the
    # numpy lockstep, whose calls of 1,024 scores or more are summed at once
    entry = lookup(name, params)
    kind = kind_for(entry, label)
    row = _block(entry, n, 1, 2024)[0]
    alone = mle(entry.model, kind, Sample(row))
    (one,) = mle_block(kind, [(entry.model, Sample(row))])
    (pair,) = mle_block(kind, [(entry.model, [row, row])])
    assert (alone.theta_hat.hex(), alone.residual.hex()) == (float(pair.theta[0]).hex(),
                                                             float(pair.residual[0]).hex())
    assert alone.method == BracketedRoot(int(pair.iterations[0]),
                                         tuple(pair.bracket[0].tolist()))
    assert one.doublings.tolist() == pair.doublings[:1].tolist()


def _draw(rng, name, params, n):
    # the draws of the benchmark's mle_large workload, at theta = 0 or 1
    if name in ("gaussian", "sinh_arcsinh_skew_normal"):
        return rng.standard_normal(n)
    if name == "student":
        return rng.standard_t(params["nu"], size=n)
    if name == "gamma":
        return rng.gamma(params["alpha"], size=n)
    if name == "weibull":
        return rng.weibull(params["k"], size=n)
    return getattr(rng, name)(size=n)


#: theta, the residual and the bracket ends (float.hex), the iterations and
#: the doublings of the 16 mle_large solves of seeds 1 and 2: the solver's
#: bits, which a change to how a step is evaluated must keep
MLE_LARGE_BITS = {
    (1, "gaussian/location", 1000): (
        "-0x1.bc71412f148b4p-5", "-0x1.1140000000000p-45", "-0x1.0aaa38db9f751p+3",
        "0x1.08902f93b1045p+3", 3, 0),
    (1, "gaussian/location", 10000): (
        "-0x1.22c77eb10dabbp-7", "-0x1.8e40800000000p-43", "-0x1.1911c22d8020bp+3",
        "0x1.184d2350e2b89p+3", 4, 0),
    (1, "gaussian/scale", 1000): (
        "0x1.04cb82e2a7c9ap+0", "-0x1.7700000000000p-44", "0x1.94807be31696ep-1",
        "0x1.94807be31696ep+1", 9, 0),
    (1, "gaussian/scale", 10000): (
        "0x1.01e9ce2fba96bp+0", "0x1.87c8000000000p-40", "0x1.80a037b84261ap-1",
        "0x1.80a037b842619p+1", 10, 0),
    (1, "logistic/location", 1000): (
        "-0x1.6629867117f20p-5", "0x1.519e000000000p-48", "-0x1.f7046079d0cffp+3",
        "0x1.f29f87b8b8253p+3", 7, 0),
    (1, "logistic/location", 10000): (
        "0x1.878ec80cf1bbfp-7", "0x1.4cd74c0000000p-44", "-0x1.4b01c878c7a39p+4",
        "0x1.4b4c3e80a4061p+4", 7, 0),
    (1, "gumbel/location", 1000): (
        "0x1.deb0d2372ea21p-6", "-0x1.0300000000000p-45", "-0x1.3bfb8cdbc3323p+3",
        "0x1.552ed58266e5bp+3", 12, 0),
    (1, "gumbel/location", 10000): (
        "0x1.2c83bd8619075p-9", "0x1.4d40000000000p-43", "-0x1.ab06be946e03ep+3",
        "0x1.c2b78985672f6p+3", 12, 0),
    (1, "gamma/scale", 1000): (
        "0x1.06cd5f4f8562ep+0", "-0x1.5c00000000000p-47", "0x1.3bbc45a87bce9p-2",
        "0x1.3bbc45a87bce9p+0", 8, 0),
    (1, "gamma/scale", 10000): (
        "0x1.00cf5d58b19acp+0", "-0x1.5f10000000000p-40", "0x1.300589bd95cc7p-2",
        "0x1.300589bd95cc8p+0", 8, 0),
    (1, "weibull/scale", 1000): (
        "0x1.055a4081f5558p+0", "0x1.d060000000000p-42", "0x1.3ce4ceb460ef1p-1",
        "0x1.3ce4ceb460ef1p+1", 10, 0),
    (1, "weibull/scale", 10000): (
        "0x1.ff3e8ce920536p-1", "-0x1.0974000000000p-38", "0x1.33fc09d4b0f6ep-1",
        "0x1.33fc09d4b0f6ep+1", 10, 0),
    (1, "student/scale", 1000): (
        "0x1.eef9b4877e861p-1", "0x1.dd80000000000p-44", "0x1.3ad2d4f81e251p-1",
        "0x1.3ad2d4f81e251p+1", 8, 0),
    (1, "student/scale", 10000): (
        "0x1.01fa87c9b86bfp+0", "-0x1.1940000000000p-40", "0x1.53175518c899fp-1",
        "0x1.53175518c899ep+1", 8, 0),
    (1, "sinh_arcsinh_skew_normal/group", 1000): (
        "0x1.380774f88435ep-6", "0x1.4098480000000p-43", "-0x1.0000000000000p-1",
        "0x1.0000000000000p-1", 7, 0),
    (1, "sinh_arcsinh_skew_normal/group", 10000): (
        "-0x1.63e8b742c483cp-9", "0x1.213a200000000p-40", "-0x1.0000000000000p-1",
        "0x1.0000000000000p-1", 7, 0),
    (2, "gaussian/location", 1000): (
        "-0x1.6f2669a615193p-6", "0x1.80cc000000000p-44", "-0x1.c77657f181a15p+2",
        "0x1.c48f36fcfc6ebp+2", 3, 0),
    (2, "gaussian/location", 10000): (
        "0x1.efc2367fb5981p-7", "-0x1.b77e000000000p-44", "-0x1.12558effcf2d6p+3",
        "0x1.13dc1ab17cff8p+3", 3, 0),
    (2, "gaussian/scale", 1000): (
        "0x1.0156bd120240bp+0", "0x1.b3c0000000000p-42", "0x1.7551a6c282f39p-1",
        "0x1.7551a6c282f39p+1", 10, 0),
    (2, "gaussian/scale", 10000): (
        "0x1.014c2131dbdc4p+0", "-0x1.4848000000000p-40", "0x1.7bc86c34ef13cp-1",
        "0x1.7bc86c34ef13cp+1", 10, 0),
    (2, "logistic/location", 1000): (
        "-0x1.9f0f83cb378c5p-7", "0x1.03dd400000000p-46", "-0x1.1af1b38c83d07p+4",
        "0x1.1c97a07e46b9fp+4", 8, 0),
    (2, "logistic/location", 10000): (
        "-0x1.db2978bb7f7eap-7", "0x1.f1d2fc0000000p-44", "-0x1.413f560cfc0c0p+4",
        "0x1.409d11cff52e0p+4", 7, 0),
    (2, "gumbel/location", 1000): (
        "-0x1.077d5b6cdde80p-5", "0x1.4200000000000p-46", "-0x1.5cdeb39689578p+3",
        "0x1.7217639a1776ep+3", 12, 0),
    (2, "gumbel/location", 10000): (
        "-0x1.bf73486bce902p-7", "-0x1.a740000000000p-43", "-0x1.99236e876ccccp+3",
        "0x1.afdd91fa208a6p+3", 12, 0),
    (2, "gamma/scale", 1000): (
        "0x1.031b37c316223p+0", "0x1.6700000000000p-45", "0x1.351fe1d054589p-2",
        "0x1.351fe1d054589p+0", 8, 0),
    (2, "gamma/scale", 10000): (
        "0x1.038b9b71fe1f9p+0", "-0x1.5690000000000p-40", "0x1.33e2f7226beb3p-2",
        "0x1.33e2f7226beb3p+0", 8, 0),
    (2, "weibull/scale", 1000): (
        "0x1.fa33a8fca2f9fp-1", "-0x1.7480000000000p-44", "0x1.35d7e53e7e13fp-1",
        "0x1.35d7e53e7e13fp+1", 10, 0),
    (2, "weibull/scale", 10000): (
        "0x1.fbb0ddb9f7d61p-1", "0x1.d130000000000p-39", "0x1.30e6fc54c516bp-1",
        "0x1.30e6fc54c516bp+1", 10, 0),
    (2, "student/scale", 1000): (
        "0x1.f3cfe2e7c0308p-1", "0x1.6c00000000000p-47", "0x1.4e38df7747e24p-1",
        "0x1.4e38df7747e24p+1", 8, 0),
    (2, "student/scale", 10000): (
        "0x1.fc3adb821412ap-1", "0x1.79c0000000000p-43", "0x1.4fb1cf1f0c66dp-1",
        "0x1.4fb1cf1f0c66cp+1", 8, 0),
    (2, "sinh_arcsinh_skew_normal/group", 1000): (
        "0x1.6984b2739e942p-6", "-0x1.b7d4000000000p-47", "-0x1.0000000000000p-1",
        "0x1.0000000000000p-1", 8, 0),
    (2, "sinh_arcsinh_skew_normal/group", 10000): (
        "0x1.0a7de27b33172p-6", "-0x1.bec3612000000p-40", "-0x1.0000000000000p-1",
        "0x1.0000000000000p-1", 7, 0),
}


@pytest.mark.parametrize("seed", [1, 2])
def test_mle_large_solves_keep_their_bits(seed):
    rng = np.random.default_rng(seed)
    for name, params, label in ONE_LANE_CASES[:8]:
        entry = lookup(name, params)
        kind = kind_for(entry, label)
        for n in (1000, 10_000):
            sample = Sample(_draw(rng, name, params, n))
            fit = mle(entry.model, kind, sample)
            (roots,) = mle_block(kind, [(entry.model, sample)])
            lo, hi = fit.method.bracket
            got = (fit.theta_hat.hex(), fit.residual.hex(), lo.hex(), hi.hex(),
                   fit.method.iterations, int(roots.doublings[0]))
            assert got == MLE_LARGE_BITS[seed, f"{name}/{label}", n]
            assert (float(roots.theta[0]), float(roots.residual[0])) == (fit.theta_hat,
                                                                         fit.residual)


#: a gumbel density whose derivative is written with math, and the scale
#: kind in log-rate coordinates whose action is: both reject arrays and are
#: called once per element
GUMBEL_MATH = DensityModel("gumbel_math", SupportSet.full_line(), lambda x: -x - np.exp(-x),
                           lambda x: math.exp(-x) - 1.0)
LOG_RATE_MATH = Kind(u1=SCALE.u1, u2=SCALE.u2, h=lambda t, x: math.exp(t) * x,
                     theta_window=SCALE.theta_window, label="scale", supports=SCALE.supports,
                     seed=SCALE.seed)


@pytest.mark.parametrize("model,kind,draw,rejects,bits", [
    (GUMBEL_MATH, LOCATION, lambda rng: rng.gumbel(size=(3, 15)),
     lambda x: GUMBEL_MATH.dlog_pdf(x),
     (["0x1.805c6fd9f907ap-4", "-0x1.34178ff8d0ac2p-2", "0x1.38f1a24a8e9b0p-2"],
      ["-0x1.8000000000000p-51", "0x1.9000000000000p-49", "-0x1.6000000000000p-48"],
      [12, 12, 12])),
    (lookup("gamma", {"alpha": 2.0}).model, LOG_RATE_MATH,
     lambda rng: rng.gamma(2.0, size=(3, 15)), lambda x: LOG_RATE_MATH.h(x, x),
     (["0x1.ac15122c47004p-2", "0x1.d4782ba618d15p-5", "0x1.f0c0eb2a1061fp-4"],
      ["0x0.0p+0", "0x1.2000000000000p-50", "0x1.c000000000000p-51"], [9, 8, 8])),
])
def test_callables_that_reject_arrays_solve_to_pinned_bits(model, kind, draw, rejects, bits):
    # the fallback to one call per element is decided on the first call of a
    # solve, alone or in the lockstep, and gives the bits of a fallback tried
    # on every call
    rows = draw(np.random.default_rng(7))
    with pytest.raises(TypeError):
        rejects(rows[0])
    (block,) = mle_block(kind, [(model, rows)])
    assert ([v.hex() for v in block.theta.tolist()], [v.hex() for v in block.residual.tolist()],
            block.iterations.tolist()) == bits
    fit = mle(model, kind, Sample(rows[0]))
    assert (fit.theta_hat.hex(), fit.residual.hex(), fit.method.iterations) == tuple(
        column[0] for column in bits)


def _failing_kind(entry, label):
    if label == "narrow":
        tr = entry.transform
        return Kind(u1=tr.u1, u2=tr.u2, h=tr.h, theta_window=(-0.01, 0.01))
    if label == "wide":
        return Kind(u1=LOCATION.u1, u2=LOCATION.u2, h=LOCATION.h, theta_window=(-1e30, 1e30))
    return kind_for(entry, label)


#: a log-density of slope -1, whose location scores are all 1: no root
_NO_ROOT = DensityModel("ramp", SupportSet.full_line(), lambda x: -x, lambda x: 0.0 * x - 1.0)


@pytest.mark.parametrize("name,label,values", [
    # out of the window, or out of doublings inside a wide one
    ("sinh_arcsinh_skew_normal", "narrow", (5.0, 6.0, 7.0)),
    ("ramp", "wide", (0.0, 1.0)),
    # out of the support: the action overflows, or the bracket ends do
    ("laplace", "scale", (1e308, 1.5e308)),
    ("logistic", "location", (1e308, 1.5e308, 1.7e308, 1.2e308)),
    ("gaussian", "location", (-1e308, 0.0, 1e308)),
    # scores of both infinite signs
    ("weibull", "scale", (1e-300, 1.0, 1e300)),
])
def test_a_one_row_bracket_fails_as_a_lockstep_lane(name, label, values):
    # the Python-float bracket of one row raises the lockstep's text, and
    # neither warns on the way
    entry = None if name == "ramp" else lookup(name, {"k": 2.0} if name == "weibull" else {})
    model, kind = entry.model if entry else _NO_ROOT, _failing_kind(entry, label)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketFailure) as alone:
            mle(model, kind, s(*values))
        with pytest.raises(BracketFailure) as lanes:
            mle_block(kind, [(model, [np.array(values)] * 2)])
    assert str(alone.value) == str(lanes.value)


@pytest.mark.parametrize("name,params,rows", [
    ("gamma", {"alpha": 2.0}, 1),
    ("gamma", {"alpha": 2.0}, 2),
    ("weibull", {"k": 2.0}, 1),
])
def test_an_action_that_underflows_onto_a_half_line_origin_leaves_the_support(name, params,
                                                                              rows):
    # theta * 1e-300 underflows to 0.0, which is neither a sample value nor
    # in the support: the bracket end fails as every end outside the support
    # does, quietly, alone or beside another row
    model = lookup(name, params).model
    x = np.array([1e-300, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BracketFailure, match="^no sign change before the action leaves "
                                                 "the support within "):
            if rows == 1:
                mle(model, SCALE, Sample(x))
            else:
                mle_block(SCALE, [(model, [x, np.array([1.0, 2.0])])])
        # scale on the full line keeps the origin, where the score is u2
        fit = mle(lookup("gaussian").model, SCALE, s(0.0, 1.0, -2.0, 0.5))
    assert (fit.theta_hat.hex(), fit.residual.hex()) == ("0x1.bee9056fb9c39p-1",
                                                         "-0x1.8000000000000p-52")
    assert fit.method == BracketedRoot(10, (0.5, 2.0))


@pytest.mark.parametrize("name,params,label,values", [
    ("gaussian", {}, "location", (0.3, -1.2, 2.5, 0.7)),
    ("gamma", {"alpha": 2.0}, "scale", (1.0, 1.0, 1.0, 1e6)),
    ("gumbel", {}, "location", tuple(np.linspace(-3.0, 40.0, 800))),
    ("sinh_arcsinh_skew_normal", {}, "group", (0.5, 9.0, 11.0)),
])
def test_a_solve_counts_its_score_sums(monkeypatch, name, params, label, values):
    # two score sums per bracket tried and one per Brent step but the last:
    # the step that converges evaluates nothing; a solve of one model scores
    # once per sum
    entry = lookup(name, params)
    kind = kind_for(entry, label)
    calls = []
    scores = Scorer.__call__
    monkeypatch.setattr(Scorer, "__call__",
                        lambda self, x: calls.append(1) or scores(self, x))
    for rows in (Sample(np.array(values)), [np.array(values)] * 3):
        calls.clear()
        (roots,) = mle_block(kind, [(entry.model, rows)])
        doublings, iterations = int(roots.doublings[0]), int(roots.iterations[0])
        assert len(calls) == 2 * (doublings + 1) + max(iterations - 1, 0)
    if label == "scale":
        assert doublings > 0


@given(case=st.sampled_from(CATALOG_KINDS), n=st.integers(min_value=1, max_value=12),
       m=st.integers(min_value=1, max_value=6), seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_block_mle_equals_single_sample_mles(case, n, m, seed):
    name, params, label = case
    entry = lookup(name, params)
    assert_lanes_equal_single_sample_mles(entry, kind_for(entry, label),
                                          _block(entry, n, m, seed))


@given(case=st.sampled_from(CATALOG_KINDS),
       lengths=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=8),
       seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_ragged_block_mle_equals_single_sample_mles(case, lengths, seed):
    # rows of different lengths, cut from one draw, solved in one call
    name, params, label = case
    entry = lookup(name, params)
    draw = InverseCdfSampler(entry.model).rows(sum(lengths), [seed])[0]
    rows = np.split(draw, np.cumsum(lengths)[:-1])
    assert_lanes_equal_single_sample_mles(entry, kind_for(entry, label), rows)


def _lane_function(shape: str, c: float):
    # functions on [-4, 4] with a sign change: a cubic, a clipped ramp and a
    # staircase (flat stretches; see _flat_ramp), or a zero at an end
    if shape == "cubic":
        return lambda x: x ** 3 - c ** 3
    if shape == "zero at a":
        return lambda x: x + 4.0
    if shape == "zero at b":
        return lambda x: x - 4.0
    return _flat_ramp(c, 4.0 if shape == "stairs" else None, 0.5, 1.0)


@given(specs=st.lists(st.tuples(st.sampled_from(["cubic", "ramp", "stairs", "cubic", "zero at a",
                                                 "zero at b"]),
                                st.floats(min_value=-3.0, max_value=3.0)),
                      min_size=2, max_size=10),
       maxiter=st.integers(min_value=1, max_value=60), data=st.data())
@settings(max_examples=100, deadline=None)
def test_lockstep_lanes_are_invariant_under_permutation_and_equal_one_lane_solves(specs, maxiter,
                                                                                  data):
    # lanes converge at different steps, some not within maxiter and some
    # at a zero end before any step, so the live lanes are dropped unevenly
    functions = [_lane_function(shape, c) for shape, c in specs]
    m = len(functions)
    a, b = np.full(m, -4.0), np.full(m, 4.0)

    def solve(fns, lanes):
        def f(x, live):
            return np.array([float(fns[lane](xi)) for xi, lane in zip(x.tolist(), live.tolist())])
        return [v.tolist() for v in brent_lanes(f, a[lanes], b[lanes], f(a[lanes], lanes),
                                                f(b[lanes], lanes), xtol=1e-15, maxiter=maxiter)]

    together = solve(functions, np.arange(m))
    order = data.draw(st.permutations(range(m)))
    permuted = solve([functions[i] for i in order], np.arange(m))
    assert permuted == [[v[i] for i in order] for v in together]
    for i in range(m):
        assert solve(functions[i:i + 1], np.arange(1)) == [[v[i]] for v in together]


@functools.lru_cache(maxsize=None)
def _models_of_kind(label):
    """One kind and its models: the catalog's, and the tilts of its
    equivalence cases at d = 0.5 and 2, each with a sampler of its base."""
    entries = {(name, repr(params)): lookup(name, params)
               for name, params, labels in DEFAULT_FAMILIES if label in labels}
    kind = kind_for(next(iter(entries.values())), label)
    models = [(entry.model, InverseCdfSampler(entry.model)) for entry in entries.values()]
    for name, params, case_label in DEFAULT_EQUIVALENCE:
        if case_label == label:
            base = entries[name, repr(params)].model
            models += [(tilt(base, d, kind), InverseCdfSampler(base)) for d in (0.5, 2.0)]
    return kind, models


@given(label=st.sampled_from(["location", "scale", "group"]),
       problems=st.lists(st.tuples(st.integers(0, 1000),
                                   st.lists(st.integers(1, 12), min_size=1, max_size=6),
                                   st.integers(0, 10_000), st.booleans()),
                         min_size=1, max_size=4),
       copies=st.sampled_from([1, 1, 1, 30]))
@example(label="location", problems=[(0, [12, 11], 1, True), (3, [1, 5], 2, False)], copies=50)
@example(label="scale", problems=[(1, [3], 3, True), (5, [12, 12, 9], 4, True)], copies=40)
@settings(max_examples=40, deadline=None)
def test_one_lockstep_over_several_models_equals_one_sample_mles(label, problems, copies):
    # problems of one kind, each a catalog model or a tilt with its own rows,
    # given as one flat draw with lengths or as a list of rows; with 30 or
    # more copies of the lengths a call holds over 1,024 scores, which are
    # summed by extraction
    kind, models = _models_of_kind(label)
    chosen, split = [], []
    for pick, lengths, seed, flat in problems:
        model, sampler = models[pick % len(models)]
        rows = sampler.draw([(seed, lengths * copies)])
        split.append(np.split(rows.flat, np.cumsum(rows.lengths)[:-1]))
        chosen.append((model, rows if flat else split[-1]))
    try:
        solved = mle_block(kind, chosen)
    except MlecharError as exc:
        # the solve fails exactly when one of its rows fails alone
        with pytest.raises(type(exc)):
            for (model, _), rows in zip(chosen, split):
                for row in rows:
                    mle(model, kind, Sample(row))
        return
    assert len(solved) == len(chosen)
    for (model, _), rows, roots in zip(chosen, split, solved):
        for i, row in enumerate(rows):
            alone = mle(model, kind, Sample(row))
            assert (alone.theta_hat.hex(), alone.residual.hex()) == (
                float(roots.theta[i]).hex(), float(roots.residual[i]).hex())
            assert alone.method == BracketedRoot(int(roots.iterations[i]),
                                                 tuple(roots.bracket[i].tolist()))


def test_a_failing_row_of_the_second_problem_fails_the_solve(gaussian):
    # the second problem's middle row has scores of both infinite signs once
    # theta sits between its ends, as in the test below
    quartic = DensityModel("quartic", SupportSet.full_line(), lambda x: -x ** 4 / 4.0,
                           quiet_overflow(lambda x: -x ** 3))
    bad = np.array([-1e200, 0.5, 1e200])
    with pytest.raises(BracketFailure) as alone:
        mle(quartic, LOCATION, Sample(bad))
    with pytest.raises(BracketFailure) as together:
        mle_block(LOCATION, [(gaussian.model, [np.linspace(-1.0, 2.0, 9)]),
                             (quartic, [np.linspace(-1.0, 1.0, 5), bad])])
    assert str(together.value) == str(alone.value)


def test_no_problems_have_no_roots():
    assert mle_block(LOCATION, []) == []


def test_a_block_names_the_row_whose_scores_overflow_to_both_infinities():
    # the location score x^3 of exp(-x^4/4) overflows to -inf and +inf on
    # the middle row once theta sits between its ends; the block holds more
    # than 1,024 observations, so it is summed by extraction
    model = DensityModel("quartic", SupportSet.full_line(), lambda x: -x ** 4 / 4.0,
                         quiet_overflow(lambda x: -x ** 3))
    bad = np.array([-1e200, 0.5, 1e200])
    rows = [np.linspace(-1.0, 2.0, 9), bad, np.linspace(3.0, 4.0, 1100)]
    with pytest.raises(BracketFailure) as alone:
        mle(model, LOCATION, Sample(bad))
    with pytest.raises(BracketFailure) as block:
        mle_block(LOCATION, [(model, rows)])
    assert str(block.value) == str(alone.value)
    assert str(block.value).startswith("the score sum at theta=0.0 has no value")


def _log_mean_exp_of_a_row(u):
    top = float(np.max(u))
    return top + math.log(float(np.mean(np.exp(u - top))))


def _power_mean_rate_of_a_row(x, power):
    top = float(np.max(np.abs(x)))
    return float(np.mean(np.abs(x / top) ** power)) ** (-1.0 / power) / top


#: the closed forms written for one row at a time, as the reference
ROW_CLOSED_FORMS = {
    "gaussian_location": lambda x, p: float(np.mean(x)),
    "gaussian_scale": lambda x, p: _power_mean_rate_of_a_row(x, 2.0),
    "gamma_scale": lambda x, p: p["alpha"] * _power_mean_rate_of_a_row(x, 1.0),
    "laplace_scale": lambda x, p: _power_mean_rate_of_a_row(x, 1.0),
    "weibull_scale": lambda x, p: _power_mean_rate_of_a_row(x, p["k"]),
    "gumbel_location": lambda x, p: -_log_mean_exp_of_a_row(-x),
    "ferguson_location": lambda x, p: _log_mean_exp_of_a_row(p["gamma"] * x) / p["gamma"],
}


@given(case=st.sampled_from(CLOSED_FORM_CASES), n=st.integers(min_value=1, max_value=40),
       m=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=10_000),
       factor=st.sampled_from([1.0, 1e-150, 1e150]))
@settings(max_examples=100, deadline=None)
def test_closed_form_estimator_on_a_block_equals_each_row_bit_for_bit(case, n, m, seed, factor):
    name, params, label = case
    entry = lookup(name, params)
    estimate = closed_form_estimator(entry, kind_for(entry, label))
    block = _block(entry, n, m, seed) * factor
    got = estimate(block)
    name, _ = entry.closed_form[label]
    want = [ROW_CLOSED_FORMS[name](row, entry.params) for row in block]
    assert got.shape == (m,)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert float(estimate(block[0])).hex() == want[0].hex()
