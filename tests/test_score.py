import dataclasses
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlechar import MlecharError, OddPower, forge_odd_h, lookup, mnss, same_class, score, tilt
from mlechar.catalog import kind_for
from mlechar.density import DensityModel, Rows, Sample, SupportSet, scan_grid, tabulated_model
from mlechar.estimator import mle, mle_block
from mlechar.errors import InvalidParams, NotMonotone, UnsupportedSupport
from mlechar.score import (
    LOCATION,
    SCALE,
    Group,
    Kind,
    analyze_image,
    brent_lanes,
    brent_one,
    kind_profiles,
    kind_score,
    ScoreSums,
    row_fsums,
    u1_zeros,
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


@pytest.mark.parametrize("name,params,u1,zero", [
    ("gaussian", {}, lambda x: x - 1.0, "1"),
    ("gaussian", {}, lambda x: x + 1e-3, "-0.001"),
    ("gamma", {"alpha": 2.0}, lambda x: x - 1.0, "1"),
], ids=["full_line_zero_at_1", "full_line_zero_at_-0.001", "half_line_zero_at_1"])
def test_a_zero_of_u1_away_from_the_origin_is_refused(name, params, u1, zero):
    # a scale group about the zero (u2 = u1' = 1), whose pieces would end
    # there: a support cannot, so the kind is refused where it vanishes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedSupport, match=f"vanishes at x={zero}, not at 0"):
            kind_profiles(lookup(name, params).model, Group(u1, lambda x: 1.0))


def _logit_h(theta, x):
    # expit(logit x + theta)
    return 1.0 / (1.0 + np.exp(-(np.log(x / (1.0 - x)) + theta)))


#: the logit group on (0, 1), H_theta(x) = expit(logit x + theta): a kind with
#: no code of its own
LOGIT = Kind(u1=lambda x: x * (1.0 - x), u2=lambda x: 1.0 - 2.0 * x, h=_logit_h)
#: u1 = x (1 - x^2), with zeros at -1, 0 and 1 and no action
CUBIC = Group(lambda x: x * (1.0 - x * x), lambda x: 1.0 - 3.0 * x * x)
SINH = lookup("sinh_arcsinh_skew_normal").transform
GAMMA2 = lookup("gamma", {"alpha": 2.0}).model
_ENDS = (-2.0, -1.0, 0.0, 1.0, 2.0)
SUPPORTS = [SupportSet.full_line(), SupportSet.positive_half_line(),
            SupportSet.negative_half_line()] + [SupportSet(a, b) for a in _ENDS for b in _ENDS
                                                if a < b]
#: the support shapes location and scale listed by hand before their u1 decided
OLD_SHAPES = {LOCATION: ("full_line",),
              SCALE: ("full_line", "positive_half_line", "negative_half_line")}


@given(kind=st.sampled_from([LOCATION, SCALE, SINH, LOGIT, CUBIC]),
       support=st.sampled_from(SUPPORTS))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_a_kind_admits_a_support_exactly_when_u1_vanishes_at_its_finite_ends(kind, support):
    ends = [end for end in (support.lower, support.upper) if math.isfinite(end)]
    try:
        kind.check(support)
        admitted = True
    except UnsupportedSupport:
        admitted = False
    assert admitted == all(abs(kind.u1(end)) < 1e-12 for end in ends)
    if kind in OLD_SHAPES:
        assert admitted == (support.kind in OLD_SHAPES[kind])
    # the logit group's action is its flow on (0, 1) alone: toward an
    # infinite end u1 = x (1 - x) grows faster than x, and the flow leaves
    # the line in finite time, which no rule at the finite ends can see
    if admitted and kind.h is not None and (kind is not LOGIT or support.kind == "open_interval"):
        xs = scan_grid(support)
        for t in (-1.0, 1.0):
            assert support.contains(kind.h(kind.to_theta(t), xs)).all()


@pytest.mark.parametrize("call", [
    lambda: kind_profiles(GAMMA2, SINH),
    lambda: tilt(GAMMA2, 2.0, SINH),
    lambda: mle(GAMMA2, SINH, Sample([0.5, 1.0, 2.0])),
], ids=["kind_profiles", "tilt", "mle"])
def test_the_sinh_transform_is_refused_on_a_half_line(call):
    # H_-2(1) = -1.367 lies outside (0, inf): u1 = sqrt(1 + x^2) is 1 at the
    # support's end 0, so the flow crosses it
    with pytest.raises(UnsupportedSupport, match=r"got u1\(0\) = 1$"):
        call()


def test_a_zero_at_the_origin_splits_the_support_itself():
    # f = (1 - x^2)^2 on (-1, 1) with u1 = x (1 - x^2): the score is 1 - 7x^2
    model = DensityModel("quartic", SupportSet.open_interval(-1.0, 1.0),
                         lambda x: 2.0 * np.log1p(-x * x), lambda x: -4.0 * x / (1.0 - x * x))
    profiles = kind_profiles(model, CUBIC)
    assert [p.domain for p in profiles] == [SupportSet(-1.0, 0.0), SupportSet(0.0, 1.0)]
    for p in profiles:
        assert abs(p.p_minus - 6.0) < 1e-6 and abs(p.p_plus - 1.0) < 1e-6
    assert mnss(profiles, CUBIC).value == 7


def test_the_logit_group_acts_on_beta_with_no_code_of_its_own():
    # beta(2, 3): the logit score is 2 - 5x, with image (-3, 2)
    beta = DensityModel("beta(2,3)", SupportSet.open_interval(0.0, 1.0),
                        lambda x: np.log(x) + 2.0 * np.log1p(-x),
                        lambda x: 1.0 / x - 2.0 / (1.0 - x))
    (profile,) = kind_profiles(beta, LOGIT)
    assert abs(profile.p_minus - 3.0) < 1e-8 and abs(profile.p_plus - 2.0) < 1e-8
    assert mnss((profile,), LOGIT).value == 3
    assert abs(same_class(beta, tilt(beta, 2.0, LOGIT), LOGIT) - 2.0) < 1e-6
    xs = np.random.default_rng(7).beta(2.0, 3.0, size=25)
    fit = mle(beta, LOGIT, Sample(xs))
    assert abs(fit.residual) < 1e-10
    (roots,) = mle_block(LOGIT, [(beta, Rows(xs, np.array([xs.size])))])
    assert (fit.theta_hat.hex(), fit.residual.hex()) == (float(roots.theta[0]).hex(),
                                                         float(roots.residual[0]).hex())


def test_u1_zeros_counts_a_run_of_vanishing_nodes_once():
    full = SupportSet.full_line()
    # |x^5| < 1e-12 on the 17 nodes within 4e-3 of 0, whose least |u1| is at 0
    fifth = Group(lambda x: x ** 5, lambda x: 5.0 * x ** 4)
    assert (np.abs(fifth.u1(scan_grid(full))) < 1e-12).sum() == 17
    assert u1_zeros(fifth, full) == [0.0]
    # sign changes at the secant zeros of their cells
    assert np.allclose(u1_zeros(CUBIC, full), [-1.0, 0.0, 1.0], rtol=0.0, atol=1e-5)
    assert u1_zeros(LOCATION, full) == [] and u1_zeros(SCALE, SupportSet(0.0, math.inf)) == []


def test_a_u1_with_zeros_beside_the_origin_is_refused_naming_each(gaussian):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedSupport,
                           match="vanishes at x=0 and x=0.999999, not at 0 alone"):
            kind_profiles(gaussian.model, Group(lambda x: x * (x - 1.0), lambda x: 2 * x - 1.0))


#: log x, not defined left of the origin nor at it
LOG_U1 = Group(math.log, lambda x: 1.0 / x)


@pytest.mark.parametrize("call", [
    lambda: kind_profiles(lookup("gaussian").model, LOG_U1),
    lambda: tilt(lookup("gaussian").model, 2.0, LOG_U1),
    # the support's end: math.log(0.0)
    lambda: kind_score(GAMMA2, LOG_U1, 1.0),
    lambda: kind_profiles(lookup("gaussian").model, Group(np.log, lambda x: 1.0 / x)),
], ids=["kind_profiles", "tilt", "check_at_an_end", "numpy_log"])
def test_a_u1_not_defined_on_the_support_is_refused(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedSupport, match=r"u1 of the group kind is not defined on"):
            call()


def test_not_monotone_families():
    with pytest.raises(NotMonotone):
        analyze_image(lookup("laplace").model, LOCATION)
    with pytest.raises(NotMonotone):
        analyze_image(lookup("student", {"nu": 3.0}).model, LOCATION)
    # a visibly skewed member of the sinh-arcsinh family has a location
    # score with an interior dip (the base at theta=0 is just the normal);
    # h(theta, .) is the flow of u1, so its x-derivative is u1(h) / u1
    entry = lookup("sinh_arcsinh_skew_normal")
    tr, base = entry.transform, entry.model
    skewed = DensityModel("skewed", base.support,
                          lambda x: np.log(np.abs(tr.u1(tr.h(1.5, x)) / tr.u1(x)))
                          + base.log_pdf(tr.h(1.5, x)), normalized=True)
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


def _tabulated_logistic():
    # a logistic log-density centred at 0.3, off every node and probe point
    xs = np.linspace(-40.0, 40.0, 801)
    z = xs - 0.3
    return tabulated_model(SupportSet.full_line(), xs, -z - 2.0 * np.log1p(np.exp(-z)))


@pytest.mark.parametrize("name,params,kind", [
    ("gaussian", {}, "location"),
    ("gumbel", {}, "location"),
    ("logistic", {}, "location"),
    ("gamma", {"alpha": 2.0}, "scale"),
    ("weibull", {"k": 2.0}, "scale"),
    ("tabulated", None, "location"),
])
def test_score_root_is_tiny_at_bracketed_zero(name, params, kind):
    model = _tabulated_logistic() if params is None else lookup(name, params).model
    prof = analyze_image(model, LOCATION if kind == "location" else SCALE)
    # the float steps on the first sign-change cell of the scan grid end
    # where a one-lane lockstep on that cell ends, bit for bit
    xs = scan_grid(prof.domain)
    vs = prof.evaluate(xs)
    i = int(np.flatnonzero(np.sign(vs[:-1]) * np.sign(vs[1:]) <= 0)[0])
    (a, b), (fa, fb) = xs[i:i + 2].tolist(), vs[i:i + 2].tolist()
    root, _, _, converged = brent_one(prof.evaluate, a, b, fa, fb, xtol=1e-13, maxiter=100)
    assert converged
    assert abs(prof.evaluate(root)) < 1e-8
    roots, _, _, converged = brent_lanes(lambda x, lanes: prof.evaluate(x), xs[i:i + 1],
                                         xs[i + 1:i + 2], vs[i:i + 1], vs[i + 1:i + 2],
                                         xtol=1e-13, maxiter=100)
    assert converged[0]
    assert root.hex() == float(roots[0]).hex()


def test_group_profile_symmetric_image(gaussian, sinh_arcsinh):
    tr = sinh_arcsinh.transform
    prof = analyze_image(gaussian.model, Group(tr.u1, tr.u2))
    assert math.isinf(prof.p_minus) and math.isinf(prof.p_plus)
    assert prof.crosses_zero and not prof.monotone_increasing


def _bounds_hex(model, kind):
    """The ``kind_profiles`` image bounds in hex, or the error raised."""
    try:
        return [(p.p_minus.hex(), p.p_plus.hex()) for p in kind_profiles(model, kind)]
    except (MlecharError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)


def _bounds_hex_per_point(model, kind):
    """:func:`_bounds_hex` with every tail walk scored point by point: its
    array call raises, as it does where a walk reaches a bounded end."""
    walk = score._estimate_limit

    def per_point(evaluate, *args):
        def points_only(x):
            if np.ndim(x):
                raise TypeError("scored point by point")
            return evaluate(x)
        return walk(points_only, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(score, "_estimate_limit", per_point)
        return _bounds_hex(model, kind)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


#: every catalog family, shape parameters log-uniform up to where lookup
#: refuses them
CATALOG_CASES = st.one_of(
    st.sampled_from([("gaussian", {}), ("laplace", {}), ("gumbel", {}), ("logistic", {}),
                     ("sinh_arcsinh_skew_normal", {})]),
    st.builds(lambda a: ("gamma", {"alpha": a}), _log_uniform(-323.0, 306.0)),
    st.builds(lambda k: ("weibull", {"k": k}), _log_uniform(-323.0, 308.0)),
    st.builds(lambda nu: ("student", {"nu": nu}), _log_uniform(-323.0, 308.0)),
    st.builds(lambda a, g, sign: ("generalized_gaussian", {"alpha": a, "gamma": sign * g}),
              _log_uniform(-323.0, 306.0), _log_uniform(-323.0, 308.0),
              st.sampled_from([-1.0, 1.0])),
)


@given(case=CATALOG_CASES)
@example(case=("gaussian", {}))
@example(case=("student", {"nu": 3.0}))
@example(case=("generalized_gaussian", {"alpha": 1e28, "gamma": -1.0}))
@settings(max_examples=150, deadline=None)
def test_tail_walks_in_one_array_call_give_the_per_point_bounds(case):
    # each admitted kind of the family: its image bounds, or the error it
    # raises, are those of walks scored point by point, to the bit
    name, params = case
    try:
        entry = lookup(name, params)
    except InvalidParams:
        return
    for label in ("location", "scale", "group"):
        if label == "group" and entry.transform is None:
            continue
        kind = kind_for(entry, label)
        assert _bounds_hex(entry.model, kind) == _bounds_hex_per_point(entry.model, kind)


def _load_tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: location families phi = alpha + sum a tanh(b x + c), whose images are exact
KNOWN = _load_tool("known_families")


@st.composite
def tanh_families(draw):
    terms = [(draw(_log_uniform(-2.0, 2.0)), draw(_log_uniform(-3.0, 3.0)),
              draw(st.floats(-10.0, 10.0))) for _ in range(draw(st.integers(1, 3)))]
    alpha = draw(st.floats(-0.95, 0.95)) * math.fsum(a for a, _, _ in terms)
    return alpha, terms


#: the hyperbolic secant law f ~ sech(b x)^(1/b): phi = tanh(b x), image (-1, 1)
SECH_LAWS = [(0.0, [(1.0, b, 0.0)]) for b in (0.5, 1.0, 2.0, 4.0)]


@given(family=tanh_families())
@example(family=SECH_LAWS[0])
@example(family=SECH_LAWS[1])
@example(family=SECH_LAWS[2])
@example(family=SECH_LAWS[3])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_families_with_exact_images_are_answered_right_or_refused(family):
    # exact bounds within 1e-8 relative and the exact MNSS, or an error of
    # the package: never a wrong answer
    alpha, terms = family
    try:
        profiles = kind_profiles(KNOWN.tanh_family(alpha, terms), LOCATION)
        got = mnss(profiles, LOCATION).value
    except MlecharError:
        return
    p_minus, p_plus, size = KNOWN.exact_answer(alpha, terms)
    (profile,) = profiles
    assert abs(profile.p_minus - p_minus) <= 1e-8 * p_minus
    assert abs(profile.p_plus - p_plus) <= 1e-8 * p_plus
    assert got == size


@pytest.mark.parametrize("family", SECH_LAWS, ids=["b=0.5", "b=1", "b=2", "b=4"])
def test_hyperbolic_secant_law_has_image_of_one_and_mnss_3(family):
    # tanh(b x) reaches its float limit 1.0 inside the scan grid: a flat run
    # at each end whose value is the bound
    profiles = kind_profiles(KNOWN.tanh_family(*family), LOCATION)
    assert [(p.p_minus, p.p_plus) for p in profiles] == [(1.0, 1.0)]
    assert mnss(profiles, LOCATION).value == 3


@pytest.mark.parametrize("k", [1.5, 600.0, 2000.0])
def test_a_flat_run_short_of_the_float_limit_is_not_monotone(k):
    # Huber's least favourable density (1964): the location score
    # clip(x, -k, k) is flat on |x| >= k.  For k = 1.5 a step of the scan
    # grid enters each flat run; k = 600 lies inside the wide cell from about
    # 512 to 1023, and k = 2000 inside the last one, up to about 2.5e6, so
    # the tail walk's first step is flat after the scan's large last step
    huber = DensityModel("huber", SupportSet.full_line(),
                         lambda x: np.where(np.abs(x) <= k, -0.5 * x * x,
                                            0.5 * k * k - k * np.abs(x)),
                         lambda x: -np.clip(x, -k, k))
    with pytest.raises(NotMonotone, match="flat"):
        analyze_image(huber, LOCATION)


@pytest.mark.parametrize("params,kind", [
    ({"alpha": 1.0, "gamma": 1e-3}, LOCATION),
    ({"alpha": 1.0, "gamma": -1e-3}, LOCATION),
    ({"alpha": 1.0, "gamma": 1e6}, LOCATION),
    ({"alpha": 0.1, "gamma": 1.0}, SCALE),
], ids=["gamma=1e-3", "gamma=-1e-3", "gamma=1e6", "scale"])
def test_a_smooth_score_reaching_its_float_limit_inside_a_wide_cell_is_answered(params, kind):
    # the generalized gaussian's score reaches its finite bound inside the
    # scan's last cell (about 1023 to 2.5e6; 1e-7 to 2.4e-4 next to the
    # origin) or, for gamma = 1e6, inside the cell next to x = 0: a large
    # step, then a flat one, until the cell is split finer
    entry = lookup("generalized_gaussian", params)
    got = [(p.p_minus, p.p_plus) for p in kind_profiles(entry.model, kind)]
    assert set(got) == {entry.analytic_bounds[kind.label]}


@pytest.mark.parametrize("build", [
    lambda: (tilt(lookup("gamma", {"alpha": 2.0}).model, 3.0, SCALE), SCALE),
    lambda: (forge_odd_h(lookup("gaussian").model, OddPower(1.0, 3)), LOCATION),
], ids=["tilt", "forge"])
def test_tail_walks_of_a_tilt_and_a_forge_give_the_per_point_bounds(build):
    model, kind = build()
    assert _bounds_hex(model, kind) == _bounds_hex_per_point(model, kind)


def _math_logistic(overflow):
    # the logistic in math functions, so every call is per element; its
    # derivative overflows (an OverflowError) where exp(|x|) does, past
    # |x| = 709, but is the logistic's wherever it returns
    return DensityModel(
        "math logistic", SupportSet.full_line(),
        lambda x: -abs(x) - 2.0 * math.log1p(math.exp(-abs(x))),
        lambda x: -math.tanh(0.5 * x) - 0.0 * overflow(abs(x)))


def _math_asinh(overflow):
    # log f = sqrt(1 + x^2) - x asinh(x): the location score asinh(x) drifts
    # by log 2 a step along the walk and never settles
    return DensityModel(
        "math asinh", SupportSet.full_line(),
        lambda x: math.sqrt(1.0 + x * x) - x * math.asinh(x),
        lambda x: -math.asinh(x) - 0.0 * overflow(abs(x)))


def test_a_math_score_that_overflows_past_the_stopping_point_keeps_its_limit():
    # the walk stops at |x| = 80 with the limit 1; its array call reaches
    # |x| = 20 * 2^80 and overflows, and the walk goes point by point
    profile = analyze_image(_math_logistic(math.exp), LOCATION)
    twin = analyze_image(_math_logistic(lambda x: 0.0), LOCATION)
    assert (profile.p_minus, profile.p_plus) == (twin.p_minus, twin.p_plus) == (1.0, 1.0)
    assert _bounds_hex(_math_logistic(math.exp), LOCATION) == \
        _bounds_hex_per_point(_math_logistic(math.exp), LOCATION)


def test_a_math_score_that_overflows_before_the_stopping_point_has_infinite_limits():
    # the walk overflows at |x| = 1280 before it settles: the limits are
    # infinite, as they are when the walk runs out of steps without overflow
    profile = analyze_image(_math_asinh(math.exp), LOCATION)
    twin = analyze_image(_math_asinh(lambda x: 0.0), LOCATION)
    assert (profile.p_minus, profile.p_plus) == (twin.p_minus, twin.p_plus) == (math.inf,) * 2
    assert _bounds_hex(_math_asinh(math.exp), LOCATION) == \
        _bounds_hex_per_point(_math_asinh(math.exp), LOCATION)


def test_a_walk_that_meets_an_infinity_ends_at_the_infinity_it_was_heading_for():
    # the score rises toward the upper end, then reads -inf past x = 1000:
    # the walk did not settle, and its limit is +inf, the walk's own sign
    def rises_then_breaks(x):
        if np.ndim(x):
            raise TypeError("scored point by point")
        return -math.inf if x > 1e3 else x

    limit = score._estimate_limit(rises_then_breaks, SupportSet.full_line(), "upper",
                                  20.0, 20.0, 1.0)
    assert limit == math.inf


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
    assert ScoreSums(kind, [model])(np.zeros(1), x, np.array([n]))[0].hex() == want.hex()
    if style == "cancel":
        assert want.hex() == "0x0.0p+0"
    # next to a short row, in one call
    short = x[:3]
    both = ScoreSums(kind, [model])(np.zeros(2), np.concatenate([short, x]), np.array([3, n]))
    assert [s.hex() for s in both.tolist()] == [math.fsum(short.tolist()).hex(), want.hex()]


@given(m=st.integers(100, 300), cancelling=st.floats(0.0, 1.0),
       special=st.sampled_from([None, None, math.inf, -math.inf, math.nan, "both infinities"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_many_short_rows_sum_as_math_fsum_bit_for_bit(m, cancelling, special, seed):
    # rows of 1 to 16 scores, at least 1,024 in all, summed at once by
    # extraction, with magnitudes from 1e-300 to 1e300; a cancelling row
    # pairs all its values but one or two with their negations
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 17, m)
    while lengths.sum() < 1024:
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
    if style == "2^0 to 2^-1070":
        # full mantissas at every binade from a unit down into the
        # subnormals: the extraction rounds, each shrinking sigma by its
        # bound, run down to sigmas that are subnormal
        x = rng.uniform(1.0, 2.0, n) * 2.0 ** -rng.integers(0, 1071, n)
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
        sums = ScoreSums(SIGNED_LOCATION, [lookup("gaussian").model])(np.zeros(len(rows)), flat,
                                                                       np.asarray(lengths))
        assert [s.hex() for s in sums.tolist()] == want


#: values a one-row sum meets at its edges: signed zeros, subnormals, values
#: near the float limit, where sigma overflows, and non-finite scores
ONE_ROW_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, 1.7e308, -1.8e308, 1.79e308,
                 math.inf, -math.inf, math.nan]


@given(style=st.sampled_from(["normal", "spread", "ties", "cancel", "three rounds",
                              "2^0 to 2^-1070", "near 2^1022", "non-finite", "zeros"]),
       n=st.integers(698, 4096),
       edges=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.sampled_from(ONE_ROW_EDGES)), max_size=4),
       seed=st.integers(0, 2 ** 32 - 1))
@example(style="normal", n=700, edges=[(0.5, 1.79e308)], seed=0)
@example(style="zeros", n=700, edges=[], seed=0)
@example(style="three rounds", n=4096, edges=[(0.0, 5e-324)], seed=2)
@example(style="2^0 to 2^-1070", n=4096, edges=[(0.5, 5e-324)], seed=3)
@settings(max_examples=150, deadline=None)
def test_one_row_sums_are_math_fsum_bit_for_bit(style, n, edges, seed):
    # one row of 698 scores and more, summed alone: its sum
    # is math.fsum's, or it raises as math.fsum raises, and the scores stay
    # as they were
    if style == "zeros":
        x = np.full(n, -0.0)
    else:
        x = _block_row(style, n, np.random.default_rng(seed))
    for at, value in edges:
        x[int(at * n)] = value
    before = x.tobytes()
    want = _fsums_or_error([x])
    try:
        got = [s.hex() for s in row_fsums(x, [n]).tolist()]
    except (ValueError, OverflowError) as exc:
        got = type(exc), str(exc)
    assert got == want
    assert x.tobytes() == before
