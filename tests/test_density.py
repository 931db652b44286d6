import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from mlechar import lookup, normalize, sample_from
from mlechar.density import (
    DensityModel,
    Sample,
    SupportSet,
    check_dlog_pdf,
    compact_grid,
    eval_dlogf,
    numeric_cdf,
    probe_grid,
    tabulated_model,
)
from mlechar.errors import DivergentIntegral, OutsideSupport

# frozen with an independent quadrature oracle (see test_quartic_normalizer):
# integral of exp(-x^4/4) over R equals 2**(-1/2) * Gamma(1/4)
QUARTIC_C = 0.39006225108940673


def test_support_membership():
    full = SupportSet.full_line()
    assert full.contains(-1e300) and full.contains(0.0)
    pos = SupportSet.positive_half_line()
    assert pos.contains(1e-12) and not pos.contains(0.0) and not pos.contains(-1.0)
    iv = SupportSet.open_interval(-1.0, 2.0)
    assert iv.contains(0.0) and not iv.contains(-1.0) and not iv.contains(2.0)
    with pytest.raises(ValueError):
        SupportSet.open_interval(2.0, 2.0)


def test_dlogf_gaussian_values(gaussian):
    assert eval_dlogf(gaussian.model, 0.0) == 0.0
    assert eval_dlogf(gaussian.model, 1.0) == -1.0


def test_dlogf_logistic_matches_fd_oracle(logistic):
    # independent central-difference oracle on log(e^-x / (1+e^-x)^2)
    def log_f(x):
        return math.log(math.exp(-x) / (1.0 + math.exp(-x)) ** 2)

    h = 1e-6
    oracle = (log_f(h) - log_f(-h)) / (2.0 * h)
    assert abs(oracle) < 1e-9
    assert abs(eval_dlogf(logistic.model, 0.0) - oracle) < 1e-9


def test_dlogf_errors(gamma2):
    with pytest.raises(OutsideSupport):
        eval_dlogf(gamma2.model, -1.0)
    with pytest.raises(OutsideSupport):
        eval_dlogf(gamma2.model, 0.0)


def test_dlogf_fd_fallback_near_boundary(gamma2):
    # strip the analytic derivative; the step must shrink to stay inside
    fd_only = DensityModel("fd", gamma2.model.support, gamma2.model.log_pdf)
    x = 0.01
    got = eval_dlogf(fd_only, x)
    want = (gamma2.params["alpha"] - 1.0) / x - 1.0
    assert abs(got - want) / abs(want) < 1e-7
    # extremely close to the boundary the probes still stay inside; the
    # value is finite and right to within the ln(3)/... widening of the
    # half-gap stencil on the log singularity
    x = 1e-7
    got = eval_dlogf(fd_only, x)
    want = (gamma2.params["alpha"] - 1.0) / x - 1.0
    assert math.isfinite(got)
    assert 0.8 * want < got < 1.2 * want


@pytest.mark.parametrize("name,params", [
    ("gaussian", {}),
    ("gamma", {"alpha": 0.5}),
    ("gamma", {"alpha": 1.0}),
    ("gamma", {"alpha": 2.0}),
    ("gamma", {"alpha": 5.0}),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0}),
    ("generalized_gaussian", {"alpha": 2.0, "gamma": -0.5}),
    ("laplace", {}),
    ("weibull", {"k": 0.5}),
    ("weibull", {"k": 1.0}),
    ("weibull", {"k": 2.0}),
    ("weibull", {"k": 3.0}),
    ("gumbel", {}),
    ("student", {"nu": 0.5}),
    ("student", {"nu": 1.0}),
    ("student", {"nu": 2.0}),
    ("student", {"nu": 3.0}),
    ("student", {"nu": 5.0}),
    ("logistic", {}),
    ("sinh_arcsinh_skew_normal", {}),
])
def test_analytic_dlog_matches_finite_differences(name, params):
    model = lookup(name, params).model
    if model.support.kind == "positive_half_line":
        xs = np.geomspace(2e-2, 8.0, 201)
    else:
        xs = np.linspace(-8.0, 8.0, 201) + 0.0137
    assert check_dlog_pdf(model, xs, tol=1e-6) < 1e-6


def test_normalize_gaussian_kernel():
    raw = DensityModel("kernel", SupportSet.full_line(), lambda x: -0.5 * x * x)
    c, model = normalize(raw)
    assert abs(c - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    assert model.normalized


def test_normalize_idempotent(gaussian):
    c, _ = normalize(gaussian.model)
    assert abs(c - 1.0) < 1e-10


def test_quartic_normalizer(quartic_unnormalized):
    # oracle: direct quadrature, cross-checked against the closed form
    z_oracle, _ = quad(lambda x: math.exp(-x ** 4 / 4.0), -np.inf, np.inf,
                       epsabs=1e-13, epsrel=1e-13)
    assert abs(1.0 / z_oracle - QUARTIC_C) < 1e-12
    assert abs(1.0 / (2.0 ** -0.5 * gamma_fn(0.25)) - QUARTIC_C) < 1e-12
    c, _ = normalize(quartic_unnormalized)
    assert abs(c - QUARTIC_C) < 1e-10


def test_normalize_divergent():
    improper = DensityModel("flat", SupportSet.full_line(), lambda x: 0.0)
    with pytest.raises(DivergentIntegral):
        normalize(improper)


def test_sampling_gaussian_mean(gaussian):
    s = sample_from(gaussian.model, 100_000, seed=42)
    assert s.n == 100_000
    assert abs(float(s.values.mean())) < 0.02


def test_sampling_deterministic(gaussian):
    a = sample_from(gaussian.model, 1000, seed=7)
    b = sample_from(gaussian.model, 1000, seed=7)
    assert np.array_equal(a.values, b.values)
    c = sample_from(gaussian.model, 1000, seed=8)
    assert not np.array_equal(a.values, c.values)


def test_sampling_exponential_mean():
    expo = lookup("gamma", {"alpha": 1.0}).model
    target, _ = quad(lambda x: x * math.exp(-x), 0, np.inf)
    s = sample_from(expo, 100_000, seed=3)
    assert abs(float(s.values.mean()) - target) < 0.02
    assert (s.values > 0).all()


@pytest.mark.parametrize("name,params", [
    ("gaussian", {}),
    ("gamma", {"alpha": 1.0}),
    ("student", {"nu": 2.0}),
])
def test_sampling_kolmogorov_distance(name, params):
    model = lookup(name, params).model
    values = np.sort(sample_from(model, 100_000, seed=11).values)
    worst = 0.0
    for q in np.linspace(0.02, 0.98, 25):
        x = float(values[int(q * len(values))])
        ecdf = np.searchsorted(values, x, side="right") / len(values)
        worst = max(worst, abs(ecdf - numeric_cdf(model, x)))
    assert worst < 0.02


def test_sample_requires_normalized(quartic_unnormalized):
    with pytest.raises(ValueError):
        sample_from(quartic_unnormalized, 10, seed=1)


def test_sample_container_validation(gaussian, gamma2):
    with pytest.raises(ValueError):
        Sample(np.array([]))
    s = Sample(np.array([1.0, 2.0]))
    s.require_inside(gaussian.model)
    with pytest.raises(OutsideSupport):
        Sample(np.array([-1.0, 2.0])).require_inside(gamma2.model)


def test_tabulated_model_interpolates():
    xs = np.linspace(-6.0, 6.0, 501)
    model = tabulated_model(SupportSet.full_line(), xs,
                            -0.5 * xs * xs - 0.5 * math.log(2 * math.pi),
                            normalized=True)
    # monotone cubic pieces: exact at the nodes, O(h^2) at worst between
    # them (near the data's extremum)
    for x in (-2.3, 0.1, 4.5):
        assert abs(model.log_pdf(x) - (-0.5 * x * x - 0.5 * math.log(2 * math.pi))) < 1e-3
    assert model.log_pdf(float(xs[100])) == pytest.approx(
        -0.5 * xs[100] ** 2 - 0.5 * math.log(2 * math.pi), abs=1e-12)
    # beyond the grid hull the log-density continues linearly
    inside_slope = eval_dlogf(model, 5.95)
    assert abs(eval_dlogf(model, 8.0) - inside_slope) < 0.2


def test_tabulated_model_rejects_bad_grids():
    xs = np.array([0.0, 1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        tabulated_model(SupportSet.full_line(), xs, np.zeros(4))
    with pytest.raises(ValueError):
        tabulated_model(SupportSet.positive_half_line(),
                        np.array([-1.0, 0.5, 1.0, 2.0]), np.zeros(4))


# (radius, inner, pad) of the probe grids in use: image analysis, the u1
# probe, class comparison and the score cross-check
PROBE_CONSTANTS = ((20.0, 1e-3, 1e-6), (20.0, 1e-8, 1e-6), (8.0, 0.05, 1e-3),
                   (8.0, 1e-2, 1e-3))

# window ends keep |x| within [1e-2, 1e2]: beyond that range x -> t -> x loses
# relative precision (cancellation in sqrt(1 + 4x^2) - 1 near 0 and in
# 1 - t^2 far out), so the round trip below would not hold to 1e-12
magnitudes = st.floats(min_value=1e-2, max_value=1e2)


@st.composite
def supports_and_windows(draw):
    shape = draw(st.sampled_from(["full", "pos", "neg", "interval"]))
    if shape == "interval":
        a = draw(st.floats(min_value=-100.0, max_value=100.0))
        width = draw(st.floats(min_value=1e-2, max_value=100.0))
        support = SupportSet.open_interval(a, a + width)
        u = draw(st.floats(min_value=1e-3, max_value=0.998))
        v = draw(st.floats(min_value=u + 1e-3, max_value=0.999))
        return support, (a + u * width, a + v * width)
    if shape == "full":
        ends = sorted(draw(st.sampled_from([-1.0, 1.0])) * draw(magnitudes) for _ in range(2))
        return SupportSet.full_line(), tuple(ends)
    lo, hi = sorted(draw(magnitudes) for _ in range(2))
    if shape == "pos":
        return SupportSet.positive_half_line(), (lo, hi)
    return SupportSet.negative_half_line(), (-hi, -lo)


@given(case=supports_and_windows(), constants=st.sampled_from(PROBE_CONSTANTS),
       points=st.sampled_from((41, 201, 401)))
@settings(max_examples=300, deadline=None)
def test_probe_and_compact_grids_stay_inside(case, constants, points):
    support, (lo, hi) = case
    radius, inner, pad = constants
    # the probe grid covers the part of the window within the central range
    if support.kind == "full_line":
        assume(min(hi, radius) - max(lo, -radius) > 1e-3)
    elif support.kind != "open_interval":
        near, far = sorted((abs(lo), abs(hi)))
        assume(max(near, inner) * (1.0 + 1e-3) < min(far, radius))

    xs = probe_grid(support, (lo, hi), points, radius, inner, pad)
    assert xs.size == points
    assert (np.diff(xs) > 0).all()
    assert all(support.contains(float(x)) for x in xs)
    assert lo <= xs[0] and xs[-1] <= hi

    ts, xs = compact_grid(support, lo, hi, points)
    assert (np.diff(ts) > 0).all() and (np.diff(xs) > 0).all()
    assert all(support.contains(float(x)) for x in xs)
    assert abs(xs[0] - lo) <= 1e-12 * abs(lo) and abs(xs[-1] - hi) <= 1e-12 * abs(hi)
    # the effective-interval scan: infinite ends map to finite inner nodes
    _, xs = compact_grid(support, support.lower, support.upper, points, inset=1e-7)
    assert np.isfinite(xs).all() and (np.diff(xs) > 0).all()
    assert all(support.contains(float(x)) for x in xs)
