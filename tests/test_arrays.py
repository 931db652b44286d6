"""Array evaluation agrees with scalar evaluation.

Densities, scores and kinds take a float or an ndarray.  The references
here are scalar: ``math`` twins of the catalog formulas, written out again,
and the library's own scalar path.  Catalog and numeric results must agree
to ``ULPS`` units in the last place (of the value, or of 1 where the value
is smaller); tabulated densities must agree exactly.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from mlechar import LOCATION, SCALE, OddPower, PlusEvenDerivative, forge_odd_h, lookup, tilt
from mlechar.catalog import kind_for
from mlechar.density import (DensityModel, InverseCdfSampler, Sample, SupportSet, _from_t,
                             eval_dlogf)
from mlechar.forge import h_function
from mlechar.estimator import mle
from mlechar.score import Kind, Scorer, kind_score
from mlechar.specfiles import load_family_spec, write_tabulated
from mlechar.suite import DEFAULT_EQUIVALENCE, DEFAULT_FAMILIES

ULPS = 4
LOG_2PI = math.log(2.0 * math.pi)


def assert_ulps(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    tol = ULPS * np.spacing(np.maximum(np.abs(want), 1.0))
    ok = (got == want) | (np.abs(got - want) <= tol)
    assert ok.all(), (got[~ok][:3], want[~ok][:3])


def scalar_only(fn):
    """The same function, rejecting arrays as a ``math``-based one would."""
    return lambda *args: fn(*(float(a) for a in args))


def grid(support: SupportSet) -> np.ndarray:
    if support.kind == "positive_half_line":
        return np.geomspace(1e-3, 50.0, 241)
    return np.linspace(-30.0, 30.0, 241) + 0.0137


def scalar_values(fn, xs):
    return np.array([fn(float(x)) for x in xs])


# (log f, d/dx log f) written with math, one pair per catalog family
def _ggauss(p):
    a, g = p["alpha"], p["gamma"]
    c = math.log(abs(g)) + a * math.log(a) - math.lgamma(a)
    return (lambda x: c + a * g * x - a * math.exp(g * x),
            lambda x: a * g * (1.0 - math.exp(g * x)))


def _student(p):
    nu = p["nu"]
    c = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) - 0.5 * math.log(nu * math.pi)
    return (lambda x: c - 0.5 * (nu + 1.0) * math.log1p(x * x / nu),
            lambda x: -(nu + 1.0) * x / (nu + x * x))


def _logistic_log(x):
    a = abs(x)
    return -a - 2.0 * math.log1p(math.exp(-a))


TWINS = {
    "gaussian": lambda p: (lambda x: -0.5 * x * x - 0.5 * LOG_2PI, lambda x: -x),
    "gamma": lambda p: (
        lambda x: (p["alpha"] - 1.0) * math.log(x) - x - math.lgamma(p["alpha"]),
        lambda x: (p["alpha"] - 1.0) / x - 1.0),
    "generalized_gaussian": _ggauss,
    "laplace": lambda p: (lambda x: -abs(x) - math.log(2.0),
                          lambda x: -math.copysign(1.0, x) if x != 0.0 else 0.0),
    "weibull": lambda p: (
        lambda x: math.log(p["k"]) + (p["k"] - 1.0) * math.log(x) - x ** p["k"],
        lambda x: (p["k"] - 1.0) / x - p["k"] * x ** (p["k"] - 1.0)),
    "gumbel": lambda p: (lambda x: -x - math.exp(-x), lambda x: -1.0 + math.exp(-x)),
    "student": _student,
    "logistic": lambda p: (_logistic_log, lambda x: -math.tanh(0.5 * x)),
    "sinh_arcsinh_skew_normal": lambda p: (lambda x: -0.5 * x * x - 0.5 * LOG_2PI,
                                           lambda x: -x),
}

FAMILIES = [(name, params) for name, params, _ in DEFAULT_FAMILIES]
FAMILY_KINDS = [(name, params, label) for name, params, labels in DEFAULT_FAMILIES
                for label in labels]


@pytest.mark.parametrize("name,params", FAMILIES)
def test_catalog_densities_match_math_twins(name, params):
    model = lookup(name, params).model
    log_twin, dlog_twin = TWINS[name](params)
    xs = grid(model.support)
    assert_ulps(model.log_pdf(xs), scalar_values(log_twin, xs))
    assert_ulps(model.dlog_pdf(xs), scalar_values(dlog_twin, xs))
    assert_ulps(model.log_pdf(xs), scalar_values(model.log_pdf, xs))


def test_sinh_arcsinh_transform_on_arrays():
    tr = lookup("sinh_arcsinh_skew_normal").transform
    xs = grid(SupportSet.full_line())
    root = lambda x: math.sqrt(1.0 + x * x)
    assert_ulps(tr.u1(xs), scalar_values(root, xs))
    assert_ulps(tr.u2(xs), scalar_values(lambda x: x / root(x), xs))
    # sinh(asinh(x) + theta) amplifies a last-place difference in asinh by
    # |asinh(x) + theta|, so the action is held to its own scalar calls
    for theta in (-1.5, 0.0, 0.7):
        assert_ulps(tr.h(theta, xs), scalar_values(lambda x: tr.h(theta, x), xs))


def test_location_and_scale_kinds_on_arrays():
    xs = np.geomspace(1e-3, 50.0, 41)
    for kind in (LOCATION, SCALE):
        for part in (kind.u1, kind.u2):
            assert_ulps(part(xs), scalar_values(part, xs))
        assert_ulps(kind.h(0.7, xs), scalar_values(lambda x: kind.h(0.7, x), xs))
        assert_ulps(kind.to_theta(xs / 10.0), scalar_values(kind.to_theta, xs / 10.0))
    assert_ulps(SCALE.to_theta(xs / 10.0), scalar_values(math.exp, xs / 10.0))


@pytest.mark.parametrize("name,params,label", FAMILY_KINDS)
def test_scores_on_arrays_match_scalar_scores(name, params, label):
    entry = lookup(name, params)
    kind = kind_for(entry, label)
    xs = grid(entry.model.support)
    xs = xs[np.abs(xs) < 20.0]
    assert_ulps(kind_score(entry.model, kind, xs),
                scalar_values(lambda x: kind_score(entry.model, kind, x), xs))
    assert_ulps(eval_dlogf(entry.model, xs),
                scalar_values(lambda x: eval_dlogf(entry.model, x), xs))


@pytest.mark.parametrize("d", [0.5, 2.0])
@pytest.mark.parametrize("name,params,label", DEFAULT_EQUIVALENCE)
def test_tilts_on_arrays_match_scalar_calls(name, params, label, d):
    entry = lookup(name, params)
    tilted = tilt(entry.model, d, kind_for(entry, label))
    xs = grid(tilted.support)
    xs = xs[np.abs(xs) < 10.0]
    assert_ulps(tilted.log_pdf(xs), scalar_values(tilted.log_pdf, xs))
    assert_ulps(tilted.dlog_pdf(xs), scalar_values(tilted.dlog_pdf, xs))


@pytest.mark.parametrize("name,params", FAMILIES)
def test_sampler_inversion_matches_its_interpolant(name, params):
    # the reference bisects on an interpolant of the sampler's CDF nodes; the
    # uniforms include the CDF at cell edges and the doubles just below it,
    # where a bisection point can land on an edge.  The sampler's Newton
    # search must end in the same cell, at a point whose interpolated CDF is
    # as close to u as the bisection's, within 4 ulps of u
    sampler = InverseCdfSampler(lookup(name, params).model)
    interp = PchipInterpolator(sampler._edges, sampler._cdf, extrapolate=False)
    edges = sampler._cdf[1:-1:97]
    u = np.concatenate([np.random.default_rng(7).random(2000), edges,
                        np.nextafter(edges, 0.0)])
    idx = np.clip(np.searchsorted(sampler._cdf, u, side="right") - 1, 0,
                  sampler._edges.size - 2)
    lo, hi = sampler._edges[idx], sampler._edges[idx + 1]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = interp(mid) < u
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    t_bisect = 0.5 * (lo + hi)
    t = sampler._grid_quantiles(u)
    assert ((sampler._edges[idx] <= t) & (t <= sampler._edges[idx + 1])).all()
    assert (np.abs(interp(t) - u) <= np.abs(interp(t_bisect) - u) + 4 * np.spacing(u)).all()
    assert np.array_equal(sampler.invert(u), _from_t(t) if sampler._mapped else t)


@pytest.fixture(scope="module")
def forged_pair(gaussian, logistic):
    return (forge_odd_h(gaussian.model, OddPower(1.0, 3)),
            forge_odd_h(logistic.model, PlusEvenDerivative(
                w=lambda y: 0.1 * math.cos(y), w_prime=lambda y: -0.1 * math.sin(y))))


def test_forged_densities_on_arrays_match_scalar_calls(forged_pair):
    xs = np.linspace(-6.0, 6.0, 121) + 0.0137
    for forged in forged_pair:
        assert_ulps(forged.log_pdf(xs), scalar_values(forged.log_pdf, xs))
        assert_ulps(forged.dlog_pdf(xs), scalar_values(forged.dlog_pdf, xs))


def test_tabulated_round_trip_is_exact_on_arrays(gaussian, tmp_path):
    path = tmp_path / "tilted.json"
    write_tabulated(tilt(gaussian.model, 2.0, LOCATION), path)
    copy, _ = load_family_spec(path)
    # inside the grid, beyond it (linear tails) and on its nodes
    xs = np.concatenate([np.linspace(-40.0, 40.0, 401) + 0.0137, [-8.0, 0.0, 8.0]])
    assert np.array_equal(copy.log_pdf(xs), scalar_values(copy.log_pdf, xs))
    assert np.array_equal(eval_dlogf(copy, xs), scalar_values(lambda x: eval_dlogf(copy, x), xs))


def test_log_pdf_is_minus_inf_outside_the_support(gamma2):
    xs = np.array([-2.0, -0.0, 0.0, 1.0, math.inf, math.nan])
    out = gamma2.model.log_pdf(xs)
    assert np.isneginf(out[[0, 1, 2, 4, 5]]).all() and np.isfinite(out[3])
    assert [gamma2.model.log_pdf(float(x)) for x in xs[[0, 1, 2]]] == [-math.inf] * 3


@pytest.mark.parametrize("name,params,x", [
    ("gumbel", {}, -800.0),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0}, 800.0),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 2.0}, 1e308),
    ("weibull", {"k": 2.0}, 1e200),
    ("weibull", {"k": 3.0}, 1e200),
    ("gaussian", {}, 1e200),
    ("student", {"nu": 3.0}, 1e200),
    ("sinh_arcsinh_skew_normal", {}, -1e200),
])
def test_overflow_gives_infinities_without_warnings(name, params, x):
    entry = lookup(name, params)
    model = entry.model
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for point in (x, np.array([x, 1.0])):
            log_f = np.asarray(model.log_pdf(point)).ravel()[0]
            if name == "student":
                # its log-density stays finite where x^2 overflows (50-digit mpmath)
                assert log_f == pytest.approx(-1840.8717386675238375, rel=1e-14)
            else:
                assert np.isneginf(log_f)
            assert not np.isnan(model.dlog_pdf(point)).any()
            for score in entry.analytic_scores.values():
                assert not np.isnan(score(point)).any()


def test_odd_power_overflows_without_warnings():
    h = h_function(OddPower(1.0, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = h(np.array([-1e200, 1e200, 2.0]))
        # a float overflows to an infinity as an array does, without OverflowError
        floats = [h(-1e200), h(1e200), h(2.0)]
    assert np.array_equal(got, [-math.inf, math.inf, 8.0])
    assert floats == [-math.inf, math.inf, 8.0]
    assert all(isinstance(value, float) for value in floats)


def test_table_tails_overflow_without_warnings(forged_pair, gaussian, tmp_path):
    path = tmp_path / "tilted.json"
    write_tabulated(tilt(gaussian.model, 2.0, LOCATION), path)
    tabulated, _ = load_family_spec(path)
    xs = np.array([-1e307, 1e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model in (forged_pair[0], tabulated):
            assert np.array_equal(model.log_pdf(xs), scalar_values(model.log_pdf, xs))


def test_scalar_only_callables_give_the_same_results(gaussian, logistic, sinh_arcsinh):
    # each pair differs only in whether its callables accept arrays
    model = logistic.model
    scalar_model = DensityModel("logistic-scalar", model.support,
                                scalar_only(model.log_pdf),
                                dlog_pdf=scalar_only(model.dlog_pdf), normalized=True)
    sample = Sample(np.array([-1.3, 0.2, 0.9, 2.4, 3.0]))
    assert mle(scalar_model, LOCATION, sample) == mle(model, LOCATION, sample)
    # the solver coordinate map may be scalar-only too; the seed takes the block
    scalar_scale = Kind(u1=scalar_only(SCALE.u1), u2=SCALE.u2, h=scalar_only(SCALE.h),
                        theta_window=SCALE.theta_window, seed=SCALE.seed,
                        to_theta=scalar_only(SCALE.to_theta))
    assert mle(gaussian.model, scalar_scale, sample).theta_hat == \
        mle(gaussian.model, SCALE, sample).theta_hat

    tr = sinh_arcsinh.transform
    scalar_tr = Kind(u1=scalar_only(tr.u1), u2=scalar_only(tr.u2), h=scalar_only(tr.h),
                     theta_window=tr.theta_window)
    base = sinh_arcsinh.model
    assert mle(base, scalar_tr, sample).theta_hat == mle(base, tr, sample).theta_hat
    xs = np.linspace(-5.0, 5.0, 51) + 0.0137
    by_scalar, by_array = tilt(base, 2.0, scalar_tr), tilt(base, 2.0, tr)
    assert np.array_equal(by_scalar.log_pdf(xs), by_array.log_pdf(xs))
    assert np.array_equal(by_scalar.dlog_pdf(xs), by_array.dlog_pdf(xs))

    w, w_prime = (lambda y: 0.1 * np.cos(y)), (lambda y: -0.1 * np.sin(y))
    scalar_forge = forge_odd_h(gaussian.model, PlusEvenDerivative(scalar_only(w),
                                                                  scalar_only(w_prime)))
    array_forge = forge_odd_h(gaussian.model, PlusEvenDerivative(w, w_prime))
    assert np.array_equal(scalar_forge.log_pdf(xs), array_forge.log_pdf(xs))
    assert np.array_equal(scalar_forge.dlog_pdf(xs), array_forge.dlog_pdf(xs))


@pytest.mark.parametrize("log_pdf,dlog_pdf", [
    (lambda x: -math.log(math.cosh(x)), lambda x: -math.tanh(x)),
    # a truth-value callable takes a 0-d array and rejects a longer one
    (lambda x: -abs(x), lambda x: -1.0 if x > 0 else 1.0),
])
def test_one_solve_scores_floats_then_arrays(log_pdf, dlog_pdf):
    # what the first call finds about a callable decides nothing for the next
    model = DensityModel("scalar-only", SupportSet.full_line(), log_pdf, dlog_pdf=dlog_pdf)
    scorer = Scorer(model, LOCATION)
    first = scorer.at(1.0)
    assert scorer.at(np.array([1.0, -2.0])).tolist() == [first, scorer.at(-2.0)]
    assert scorer.at(np.array([0.5])).tolist() == [-dlog_pdf(0.5)]


def test_integer_arrays_give_the_float_arrays_bits(gaussian, gamma2):
    # 10**10 squared overflows int64; every entry point takes float64 first
    ints = np.array([1, 3, 10 ** 10])
    floats = ints.astype(float)
    for model in (gaussian.model, gamma2.model):
        assert np.array_equal(model.log_pdf(ints), model.log_pdf(floats))
        assert np.array_equal(eval_dlogf(model, ints), eval_dlogf(model, floats))
        assert np.array_equal(kind_score(model, SCALE, ints), kind_score(model, SCALE, floats))
    assert np.array_equal(gamma2.model.log_pdf(-ints), gamma2.model.log_pdf(-floats))
    assert np.array_equal(kind_score(gaussian.model, LOCATION, ints),
                          kind_score(gaussian.model, LOCATION, floats))
