import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import gamma as gamma_fn

from mlechar import OddPower, PlusEvenDerivative, forge_odd_h, lookup, normalize, sample_from
from mlechar import density
from mlechar.catalog import kind_for
from mlechar.density import (
    DensityModel,
    InverseCdfSampler,
    Sample,
    SupportSet,
    check_dlog_pdf,
    compact_grid,
    distinct,
    eval_dlogf,
    log_mass,
    median,
    quiet_overflow,
    tabulated_model,
    _Table,
)
from mlechar.equivalence import tilt, tilt_with_spec
from mlechar.errors import DivergentIntegral, InvalidParams, OutsideSupport
from mlechar.score import LOCATION, SCALE
from mlechar.specfiles import load_family_spec, write_tabulated

# frozen with an independent quadrature oracle (see test_quartic_normalizer):
# integral of exp(-x^4/4) over R equals 2**(-1/2) * Gamma(1/4)
QUARTIC_C = 0.39006225108940673


VALUES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, -0.0, 1.0])


@given(rows=st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(st.lists(VALUES, min_size=n, max_size=n), min_size=1, max_size=5)))
@settings(max_examples=200, deadline=None)
def test_median_gives_the_values_of_numpy_median(rows):
    a = np.array(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.median(a, axis=-1)
        # where np.median overflows adding two finite middle values, the
        # median is the mean of their halves
        halved = 2.0 * np.median(a / 2.0, axis=-1)
        want = np.where(np.isinf(want) & np.isfinite(halved), halved, want)
        assert np.array_equal(median(a), want, equal_nan=True)
        assert np.array_equal(median(a[0]), want[0], equal_nan=True)


def test_median_of_two_middle_values_whose_sum_overflows():
    with np.errstate(over="raise"):
        assert median(np.array([[1e308, 1.5e308]])).tolist() == [1.25e308]
        assert median(np.array([-1.7e308, -1.5e308, -1.2e308, -1.6e308])) == -1.55e308


@pytest.mark.parametrize("n", [2, 4, 10, 1000])
def test_median_gives_numpy_medians_across_the_float_range(n):
    rng = np.random.default_rng(n)
    rows = rng.choice([-1.0, 1.0], (50, n)) * 10.0 ** rng.uniform(-300.0, 300.0, (50, n))
    assert np.array_equal(median(rows), np.median(rows, axis=-1))


@given(values=st.lists(st.integers(min_value=-3, max_value=3) | st.sampled_from([0.5, -0.0]),
                       min_size=1, max_size=12))
def test_distinct_gives_the_values_of_numpy_unique(values):
    assert np.array_equal(distinct(np.array(values)), np.unique(values))


def test_support_membership():
    full = SupportSet.full_line()
    assert full.contains(-1e300) and full.contains(0.0)
    pos = SupportSet.positive_half_line()
    assert pos.contains(1e-12) and not pos.contains(0.0) and not pos.contains(-1.0)
    iv = SupportSet.open_interval(-1.0, 2.0)
    assert iv.contains(0.0) and not iv.contains(-1.0) and not iv.contains(2.0)


def test_support_shapes():
    for lower, upper, kind in [(-math.inf, math.inf, "full_line"),
                               (0.0, math.inf, "positive_half_line"),
                               (-math.inf, 0.0, "negative_half_line"),
                               (-1.0, 2.0, "open_interval")]:
        assert SupportSet(lower, upper).kind == kind
    # a half-line off the origin has no grid that treats it as unbounded
    for lower, upper in [(1.0, math.inf), (-math.inf, 3.0)]:
        with pytest.raises(InvalidParams, match="half-line"):
            SupportSet(lower, upper)
    with pytest.raises(InvalidParams):
        SupportSet.open_interval(0.0, math.inf)


def test_support_membership_on_arrays():
    pos = SupportSet.positive_half_line()
    xs = np.array([[-1.0, 0.0, 1e-12], [np.inf, np.nan, 3.0]])
    assert pos.contains(xs).tolist() == [[False, False, True], [False, False, True]]
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


def test_normalize_infinite_log_density():
    spike = DensityModel("spike", SupportSet.full_line(),
                         lambda x: np.where(np.abs(x) < 1.0, np.inf, -x * x)[()])
    with pytest.raises(DivergentIntegral, match="not finite and positive"):
        normalize(spike)


def test_normalize_overflowing_density():
    # a tabulated log-density with a rising end slope grows past exp's range
    rising = tabulated_model(SupportSet.full_line(), [0.0, 1.0, 2.0, 3.0],
                             [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(DivergentIntegral):
        normalize(rising)


def _scan_case(name, tmp_path):
    """A normalized model of each construction the scan handover meets."""
    if name == "location tilt":
        return tilt(lookup("gaussian").model, 3.0, LOCATION)
    if name == "half-line scale tilt":
        return tilt(lookup("gamma", {"alpha": 2.0}).model, 0.5, SCALE)
    if name == "group tilt":
        entry = lookup("sinh_arcsinh_skew_normal")
        return tilt(entry.model, 2.0, entry.transform)
    if name == "forge":
        return forge_odd_h(lookup("logistic").model, OddPower(1.0, 3))
    if name in ("loaded file", "tabulated tilt"):
        write_tabulated(tilt(lookup("weibull", {"k": 2.0}).model, 2.0, SCALE),
                        tmp_path / "tilt.json")
        loaded = load_family_spec(tmp_path / "tilt.json")[0]
        if name == "loaded file":
            return loaded
        # log_mass cuts a tabulated tilt at its breaks: neither it nor its
        # base is scanned
        tilted = tilt(loaded, 2.0, SCALE)
        assert loaded.breaks.size and "scan" not in vars(loaded)
        return tilted
    if name == "tilt of -inf and NaN":
        # the base is -inf on the outer scan nodes and NaN on three inner ones
        nan_nodes = density.scan_grid(SupportSet.full_line())[[1000, 2048, 3000]]
        base = DensityModel("-inf and NaN", SupportSet.full_line(), quiet_overflow(
            lambda x: np.where(np.isin(x, nan_nodes), np.nan, -np.exp(0.5 * x * x))[()]))
        assert np.isnan(base.log_pdf(nan_nodes)).all()
        entry = lookup("sinh_arcsinh_skew_normal")
        return tilt(base, 2.0, entry.transform)
    # exp(x^2/2) overflows past |x| = 37.7: -inf on the outer scan nodes
    raw = DensityModel("-inf tails", SupportSet.full_line(),
                       quiet_overflow(lambda x: -np.exp(0.5 * x * x)))
    assert np.isinf(raw.scan[1]).sum() > 10
    return normalize(raw)[1]


@pytest.mark.parametrize("name", ["location tilt", "half-line scale tilt", "group tilt",
                                  "forge", "loaded file", "-inf at scan nodes",
                                  "tilt of -inf and NaN", "tabulated tilt"])
def test_normalized_copy_takes_the_scan_of_its_model_plus_the_shift(name, tmp_path):
    # the copy's scan is the raw model's plus the shift, and equals a fresh
    # scan of the copy to the bit; tilts of a base without breaks and the
    # -inf model are handed their scan as they are built (log_mass cuts the
    # raw model at its scan's mode), forges, loaded files and tilts of them
    # (cut at their breaks) scan their own, and a model that has its scan
    # hands it over when it is normalized again
    model = _scan_case(name, tmp_path)
    handed = "scan" in vars(model)
    assert handed == (name in ("location tilt", "half-line scale tilt", "group tilt",
                               "-inf at scan nodes", "tilt of -inf and NaN"))
    raw = dataclasses.replace(model, normalized=False)
    raw.scan
    shift = -log_mass(raw)
    _, copy = normalize(raw)
    assert "scan" in vars(copy)
    for normalized in (model, copy):
        fresh = dataclasses.replace(normalized).scan
        for kept, anew in zip(normalized.scan, fresh):
            assert kept.tobytes() == anew.tobytes()
    xs, vals = raw.scan
    assert copy.scan[0] is xs
    assert copy.scan[1].tobytes() == (vals + shift).tobytes()


def test_a_scan_is_kept_read_only_and_a_replace_copy_scans_anew(gaussian):
    model = dataclasses.replace(gaussian.model)
    xs, vals = model.scan
    assert model.scan[1] is vals
    assert not xs.flags.writeable and not vals.flags.writeable
    with pytest.raises(ValueError):
        vals[0] = 0.0
    with pytest.raises(ValueError):
        xs[0] = 0.0
    # a copy with another log-density keeps nothing of the model's scan but
    # the grid of their common support
    wider = dataclasses.replace(model, log_pdf=lambda x: -0.125 * x * x)
    assert wider.scan[0] is xs and wider.scan[1] is not vals
    assert (wider.scan[1] > vals).any()
    assert dataclasses.replace(model).scan[1] is not vals


def _lbeta(a, b):
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _sinh_arcsinh_log_mass(d):
    # int (1 + x^2)^((d - 1)/2) exp(-d x^2/2) dx = sqrt(pi) U(1/2, d/2 + 1, d/2)
    with mpmath.workdps(30):
        return float(0.5 * mpmath.log(mpmath.pi) - 0.5 * d * mpmath.log(2 * mpmath.pi)
                     + mpmath.log(mpmath.hyperu(0.5, 0.5 * d + 1, 0.5 * d)))


# log of the mass of the unnormalized tilt, d log f plus (d - 1) log|u1|, of
# each family, in closed form
TILT_LOG_MASS = {
    ("gaussian", LOCATION): lambda d: 0.5 * (1.0 - d) * math.log(2.0 * math.pi)
    - 0.5 * math.log(d),
    ("logistic", LOCATION): lambda d: _lbeta(d, d),
    ("gumbel", LOCATION): lambda d: math.lgamma(d) - d * math.log(d),
    ("gamma", SCALE): lambda d: math.lgamma(2.0 * d) - 2.0 * d * math.log(d),
    ("weibull", SCALE): lambda d: (d - 1.0) * math.log(2.0) + math.lgamma(d) - d * math.log(d),
    ("sinh_arcsinh_skew_normal", lookup("sinh_arcsinh_skew_normal").transform):
    _sinh_arcsinh_log_mass,
}
TILT_PARAMS = {"gamma": {"alpha": 2.0}, "weibull": {"k": 2.0}}


@pytest.mark.parametrize("family,kind", list(TILT_LOG_MASS), ids=lambda v: getattr(v, "label", v))
@pytest.mark.parametrize("d", [0.25, 0.5, 2.0, 5.0, 8.0])
def test_tilt_normalizers_match_closed_forms(family, kind, d):
    model = lookup(family, TILT_PARAMS.get(family, {})).model
    _, normalizer = tilt_with_spec(model, d, kind)
    exact = TILT_LOG_MASS[family, kind](d)
    assert abs(-math.log(normalizer) - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("d", [1e-3, 0.25, 1000.0, 1e4])
def test_gaussian_location_tilts_normalize_at_extreme_exponents(gaussian, d):
    # the tilt is N(0, 1/d); at d >= 1000 its unnormalized values underflow
    tilted = tilt(gaussian.model, d, LOCATION)
    unnormalized = d * float(gaussian.model.log_pdf(0.0))
    assert abs(tilted.log_pdf(0.0) - 0.5 * math.log(d / (2.0 * math.pi))) \
        <= 1e-15 * max(1.0, abs(unnormalized))


def gauss_legendre_log_mass(model: DensityModel) -> float:
    """Oracle: 24-point Gauss-Legendre on each cell between the model's
    breaks, and QUADPACK on the two pieces beyond them."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    b = model.breaks
    mid, half = 0.5 * (b[1:] + b[:-1]), 0.5 * (b[1:] - b[:-1])
    values = model.log_pdf(mid[:, None] + half[:, None] * nodes)
    peak = values.max()
    cells = float(((np.exp(values - peak) * weights).sum(axis=1) * half).sum())
    f = lambda x: math.exp(model.log_pdf(x) - peak)
    tails = (quad(f, model.support.lower, b[0], epsabs=0.0, epsrel=1e-13, limit=400)[0]
             + quad(f, b[-1], model.support.upper, epsabs=0.0, epsrel=1e-13, limit=400)[0])
    return peak + math.log(cells + tails)


def _forged(name, h_spec):
    return lambda: forge_odd_h(lookup(name).model, h_spec)


# 17 nodes of 3 - x^2/2, continued linearly beyond +-2
COARSE_X = np.linspace(-2.0, 2.0, 17)
COARSE_LOG_PDF = 3.0 - 0.5 * COARSE_X ** 2


def _coarse_table():
    return tabulated_model(SupportSet.full_line(), COARSE_X, COARSE_LOG_PDF)


@pytest.mark.parametrize("build,bound", [
    (_forged("gaussian", OddPower(1.0, 3)), 1e-11),
    # its cumulative integral grows to about 7e5 away from the anchor, so a
    # table summed from one end would lose digits near the mode
    (_forged("gaussian", OddPower(1.0, 5)), 1e-13),
    (_forged("logistic", PlusEvenDerivative(w=lambda y: 0.1 * math.cos(y),
                                            w_prime=lambda y: -0.1 * math.sin(y))), 1e-11),
    (_coarse_table, 1e-11),
], ids=["forged gaussian p=3", "forged gaussian p=5", "forged logistic cos",
        "coarse table"])
def test_table_backed_masses_match_a_gauss_legendre_oracle(build, bound):
    # QUADPACK reports convergence on these models but is off by up to 3e-8:
    # the tables are only once differentiable at their nodes
    model = build()
    assert model.breaks.size >= 17
    assert abs(log_mass(model) - gauss_legendre_log_mass(model)) <= bound


def test_tabulated_load_normalizes_with_its_exponential_tails(tmp_path):
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps({"tabulated": {
        "support": "full_line", "grid": COARSE_X.tolist(), "log_pdf": COARSE_LOG_PDF.tolist()}}))
    model, _ = load_family_spec(path)
    # each linear continuation carries exp(log f(+-2)) / |slope| of the mass
    assert 2.0 * math.exp(model.log_pdf(2.0)) / abs(model.dlog_pdf(2.0)) > 1e-2
    assert abs(gauss_legendre_log_mass(model)) <= 1e-11
    assert abs(log_mass(model)) <= 1e-13


@pytest.mark.parametrize("family,params,d", [
    ("student", {"nu": 1.0}, 0.4),
    ("student", {"nu": 3.0}, 0.25),
])
def test_heavy_tailed_tilts_without_mass_raise(family, params, d):
    # tails of order |x|^-0.8 and |x|^-1 carry infinite mass
    with pytest.raises(DivergentIntegral):
        tilt(lookup(family, params).model, d, LOCATION)


#: log_mass of the raw tilts and forged densities the construction benchmark
#: normalizes, as float.hex, from the level-by-level rule before its first
#: halvings were batched into one log-density call; a batch that changed the
#: nodes, their order or the summation would move these bits.  The values
#: are numpy's AVX-512 loops'; TILT_LOG_MASS_BITS_AVX2 holds the ones its
#: AVX2 loops round differently
TILT_LOG_MASS_BITS = [
    ("gaussian", "location", 0.25, "0x1.61e1c2aa2e47cp+0"),
    ("gaussian", "location", 0.5, "0x1.9cb1a63af7c52p-1"),
    ("gaussian", "location", 2.0, "-0x1.43f89a3f0edd6p+0"),
    ("gaussian", "location", 5.0, "-0x1.1ec0123301100p+2"),
    ("gaussian", "location", 8.0, "-0x1.de3a01f2711bap+2"),
    ("logistic", "location", 0.25, "0x1.007896f87868cp+1"),
    ("logistic", "location", 0.5, "0x1.250d048e7a1bcp+0"),
    ("logistic", "location", 2.0, "-0x1.cab0bfa2a2003p+0"),
    ("logistic", "location", 5.0, "-0x1.9c86ac6bdc2a6p+2"),
    ("logistic", "location", 8.0, "-0x1.5b2a966240e2dp+3"),
    ("gumbel", "location", 0.25, "0x1.a274e417ffd77p+0"),
    ("gumbel", "location", 0.5, "0x1.d67f1c864beb4p-1"),
    ("gumbel", "location", 2.0, "-0x1.62e42fefa39efp+0"),
    ("gumbel", "location", 5.0, "-0x1.379feb79fda04p+2"),
    ("gumbel", "location", 8.0, "-0x1.038828b498ab7p+3"),
    ("gamma", "scale", 0.25, "0x1.43f89a3f0edd4p+0"),
    ("gamma", "scale", 0.5, "0x1.62e42fefa39f0p-1"),
    ("gamma", "scale", 2.0, "-0x1.f62f40794a7b9p-1"),
    ("gamma", "scale", 5.0, "-0x1.a57255103e2c4p+1"),
    ("gamma", "scale", 8.0, "-0x1.57cb760de0e82p+2"),
    ("weibull", "scale", 0.25, "0x1.1d5f521e227bcp+0"),
    ("weibull", "scale", 0.5, "0x1.250d048e7a1bep-1"),
    ("weibull", "scale", 2.0, "-0x1.62e42fefa39f0p-1"),
    ("weibull", "scale", 5.0, "-0x1.0c5ba70457a19p+1"),
    ("weibull", "scale", 8.0, "-0x1.a1114eef0457ap+1"),
    ("sinh_arcsinh_skew_normal", "group", 0.25, "0x1.001ba56458245p+0"),
    ("sinh_arcsinh_skew_normal", "group", 0.5, "0x1.3c9bc6c55756ep-1"),
    ("sinh_arcsinh_skew_normal", "group", 2.0, "-0x1.1539084ec0bffp+0"),
    ("sinh_arcsinh_skew_normal", "group", 5.0, "-0x1.03f3ebc4536c6p+2"),
    ("sinh_arcsinh_skew_normal", "group", 8.0, "-0x1.bbc6c05b8a335p+2"),
]
TILT_LOG_MASS_BITS_AVX2 = {
    ("gamma", 2.0): "-0x1.f62f40794a7b7p-1",
    ("gamma", 5.0): "-0x1.a57255103e2c3p+1",
}
FORGE_LOG_MASS_BITS = [
    ("gaussian", "odd-power p=3", "0x1.e205983115ca5p-1"),
    ("gaussian", "odd-power p=5", "0x1.d55ff4f4e5449p-1"),
    ("gaussian", "cos-perturbation", "0x1.eb2a2cfcd4bcbp-1"),
    ("logistic", "odd-power p=3", "0x1.c43c50f041a31p+0"),
    ("logistic", "odd-power p=5", "0x1.ebd926f96d89cp+0"),
    ("logistic", "cos-perturbation", "0x1.72363021a48adp+0"),
]
FORGE_SPECS = {
    "odd-power p=3": OddPower(1.0, 3),
    "odd-power p=5": OddPower(1.0, 5),
    "cos-perturbation": PlusEvenDerivative(w=lambda y: 0.1 * math.cos(y),
                                           w_prime=lambda y: -0.1 * math.sin(y)),
}


def _normalized_log_mass(monkeypatch, build) -> float:
    """The log mass the last ``normalize`` inside ``build()`` took."""
    seen = []

    def record(model):
        seen.append(log_mass(model))
        return seen[-1]

    monkeypatch.setattr(density, "log_mass", record)
    build()
    return seen[-1]


@pytest.mark.parametrize("family,label,d,bits", TILT_LOG_MASS_BITS)
def test_tilt_log_masses_keep_their_bits(monkeypatch, avx512, family, label, d, bits):
    entry = lookup(family, TILT_PARAMS.get(family, {}))
    build = lambda: tilt(entry.model, d, kind_for(entry, label))
    if not avx512:
        bits = TILT_LOG_MASS_BITS_AVX2.get((family, d), bits)
    assert _normalized_log_mass(monkeypatch, build).hex() == bits


@pytest.mark.parametrize("target,spec,bits", FORGE_LOG_MASS_BITS)
def test_forged_log_masses_keep_their_bits(monkeypatch, target, spec, bits):
    build = lambda: forge_odd_h(lookup(target).model, FORGE_SPECS[spec])
    assert _normalized_log_mass(monkeypatch, build).hex() == bits


def test_a_mass_that_never_settles_keeps_its_message():
    with pytest.raises(DivergentIntegral) as info:
        tilt(lookup("student", {"nu": 1.0}).model, 0.4, LOCATION)
    assert str(info.value) == ("mass of student(nu=1)~tilt(d=0.4,location) did not "
                               "settle in 10 step halvings")


@given(k=st.floats(min_value=-300.0, max_value=300.0),
       base=st.sampled_from(["gaussian", "gumbel", "coarse table"]))
@settings(max_examples=60, deadline=None)
def test_a_constant_added_to_the_log_density_moves_log_c_by_minus_it(k, base):
    model = _coarse_table() if base == "coarse table" else lookup(base).model
    shifted = DensityModel("shifted", model.support, lambda x: model.log_pdf(x) + k,
                           breaks=model.breaks)
    c, _ = normalize(model)
    c_shifted, _ = normalize(shifted)
    assert abs((math.log(c_shifted) - math.log(c)) + k) <= 1e-13


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


def numeric_cdf(model: DensityModel, x: float) -> float:
    """CDF value by QUADPACK quadrature, independent of the sampling grid."""
    lo = model.support.lower
    if x <= lo:
        return 0.0
    if x >= model.support.upper:
        return 1.0
    return quad(lambda y: math.exp(model.log_pdf(y)), lo, x, epsabs=1e-9,
                epsrel=1e-10, limit=400)[0]


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


def test_one_sampler_or_one_per_call_draws_the_same_rows(gaussian):
    model = gaussian.model
    sampler = InverseCdfSampler(model)
    once = sample_from(model, 50, seed=5).values
    assert np.array_equal(once, InverseCdfSampler(model).draw([(5, [50])]).flat)
    assert np.array_equal(once, sampler.draw([(5, [50])]).flat)
    assert np.array_equal(once, sampler.draw([(4, [50]), (5, [50])]).flat[50:])
    # runs of several rows and seeds, inverted in one call, cut the same rows
    flat, lengths = sampler.draw([(4, [20, 30]), (5, [10, 40])])
    assert lengths.tolist() == [20, 30, 10, 40]
    assert np.array_equal(flat[50:], once) and np.array_equal(flat[:50],
                                                              sampler.draw([(4, [50])]).flat)
    empty = sampler.draw([])
    assert empty.lengths.size == 0 and empty.flat.size == 0
    # drawing leaves the model as it was: no sampler is kept on it
    assert not any(isinstance(v, InverseCdfSampler) for v in vars(model).values())


def test_a_negative_seed_or_size_is_refused(gaussian):
    sampler = InverseCdfSampler(gaussian.model)
    for call in (lambda: sample_from(gaussian.model, 5, -1),
                 lambda: sampler.draw([(3, [5]), (-2, [5])]),
                 lambda: sampler.draw([(-1, [3])]),
                 lambda: sampler.draw([(1, [3, -2])]),
                 lambda: sampler.draw([(1, [3]), (2, [-1, 4])])):
        with pytest.raises(InvalidParams, match="^sampler seeds and sizes must be >= 0$"):
            call()
    # a size of 0 draws an empty row
    rows = sampler.draw([(1, [0, 2]), (0, [])])
    assert rows.lengths.tolist() == [0, 2] and rows.flat.size == 2


@pytest.mark.parametrize("call", [
    lambda sampler: sampler.draw([(1, [2.5])]),
    lambda sampler: sampler.draw([(1, [True])]),
    lambda sampler: sampler.draw([(1.5, [3])]),
    lambda sampler: sampler.draw([(np.float64(1.0), [3])]),
], ids=["size_2.5", "n_true", "seed_1.5", "seed_numpy_float"])
def test_a_sampler_count_or_seed_that_is_no_integer_is_refused(gaussian, call):
    sampler = InverseCdfSampler(gaussian.model)
    with pytest.raises(InvalidParams, match="^counts and seeds must be integers"):
        call(sampler)
    # numpy integers are integers
    assert sampler.draw([(np.uint32(1), [np.int64(3)])]).flat.shape == (3,)


def test_sample_from_refuses_a_seed_that_is_no_integer(gaussian):
    # 1.5 drew seed 1's sample
    with pytest.raises(InvalidParams, match="got 1.5"):
        sample_from(gaussian.model, 3, 1.5)


@pytest.mark.parametrize("lower", [None, "a", "0.5"])
def test_support_bounds_that_are_no_real_numbers_are_refused(lower):
    with pytest.raises(InvalidParams, match="invalid support bounds"):
        SupportSet(lower, 1.0)


def test_sample_requires_normalized(quartic_unnormalized):
    with pytest.raises(ValueError):
        sample_from(quartic_unnormalized, 10, seed=1)


def test_sample_container_validation(gaussian, gamma2):
    with pytest.raises(ValueError):
        Sample(np.array([]))
    s = Sample(np.array([1.0, 2.0]))
    gaussian.model.support.require(s.values)
    with pytest.raises(OutsideSupport):
        gamma2.model.support.require(Sample(np.array([-1.0, 2.0])).values)


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


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    start = draw(st.floats(min_value=-50.0, max_value=50.0))
    steps = draw(st.lists(st.floats(min_value=1e-3, max_value=10.0), min_size=n - 1,
                          max_size=n - 1))
    x = start + np.concatenate([[0.0], np.cumsum(steps)])
    assume((np.diff(x) > 0).all())
    y = np.array(draw(st.lists(st.floats(min_value=-50.0, max_value=50.0),
                               min_size=n, max_size=n)))
    ends = draw(st.none() | st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
    return x, y, ends


@given(table=tables(), points=st.lists(st.floats(min_value=-200.0, max_value=200.0),
                                       min_size=1, max_size=20))
@example(table=(np.arange(8.0), np.array([0.0] * 7 + [2.2e-311]), None),
         points=[-1.0, 3.5, 6.5, 7.0, 9.0])
@settings(max_examples=200, deadline=None)
def test_table_is_pchip_inside_and_linear_outside(table, points):
    x, y, ends = table
    t = _Table(x, y, ends)
    # scipy's PCHIP warns where a secant slope is subnormal: its harmonic
    # mean of slopes overflows
    with np.errstate(over="ignore"):
        interp = PchipInterpolator(x, y, extrapolate=False)
    if ends is None:
        ends = tuple(float(v) for v in interp.derivative()((x[0], x[-1])))
    p = np.array(points)
    got = t(p)
    below, above = p < x[0], p > x[-1]
    inside = ~(below | above)
    assert np.array_equal(got[inside], interp(p[inside]))
    assert np.array_equal(got[below], y[0] + ends[0] * (p[below] - x[0]))
    assert np.array_equal(got[above], y[-1] + ends[1] * (p[above] - x[-1]))
    assert [t(float(v)) for v in p] == got.tolist()
    slope = t.derivative(p)
    assert np.array_equal(slope[inside], interp.derivative()(p[inside]))
    assert (slope[below] == ends[0]).all() and (slope[above] == ends[1]).all()


def test_table_gives_a_float_the_values_of_the_array_path_bit_for_bit():
    x = np.array([-3.0, -1.0, 0.5, 2.0, 2.5, 7.0])
    t = _Table(x, np.array([0.3, -1.2, 4.0, 2.2, 2.1, -5.0]))
    below, above = [-1e6, -3.5, np.nextafter(-3.0, -4.0)], [np.nextafter(7.0, 8.0), 9.0, 1e300]
    inside = (x[:-1] + np.diff(x) * np.array([[1e-9], [0.3], [0.5], [0.999]])).ravel()
    points = np.concatenate([below, x, inside, above])
    for fn in (t, t.derivative):
        values = fn(points)
        scalars = [fn(float(v)) for v in points]
        assert all(type(v) is float for v in scalars)
        assert np.array_equal(np.array(scalars), values)


def test_table_with_a_subnormal_secant_slope_builds_without_warnings():
    # the harmonic mean of the last two slopes overflows; pytest turns a
    # RuntimeWarning into an error
    model = tabulated_model(SupportSet.full_line(), np.arange(8.0), [0.0] * 7 + [2.2e-311])
    xs = np.array([-1.0, 0.5, 6.0, 6.5, 7.0, 8.0])
    assert np.isfinite(model.log_pdf(xs)).all()
    assert [model.log_pdf(float(v)) for v in xs] == model.log_pdf(xs).tolist()


def test_tabulated_model_rejects_bad_grids():
    xs = np.array([0.0, 1.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        tabulated_model(SupportSet.full_line(), xs, np.zeros(4))
    with pytest.raises(ValueError):
        tabulated_model(SupportSet.positive_half_line(),
                        np.array([-1.0, 0.5, 1.0, 2.0]), np.zeros(4))


# window ends keep |x| within [1e-2, 1e2]: far out x -> t -> x loses relative
# precision (cancellation in 1 - t^2), so the round trip below would not hold
# to 1e-12
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


def test_compact_grid_ends_round_trip():
    # grid ends go x -> t -> x and come back to round-off near the origin
    # too, where the effective-interval scan puts its inner ends (1e-7)
    for x in np.geomspace(1e-12, 1e2, 301):
        _, xs = compact_grid(SupportSet.full_line(), -x, x, 3)
        assert abs(xs[0] + x) <= 1e-13 * x and abs(xs[-1] - x) <= 1e-13 * x, x


@given(case=supports_and_windows(), points=st.sampled_from((41, 201, 401)))
@settings(max_examples=300, deadline=None)
# windows wholly beyond |x| = 8 and 20: same_class on N(20, 1) and its d=2
# tilt, and a half-line window far out
@example(case=(SupportSet.full_line(), (13.58, 26.69)), points=41)
@example(case=(SupportSet.positive_half_line(), (30.0, 60.0)), points=201)
def test_probe_and_compact_grids_stay_inside(case, points):
    support, (lo, hi) = case
    # every window the removed probe-grid half let through: all open-interval
    # windows, and full- and half-line windows wider than 1e-3 times the
    # smaller of 1 and their ends' magnitudes (empty ones such as (-1, -1)
    # stay out)
    assume(support.kind == "open_interval" or hi - lo > 1e-3 * min(1.0, abs(lo), abs(hi)))
    ts, xs = compact_grid(support, lo, hi, points)
    assert (np.diff(ts) > 0).all() and (np.diff(xs) > 0).all()
    assert all(support.contains(float(x)) for x in xs)
    assert abs(xs[0] - lo) <= 1e-12 * abs(lo) and abs(xs[-1] - hi) <= 1e-12 * abs(hi)
    # the effective-interval scan: infinite ends map to finite inner nodes
    _, xs = compact_grid(support, support.lower, support.upper, points, inset=1e-7)
    assert np.isfinite(xs).all() and (np.diff(xs) > 0).all()
    assert all(support.contains(float(x)) for x in xs)


@pytest.mark.parametrize("values,bad", [
    ([1.0, -2.0, 3.0], "-2.0"), ([1.0, math.nan], "nan"), ([0.0, 1.0], "0.0"),
    ([2.0, math.inf], "inf"),
])
def test_interior_checks_name_the_first_offending_value(gamma2, values, bad):
    # one min and one max decide interiority; a NaN fails both
    x = np.array(values)
    with pytest.raises(OutsideSupport, match=f"^x={bad} is not interior"):
        eval_dlogf(gamma2.model, x)
    with pytest.raises(OutsideSupport):
        gamma2.model.support.require(Sample(x).values)
    assert eval_dlogf(gamma2.model, np.empty(0)).shape == (0,)
