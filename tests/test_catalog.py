import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from mlechar import closed_form_mle, expected_mnss, lookup, mcss, mnss
from mlechar.errors import InvalidParams, NotCharacterizable, UnknownFamily
from mlechar.catalog import kind_for
from mlechar.density import InverseCdfSampler, Sample
from mlechar.estimator import ClosedForm
from mlechar.score import kind_profiles, u1_zeros
from mlechar.suite import DEFAULT_FAMILIES, build_profiles


def test_lookup_unknown_family():
    with pytest.raises(UnknownFamily):
        lookup("cauchy")  # spelled student(nu=1) here


@pytest.mark.parametrize("name,params", [
    ("gamma", {"alpha": -1.0}),
    ("gamma", {}),
    ("weibull", {"k": 0.0}),
    ("student", {"nu": -2.0}),
    ("generalized_gaussian", {"gamma": 0.0}),
    ("gaussian", {"mu": 1.0}),
    ("gamma", {"alpha": math.nan}),
    ("student", {"nu": math.inf}),
    ("gamma", {"alpha": "x"}),
    # constants beyond the float range: lgamma overflows, 1/nu overflows,
    # nu/2 underflows to 0
    ("student", {"nu": 1e308}),
    ("student", {"nu": 1e-320}),
    ("student", {"nu": 5e-324}),
    ("gamma", {"alpha": 1e308}),
    ("generalized_gaussian", {"alpha": 1e308, "gamma": 1.0}),
    # only real numbers: no JSON true or numeric string stands for one
    ("gamma", {"alpha": True}),
    ("gamma", {"alpha": "2"}),
    ("weibull", {"k": False}),
    ("generalized_gaussian", {"alpha": "1", "gamma": 1.0}),
    ("student", {"nu": None}),
    ("student", {"nu": [3.0]}),
    ("student", {"nu": 10 ** 400}),
    # the location bound alpha*|gamma| overflows
    ("generalized_gaussian", {"alpha": 1e300, "gamma": 1e300}),
])
def test_lookup_invalid_params(name, params):
    with pytest.raises(InvalidParams):
        lookup(name, params)


@pytest.mark.parametrize("alpha", [2, 2.0, np.float64(2.0), np.int64(2), np.float32(2.0)])
def test_lookup_accepts_python_and_numpy_reals(alpha):
    entry = lookup("gamma", {"alpha": alpha})
    assert entry.params == {"alpha": 2.0} and type(entry.params["alpha"]) is float


# each shape parameter from the smallest subnormal to the largest decades
EXTREMES = [5e-324, 1e-320, 1e-310] + [10.0 ** e for e in range(-300, 301, 25)] + [
    1e305, 1e306, 1e307, 1e308]


@pytest.mark.parametrize("name,key,sign,rest", [
    ("student", "nu", 1.0, {}),
    ("gamma", "alpha", 1.0, {}),
    ("weibull", "k", 1.0, {}),
    ("generalized_gaussian", "alpha", 1.0, {"gamma": 1.0}),
    ("generalized_gaussian", "gamma", 1.0, {"alpha": 1.0}),
    ("generalized_gaussian", "gamma", -1.0, {"alpha": 1.0}),
])
def test_extreme_shape_parameters_give_an_entry_or_invalid_params(name, key, sign, rest):
    xs = np.array([0.5, 1.0, 2.0])
    for value in EXTREMES:
        params = {**rest, key: sign * value}
        try:
            entry = lookup(name, params)
        except InvalidParams:
            continue
        assert not np.isnan(entry.model.log_pdf(xs)).any(), params
        assert not any(math.isnan(v) for v in entry.expected.values()), params


@pytest.mark.parametrize("nu", [1e4, 1e16, 1e100, 1e307])
def test_student_density_tends_to_the_gaussian(nu):
    # lgamma((nu + 1)/2) - lgamma(nu/2) loses every digit by nu = 1e16
    log_pdf = lookup("student", {"nu": nu}).model.log_pdf
    assert log_pdf(0.0) == pytest.approx(-0.5 * math.log(2.0 * math.pi), abs=1e-4)
    assert log_pdf(1.0) == pytest.approx(-0.5 - 0.5 * math.log(2.0 * math.pi), abs=1e-4)



#: Student points where a square of x, or its product with nu + 1, overflows
#: for some nu, and points where they underflow
STUDENT_XS = [0.0, 1e-320, -1e-320, 1.0, -1.0, 1e60, -1e60, 2e154, -2e154, 1e200, -1e200,
              1.7e308, -1.7e308]


@pytest.mark.parametrize("nu", [0.5, 1.0, 3.0, 5.0, 1e200])
def test_student_formulas_hold_to_the_float_limit(nu):
    mpmath = pytest.importorskip("mpmath")
    entry = lookup("student", {"nu": nu})
    formulas = {"log_pdf": entry.model.log_pdf, "dlog_pdf": entry.model.dlog_pdf,
                "scale": entry.analytic_scores["scale"]}
    with mpmath.workdps(50):
        v = mpmath.mpf(nu)
        # the two log-gammas are of size nu log(nu), so their difference
        # needs about log10 of that many more digits
        with mpmath.workdps(250):
            const = +(mpmath.loggamma((v + 1) / 2) - mpmath.loggamma(v / 2)
                      - mpmath.log(v * mpmath.pi) / 2)
        exact = {
            "log_pdf": lambda x: const - (v + 1) / 2 * mpmath.log1p(x * x / v),
            "dlog_pdf": lambda x: -(v + 1) * x / (v + x * x),
            "scale": lambda x: v * (1 - x * x) / (v + x * x),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name, formula in formulas.items():
                on_array = formula(np.array(STUDENT_XS))
                for x, got in zip(STUDENT_XS, on_array.tolist()):
                    want = exact[name](mpmath.mpf(x))
                    assert float(formula(x)) == got, (name, x)
                    assert math.isfinite(got), (name, x)
                    assert abs(got - want) <= max(1e-12 * abs(want), 1e-300), (name, x, got)

#: each default suite family and its model name; the CLI prints these names
#: and emitted spec files carry them
MODEL_NAMES = [
    ("gaussian", {}, "gaussian"),
    ("gamma", {"alpha": 0.5}, "gamma(alpha=0.5)"),
    ("gamma", {"alpha": 1.0}, "gamma(alpha=1)"),
    ("gamma", {"alpha": 2.0}, "gamma(alpha=2)"),
    ("gamma", {"alpha": 5.0}, "gamma(alpha=5)"),
    ("generalized_gaussian", {"alpha": 1.0, "gamma": 1.0},
     "generalized_gaussian(alpha=1,gamma=1)"),
    ("laplace", {}, "laplace"),
    ("weibull", {"k": 0.5}, "weibull(k=0.5)"),
    ("weibull", {"k": 1.0}, "weibull(k=1)"),
    ("weibull", {"k": 2.0}, "weibull(k=2)"),
    ("weibull", {"k": 3.0}, "weibull(k=3)"),
    ("gumbel", {}, "gumbel"),
    ("student", {"nu": 0.5}, "student(nu=0.5)"),
    ("student", {"nu": 1.0}, "student(nu=1)"),
    ("student", {"nu": 2.0}, "student(nu=2)"),
    ("student", {"nu": 3.0}, "student(nu=3)"),
    ("student", {"nu": 5.0}, "student(nu=5)"),
    ("logistic", {}, "logistic"),
    ("sinh_arcsinh_skew_normal", {}, "sinh_arcsinh_base"),
]


def test_model_names_cover_the_default_families():
    assert [(name, params) for name, params, _ in MODEL_NAMES] == \
        [(name, params) for name, params, _ in DEFAULT_FAMILIES]


@pytest.mark.parametrize("name,params,model_name", MODEL_NAMES,
                         ids=[model_name for _, _, model_name in MODEL_NAMES])
def test_catalog_models_are_named_normalized_and_own_their_params(name, params, model_name):
    entry = lookup(name, params)
    assert entry.model.name == model_name
    assert entry.model.normalized


def test_model_names_follow_the_parameter_order_of_the_family():
    entry = lookup("generalized_gaussian", {"gamma": -2.5, "alpha": 3.0})
    assert entry.model.name == "generalized_gaussian(alpha=3,gamma=-2.5)"
    assert list(entry.params) == ["alpha", "gamma"]
    assert lookup("generalized_gaussian").model.name == "generalized_gaussian(alpha=1,gamma=1)"


def test_lookup_headline_facts(gaussian, logistic):
    assert gaussian.expected["location"] == 3
    assert math.isinf(gaussian.expected["scale"])
    assert logistic.expected["location"] == 3
    assert lookup("student", {"nu": 0.5}).expected["scale"] == 3


@pytest.mark.parametrize("nu", [2 ** 53, 2 ** 60])
def test_student_scale_mnss_is_nu_plus_one_beyond_two_to_the_53(nu):
    # 1 + nu rounds back to nu from 2^53 on; the reference and the MCSS rule
    # on the analytic bounds both take nu + 1 in integer arithmetic
    entry = lookup("student", {"nu": float(nu)})
    assert entry.expected["scale"] == nu + 1
    assert mcss(*entry.analytic_bounds["scale"]).value == nu + 1


def test_blocked_kinds_and_reasons():
    assert lookup("gamma", {"alpha": 1.0}).blocked["location"] == "support"
    assert lookup("weibull", {"k": 1.0}).blocked["location"] == "support"
    assert lookup("laplace").blocked["location"] == "not_monotone"
    assert lookup("student", {"nu": 2.0}).blocked["location"] == "not_monotone"
    sas = lookup("sinh_arcsinh_skew_normal")
    assert sas.blocked["location"] == "not_monotone"
    assert sas.blocked["scale"] == "not_monotone"


def test_scale_identification_flags():
    assert lookup("gamma", {"alpha": 2.0}).needs_scale_identification
    assert lookup("weibull", {"k": 2.0}).needs_scale_identification
    for name in ("gaussian", "laplace", "logistic", "gumbel"):
        assert not lookup(name).needs_scale_identification
    assert not lookup("student", {"nu": 1.0}).needs_scale_identification
    assert not lookup("generalized_gaussian").needs_scale_identification


def test_expected_mnss_examples(gumbel, sinh_arcsinh):
    assert expected_mnss(lookup("student", {"nu": 1.0}), "scale").value == 3
    assert expected_mnss(sinh_arcsinh, "group").value == 3
    assert math.isinf(expected_mnss(gumbel, "location").value)
    with pytest.raises(NotCharacterizable):
        expected_mnss(gumbel, "group")
    with pytest.raises(NotCharacterizable):
        expected_mnss(lookup("gamma", {"alpha": 1.0}), "location")


@pytest.mark.parametrize("nu,value", [
    (0.5, 3), (1.0, 3), (2.0, 3), (3.0, 4), (5.0, 6), (2.5, 4), (0.25, 5),
])
def test_student_scale_mnss_rule(nu, value):
    assert lookup("student", {"nu": nu}).expected["scale"] == value


@pytest.mark.parametrize("name,params", [
    ("gaussian", {}),
    ("gamma", {"alpha": 0.5}),
    ("generalized_gaussian", {"alpha": 2.0, "gamma": -0.5}),
    ("laplace", {}),
    ("weibull", {"k": 3.0}),
    ("gumbel", {}),
    ("student", {"nu": 0.5}),
    ("logistic", {}),
])
def test_catalog_densities_integrate_to_one(name, params):
    model = lookup(name, params).model
    assert model.normalized

    def density(x):
        lp = model.log_pdf(x)
        return math.exp(lp) if lp > -700 else 0.0

    total, _ = quad(density, model.support.lower, model.support.upper,
                    epsabs=1e-10, limit=300)
    assert abs(total - 1.0) < 1e-7


_FLOW_CASES = [
    ("location", [-1.5, -0.3, 0.7, 2.0], np.linspace(-6.0, 6.0, 49)),
    ("scale", [0.5, 2.0, 10.0], np.concatenate([-np.geomspace(1e3, 1e-3, 25),
                                                np.geomspace(1e-3, 1e3, 25)])),
    ("group", [-1.5, -0.3, 0.7, 2.0], np.linspace(-6.0, 6.0, 49)),
]


@pytest.mark.parametrize("label,thetas,xs", _FLOW_CASES, ids=[c[0] for c in _FLOW_CASES])
def test_each_action_is_the_flow_of_its_u1(label, thetas, xs):
    from mlechar.score import LOCATION, SCALE

    kind = {"location": LOCATION, "scale": SCALE,
            "group": lookup("sinh_arcsinh_skew_normal").transform}[label]
    # h(theta, .) is the flow of u1, so its x-derivative is u1(h) / u1
    step = 1e-6 * np.maximum(1.0, np.abs(xs))
    up, down = xs + step, xs - step
    for theta in thetas:
        slope = (kind.h(theta, up) - kind.h(theta, down)) / (up - down)
        ratio = (np.asarray(kind.u1(kind.h(theta, xs)), dtype=float)
                 / np.asarray(kind.u1(xs), dtype=float))
        assert np.allclose(slope, ratio, rtol=1e-7, atol=0.0), (label, theta)


def test_analytic_scores_match_construction(gaussian, gamma2):
    from mlechar.score import LOCATION, SCALE, kind_score

    for x in np.linspace(-6.0, 6.0, 31):
        assert abs(kind_score(gaussian.model, LOCATION, float(x))
                   - gaussian.analytic_scores["location"](float(x))) < 1e-10
    for x in np.geomspace(0.05, 8.0, 31):
        assert abs(kind_score(gamma2.model, SCALE, float(x))
                   - gamma2.analytic_scores["scale"](float(x))) < 1e-10


_PIPELINE_CASES = [
    ("gaussian", {}, "location"),
    ("gaussian", {}, "scale"),
    ("gamma", {"alpha": 5.0}, "scale"),
    ("gumbel", {}, "location"),
    ("student", {"nu": 5.0}, "scale"),
    ("logistic", {}, "location"),
    ("sinh_arcsinh_skew_normal", {}, "group"),
]
# every other default (family, kind), appended so the ids above stay put
_PIPELINE_CASES += [(name, params, kind) for name, params, kinds in DEFAULT_FAMILIES
                    for kind in kinds if (name, params, kind) not in _PIPELINE_CASES]


@pytest.mark.parametrize("name,params,kind", _PIPELINE_CASES)
def test_numeric_pipeline_reproduces_expected_mnss(name, params, kind):
    entry = lookup(name, params)
    profiles = build_profiles(entry, kind)
    # one profile per monotone piece: two exactly when u1 vanishes inside
    interior = u1_zeros(kind_for(entry, kind), entry.model.support)
    assert isinstance(profiles, tuple)
    assert len(profiles) == (2 if interior else 1)
    computed = mnss(profiles, kind_for(entry, kind))
    expected = entry.expected[kind]
    if math.isinf(expected):
        assert math.isinf(computed.value)
    else:
        assert computed.value == expected


@pytest.mark.parametrize("name,params,kind,rtol", [
    *[("student", {"nu": nu}, "scale", 1e-12) for nu in (1.5e8, 1e10, 1e15, 1e20)],
    *[("gamma", {"alpha": alpha}, "scale", 1e-12) for alpha in (1e9, 1e11)],
    *[("generalized_gaussian", {"alpha": 1e9, "gamma": gam}, "location", 1e-8)
      for gam in (1.0, -1.0)],
])
def test_image_bounds_past_1e8_are_the_analytic_ones(name, params, kind, rtol):
    # a finite limit is where the tail walk settles, however large it is;
    # a walk that never settles heads for an infinite one
    entry = lookup(name, params)
    kind_ = kind_for(entry, kind)
    profiles = kind_profiles(entry.model, kind_)
    for prof in profiles:
        for got, want in zip((prof.p_minus, prof.p_plus), entry.analytic_bounds[kind]):
            assert got == want if math.isinf(want) else abs(got - want) <= rtol * want
    assert mnss(profiles, kind_).value == entry.expected[kind]


def test_gumbel_location_numeric_bounds(gumbel):
    (prof,) = build_profiles(gumbel, "location")
    assert math.isinf(prof.p_minus)
    assert abs(prof.p_plus - 1.0) < 1e-3


@pytest.mark.parametrize("nu", [0.5, 1.0, 2.0, 3.0, 5.0])
def test_student_scale_numeric_bounds(nu):
    entry = lookup("student", {"nu": nu})
    neg, pos = build_profiles(entry, "scale")
    for prof in (neg, pos):
        assert abs(prof.p_minus - nu) / nu < 1e-3
        assert abs(prof.p_plus - 1.0) < 1e-3


def test_sinh_arcsinh_factor_is_sqrt_1_plus_x_squared_without_overflow():
    from mlechar.catalog import _sqrt1p2
    x = np.concatenate([np.linspace(-30.0, 30.0, 601), [1e154, -1e155, 1e300, -1.7e308],
                        [math.inf, -math.inf]])
    got = _sqrt1p2(x)
    # within one rounding of np.hypot on finite values, and |x| where x^2
    # overflows
    want = np.hypot(1.0, x[:-2])
    assert np.all(np.abs(got[:-2] - want) <= np.spacing(want))
    assert got[-6:].tolist() == np.abs(x[-6:]).tolist()
    for value in (0.0, -3.0, 1e300, -math.inf):
        scalar = _sqrt1p2(value)
        assert np.ndim(scalar) == 0 and float(scalar) == float(got[np.flatnonzero(x == value)[0]])


#: each closed-form estimator of the default families: (name, params, kind)
CLOSED_FORMS = [(name, params, label) for name, params, _ in DEFAULT_FAMILIES
                for label in lookup(name, params).closed_form]


def test_closed_form_names_are_distinct():
    owners = {}
    for name, params, label in CLOSED_FORMS:
        formula, _ = lookup(name, params).closed_form[label]
        owners.setdefault(formula, set()).add((name, label))
    assert sorted(owners) == ["ferguson_location", "gamma_scale", "gaussian_location",
                              "gaussian_scale", "gumbel_location", "laplace_scale",
                              "weibull_scale"]
    assert all(len(cases) == 1 for cases in owners.values())


@pytest.mark.parametrize("n", [1, 2, 7])
@pytest.mark.parametrize("name,params,label", CLOSED_FORMS)
def test_each_closed_form_is_the_root_of_its_score_sum(name, params, label, n):
    entry = lookup(name, params)
    formula, _ = entry.closed_form[label]
    for row in InverseCdfSampler(entry.model).rows(n, list(range(5))):
        result = closed_form_mle(entry, kind_for(entry, label), Sample(row))
        assert result.method == ClosedForm(formula)
        assert abs(result.residual) < 1e-10
