import math

import numpy as np
import pytest

from mlechar import (
    Group,
    lookup,
    same_class,
    scale_identification,
    tilt,
    tilt_with_spec,
)
from mlechar.density import DensityModel, SupportSet, eval_dlogf
from mlechar.errors import DegenerateScore, DivergentIntegral, InvalidParams, SingletonClass
from mlechar.score import LOCATION, SCALE, kind_score


def test_tilt_spec_validation(gaussian):
    with pytest.raises(ValueError):
        tilt_with_spec(gaussian.model, 0.0, LOCATION)
    with pytest.raises(ValueError):
        tilt_with_spec(gaussian.model, -2.0, SCALE)


def test_location_tilt_of_gaussian_halves_variance(gaussian):
    tilted = tilt(gaussian.model, 2.0, LOCATION)
    # exp(-x^2): log-density differences must match exactly
    xs = np.linspace(-3.0, 3.0, 13)
    for x in xs:
        x = float(x)
        want = -x * x  # relative to the value at 0
        got = tilted.log_pdf(x) - tilted.log_pdf(0.0)
        assert abs(got - want) < 1e-10


def test_identity_tilt_returns_same_density(gaussian, gamma2):
    for model, kind in ((gaussian.model, LOCATION), (gamma2.model, SCALE)):
        tilted, normalizer = tilt_with_spec(model, 1.0, kind)
        assert abs(normalizer - 1.0) < 1e-9
        for x in (0.5, 1.0, 2.5):
            assert abs(tilted.log_pdf(x) - model.log_pdf(x)) < 1e-9


def test_scale_tilt_of_exponential_doubles_score():
    expo = lookup("gamma", {"alpha": 1.0}).model
    tilted = tilt(expo, 2.0, SCALE)
    # oracle: finite differences of the tilted log-density
    fd_only = DensityModel("fd", tilted.support, tilted.log_pdf)
    for x in (0.3, 0.7, 1.5, 3.0):
        psi = 1.0 + x * eval_dlogf(fd_only, x)
        assert abs(psi - 2.0 * (1.0 - x)) < 1e-5
        assert abs(kind_score(tilted, SCALE, x) - 2.0 * (1.0 - x)) < 1e-10


@pytest.mark.parametrize("kind_label,family,params", [
    ("location", "gaussian", {}),
    ("location", "gumbel", {}),
    ("scale", "gamma", {"alpha": 2.0}),
    ("scale", "weibull", {"k": 2.0}),
])
def test_tilt_composition_law(kind_label, family, params):
    model = lookup(family, params).model
    kind = LOCATION if kind_label == "location" else SCALE
    via_two = tilt(tilt(model, 1.5, kind), 2.0, kind)
    direct = tilt(model, 3.0, kind)
    if model.support.kind == "full_line":
        xs = np.linspace(-4.0, 4.0, 17)
    else:
        xs = np.geomspace(0.1, 6.0, 17)
    gaps = [via_two.log_pdf(float(x)) - direct.log_pdf(float(x)) for x in xs]
    assert max(gaps) - min(gaps) < 1e-8


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 5.0])
def test_tilted_scores_scale_by_d(gaussian, d):
    tilted = tilt(gaussian.model, d, LOCATION)
    for x in np.linspace(-5.0, 5.0, 21):
        x = float(x)
        assert abs(-eval_dlogf(tilted, x) - d * x) < 1e-6


@pytest.mark.parametrize("d", [0.5, 1.0, 2.0, 5.0])
def test_same_class_recovers_exponent(gaussian, gamma2, d):
    t_loc = tilt(gaussian.model, d, LOCATION)
    got = same_class(gaussian.model, t_loc, LOCATION)
    assert got is not None and abs(got - d) < 1e-6
    t_sca = tilt(gamma2.model, d, SCALE)
    got = same_class(gamma2.model, t_sca, SCALE)
    assert got is not None and abs(got - d) < 1e-6


def test_same_class_symmetric_up_to_inversion(gumbel):
    tilted = tilt(gumbel.model, 2.0, LOCATION)
    forward = same_class(gumbel.model, tilted, LOCATION)
    backward = same_class(tilted, gumbel.model, LOCATION)
    assert abs(forward - 2.0) < 1e-6
    assert abs(backward - 0.5) < 1e-6


def test_same_class_rejects_distinct_families(gaussian, logistic):
    assert same_class(gaussian.model, logistic.model, LOCATION) is None
    # the ratio x / tanh(x/2) drifts visibly across the grid
    assert abs(1.0 / math.tanh(0.5) - 2.1640) < 1e-4
    assert abs(2.0 / math.tanh(1.0) - 2.6261) < 1e-4


def test_same_class_identity(gaussian):
    assert abs(same_class(gaussian.model, gaussian.model, LOCATION) - 1.0) < 1e-12


def test_same_class_degenerate_score(gaussian):
    silent = Group(lambda x: 0.0, lambda x: 0.0)
    with pytest.raises(DegenerateScore):
        same_class(gaussian.model, gaussian.model, silent)


def test_singleton_classes(gaussian):
    with pytest.raises(SingletonClass):
        tilt(gaussian.model, 2.0, SCALE)  # scale over the full line
    with pytest.raises(SingletonClass):
        tilt(gaussian.model, 2.0, Group(lambda x: x, lambda x: 1.0))
    # d = 1 is always admissible
    assert tilt(gaussian.model, 1.0, SCALE) is not None


def test_group_tilt_endpoint_zero_is_noted(gamma2):
    kind = Group(lambda x: x, lambda x: 1.0)
    tilted, _ = tilt_with_spec(gamma2.model, 2.0, kind)
    got = same_class(gamma2.model, tilted, kind)
    assert abs(got - 2.0) < 1e-6


def test_group_tilt_matches_scale_tilt_on_halfline(gamma2):
    # with u1 = x, u2 = 1 the transformation class coincides with scale;
    # scores and densities agree to round-off
    by_group = tilt(gamma2.model, 2.0, Group(lambda x: x, lambda x: 1.0))
    by_scale = tilt(gamma2.model, 2.0, SCALE)
    for x in np.geomspace(0.2, 6.0, 15):
        x = float(x)
        assert abs(kind_score(by_group, SCALE, x) - kind_score(by_scale, SCALE, x)) < 1e-10
        assert abs(by_group.log_pdf(x) - by_scale.log_pdf(x)) < 1e-12


def test_tilt_checks_u2_only_where_u1_is_defined(gamma2):
    # u1 = sqrt(x) is not defined left of a half-line's origin, where the
    # scan grid's first points would step; its tilt weighs by x^((d-1)/2)
    kind = Group(np.sqrt, lambda x: 0.5 / np.sqrt(x))
    tilted = tilt(gamma2.model, 2.0, kind)
    assert abs(same_class(gamma2.model, tilted, kind) - 2.0) < 1e-6


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (2.0, 3.0), (-5.0, 7.0)])
def test_tilt_on_an_open_interval_checks_u2_up_to_its_ends(a, b):
    # u1 = (x - a)(b - x) has u2 = a + b - 2x; the scan grid comes within
    # 1e-7 of the width of each end, where the check's steps are a few
    # hundred ulps of x
    model = DensityModel("beta(2,2)", SupportSet.open_interval(a, b),
                         lambda x: np.log((x - a) * (b - x)))
    kind = Group(lambda x: (x - a) * (b - x), lambda x: (a + b) - 2.0 * x)
    tilted = tilt(model, 2.0, kind)
    assert abs(same_class(model, tilted, kind) - 2.0) < 1e-6


def test_tilt_rejects_a_pair_whose_u2_is_not_the_derivative_of_u1(gaussian):
    # u2 = 0.3 is not (1)' = 0, so no group has this pair and |u1|^(d-1) is
    # not the class's weight; the kind keeps no refusal, so each tilt refuses
    kind = Group(lambda x: 1.0, lambda x: 0.3)
    for d in (2.0, 2.0, 0.5):
        with pytest.raises(InvalidParams, match="not the derivative"):
            tilt(gaussian.model, d, kind)


def test_tilt_divergent_for_heavy_tail():
    from mlechar.density import normalize

    _, cauchyish = normalize(DensityModel(
        "cauchyish", SupportSet.full_line(),
        lambda x: -math.log1p(x * x),
        dlog_pdf=lambda x: -2.0 * x / (1.0 + x * x),
    ))
    with pytest.raises(DivergentIntegral):
        tilt(cauchyish, 0.4, LOCATION)


def test_scale_identification_accepts_only_identity_tilt(gamma2, weibull2):
    for entry in (gamma2, weibull2):
        for lam in (2.0, 3.0):
            for d in (0.5, 1.0, 2.0):
                tilted = tilt(entry.model, d, SCALE)
                verdict = scale_identification(entry.model, tilted, lam=lam)
                expected = "match" if d == 1.0 else "mismatch"
                assert verdict.verdict == expected, (entry.name, lam, d)


def test_scale_identification_pathological_limit():
    nearly_reciprocal = DensityModel(
        "reciprocal", SupportSet.positive_half_line(),
        lambda x: -math.log(x) - x,
    )
    verdict = scale_identification(nearly_reciprocal, nearly_reciprocal, lam=2.0)
    assert verdict.verdict == "inconclusive"
    assert "pathological" in verdict.note


@pytest.mark.parametrize("lam", [math.nan, math.inf, 0.0, -2.0, 1.0])
def test_scale_identification_rejects_lam_outside_its_domain(gamma2, lam):
    with pytest.raises(InvalidParams):
        scale_identification(gamma2.model, gamma2.model, lam=lam)
