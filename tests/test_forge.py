import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from mlechar import (
    LOCATION,
    OddPower,
    PlusEvenDerivative,
    forge_odd_h,
    lookup,
    mle_location,
    same_class,
    tilt,
    verify_counterexample,
)
from mlechar.density import (
    CumulativeIntegral,
    DensityModel,
    Sample,
    effective_interval,
    normalize,
)
from mlechar.errors import InvalidParams, NotMonotone
from mlechar.forge import h_function
from mlechar.score import analyze_image


@pytest.fixture(scope="module")
def quartic_forge(gaussian):
    return forge_odd_h(gaussian.model, OddPower(1.0, 3))


def test_hspec_validation():
    with pytest.raises(ValueError):
        OddPower(d=-1.0, p=3)
    with pytest.raises(ValueError):
        OddPower(d=1.0, p=2)
    with pytest.raises(ValueError):
        OddPower(d=1.0, p=0)


def test_forged_quartic_log_density(gaussian, quartic_forge):
    # -log g = y^4/4 up to the normalizing constant
    for x in np.linspace(-3.0, 3.0, 13):
        x = float(x)
        want = -(x ** 4) / 4.0
        got = quartic_forge.log_pdf(x) - quartic_forge.log_pdf(0.0)
        assert abs(got - want) < 1e-6


def test_any_interior_anchor_forges_the_same_density(gaussian, quartic_forge):
    # the antiderivative anchored at the target's scan mode and at the nodes
    # 5 and 50 scan cells either side of it, on the forged density's
    # effective interval: the tables differ by constants, which normalizing
    # removes
    target = gaussian.model
    phi = analyze_image(target, LOCATION).evaluate
    h = h_function(OddPower(1.0, 3))
    h_phi = lambda y: h(phi(y))
    xs, vals = target.scan
    mode = int(np.argmax(vals))
    lo, hi = effective_interval(target, drop=80.0)
    grid = np.linspace(*effective_interval(quartic_forge), 2001)
    tables, forged = [], []
    for step in (0, -50, -5, 5, 50):
        antider = CumulativeIntegral(h_phi, float(xs[mode + step]), lo, hi)
        raw = DensityModel(name="forged", support=target.support,
                           log_pdf=lambda x, a=antider: -a(x), dlog_pdf=lambda x: -h_phi(x),
                           breaks=np.concatenate([target.breaks, antider.nodes]))
        tables.append(antider(grid))
        forged.append(normalize(raw)[1])
    # the one anchored at the mode is the forge's own, bit for bit
    assert np.array_equal(forged[0].log_pdf(grid), quartic_forge.log_pdf(grid))
    for (t1, g1), (t2, g2) in itertools.combinations(zip(tables, forged), 2):
        assert np.ptp(t1 - t2) < 1e-12
        assert np.abs(g1.log_pdf(grid) - g2.log_pdf(grid)).max() < 1e-12
        assert np.array_equal(g1.dlog_pdf(grid), g2.dlog_pdf(grid))


def test_identity_h_reproduces_target(gaussian):
    same = forge_odd_h(gaussian.model, OddPower(1.0, 1))
    for x in np.linspace(-3.0, 3.0, 13):
        assert abs(same.log_pdf(float(x)) - gaussian.model.log_pdf(float(x))) < 1e-6


def test_even_derivative_perturbation(gaussian):
    forged = forge_odd_h(gaussian.model, PlusEvenDerivative(
        w=lambda y: 0.1 * math.cos(y),
        w_prime=lambda y: -0.1 * math.sin(y),
    ))
    # symbolic oracle: integrating y - 0.1 sin(y) gives y^2/2 + 0.1 cos(y)
    ref = lambda x: -(x * x / 2.0 + 0.1 * math.cos(x))
    offset = forged.log_pdf(0.0) - ref(0.0)
    for x in np.linspace(-3.0, 3.0, 13):
        assert abs(forged.log_pdf(float(x)) - ref(float(x)) - offset) < 1e-6


def test_amplitude_guard_rejects_large_perturbations(gaussian):
    with pytest.raises(NotMonotone):
        forge_odd_h(gaussian.model, PlusEvenDerivative(
            w=lambda y: 2.0 * math.cos(y),
            w_prime=lambda y: -2.0 * math.sin(y),
        ))


def test_even_derivative_perturbation_of_a_saturating_score(logistic):
    # the logistic score tanh(x/2) saturates at +-1, so sampled score values
    # repeat; h = y - 0.1 sin(y) is increasing on the score's range and the
    # amplitude guard must accept it
    forged = forge_odd_h(logistic.model, PlusEvenDerivative(
        w=lambda y: 0.1 * math.cos(y),
        w_prime=lambda y: -0.1 * math.sin(y),
    ))
    assert same_class(logistic.model, forged, LOCATION) is None
    # quadrature oracle: log g(x) - log g(0) = -int_0^x h(tanh(y/2)) dy; the
    # tabulated antiderivative spans the logistic's wide drop-80 range in
    # cells ~0.08 wide, and is off by up to 1.1e-4 between its nodes
    h_phi = lambda y: math.tanh(y / 2.0) - 0.1 * math.sin(math.tanh(y / 2.0))
    for x in (-4.0, -1.0, 0.5, 3.0):
        want = -quad(h_phi, 0.0, x, epsabs=1e-13)[0]
        assert abs(forged.log_pdf(x) - forged.log_pdf(0.0) - want) < 5e-4


def test_forge_requires_monotone_target():
    with pytest.raises(NotMonotone):
        forge_odd_h(lookup("laplace").model, OddPower(1.0, 3))


def test_two_point_symmetric_samples_share_the_mle(gaussian, quartic_forge):
    for mid, spread in ((0.0, 1.0), (2.0, 0.7), (-1.5, 2.5)):
        sample = Sample(np.array([mid - spread, mid + spread]))
        tf = mle_location(gaussian.model, sample).theta_hat
        tg = mle_location(quartic_forge, sample).theta_hat
        assert abs(tf - mid) < 1e-9
        assert abs(tg - mid) < 1e-9


def test_fixed_witness_separates_at_three_points(gaussian, quartic_forge):
    witness = Sample(np.array([0.0, 0.0, 3.0]))
    tf = mle_location(gaussian.model, witness).theta_hat
    tg = mle_location(quartic_forge, witness).theta_hat
    assert abs(tf - 1.0) < 1e-10
    assert abs(tg - 3.0 / (1.0 + 2.0 ** (1.0 / 3.0))) < 1e-7
    assert abs(tf - tg) > 0.3


def test_forged_density_leaves_the_class(gaussian, quartic_forge):
    assert same_class(gaussian.model, quartic_forge, LOCATION) is None
    # while a plain tilt stays inside it
    assert same_class(gaussian.model, tilt(gaussian.model, 2.0, LOCATION),
                      LOCATION) is not None


def test_verify_counterexample_reports(gaussian, quartic_forge):
    rep2 = verify_counterexample(gaussian.model, quartic_forge, n=2, trials=60,
                                 seed=99, tol=1e-7)
    assert rep2.agreement_fraction == 1.0
    assert rep2.worst is None

    rep3 = verify_counterexample(gaussian.model, quartic_forge, n=3, trials=60,
                                 seed=99, tol=1e-4)
    assert rep3.agreement_fraction < 0.05
    assert rep3.worst is not None
    assert rep3.worst.gap > 1e-4
    # two-point agreement and three-point agreement never hold together
    assert not (rep2.agreement_fraction == 1.0 and rep3.agreement_fraction == 1.0)


def test_verify_counterexample_rejects_a_negative_seed(gaussian, quartic_forge):
    with pytest.raises(InvalidParams, match="seed"):
        verify_counterexample(gaussian.model, quartic_forge, 2, 5, -1, 1e-7)


@pytest.mark.parametrize("n,trials,seed", [(2, 1.5, 1), (2.5, 2, 1), (2, 2, 1.5), (True, 2, 1)],
                         ids=["trials_1.5", "n_2.5", "seed_1.5", "n_true"])
def test_verify_counterexample_refuses_counts_and_seeds_that_are_no_integers(gaussian, n,
                                                                             trials, seed):
    with pytest.raises(InvalidParams, match="^counts and seeds must be integers"):
        verify_counterexample(gaussian.model, gaussian.model, n, trials, seed, 1e-7)


def test_verify_counterexample_on_shared_class(gaussian):
    tilted = tilt(gaussian.model, 2.0, LOCATION)
    rep = verify_counterexample(gaussian.model, tilted, n=4, trials=40,
                                seed=5, tol=1e-7)
    assert rep.agreement_fraction == 1.0
