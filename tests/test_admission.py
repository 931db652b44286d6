"""Admission of arguments: every public entry takes counts through
``density.integer``, reals through ``density.real`` and tolerances through
``density.tolerance``, so a malformed argument raises ``InvalidParams``, a
``MlecharError``, never a bare ``TypeError`` or ``ValueError``."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlechar import lookup
from mlechar.coverage import brute_force_projectable, is_projectable, mcss, projection_interval
from mlechar.density import (
    Rows,
    Sample,
    SupportSet,
    real,
    sample_from,
    tabulated_model,
    tolerance,
)
from mlechar.equivalence import same_class, scale_identification, tilt
from mlechar.errors import InvalidParams, MlecharError
from mlechar.estimator import mle, mle_block
from mlechar.forge import OddPower, verify_counterexample
from mlechar.score import LOCATION

GAUSSIAN = lookup("gaussian").model
GAMMA = lookup("gamma", {"alpha": 2.0}).model
SAMPLE = Sample([0.1, -0.3, 0.7])
ROWS = Rows(SAMPLE.values, np.array([SAMPLE.n]))


@pytest.mark.parametrize("call", [
    # arguments that are no numbers leaked TypeError or ValueError
    lambda: mle(GAUSSIAN, LOCATION, SAMPLE, tol=None),
    lambda: mle(GAUSSIAN, LOCATION, SAMPLE, tol="a"),
    lambda: same_class(GAUSSIAN, GAUSSIAN, LOCATION, tol="a"),
    lambda: verify_counterexample(GAUSSIAN, GAUSSIAN, n=2, trials=2, seed=1, tol=None),
    lambda: tilt(GAUSSIAN, "a", LOCATION),
    lambda: tilt(GAUSSIAN, None, LOCATION),
    lambda: OddPower("x", 3),
    lambda: OddPower(1.0, "3"),
    # p = 3.5 reached forge_odd_h, which raised DivergentIntegral
    lambda: OddPower(1.0, 3.5),
    lambda: mcss("a", 1.0),
    lambda: mcss(None, 1.0),
    lambda: Sample(["a"]),
    # bools were taken as 1 and 0
    lambda: mle(GAUSSIAN, LOCATION, SAMPLE, tol=True),
    lambda: same_class(GAUSSIAN, GAUSSIAN, LOCATION, tol=True),
    lambda: tilt(GAUSSIAN, True, LOCATION),
    lambda: OddPower(1.0, True),
    lambda: OddPower(True, 3),
    lambda: mcss(True, 1.0),
    lambda: SupportSet(False, True),
    # arrays and containers of no numbers leaked ValueError
    lambda: mle_block(LOCATION, [(GAUSSIAN, Rows(["a"], np.array([1])))]),
    lambda: tabulated_model(SupportSet.full_line(), ["a", 1, 2, 3], [0, 0, 0, 0]),
    lambda: lookup("gamma", "alpha"),
    # an odd p beyond the float range leaked OverflowError from np.power
    lambda: OddPower(1.0, 10 ** 400 + 1),
], ids=["mle_tol_none", "mle_tol_str", "same_class_tol_str", "verify_tol_none",
        "tilt_d_str", "tilt_d_none", "odd_power_d_str", "odd_power_p_str",
        "odd_power_p_3.5", "mcss_str", "mcss_none", "sample_str", "mle_tol_true",
        "same_class_tol_true", "tilt_d_true", "odd_power_p_true", "odd_power_d_true",
        "mcss_true", "support_bools", "mle_block_rows_str", "tabulated_grid_str",
        "lookup_params_str", "odd_power_p_beyond_float"])
def test_a_malformed_argument_raises_invalid_params(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParams):
            call()


@pytest.mark.parametrize("value, expected", [
    (2, 2.0), (np.int64(2), 2.0), (np.float32(0.5), 0.5), (-0.0, -0.0),
    (math.inf, math.inf), (5e-324, 5e-324),
])
def test_real_is_a_float_and_tolerance_a_positive_one(value, expected):
    assert type(real(value)) is float and real(value) == expected
    if expected > 0.0:
        assert tolerance(value) == expected
    else:
        with pytest.raises(InvalidParams, match="tolerance must be > 0"):
            tolerance(value)


@pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, [1.0], 10 ** 400])
def test_real_refuses_what_is_no_float(value):
    with pytest.raises(InvalidParams):
        real(value)
    with pytest.raises(InvalidParams):
        tolerance(value)


#: one value of each shape an argument may take by mistake, and some right ones
VALUES = [None, "3", True, np.bool_(False), math.nan, math.inf, -math.inf, 0.0, -0.0,
          5e-324, 10 ** 400, np.int64(3), np.float32(2.0), 3.0, [3.0], []]


def _verify(n=2, trials=2, seed=1, tol=1e-7):
    return verify_counterexample(GAUSSIAN, GAUSSIAN, n, trials, seed, tol)


#: each public entry with one admission argument left open, the others right
ENTRIES = {
    "mle tol": lambda v: mle(GAUSSIAN, LOCATION, SAMPLE, tol=v),
    "mle_block tol": lambda v: mle_block(LOCATION, [(GAUSSIAN, ROWS)], v),
    "mle_block rows": lambda v: mle_block(LOCATION, [(GAUSSIAN, v)]),
    "tilt d": lambda v: tilt(GAUSSIAN, v, LOCATION),
    "same_class tol": lambda v: same_class(GAUSSIAN, GAUSSIAN, LOCATION, tol=v),
    "mcss p_minus": lambda v: mcss(v, 1.0),
    "mcss p_plus": lambda v: mcss(1.0, v),
    "projection_interval p_minus": lambda v: projection_interval(v, 1.0, 3),
    "projection_interval p_plus": lambda v: projection_interval(1.0, v, 3),
    "projection_interval n": lambda v: projection_interval(1.0, 2.0, v),
    "is_projectable n": lambda v: is_projectable(1.0, 2.0, v),
    "brute_force_projectable n": lambda v: brute_force_projectable(1.0, 2.0, v),
    "scale_identification lam": lambda v: scale_identification(GAMMA, GAMMA, v),
    "sample_from n": lambda v: sample_from(GAUSSIAN, v, 1),
    "sample_from seed": lambda v: sample_from(GAUSSIAN, 3, v),
    "verify_counterexample n": lambda v: _verify(n=v),
    "verify_counterexample trials": lambda v: _verify(trials=v),
    "verify_counterexample seed": lambda v: _verify(seed=v),
    "verify_counterexample tol": lambda v: _verify(tol=v),
    "OddPower d": lambda v: OddPower(v, 3),
    "OddPower p": lambda v: OddPower(1.0, v),
    "SupportSet lower": lambda v: SupportSet(v, 1.0),
    "SupportSet upper": lambda v: SupportSet(-1.0, v),
    "Sample": lambda v: Sample(v),
    "lookup params": lambda v: lookup("gamma", {"alpha": v}),
}


# the search stops once it has tried every pair
@settings(derandomize=True, max_examples=10 * len(ENTRIES) * len(VALUES), deadline=None)
@given(entry=st.sampled_from(sorted(ENTRIES)), value=st.sampled_from(VALUES))
def test_every_entry_returns_or_raises_a_mlechar_error(entry, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ENTRIES[entry](value)
        except MlecharError:
            pass
