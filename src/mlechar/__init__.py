"""MLE characterization toolkit.

Decides whether a one-parameter family of densities (location, scale, or a
general transformation group) is characterizable by the form of its
maximum-likelihood estimator, computes minimal covering/necessary sample
sizes, constructs equivalence-class and counterexample densities, and
verifies every claim numerically.

The public names live in the submodules; ``import mlechar`` loads none of
them, and each name loads its submodule on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_HOME = {
    "CatalogEntry": "catalog",
    "expected_mnss": "catalog",
    "lookup": "catalog",
    "SampleSize": "coverage",
    "brute_force_projectable": "coverage",
    "is_projectable": "coverage",
    "mcss": "coverage",
    "mnss": "coverage",
    "projection_interval": "coverage",
    "DensityModel": "density",
    "Sample": "density",
    "SupportSet": "density",
    "eval_dlogf": "density",
    "normalize": "density",
    "sample_from": "density",
    "tabulated_model": "density",
    "ScaleIdentification": "equivalence",
    "same_class": "equivalence",
    "scale_identification": "equivalence",
    "tilt": "equivalence",
    "tilt_with_spec": "equivalence",
    "MlecharError": "errors",
    "BracketedRoot": "estimator",
    "ClosedForm": "estimator",
    "MleResult": "estimator",
    "closed_form_mle": "estimator",
    "mle": "estimator",
    "mle_group": "estimator",
    "mle_location": "estimator",
    "mle_scale": "estimator",
    "CounterexampleReport": "forge",
    "OddPower": "forge",
    "PlusEvenDerivative": "forge",
    "forge_odd_h": "forge",
    "verify_counterexample": "forge",
    "LOCATION": "score",
    "SCALE": "score",
    "Group": "score",
    "ScoreProfile": "score",
    "analyze_image": "score",
    "kind_profiles": "score",
    "kind_score": "score",
    "SuiteConfig": "suite",
    "SuiteReport": "suite",
    "emit_report": "suite",
    "parse_report": "suite",
    "run_suite": "suite",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    # looked up on every access and never stored here, so a name always
    # shows the submodule's current binding, patched or not
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
