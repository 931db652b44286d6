"""MLE characterization toolkit.

Decides whether a one-parameter family of densities (location, scale, or a
general transformation group) is characterizable by the form of its
maximum-likelihood estimator, computes minimal covering/necessary sample
sizes, constructs equivalence-class and counterexample densities, and
verifies every claim numerically.
"""

from .catalog import CatalogEntry, expected_mnss, lookup
from .coverage import (
    McssResult,
    MnssResult,
    brute_force_projectable,
    is_projectable,
    mcss,
    mnss,
    projection_interval,
)
from .density import (
    DensityModel,
    Sample,
    SupportSet,
    eval_dlogf,
    normalize,
    sample_from,
    tabulated_model,
)
from .equivalence import (
    ScaleIdentification,
    TiltSpec,
    same_class,
    scale_identification,
    tilt,
    tilt_with_spec,
)
from .errors import MlecharError
from .estimator import (
    BracketedRoot,
    ClosedForm,
    MleResult,
    closed_form_mle,
    mle_group,
    mle_location,
    mle_scale,
)
from .forge import (
    CounterexampleReport,
    OddPower,
    PlusEvenDerivative,
    forge_odd_h,
    subcritical_witness,
    verify_counterexample,
)
from .score import (
    LOCATION,
    SCALE,
    Group,
    GroupTransform,
    ScoreProfile,
    analyze_image,
    group_score,
    location_score,
    scale_score,
    split_halflines,
)
from .suite import SuiteConfig, SuiteReport, emit_report, parse_report, run_suite

__version__ = "0.1.0"

__all__ = [
    "CatalogEntry",
    "CounterexampleReport",
    "DensityModel",
    "Group",
    "GroupTransform",
    "LOCATION",
    "McssResult",
    "MleResult",
    "MlecharError",
    "MnssResult",
    "OddPower",
    "PlusEvenDerivative",
    "SCALE",
    "Sample",
    "ScaleIdentification",
    "ScoreProfile",
    "SuiteConfig",
    "SuiteReport",
    "SupportSet",
    "TiltSpec",
    "analyze_image",
    "brute_force_projectable",
    "closed_form_mle",
    "emit_report",
    "eval_dlogf",
    "expected_mnss",
    "forge_odd_h",
    "group_score",
    "is_projectable",
    "location_score",
    "lookup",
    "mcss",
    "mle_group",
    "mle_location",
    "mle_scale",
    "mnss",
    "normalize",
    "parse_report",
    "projection_interval",
    "run_suite",
    "same_class",
    "sample_from",
    "scale_identification",
    "scale_score",
    "split_halflines",
    "subcritical_witness",
    "tabulated_model",
    "tilt",
    "tilt_with_spec",
    "verify_counterexample",
]
