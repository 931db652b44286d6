"""Catalog of the worked distribution families.

Each entry carries the normalized density with its analytic log-derivative,
the analytic score functions and image bounds per parameter kind, the
closed-form estimators where they exist, and the expected minimal necessary
sample sizes.  The catalog is the ground truth the verification harness
cross-validates against the numeric pipeline.

Families and their headline facts:

============================  =========================  =====================
family                        location                   scale
============================  =========================  =====================
gaussian                      MNSS 3                     MNSS inf
gamma(alpha)                  (half-line support)        MNSS inf, needs id.
generalized_gaussian(a,g)     MNSS inf                   MNSS inf
laplace                       (piecewise score)          MNSS inf
weibull(k)                    (half-line support)        MNSS inf, needs id.
gumbel                        MNSS inf                   MNSS inf
student(nu)                   (non-invertible score)     MNSS by nu (see below)
logistic                      MNSS 3                     MNSS inf
sinh_arcsinh_skew_normal      (non-invertible)           (non-invertible)
============================  =========================  =====================

Student scale MNSS: ceil(1 + 1/nu) for nu < 1, 3 at nu = 1, ceil(1 + nu)
for nu > 1.  The sinh-arcsinh family is characterizable in its skewness
parameter (group kind) with MNSS 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .coverage import MnssResult
from .density import DensityModel, SupportSet
from .errors import InvalidConfig, InvalidParams, NotCharacterizable, UnknownFamily
from .score import LOCATION, SCALE, GroupTransform, Kind

LOG_2PI = math.log(2.0 * math.pi)

FAMILY_NAMES = (
    "gaussian",
    "gamma",
    "generalized_gaussian",
    "laplace",
    "weibull",
    "gumbel",
    "student",
    "logistic",
    "sinh_arcsinh_skew_normal",
)


def _exp(u: float) -> float:
    """exp with graceful overflow to +inf."""
    return math.exp(u) if u < 709.0 else math.inf


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """Ground-truth record for one family at fixed shape parameters."""

    name: str
    params: dict
    model: DensityModel
    analytic_scores: dict = field(default_factory=dict)   # kind label -> fn(x)
    score_formulas: dict = field(default_factory=dict)    # kind label -> text
    analytic_bounds: dict = field(default_factory=dict)   # kind label -> (p-, p+)
    expected: dict = field(default_factory=dict)          # kind label -> value
    closed_form: dict = field(default_factory=dict)       # kind label -> formula id
    needs_scale_identification: bool = False
    characterizable_kinds: tuple = ()
    blocked: dict = field(default_factory=dict)           # kind label -> reason
    transform: Optional[GroupTransform] = None

    def group_density(self, theta: float) -> DensityModel:
        """Density of the group-family member at parameter ``theta``."""
        if self.transform is None:
            raise NotCharacterizable(f"{self.name} carries no group transform")
        tr = self.transform
        base = self.model

        def log_pdf(x: float) -> float:
            return math.log(tr.dh_dx(theta, x)) + base.log_pdf(tr.h(theta, x))

        return DensityModel(
            name=f"{self.name}(theta={theta:g})",
            support=base.support,
            log_pdf=log_pdf,
            params={**self.params, "theta": theta},
            normalized=base.normalized,
        )


def _check_params(given: dict, allowed: dict) -> dict:
    unknown = set(given) - set(allowed)
    if unknown:
        raise InvalidParams(f"unknown parameters {sorted(unknown)}")
    merged = {**allowed, **{k: float(v) for k, v in given.items()}}
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise InvalidParams(f"missing required parameters {missing}")
    return merged


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _gaussian(params: dict) -> CatalogEntry:
    _check_params(params, {})
    model = DensityModel(
        name="gaussian",
        support=SupportSet.full_line(),
        log_pdf=lambda x: -0.5 * x * x - 0.5 * LOG_2PI,
        dlog_pdf=lambda x: -x,
        normalized=True,
    )
    return CatalogEntry(
        name="gaussian",
        params={},
        model=model,
        analytic_scores={"location": lambda x: x, "scale": lambda x: 1.0 - x * x},
        score_formulas={"location": "phi(x) = x", "scale": "psi(x) = 1 - x^2"},
        analytic_bounds={"location": (math.inf, math.inf), "scale": (math.inf, 1.0)},
        expected={"location": 3, "scale": math.inf},
        closed_form={"location": "gaussian_location", "scale": "gaussian_scale"},
        characterizable_kinds=("location", "scale"),
    )


def _gamma(params: dict) -> CatalogEntry:
    p = _check_params(params, {"alpha": None})
    alpha = p["alpha"]
    if alpha <= 0.0:
        raise InvalidParams(f"gamma needs alpha > 0, got {alpha}")
    lgam = math.lgamma(alpha)
    model = DensityModel(
        name=f"gamma(alpha={alpha:g})",
        support=SupportSet.positive_half_line(),
        log_pdf=lambda x: (alpha - 1.0) * math.log(x) - x - lgam,
        dlog_pdf=lambda x: (alpha - 1.0) / x - 1.0,
        params={"alpha": alpha},
        normalized=True,
    )
    return CatalogEntry(
        name="gamma",
        params={"alpha": alpha},
        model=model,
        analytic_scores={"scale": lambda x: alpha - x},
        score_formulas={"scale": f"psi(x) = {alpha:g} - x"},
        analytic_bounds={"scale": (math.inf, alpha)},
        expected={"scale": math.inf},
        closed_form={"scale": "gamma_scale"},
        needs_scale_identification=True,
        characterizable_kinds=("scale",),
        blocked={"location": "support"},
    )


def _generalized_gaussian(params: dict) -> CatalogEntry:
    p = _check_params(params, {"alpha": 1.0, "gamma": 1.0})
    alpha, gam = p["alpha"], p["gamma"]
    if alpha <= 0.0 or gam == 0.0:
        raise InvalidParams("generalized gaussian needs alpha > 0 and gamma != 0")
    const = math.log(abs(gam)) + alpha * math.log(alpha) - math.lgamma(alpha)

    def log_pdf(x: float) -> float:
        e = _exp(gam * x)
        if math.isinf(e):
            return -math.inf
        return const + alpha * gam * x - alpha * e

    def dlog(x: float) -> float:
        e = _exp(gam * x)
        return alpha * gam * (1.0 - e)

    model = DensityModel(
        name=f"generalized_gaussian(alpha={alpha:g},gamma={gam:g})",
        support=SupportSet.full_line(),
        log_pdf=log_pdf,
        dlog_pdf=dlog,
        params={"alpha": alpha, "gamma": gam},
        normalized=True,
    )
    loc_bounds = (alpha * abs(gam), math.inf) if gam > 0 else (math.inf, alpha * abs(gam))
    return CatalogEntry(
        name="generalized_gaussian",
        params={"alpha": alpha, "gamma": gam},
        model=model,
        analytic_scores={
            "location": lambda x: alpha * gam * (_exp(gam * x) - 1.0),
            "scale": lambda x: 1.0 + alpha * gam * x * (1.0 - _exp(gam * x)),
        },
        score_formulas={
            "location": "phi(x) = alpha*gamma*(exp(gamma x) - 1)",
            "scale": "psi(x) = 1 + alpha*gamma*x*(1 - exp(gamma x))",
        },
        analytic_bounds={"location": loc_bounds, "scale": (math.inf, 1.0)},
        expected={"location": math.inf, "scale": math.inf},
        closed_form={"location": "ferguson_location"},
        characterizable_kinds=("location", "scale"),
    )


def _laplace(params: dict) -> CatalogEntry:
    _check_params(params, {})
    model = DensityModel(
        name="laplace",
        support=SupportSet.full_line(),
        log_pdf=lambda x: -abs(x) - math.log(2.0),
        dlog_pdf=lambda x: -math.copysign(1.0, x) if x != 0.0 else 0.0,
        normalized=True,
    )
    return CatalogEntry(
        name="laplace",
        params={},
        model=model,
        analytic_scores={"scale": lambda x: 1.0 - abs(x)},
        score_formulas={"scale": "psi(x) = 1 - |x|",
                        "location": "phi(x) = sign(x) (piecewise constant)"},
        analytic_bounds={"scale": (math.inf, 1.0)},
        expected={"scale": math.inf},
        closed_form={"scale": "laplace_scale"},
        characterizable_kinds=("scale",),
        blocked={"location": "not_monotone"},
    )


def _weibull(params: dict) -> CatalogEntry:
    p = _check_params(params, {"k": None})
    k = p["k"]
    if k <= 0.0:
        raise InvalidParams(f"weibull needs k > 0, got {k}")
    model = DensityModel(
        name=f"weibull(k={k:g})",
        support=SupportSet.positive_half_line(),
        log_pdf=lambda x: math.log(k) + (k - 1.0) * math.log(x) - x ** k,
        dlog_pdf=lambda x: (k - 1.0) / x - k * x ** (k - 1.0),
        params={"k": k},
        normalized=True,
    )
    return CatalogEntry(
        name="weibull",
        params={"k": k},
        model=model,
        analytic_scores={"scale": lambda x: k * (1.0 - x ** k)},
        score_formulas={"scale": f"psi(x) = {k:g}*(1 - x^{k:g})"},
        analytic_bounds={"scale": (math.inf, k)},
        expected={"scale": math.inf},
        closed_form={"scale": "weibull_scale"},
        needs_scale_identification=True,
        characterizable_kinds=("scale",),
        blocked={"location": "support"},
    )


def _gumbel(params: dict) -> CatalogEntry:
    _check_params(params, {})

    def log_pdf(x: float) -> float:
        e = _exp(-x)
        return -x - e if math.isfinite(e) else -math.inf

    model = DensityModel(
        name="gumbel",
        support=SupportSet.full_line(),
        log_pdf=log_pdf,
        dlog_pdf=lambda x: -1.0 + _exp(-x),
        normalized=True,
    )
    return CatalogEntry(
        name="gumbel",
        params={},
        model=model,
        analytic_scores={
            "location": lambda x: 1.0 - _exp(-x),
            "scale": lambda x: 1.0 + x * (-1.0 + _exp(-x)),
        },
        score_formulas={
            "location": "phi(x) = 1 - exp(-x)",
            "scale": "psi(x) = 1 + x*(exp(-x) - 1)",
        },
        analytic_bounds={"location": (math.inf, 1.0), "scale": (math.inf, 1.0)},
        expected={"location": math.inf, "scale": math.inf},
        closed_form={"location": "gumbel_location"},
        characterizable_kinds=("location", "scale"),
    )


def _student(params: dict) -> CatalogEntry:
    p = _check_params(params, {"nu": None})
    nu = p["nu"]
    if nu <= 0.0:
        raise InvalidParams(f"student needs nu > 0, got {nu}")
    const = math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu) \
        - 0.5 * math.log(nu * math.pi)
    model = DensityModel(
        name=f"student(nu={nu:g})",
        support=SupportSet.full_line(),
        log_pdf=lambda x: const - 0.5 * (nu + 1.0) * math.log1p(x * x / nu),
        dlog_pdf=lambda x: -(nu + 1.0) * x / (nu + x * x),
        params={"nu": nu},
        normalized=True,
    )
    if nu < 1.0:
        expected_scale = max(math.ceil(1.0 + 1.0 / nu - 1e-9), 3)
    elif nu == 1.0:
        expected_scale = 3
    else:
        expected_scale = max(math.ceil(1.0 + nu - 1e-9), 3)
    return CatalogEntry(
        name="student",
        params={"nu": nu},
        model=model,
        analytic_scores={"scale": lambda x: 1.0 - (nu + 1.0) * x * x / (nu + x * x)},
        score_formulas={"scale": "psi(x) = 1 - (nu+1) x^2/(nu + x^2)"},
        analytic_bounds={"scale": (nu, 1.0)},
        expected={"scale": expected_scale},
        characterizable_kinds=("scale",),
        blocked={"location": "not_monotone"},
    )


def _logistic(params: dict) -> CatalogEntry:
    _check_params(params, {})

    def log_pdf(x: float) -> float:
        if x >= 0.0:
            return -x - 2.0 * math.log1p(math.exp(-x))
        return x - 2.0 * math.log1p(math.exp(x))

    model = DensityModel(
        name="logistic",
        support=SupportSet.full_line(),
        log_pdf=log_pdf,
        dlog_pdf=lambda x: -math.tanh(0.5 * x),
        normalized=True,
    )
    return CatalogEntry(
        name="logistic",
        params={},
        model=model,
        analytic_scores={
            "location": lambda x: math.tanh(0.5 * x),
            "scale": lambda x: 1.0 - x * math.tanh(0.5 * x),
        },
        score_formulas={
            "location": "phi(x) = tanh(x/2)",
            "scale": "psi(x) = 1 - x tanh(x/2)",
        },
        analytic_bounds={"location": (1.0, 1.0), "scale": (math.inf, 1.0)},
        expected={"location": 3, "scale": math.inf},
        characterizable_kinds=("location", "scale"),
    )


def _sinh_arcsinh(params: dict) -> CatalogEntry:
    _check_params(params, {})
    base = DensityModel(
        name="sinh_arcsinh_base",
        support=SupportSet.full_line(),
        log_pdf=lambda x: -0.5 * x * x - 0.5 * LOG_2PI,
        dlog_pdf=lambda x: -x,
        normalized=True,
    )
    transform = GroupTransform(
        u1=lambda x: math.sqrt(1.0 + x * x),
        u2=lambda x: x / math.sqrt(1.0 + x * x),
        h=lambda theta, x: math.sinh(math.asinh(x) + theta),
        dh_dx=lambda theta, x: math.cosh(math.asinh(x) + theta) / math.sqrt(1.0 + x * x),
        theta_window=(-16.0, 16.0),
    )
    return CatalogEntry(
        name="sinh_arcsinh_skew_normal",
        params={},
        model=base,
        analytic_scores={"group": lambda x: -x ** 3 / math.sqrt(1.0 + x * x)},
        score_formulas={"group": "score(x) = -x^3 / sqrt(1 + x^2)"},
        analytic_bounds={"group": (math.inf, math.inf)},
        expected={"group": 3},
        characterizable_kinds=("group",),
        blocked={"location": "not_monotone", "scale": "not_monotone"},
        transform=transform,
    )


_BUILDERS: dict[str, Callable[[dict], CatalogEntry]] = {
    "gaussian": _gaussian,
    "gamma": _gamma,
    "generalized_gaussian": _generalized_gaussian,
    "laplace": _laplace,
    "weibull": _weibull,
    "gumbel": _gumbel,
    "student": _student,
    "logistic": _logistic,
    "sinh_arcsinh_skew_normal": _sinh_arcsinh,
}


def lookup(name: str, params: Optional[dict] = None) -> CatalogEntry:
    """Fully populated catalog entry for a family name and parameter dict."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise UnknownFamily(
            f"unknown family {name!r}; known: {', '.join(sorted(_BUILDERS))}"
        )
    return builder(dict(params or {}))


def expected_mnss(entry: CatalogEntry, kind_label: str) -> MnssResult:
    """The recorded minimal necessary sample size for a characterizable kind."""
    if kind_label not in entry.characterizable_kinds:
        reason = entry.blocked.get(kind_label, "outside the characterization scope")
        raise NotCharacterizable(f"{entry.name} / {kind_label}: {reason}")
    return MnssResult(entry.expected[kind_label])


def kind_for(entry: Optional[CatalogEntry], label: str) -> Kind:
    """The parameter kind named by ``label`` for a catalog entry.

    ``group`` resolves to the entry's transform, so it needs a catalog entry
    that carries one; ``entry`` may be ``None`` (a tabulated density) for
    location and scale.
    """
    if label == "location":
        return LOCATION
    if label == "scale":
        return SCALE
    if label != "group":
        raise InvalidConfig(f"unknown kind {label!r}")
    if entry is None or entry.transform is None:
        raise InvalidConfig("group kind needs a catalog family with a transform")
    return entry.transform
