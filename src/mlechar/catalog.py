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

Every formula is a numpy expression that takes a float or an ndarray, and is
written once, in its family's builder.  Formulas whose exponentials, powers
or squares of x, or divisions by x, can overflow are wrapped in
``density.quiet_overflow``, so they give an infinity without a warning; the
Student formulas, whose values stay finite, switch to their large-|x| forms
there instead.  A closed-form
MLE is a ``(name, estimate)`` pair in ``CatalogEntry.closed_form`` whose
estimate closes over the builder's own parameters and maps one sample, or
an ``(m, n)`` block of rows, to one estimate per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coverage import SampleSize
from .density import FULL_LINE, DensityModel, SupportSet, quiet_overflow, real
from .errors import (
    AllZeroSample,
    InvalidConfig,
    InvalidParams,
    NotCharacterizable,
    UnknownFamily,
)
from .score import LOCATION, SCALE, Kind

LOG_2PI = math.log(2.0 * math.pi)


@quiet_overflow
def _sqrt1p2(x):
    """sqrt(1 + x^2) of a float or an ndarray, |x| where x^2 overflows
    (from |x| > 2^27 on, sqrt(1 + x^2) rounds to |x| anyway)."""
    root = np.sqrt(1.0 + x * x)
    big = np.isinf(root)
    return np.where(big, np.abs(x), root)[()] if big.any() else root


#: the sinh-arcsinh transform H_theta(x) = sinh(arcsinh(x) + theta), one kind
#: for every lookup, so that what it finds per support is found once
_SINH_ARCSINH = Kind(
    u1=_sqrt1p2,
    u2=lambda x: x / _sqrt1p2(x),
    h=lambda theta, x: np.sinh(np.arcsinh(x) + theta),
)


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
    closed_form: dict = field(default_factory=dict)       # kind label -> (name, estimate)
    blocked: dict = field(default_factory=dict)           # kind label -> reason
    transform: Optional[Kind] = None

    @property
    def characterizable_kinds(self) -> tuple:
        """Kind labels with a recorded MNSS, the ones the results cover."""
        return tuple(self.expected)

    @property
    def needs_scale_identification(self) -> bool:
        """Whether the scale class needs the scale-identification filter to
        pin d = 1: a recorded scale MNSS on a half-line support, the one
        scale support besides the full line."""
        return "scale" in self.expected and self.model.support.kind != FULL_LINE


def _check_params(given: dict, allowed: dict) -> dict:
    unknown = set(given) - set(allowed)
    if unknown:
        raise InvalidParams(f"unknown parameters {sorted(unknown)}")
    try:
        values = {k: real(v) for k, v in given.items()}
    except InvalidParams as exc:
        # real chains the OverflowError of an integer beyond the float
        # range; neither JSON true nor a numeric string such as "2" is a number
        why = f"finite: {exc.__cause__}" if exc.__cause__ else f"numbers, got {given}"
        raise InvalidParams(f"parameters must be {why}") from exc
    nonfinite = sorted(k for k, v in values.items() if not math.isfinite(v))
    if nonfinite:
        raise InvalidParams(f"parameters {nonfinite} must be finite")
    merged = {**allowed, **values}
    missing = [k for k, v in merged.items() if v is None]
    if missing:
        raise InvalidParams(f"missing required parameters {missing}")
    return merged


def _finite(value: Callable[[], float], what: str) -> float:
    """``value()``, a constant of a family; parameters at which it overflows,
    leaves the domain of ``math`` or is not finite are invalid."""
    try:
        out = value()
    except (OverflowError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise InvalidParams(f"{what} is not a finite float")
    return out


# ---------------------------------------------------------------------------
# closed-form estimators: each takes one sample or an (m, n) block of rows
# and gives one estimate per row, the row's own bits
# ---------------------------------------------------------------------------


def _per_row(fn: Callable, *columns: np.ndarray):
    # fn on Python floats, once per row: math.log and ** give the bits they
    # give on a single row
    return np.frompyfunc(fn, len(columns), 1)(*columns)


def _log_mean_exp(u: np.ndarray):
    # log(mean(exp(u))) along the last axis, shifted by the maximum so exp
    # cannot overflow
    top = np.max(u, axis=-1, keepdims=True)
    means = np.mean(np.exp(u - top), axis=-1)
    return _per_row(lambda top, mean: top + math.log(mean), top[..., 0], means)


def _power_mean_rate(x: np.ndarray, power: float):
    # mean(|x|^power)^(-1/power) along the last axis, with x divided by
    # max|x| so neither the power nor the sum can overflow
    top = np.max(np.abs(x), axis=-1, keepdims=True)
    if not top.all():
        raise AllZeroSample("scale estimation needs a nonzero observation")
    means = np.mean(np.abs(x / top) ** power, axis=-1)
    return _per_row(lambda mean, top: mean ** (-1.0 / power) / top, means, top[..., 0])


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------


def _entry(name: str, params: dict, support: SupportSet, log_pdf, dlog_pdf,
           model_name: Optional[str] = None, **facts) -> CatalogEntry:
    """The entry of family ``name`` at ``params``, with its normalized model.

    The model is named ``name(k=v,...)`` in the order of ``params`` (the
    family name alone when there are none) unless ``model_name`` is given;
    ``facts`` are the other entry fields.
    """
    if model_name is None:
        values = ",".join(f"{k}={v:g}" for k, v in params.items())
        model_name = f"{name}({values})" if values else name
    model = DensityModel(name=model_name, support=support, log_pdf=log_pdf,
                         dlog_pdf=dlog_pdf, normalized=True)
    return CatalogEntry(name=name, params=params, model=model, **facts)


def _gaussian(params: dict) -> CatalogEntry:
    return _entry(
        "gaussian", _check_params(params, {}), SupportSet.full_line(),
        quiet_overflow(lambda x: -0.5 * x * x - 0.5 * LOG_2PI),
        lambda x: -x,
        analytic_scores={"location": lambda x: x,
                         "scale": quiet_overflow(lambda x: 1.0 - x * x)},
        score_formulas={"location": "phi(x) = x", "scale": "psi(x) = 1 - x^2"},
        analytic_bounds={"location": (math.inf, math.inf), "scale": (math.inf, 1.0)},
        expected={"location": 3, "scale": math.inf},
        closed_form={
            "location": ("gaussian_location", lambda x: np.mean(x, axis=-1)),
            "scale": ("gaussian_scale", lambda x: _power_mean_rate(x, 2.0)),
        },
    )


def _gamma(params: dict) -> CatalogEntry:
    p = _check_params(params, {"alpha": None})
    alpha = p["alpha"]
    if alpha <= 0.0:
        raise InvalidParams(f"gamma needs alpha > 0, got {alpha}")
    lgam = _finite(lambda: math.lgamma(alpha), f"lgamma(alpha) at alpha={alpha:g}")
    return _entry(
        "gamma", p, SupportSet.positive_half_line(),
        lambda x: (alpha - 1.0) * np.log(x) - x - lgam,
        quiet_overflow(lambda x: (alpha - 1.0) / x - 1.0),
        analytic_scores={"scale": lambda x: alpha - x},
        score_formulas={"scale": f"psi(x) = {alpha:g} - x"},
        analytic_bounds={"scale": (math.inf, alpha)},
        expected={"scale": math.inf},
        closed_form={"scale": ("gamma_scale", lambda x: alpha * _power_mean_rate(x, 1.0))},
        blocked={"location": "support"},
    )


def _generalized_gaussian(params: dict) -> CatalogEntry:
    p = _check_params(params, {"alpha": 1.0, "gamma": 1.0})
    alpha, gam = p["alpha"], p["gamma"]
    if alpha <= 0.0 or gam == 0.0:
        raise InvalidParams("generalized gaussian needs alpha > 0 and gamma != 0")
    const = _finite(lambda: math.log(abs(gam)) + alpha * math.log(alpha) - math.lgamma(alpha),
                    f"the log-normalizer at alpha={alpha:g}, gamma={gam:g}")

    def log_pdf(x):
        # gam * x itself may overflow; the density is 0 wherever exp does
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(gam * x)
            return np.where(np.isinf(e), -np.inf, const + alpha * gam * x - alpha * e)[()]

    bound = _finite(lambda: alpha * abs(gam), "the location bound alpha*|gamma|")
    loc_bounds = (bound, math.inf) if gam > 0 else (math.inf, bound)
    return _entry(
        "generalized_gaussian", p, SupportSet.full_line(),
        log_pdf,
        quiet_overflow(lambda x: alpha * gam * (1.0 - np.exp(gam * x))),
        analytic_scores={
            "location": quiet_overflow(lambda x: alpha * gam * (np.exp(gam * x) - 1.0)),
            "scale": quiet_overflow(lambda x: 1.0 + alpha * gam * x * (1.0 - np.exp(gam * x))),
        },
        score_formulas={
            "location": "phi(x) = alpha*gamma*(exp(gamma x) - 1)",
            "scale": "psi(x) = 1 + alpha*gamma*x*(1 - exp(gamma x))",
        },
        analytic_bounds={"location": loc_bounds, "scale": (math.inf, 1.0)},
        expected={"location": math.inf, "scale": math.inf},
        closed_form={"location": ("ferguson_location",
                                  lambda x: _log_mean_exp(gam * x) / gam)},
    )


def _laplace(params: dict) -> CatalogEntry:
    return _entry(
        "laplace", _check_params(params, {}), SupportSet.full_line(),
        lambda x: -np.abs(x) - math.log(2.0),
        lambda x: -np.sign(x),
        analytic_scores={"scale": lambda x: 1.0 - np.abs(x)},
        score_formulas={"scale": "psi(x) = 1 - |x|",
                        "location": "phi(x) = sign(x) (piecewise constant)"},
        analytic_bounds={"scale": (math.inf, 1.0)},
        expected={"scale": math.inf},
        closed_form={"scale": ("laplace_scale", lambda x: _power_mean_rate(x, 1.0))},
        blocked={"location": "not_monotone"},
    )


def _weibull(params: dict) -> CatalogEntry:
    p = _check_params(params, {"k": None})
    k = p["k"]
    if k <= 0.0:
        raise InvalidParams(f"weibull needs k > 0, got {k}")
    return _entry(
        "weibull", p, SupportSet.positive_half_line(),
        quiet_overflow(lambda x: math.log(k) + (k - 1.0) * np.log(x) - np.power(x, k)),
        quiet_overflow(lambda x: (k - 1.0) / x - k * np.power(x, k - 1.0)),
        analytic_scores={"scale": quiet_overflow(lambda x: k * (1.0 - np.power(x, k)))},
        score_formulas={"scale": f"psi(x) = {k:g}*(1 - x^{k:g})"},
        analytic_bounds={"scale": (math.inf, k)},
        expected={"scale": math.inf},
        closed_form={"scale": ("weibull_scale", lambda x: _power_mean_rate(x, k))},
        blocked={"location": "support"},
    )


def _gumbel(params: dict) -> CatalogEntry:
    return _entry(
        "gumbel", _check_params(params, {}), SupportSet.full_line(),
        quiet_overflow(lambda x: -x - np.exp(-x)),
        quiet_overflow(lambda x: -1.0 + np.exp(-x)),
        analytic_scores={
            "location": quiet_overflow(lambda x: 1.0 - np.exp(-x)),
            "scale": quiet_overflow(lambda x: 1.0 + x * (-1.0 + np.exp(-x))),
        },
        score_formulas={
            "location": "phi(x) = 1 - exp(-x)",
            "scale": "psi(x) = 1 + x*(exp(-x) - 1)",
        },
        analytic_bounds={"location": (math.inf, 1.0), "scale": (math.inf, 1.0)},
        expected={"location": math.inf, "scale": math.inf},
        closed_form={"location": ("gumbel_location", lambda x: -_log_mean_exp(-x))},
    )


def _lgamma_half_step(z: float) -> float:
    """``lgamma(z + 1/2) - lgamma(z)``.  Beyond z = 1000 the two terms cancel
    (all digits are lost by z = 1e16), so there its asymptotic series
    ``log(z)/2 - 1/(8z) + 1/(192z^3)`` stands in, good to a few ulps."""
    if z <= 1e3:
        return math.lgamma(z + 0.5) - math.lgamma(z)
    return 0.5 * math.log(z) - 1.0 / (8.0 * z) + 1.0 / (192.0 * z * z * z)


def _student(params: dict) -> CatalogEntry:
    """Student's t with ``nu`` degrees of freedom.

    The log-density, its derivative and the scale score are their textbook
    expressions wherever these stay finite, each checked once per call.
    Where a square of x or its product with ``nu + 1`` overflows, each takes
    its large-|x| form instead, so all three stay finite and quiet up to the
    float limit.
    """
    p = _check_params(params, {"nu": None})
    nu = p["nu"]
    if nu <= 0.0:
        raise InvalidParams(f"student needs nu > 0, got {nu}")
    const = _finite(lambda: _lgamma_half_step(0.5 * nu) - 0.5 * math.log(nu * math.pi),
                    f"the log-normalizer at nu={nu:g}")
    # the ceiling of the bound ratio, plus one in integer arithmetic: from
    # 2^53 on, 1 + ratio would round back to the ratio
    expected_scale = max(math.ceil(_finite(lambda: max(nu, 1.0 / nu) - 1e-9,
                                           f"the scale MNSS at nu={nu:g}")) + 1, 3)

    def log_pdf(x):
        with np.errstate(over="ignore", divide="ignore"):
            v = const - 0.5 * (nu + 1.0) * np.log1p(x * x / nu)
            ok = np.isfinite(v)
            # where x^2/nu overflows, log1p(x^2/nu) is 2 log|x| - log(nu)
            return v if ok.all() else np.where(
                ok, v, const - (nu + 1.0) * (np.log(np.abs(x)) - 0.5 * math.log(nu)))

    def dlog_pdf(x):
        with np.errstate(all="ignore"):
            xx = x * x
            v = -(nu + 1.0) * x / (nu + xx)
            # the sum of v * xx is finite only if neither x^2 nor (nu + 1) x
            # overflowed; where one did, the ratio is -(nu + 1) / (x + nu/x)
            return v if math.isfinite(np.vdot(v, xx)) else np.where(
                np.isfinite(v) & np.isfinite(xx), v, -(nu + 1.0) / (x + nu / x))

    def scale_score(x):
        with np.errstate(all="ignore"):
            v = 1.0 - (nu + 1.0) * x * x / (nu + x * x)
            ok = np.isfinite(v)
            # where (nu + 1) x^2 overflows, the score is nu (r - 1) / (nu r + 1)
            # with r = 1/x^2
            return v if ok.all() else np.where(
                ok, v, nu * (1.0 / (x * x) - 1.0) / (nu / (x * x) + 1.0))

    return _entry(
        "student", p, SupportSet.full_line(),
        log_pdf, dlog_pdf,
        analytic_scores={"scale": scale_score},
        score_formulas={"scale": "psi(x) = 1 - (nu+1) x^2/(nu + x^2)"},
        analytic_bounds={"scale": (nu, 1.0)},
        expected={"scale": expected_scale},
        blocked={"location": "not_monotone"},
    )


def _logistic(params: dict) -> CatalogEntry:
    def log_pdf(x):
        a = np.abs(x)
        return -a - 2.0 * np.log1p(np.exp(-a))

    return _entry(
        "logistic", _check_params(params, {}), SupportSet.full_line(),
        log_pdf,
        lambda x: -np.tanh(0.5 * x),
        analytic_scores={
            "location": lambda x: np.tanh(0.5 * x),
            "scale": lambda x: 1.0 - x * np.tanh(0.5 * x),
        },
        score_formulas={
            "location": "phi(x) = tanh(x/2)",
            "scale": "psi(x) = 1 - x tanh(x/2)",
        },
        analytic_bounds={"location": (1.0, 1.0), "scale": (math.inf, 1.0)},
        expected={"location": 3, "scale": math.inf},
    )


def _sinh_arcsinh(params: dict) -> CatalogEntry:
    return _entry(
        "sinh_arcsinh_skew_normal", _check_params(params, {}), SupportSet.full_line(),
        quiet_overflow(lambda x: -0.5 * x * x - 0.5 * LOG_2PI),
        lambda x: -x,
        model_name="sinh_arcsinh_base",
        analytic_scores={"group": quiet_overflow(lambda x: -np.power(x, 3) / _sqrt1p2(x))},
        score_formulas={"group": "score(x) = -x^3 / sqrt(1 + x^2)"},
        analytic_bounds={"group": (math.inf, math.inf)},
        expected={"group": 3},
        blocked={"location": "not_monotone", "scale": "not_monotone"},
        transform=_SINH_ARCSINH,
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
    builder = _BUILDERS.get(name) if isinstance(name, str) else None
    if builder is None:
        raise UnknownFamily(
            f"unknown family {name!r}; known: {', '.join(sorted(_BUILDERS))}"
        )
    try:
        params = dict(params or {})
    except (TypeError, ValueError) as exc:
        raise InvalidParams(f"parameters must be a mapping, got {params!r}") from exc
    return builder(params)


def expected_mnss(entry: CatalogEntry, kind_label: str) -> SampleSize:
    """The recorded minimal necessary sample size for a characterizable kind."""
    if kind_label not in entry.characterizable_kinds:
        reason = entry.blocked.get(kind_label, "outside the characterization scope")
        raise NotCharacterizable(f"{entry.name} / {kind_label}: {reason}")
    return SampleSize(entry.expected[kind_label])


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
