"""Semantic exception hierarchy shared by all modules."""


class MlecharError(Exception):
    """Base error for this package."""


# --- density layer ---------------------------------------------------------


class OutsideSupport(MlecharError):
    """Evaluation point is not strictly inside the declared support."""


class NonFiniteLogDensity(MlecharError):
    """log-density returned -inf (or NaN) at a probe point where a finite
    value is required."""


class DivergentIntegral(MlecharError):
    """Adaptive quadrature failed to converge; the integrand is (numerically)
    non-integrable over the requested range."""


class InversionFailure(MlecharError):
    """Numeric CDF inversion could not bracket the requested quantile."""


# --- score layer ------------------------------------------------------------


class UnsupportedSupport(MlecharError):
    """The support shape is incompatible with the requested parameter kind."""


class NotMonotone(MlecharError):
    """A score function turned back, or was flat short of its float limit, on
    its scan grid or past it."""


# --- coverage layer ---------------------------------------------------------


class InvalidBounds(MlecharError):
    """Image bounds must be strictly positive (possibly infinite)."""


class BudgetExceeded(MlecharError):
    """Brute-force enumeration request exceeds the allowed budget."""


class NotCharacterizable(MlecharError):
    """The family fails the preconditions of the characterization results
    for the requested parameter kind."""


# --- equivalence layer ------------------------------------------------------


class DegenerateScore(MlecharError):
    """Reference score is numerically zero on the whole comparison grid."""


class SingletonClass(MlecharError):
    """The equivalence class is a singleton; only the identity tilt (d = 1)
    is admissible."""


# --- estimator layer --------------------------------------------------------


class BracketFailure(MlecharError):
    """Sign-change bracketing failed within the expansion budget."""


class AllZeroSample(MlecharError):
    """A scale estimate requires at least one nonzero observation."""


class NoClosedForm(MlecharError):
    """The catalog entry declares no closed-form estimator for this kind, or
    its closed form has no value in the kind's range on the sample."""


# --- catalog layer ----------------------------------------------------------


class UnknownFamily(MlecharError):
    """Family name not present in the catalog."""


class InvalidParams(MlecharError, ValueError):
    """Arguments violate their domain constraints: family parameters, sample
    sizes, supports, tabulated grids, tilt exponents, tolerances.  Counts
    and seeds must be integers and reals must be numbers, neither a bool,
    and tolerances must be reals above 0; anything else raises this too."""


# --- harness -----------------------------------------------------------------


class InvalidConfig(MlecharError):
    """Suite configuration violates its contract."""


class IoFailure(MlecharError):
    """Report emission or parsing failed."""
