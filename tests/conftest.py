import pytest

from mlechar import lookup
from mlechar.density import DensityModel, SupportSet
from mlechar.suite import SuiteConfig, run_suite


@pytest.fixture(scope="session")
def avx512():
    """Whether numpy takes its AVX-512 (Skylake-X and later) loops here.

    Some of its sums and transcendental functions round differently in the
    last place there than in its AVX2 loops, which a process started with
    ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` takes on the
    same CPU; a test that pins such bits keeps one literal per path.
    """
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


@pytest.fixture(scope="session")
def gaussian():
    return lookup("gaussian")


@pytest.fixture(scope="session")
def logistic():
    return lookup("logistic")


@pytest.fixture(scope="session")
def gumbel():
    return lookup("gumbel")


@pytest.fixture(scope="session")
def gamma2():
    return lookup("gamma", {"alpha": 2.0})


@pytest.fixture(scope="session")
def weibull2():
    return lookup("weibull", {"k": 2.0})


@pytest.fixture(scope="session")
def sinh_arcsinh():
    return lookup("sinh_arcsinh_skew_normal")


@pytest.fixture(scope="session")
def quartic_unnormalized():
    """Unnormalized density exp(-x^4/4) on the full line."""
    return DensityModel(
        name="quartic",
        support=SupportSet.full_line(),
        log_pdf=lambda x: -x ** 4 / 4.0,
        dlog_pdf=lambda x: -x ** 3,
    )


@pytest.fixture(scope="session")
def default_report():
    """The full verification-suite report for the default configuration.

    Computed once per session; the acceptance tests assert against it.
    """
    return run_suite(SuiteConfig())
