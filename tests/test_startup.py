"""No CLI subcommand loads scipy: the library's own numerics (tables,
normalization, solvers) are numpy code, and scipy serves the tests only.
Nor does any load ``numpy.ma``, which ``np.unique`` and ``np.median`` import
on their first call (15-20 ms).  ``import mlechar`` loads no submodule, and
only the ``suite`` subcommand loads ``mlechar.suite``.  Importing
``mlechar.score`` keeps glibc from trimming the heap under score
temporaries.

Each check runs in a fresh interpreter, because the test process itself has
scipy and every mlechar module loaded.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

from mlechar import OddPower, forge_odd_h, tilt
from mlechar.score import LOCATION
from mlechar.specfiles import write_tabulated

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m.split(".")[:2] == ["numpy", "ma"])))
"""


def run_fresh(code: str, cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def scipy_modules(code: str, cwd: Path) -> list:
    """The scipy and ``numpy.ma`` modules a fresh interpreter holds after
    running ``code``."""
    proc = run_fresh(code + REPORT, cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert scipy_modules("import mlechar.cli", tmp_path) == []


@pytest.fixture(scope="module")
def files(tmp_path_factory, gaussian):
    root = tmp_path_factory.mktemp("startup")
    (root / "gaussian.json").write_text(json.dumps({"catalog": "gaussian"}))
    (root / "data.txt").write_text("0.3\n-1.2\n0.8\n2.1\n")
    (root / "suite.json").write_text(json.dumps({
        "families": [{"name": "logistic", "params": {}, "kinds": ["location"]}],
        "equivalence": [{"name": "gaussian", "params": {}, "kind": "location"}],
        "tilt_exponents": [2.0], "trials": 20, "sample_sizes": [3], "seed": 5}))
    write_tabulated(tilt(gaussian.model, 2.0, LOCATION), root / "tilted.json")
    write_tabulated(forge_odd_h(gaussian.model, OddPower(1.0, 3)), root / "forged.json")
    return root


TILT = ["tilt", "--family", "gaussian.json", "--d", "2", "--kind", "loc",
        "--emit", "emitted-tilt.json"]
FORGE = ["forge", "--target", "gaussian.json", "--h", "odd-power:d=1,p=3",
         "--emit", "emitted-forge.json"]
SUITE = ["suite", "--config", "suite.json"]


@pytest.mark.parametrize("argv", [
    ["mcss", "--pminus", "1", "--pplus", "3", "--n", "3"],
    ["analyze", "--family", "logistic", "--kind", "loc"],
    ["analyze", "--family", "student", "--params", "nu=3", "--kind", "scale"],
    ["mle", "--family", "gaussian.json", "--kind", "loc", "--data", "data.txt"],
    # tabulated files load as normalized, so they never reach quadrature
    ["mle", "--family", "tilted.json", "--kind", "loc", "--data", "data.txt"],
    ["same-class", "--f", "gaussian.json", "--g", "tilted.json", "--kind", "loc"],
    ["verify-counterexample", "--f", "gaussian.json", "--g", "forged.json", "--n", "2",
     "--trials", "20"],
], ids=lambda argv: " ".join(argv[:3]))
def test_cli_commands_without_quadrature_load_no_scipy(files, argv):
    code = f"from mlechar.cli import main\nassert main({argv!r}) == 0"
    assert scipy_modules(code, files) == []


@pytest.mark.parametrize("argv", [TILT, FORGE, SUITE], ids=lambda argv: " ".join(argv[:3]))
def test_cli_commands_that_normalize_load_no_scipy(files, argv):
    code = f"from mlechar.cli import main\nassert main({argv!r}) == 0"
    assert scipy_modules(code, files) == []


def test_cli_commands_run_where_scipy_cannot_be_imported(files):
    # a None entry in sys.modules makes every import of scipy raise ImportError
    code = ("import sys\nsys.modules['scipy'] = None\nfrom mlechar.cli import main\n"
            + "".join(f"assert main({argv!r}) == 0\n" for argv in (TILT, FORGE, SUITE)))
    proc = run_fresh(code, files)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_package_loads_no_submodule(tmp_path):
    proc = run_fresh("import sys, mlechar\n"
                     "print(sorted(m for m in sys.modules if m.startswith('mlechar.')))",
                     tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_public_name_resolves_is_listed_and_stays_unbound(tmp_path):
    # a name bound in the package would hide a later rebinding in its submodule
    code = ("import mlechar\n"
            "missing = [n for n in mlechar.__all__ if n not in dir(mlechar)]\n"
            "assert not missing, missing\n"
            "for name in mlechar.__all__:\n"
            "    getattr(mlechar, name)\n"
            "bound = [n for n in mlechar.__all__ if n in vars(mlechar)]\n"
            "assert not bound, bound\n")
    proc = run_fresh(code, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_only_the_suite_subcommand_loads_the_suite_module(files):
    commands = [
        ["mcss", "--pminus", "1", "--pplus", "3", "--n", "3"],
        ["analyze", "--family", "student", "--params", "nu=3", "--kind", "scale"],
        ["mle", "--family", "gaussian.json", "--kind", "loc", "--data", "data.txt"],
        TILT,
        ["same-class", "--f", "gaussian.json", "--g", "tilted.json", "--kind", "loc"],
        FORGE,
        ["verify-counterexample", "--f", "gaussian.json", "--g", "forged.json", "--n", "2",
         "--trials", "20"],
    ]
    code = ("import sys\nfrom mlechar.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    assert main(argv) == 0, argv\n"
            "    assert 'mlechar.suite' not in sys.modules, argv[0]\n")
    proc = run_fresh(code, files)
    assert proc.returncode == 0, proc.stderr


CHURN = """
import resource
import numpy as np
{imports}
def churn():
    # six arrays of n floats, as a score evaluation at n makes, freed
    # together at the top of the heap
    arrays = [np.ones({n}) for _ in range(6)]
churn()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the trim threshold is glibc's")
def test_importing_score_keeps_glibc_from_trimming_the_heap_under_temporaries(tmp_path):
    # under glibc's default 128 KiB trim threshold each round hands the
    # arrays back and faults them in again; after mlechar.score is imported
    # the heap keeps them, 80 KB ones (n = 10,000) and 800 KB ones
    # (n = 100,000) alike
    for n in (10_000, 100_000):
        faults = {}
        for imports in ("", "import mlechar.score"):
            proc = run_fresh(CHURN.format(imports=imports, n=n), tmp_path)
            assert proc.returncode == 0, proc.stderr
            faults[imports] = int(proc.stdout)
        assert faults["import mlechar.score"] < 100 < faults[""], (n, faults)
