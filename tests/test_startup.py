"""scipy stays off the start-up path: only adaptive quadrature imports it.

Each check runs in a fresh interpreter, because the test process itself has
scipy loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mlechar import tilt
from mlechar.score import LOCATION
from mlechar.specfiles import write_tabulated

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules(code: str, cwd: Path) -> list:
    """The scipy modules a fresh interpreter holds after running ``code``."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code + REPORT],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_cli_loads_no_scipy(tmp_path):
    assert scipy_modules("import mlechar.cli", tmp_path) == []


@pytest.fixture(scope="module")
def files(tmp_path_factory, gaussian):
    root = tmp_path_factory.mktemp("startup")
    (root / "gaussian.json").write_text(json.dumps({"catalog": "gaussian"}))
    (root / "data.txt").write_text("0.3\n-1.2\n0.8\n2.1\n")
    write_tabulated(tilt(gaussian.model, 2.0, LOCATION), root / "tilted.json")
    return root


@pytest.mark.parametrize("argv", [
    ["mcss", "--pminus", "1", "--pplus", "3", "--n", "3"],
    ["analyze", "--family", "logistic", "--kind", "loc"],
    ["analyze", "--family", "student", "--params", "nu=3", "--kind", "scale"],
    ["mle", "--family", "gaussian.json", "--kind", "loc", "--data", "data.txt"],
    # tabulated files load as normalized, so they never reach quadrature
    ["mle", "--family", "tilted.json", "--kind", "loc", "--data", "data.txt"],
], ids=lambda argv: " ".join(argv[:3]))
def test_cli_commands_without_quadrature_load_no_scipy(files, argv):
    code = f"from mlechar.cli import main\nassert main({argv!r}) == 0"
    assert scipy_modules(code, files) == []
