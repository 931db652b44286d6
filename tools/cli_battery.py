"""Run a fixed battery of ``mlechar`` commands and print what each one gives.

Every command runs in a fresh interpreter (``python -m mlechar.cli``) with
SRC first on ``PYTHONPATH``, inside a temporary directory that holds the spec,
sample and suite-config files the battery writes itself.  For each command it
prints the arguments, the exit code, stdout, every line of stderr and the
sha256 of every file the command wrote or changed.  The wall-clock time on
the suite's ``overall:`` line is masked, so two runs on one tree print the
same text.  Run it on two source trees and diff the outputs to compare their
command-line behaviour:

    python tools/cli_battery.py SRC > battery.txt
"""

from __future__ import annotations

import binascii
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 300


def _tabulated_gaussian(encoded: bool = False, **extra) -> dict:
    grid = [i / 10.0 for i in range(-80, 81)]
    log_pdf = [-0.5 * x * x for x in grid]
    if encoded:
        raw = struct.pack(f"<{len(log_pdf)}d", *log_pdf)
        log_pdf = {"float64le": binascii.b2a_base64(raw, newline=False).decode()}
    return {"tabulated": {"support": "full_line", "grid": grid, "log_pdf": log_pdf,
                          **extra}}


def _suite(**overrides) -> dict:
    doc = {"families": [{"name": "logistic", "params": {}, "kinds": ["location"]}],
           "equivalence": [{"name": "gaussian", "params": {}, "kind": "location"}],
           "tilt_exponents": [2.0], "trials": 10, "sample_sizes": [3], "seed": 5}
    return {**doc, **overrides}


#: the input files, by name: JSON documents or, for a string or bytes, the
#: raw content
INPUTS = {
    "gauss.json": {"catalog": "gaussian"},
    "gamma2.json": {"catalog": "gamma", "params": {"alpha": 2}},
    "logistic.json": {"catalog": "logistic"},
    "gumbel.json": {"catalog": "gumbel"},
    "weibull2.json": {"catalog": "weibull", "params": {"k": 2}},
    "student3.json": {"catalog": "student", "params": {"nu": 3}},
    "sinh.json": {"catalog": "sinh_arcsinh_skew_normal"},
    "tab_gauss.json": _tabulated_gaussian(),
    # the same table with its values encoded: every command prints the same
    "tab_gauss_f8.json": _tabulated_gaussian(encoded=True),
    # normalized takes a JSON boolean only
    "tab_gauss_normalized_string.json": _tabulated_gaussian(normalized="false"),
    "five.json": 5,
    "no_kind.json": {"catalog": "cauchy"},
    "gamma_true.json": {"catalog": "gamma", "params": {"alpha": True}},
    "gamma_string.json": {"catalog": "gamma", "params": {"alpha": "2"}},
    "broken.json": "{",
    "latin1.json": '{"catalog": "gaussian", "name": "Gauß"}'.encode("latin-1"),
    "nested.json": "[" * 200_000,
    # keys a family spec does not know, and a catalog family beside a table
    "extra_key.json": {"catalog": "gaussian", "kind": "scale"},
    "tab_gauss_extra_key.json": _tabulated_gaussian(dlog_pdf=[0.0]),
    "tab_rule_extra_key.json": {"tabulated": {"support": "full_line", "log_pdf": [0, -1, -1, 0],
                                              "grid": {"compact": [-0.5, 0.5], "points": 4,
                                                       "inset": 0.1}}},
    "catalog_and_table.json": {"catalog": "gaussian", **_tabulated_gaussian()},
    "loc.txt": "-0.7\n0.2\n1.9\n0.4\n-1.1\n2.3\n0.05\n",
    "scale.txt": "0.8\n2.5\n1.1\n3.9\n0.35\n1.6\n",
    "one.txt": "1.0\n",
    "huge.txt": "1e308\n1.5e308\n",
    "huge4.txt": "1e308\n1.5e308\n1.7e308\n1.2e308\n",
    # theta * 1e-300 underflows onto the origin of a half-line
    "tiny_huge.txt": "1e-300\n1e300\n",
    # 2,000 gumbel quantiles: one row long enough to be summed by extraction
    "big.txt": "".join(f"{-math.log(-math.log((i + 0.5) / 2000))!r}\n" for i in range(2000)),
    "empty.txt": "",
    "nan.txt": "1.0\nnan\n",
    "words.txt": "1.0\nabc\n",
    "suite.json": _suite(),
    "suite_kind_typo.json": _suite(families=[{"name": "gaussian", "kind": ["location"]}]),
    "suite_parms_typo.json": _suite(
        equivalence=[{"name": "gaussian", "parms": {}, "kind": "location"}]),
    "suite_entry_string.json": _suite(families=["gaussian"]),
    "suite_fractional_trials.json": _suite(trials=2.9),
    "suite_string_seed.json": _suite(seed="5"),
    "suite_zero_trials.json": _suite(trials=0),
    "suite_unknown_key.json": _suite(trails=20),
    "suite_true_param.json": _suite(
        families=[{"name": "gamma", "params": {"alpha": True}, "kinds": ["scale"]}]),
    "suite_string_param.json": _suite(
        equivalence=[{"name": "weibull", "params": {"k": "2"}, "kind": "scale"}]),
    # the config picks the workload; no threshold of a check is configurable
    "suite_tolerances.json": _suite(tolerances={"agreement_tol": 1e300}),
    "suite_string_tilt.json": _suite(tilt_exponents=["2"]),
    "suite_string_kinds.json": _suite(
        families=[{"name": "gaussian", "params": {}, "kinds": "location"}]),
    "suite_output_path.json": _suite(output_path="report.json"),
    "suite_huge_trials.json": _suite(trials=1e30),
    # seeds are kept to 32 bits, so a seed outside [0, 2**32 - 1] is refused
    "suite_wide_seed.json": _suite(seed=4294967301),
    "suite_negative_seed.json": _suite(seed=-1),
}

#: the commands, as the arguments after ``mlechar``
COMMANDS = [
    "--help",
    "",
    "nonesuch",
    *(f"{sub} --help" for sub in ("analyze", "mcss", "mle", "tilt", "same-class", "forge",
                                  "verify-counterexample", "suite")),
    # mcss
    "mcss --pminus 1 --pplus 3 --n 3",
    "mcss --pminus 1 --pplus 3",
    "mcss --pminus inf --pplus 1",
    "mcss --pminus inf --pplus inf --n 2",
    "mcss --pminus 2 --pplus 2 --n 1",
    "mcss --pminus 1 --pplus 3.0000000001 --n 4",
    "mcss --pminus 0.5 --pplus 4.25 --n 12",
    "mcss --pminus 1 --pplus 3 --n 0",
    "mcss --pminus 1 --pplus 3 --n -3",
    "mcss --pminus -1 --pplus 2",
    "mcss --pminus 0 --pplus 2 --n 0",
    "mcss --pminus abc --pplus 2",
    "mcss --pminus 1e-320 --pplus 1e308",
    # integer ratios where a relative ceiling fuzz would exceed one
    "mcss --pminus 1e9 --pplus 1 --n 1000000000",
    "mcss --pminus 1e9 --pplus 1 --n 1000000001",
    "mcss --pminus 1 --pplus 1e12",
    # integer ratios from 2^53 on, where ratio + 1.0 rounds back
    "mcss --pminus 9007199254740992 --pplus 1 --n 9007199254740992",
    "mcss --pminus 9007199254740992 --pplus 1 --n 9007199254740993",
    "mcss --pminus 1 --pplus 1152921504606846976 --n 1152921504606846976",
    "mcss --pminus 1 --pplus 2 --n 2.5",
    # analyze
    "analyze --family gaussian --kind loc",
    "analyze --family gaussian --kind scale",
    "analyze --family gamma --params alpha=2 --kind scale",
    "analyze --family gamma --params alpha=2 --kind loc",
    # a numeric image that does not cross zero
    "analyze --family gamma --params alpha=1e-300 --kind scale",
    "analyze --family generalized_gaussian --params alpha=2,gamma=-0.5 --kind location",
    "analyze --family generalized_gaussian --kind sca",
    "analyze --family generalized_gaussian --params alpha=1e300,gamma=1e300 --kind loc",
    "analyze --family laplace --kind scale",
    "analyze --family laplace --kind loc",
    "analyze --family weibull --params k=2 --kind scale",
    "analyze --family gumbel --kind loc",
    "analyze --family student --params nu=3 --kind scale",
    "analyze --family student --params nu=0.5 --kind scale",
    "analyze --family logistic --kind loc",
    "analyze --family sinh_arcsinh_skew_normal --kind group",
    "analyze --family gaussian --kind group",
    "analyze --family cauchy --kind loc",
    "analyze --family gamma --kind scale",
    "analyze --family gamma --params alpha --kind scale",
    "analyze --family gamma --params alpha=x --kind scale",
    "analyze --family gaussian --kind shape",
    # mle
    "mle --family gauss.json --kind loc --data loc.txt",
    "mle --family gauss.json --kind scale --data loc.txt",
    "mle --family gamma2.json --kind scale --data scale.txt",
    # negative data on a half-line: the refusal names the first value outside
    "mle --family gamma2.json --kind scale --data loc.txt",
    "mle --family logistic.json --kind loc --data loc.txt",
    "mle --family gumbel.json --kind location --data loc.txt",
    "mle --family gumbel.json --kind location --data big.txt",
    "mle --family weibull2.json --kind scale --data scale.txt",
    "mle --family student3.json --kind scale --data loc.txt",
    "mle --family sinh.json --kind group --data loc.txt",
    "mle --family tab_gauss.json --kind loc --data loc.txt",
    "mle --family tab_gauss_f8.json --kind loc --data loc.txt",
    "mle --family gauss.json --kind loc --data one.txt",
    "mle --family logistic.json --kind loc --data huge.txt",
    "mle --family logistic.json --kind loc --data huge4.txt",
    "mle --family gamma2.json --kind scale --data tiny_huge.txt",
    "mle --family weibull2.json --kind scale --data tiny_huge.txt",
    "mle --family gamma2.json --kind loc --data scale.txt",
    "mle --family gauss.json --kind loc --data empty.txt",
    "mle --family gauss.json --kind loc --data nan.txt",
    "mle --family gauss.json --kind loc --data words.txt",
    "mle --family gauss.json --kind loc --data missing.txt",
    "mle --family missing.json --kind loc --data loc.txt",
    "mle --family five.json --kind loc --data loc.txt",
    "mle --family broken.json --kind loc --data loc.txt",
    "mle --family latin1.json --kind loc --data loc.txt",
    "mle --family nested.json --kind loc --data loc.txt",
    "mle --family tab_gauss_normalized_string.json --kind loc --data loc.txt",
    "mle --family extra_key.json --kind loc --data loc.txt",
    "mle --family tab_gauss_extra_key.json --kind loc --data loc.txt",
    "mle --family tab_rule_extra_key.json --kind loc --data loc.txt",
    "mle --family catalog_and_table.json --kind loc --data loc.txt",
    "mle --family no_kind.json --kind loc --data loc.txt",
    "mle --family gamma_true.json --kind scale --data scale.txt",
    "mle --family gamma_string.json --kind scale --data scale.txt",
    # tilt
    "tilt --family gauss.json --d 2 --kind loc --emit t_gauss.json",
    "tilt --family gamma2.json --d 0.5 --kind scale --emit t_gamma.json",
    "tilt --family logistic.json --d 5 --kind loc",
    "tilt --family weibull2.json --d 3 --kind scale",
    "tilt --family sinh.json --d 2 --kind group --emit t_sinh.json",
    "tilt --family sinh.json --d 0.5 --kind group",
    "tilt --family gauss.json --d 1 --kind scale",
    "tilt --family gauss.json --d 2 --kind scale",
    "tilt --family gamma2.json --d 2 --kind loc",
    "tilt --family gamma2.json --d 2 --kind group",
    "tilt --family gauss.json --d -1 --kind loc",
    "tilt --family gauss.json --d nan --kind loc",
    "tilt --family tab_gauss.json --d 2 --kind loc",
    "tilt --family tab_gauss_f8.json --d 2 --kind loc",
    "tilt --family gauss.json --d 2 --kind loc --emit no_dir/t.json",
    "tilt --family gauss.json --d 1e308 --kind loc",
    "tilt --family sinh.json --d 1e300 --kind group",
    # same-class
    "same-class --f gauss.json --g t_gauss.json --kind loc",
    "same-class --f gamma2.json --g t_gamma.json --kind scale",
    "same-class --f sinh.json --g t_sinh.json --kind group",
    "same-class --f gauss.json --g logistic.json --kind loc",
    "same-class --f gauss.json --g gauss.json --kind loc --tol 1e-3",
    "same-class --f gauss.json --g gamma2.json --kind scale",
    "same-class --f gauss.json --g gauss.json --kind loc --tol -1",
    # forge
    "forge --target gauss.json --h odd-power:d=1,p=3 --emit f3.json",
    "forge --target gauss.json --h odd-power:d=2,p=5",
    "forge --target logistic.json --h cos-perturbation:amplitude=0.1 --emit fcos.json",
    "forge --target gauss.json --h odd-power:p=2",
    "forge --target gauss.json --h odd-power:p=3.5",
    "forge --target gauss.json --h odd-power:d=-1",
    "forge --target gauss.json --h wiggle",
    "forge --target gauss.json --h odd-power:d=1,p=3 --emit no_dir/f.json",
    "forge --target gauss.json --h odd-power:p=3,d=1e308",
    "forge --target gauss.json --h odd-power:p=301",
    "forge --target gauss.json --h cos-perturbation:amplitude=1e308",
    # verify-counterexample
    "verify-counterexample --f gauss.json --g f3.json --n 2 --trials 20 --seed 3",
    "verify-counterexample --f gauss.json --g f3.json --n 3 --trials 20 --seed 3",
    "verify-counterexample --f gauss.json --g logistic.json --n 3 --trials 10",
    "verify-counterexample --f gauss.json --g gauss.json --n 2 --trials 0",
    "verify-counterexample --f gauss.json --g gauss.json --n 0",
    "verify-counterexample --f gauss.json --g gauss.json --n 2 --trials 5 --seed -1",
    "verify-counterexample --f gauss.json --g gauss.json --n 2 --tol -1",
    "verify-counterexample --f gauss.json --g gauss.json --n 3 --trials 100000000000000000000",
    "verify-counterexample --f gauss.json --g gauss.json --n 100000000000000000000 --trials 2",
    # suite
    "suite --config suite.json",
    "suite --config suite.json --output report.json",
    "suite --config suite_kind_typo.json",
    "suite --config suite_parms_typo.json",
    "suite --config suite_entry_string.json",
    "suite --config suite_fractional_trials.json",
    "suite --config suite_string_seed.json",
    "suite --config suite_zero_trials.json",
    "suite --config suite_unknown_key.json",
    "suite --config suite_true_param.json",
    "suite --config suite_string_param.json",
    "suite --config suite_tolerances.json",
    "suite --config suite_string_tilt.json",
    "suite --config suite_string_kinds.json",
    "suite --config suite_output_path.json",
    "suite --config suite_huge_trials.json",
    "suite --config suite_wide_seed.json",
    "suite --config suite_negative_seed.json",
    "suite --config missing.json",
    "suite --config broken.json",
    "suite --config latin1.json",
    "suite --config nested.json",
]

_WALL_CLOCK = re.compile(r"^(overall: \w+)  \[[0-9.]+s\]$")


def write_inputs(workdir: Path) -> None:
    """Write the battery's input files into ``workdir``."""
    for name, doc in INPUTS.items():
        path = workdir / name
        if isinstance(doc, bytes):
            path.write_bytes(doc)
        else:
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))


def _hashes(workdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir()) if p.is_file()}


def run(src: Path, command: str, workdir: Path) -> str:
    """Run one command on the package under ``src``; the printed block."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, (str(src),
                                                       os.environ.get("PYTHONPATH"))))}
    before = _hashes(workdir)
    proc = subprocess.run([sys.executable, "-m", "mlechar.cli", *command.split()],
                          cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    after = _hashes(workdir)
    stderr = proc.stderr.strip().splitlines()
    lines = [f"$ mlechar {command}", f"exit={proc.returncode}"]
    stdout = [_WALL_CLOCK.sub(r"\1  [<wall>s]", line) for line in proc.stdout.splitlines()]
    lines += [f"  {line}" for line in stdout]
    lines += [f"stderr: {line}" for line in stderr] or ["stderr: "]
    lines += [f"file {name} sha256={digest}" for name, digest in after.items()
              if before.get(name) != digest]
    return "\n".join(lines) + "\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        write_inputs(workdir)
        for command in COMMANDS:
            sys.stdout.write(run(src, command, workdir))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
