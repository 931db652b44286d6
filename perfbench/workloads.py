"""The benchmark's workloads.

Every workload builds its inputs from the seed during set-up, then one
closed-loop client runs a fixed number of operations back to back and checks
every output.  The number depends only on the run's length, so a seed gives
the same operations, and the same failures, on every run.
An operation that raises ``MlecharError``, or a CLI command that exits with
the error codes 2 or 3, counts as failed.  A wrong output also counts as
failed, and it makes the run incorrect.

``op(traced)`` runs one operation (a suite run, a battery pass, a
construction pass, a round of CLI commands) and returns its wall seconds.
Checks run outside the timed regions.  Program functions are called through
a module attribute, never through a name bound here, so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import mlechar
from mlechar import LOCATION, SCALE, Group, MlecharError, Sample
from mlechar import catalog, specfiles, suite
from mlechar.forge import OddPower, PlusEvenDerivative
from mlechar.suite import DEFAULT_EQUIVALENCE, DEFAULT_FAMILIES

import tracing

clock = time.perf_counter


class Tally:
    """Operations attempted, failed, and the reasons they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = Counter()   # reason -> failed operations the program signalled
        self.wrong = Counter()    # reason -> wrong outputs

    def error(self, reason):
        self.attempted += 1
        self.failed += 1
        self.errors[reason] += 1

    def check(self, good, reason):
        self.attempted += 1
        if not good:
            self.failed += 1
            self.wrong[reason] += 1


def kind_object(entry, label):
    if label == "location":
        return LOCATION
    if label == "scale":
        return SCALE
    return Group(entry.transform.u1, entry.transform.u2)


def close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(b))


def child_env():
    """Environment for child interpreters: this checkout's mlechar comes first."""
    src = str(Path(mlechar.__file__).resolve().parent.parent)
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


class Workload:
    name = ""
    why = ""
    stresses = ""
    bypasses = ""
    lookups = ()          # catalog lookups needed before the first timed operation
    imports = ("mlechar",)
    min_ops = 1
    nominal_op_s = 1.0    # wall seconds of one operation on the reference machine
    in_process = True     # False: the work happens in child processes

    def __init__(self, seed, workdir: Path):
        self.workdir = workdir
        self.tally = Tally()

    def between(self):
        """Called between the child processes of one operation."""

    @classmethod
    def op_count(cls, seconds):
        """Operations in a run meant to last ``seconds`` on the reference machine."""
        return max(cls.min_ops, round(seconds / cls.nominal_op_s))


class SuiteDefault(Workload):
    name = "suite_default"
    why = ("the paper's acceptance battery, back to back: ~35k small-sample MLE solves "
           "and ~25 cold sampler builds per run")
    stresses = "estimator, score, density.eval_dlogf, density.sample_from (sampler builds)"
    bypasses = "specfiles, cli, interpreter start-up"
    lookups = tuple((n, p) for n, p, _ in DEFAULT_FAMILIES)
    min_ops = 2           # the byte-identity check needs two reports
    nominal_op_s = 12.5

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = mlechar.SuiteConfig(seed=seed)
        self.first_report = None

    def op(self, traced):
        start = clock()
        try:
            report = mlechar.run_suite(self.config)
        except MlecharError as exc:
            self.tally.error(f"run_suite raised {type(exc).__name__}")
            return clock() - start
        wall = clock() - start
        machine = mlechar.emit_report(report, "machine")
        if self.first_report is None:
            self.first_report = machine
        failing = sorted(k for k, v in report.verdicts.items() if v != "pass")
        self.tally.check(report.passed and not failing and machine == self.first_report,
                         f"failed verdicts {failing} or machine report differs "
                         "from the first one of this seed")
        return wall


MLE_CASES = (
    ("gaussian", {}, "location"),
    ("gaussian", {}, "scale"),
    ("logistic", {}, "location"),
    ("gumbel", {}, "location"),
    ("gamma", {"alpha": 2.0}, "scale"),
    ("weibull", {"k": 2.0}, "scale"),
    ("student", {"nu": 3.0}, "scale"),
    ("sinh_arcsinh_skew_normal", {}, "group"),
)
MLE_SIZES = (1000, 10000)
MLE_TOL = 1e-10


def draw(rng, name, params, n):
    """n draws from the catalog family at theta = 0 (location) / 1 (scale)."""
    if name in ("gaussian", "sinh_arcsinh_skew_normal"):
        return rng.standard_normal(n)
    if name == "logistic":
        return rng.logistic(size=n)
    if name == "gumbel":
        return rng.gumbel(size=n)
    if name == "gamma":
        return rng.gamma(params["alpha"], size=n)
    if name == "weibull":
        return rng.weibull(params["k"], size=n)
    if name == "student":
        return rng.standard_t(params["nu"], size=n)
    raise ValueError(name)


class MleLarge(Workload):
    name = "mle_large"
    why = ("large-sample MLE (n = 1000 and 10000): per-observation score cost "
           "dominates; no sampler, no construction")
    stresses = "estimator (score sums and solver), score.pointwise, density.eval_dlogf"
    bypasses = "density.sample_from, equivalence, forge, specfiles, cli, start-up"
    lookups = tuple((n, p) for n, p, _ in MLE_CASES)
    nominal_op_s = 1.4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.cases = []
        for name, params, label in MLE_CASES:
            entry = catalog.lookup(name, params)
            kind = kind_object(entry, label)
            for n in MLE_SIZES:
                sample = Sample(draw(rng, name, params, n))
                closed = None
                if label in entry.closed_form:
                    closed = mlechar.closed_form_mle(entry, kind, sample).theta_hat
                self.cases.append((f"{name}/{label}/n={n}", entry, label, sample, closed))
        self.observations = sum(case[3].n for case in self.cases)

    def op(self, traced):
        results = []
        start = clock()
        for _, entry, label, sample, _ in self.cases:
            try:
                if label == "location":
                    results.append(mlechar.mle_location(entry.model, sample, MLE_TOL))
                elif label == "scale":
                    results.append(mlechar.mle_scale(entry.model, sample, MLE_TOL))
                else:
                    results.append(mlechar.mle_group(entry.model, entry.transform,
                                                     sample, MLE_TOL))
            except MlecharError as exc:
                results.append(exc)
        wall = clock() - start
        for (case, _, _, _, closed), result in zip(self.cases, results):
            if isinstance(result, MlecharError):
                self.tally.error(f"{case}: {type(result).__name__}")
                continue
            good = abs(result.residual) < MLE_TOL and math.isfinite(result.theta_hat)
            if closed is not None:
                good = good and close(result.theta_hat, closed, 1e-8)
            self.tally.check(good, f"{case}: theta {result.theta_hat!r} residual "
                                   f"{result.residual:.3e} closed form {closed!r}")
        return wall


TILT_EXPONENTS = (0.25, 0.5, 2.0, 5.0, 8.0)
TABULATED_D = 2.0
FORGE_TARGETS = ("gaussian", "logistic")


def forge_specs():
    return (("odd-power p=3", OddPower(1.0, 3)),
            ("odd-power p=5", OddPower(1.0, 5)),
            ("cos-perturbation", PlusEvenDerivative(w=lambda y: 0.1 * math.cos(y),
                                                    w_prime=lambda y: -0.1 * math.sin(y))))


class Construct(Workload):
    name = "construct"
    why = ("construction only (MNSS, tilts, forged densities, tabulated round trips): "
           "the 2-5% of a suite run the solver-heavy workloads hide")
    stresses = ("score.analyze_image, coverage, equivalence, forge, density.normalize, "
                "specfiles")
    bypasses = "density.sample_from, estimator solves, cli, start-up"
    lookups = tuple((n, p) for n, p, _ in DEFAULT_FAMILIES) + tuple(
        (n, p) for n, p, _ in DEFAULT_EQUIVALENCE)
    nominal_op_s = 2.5

    def op(self, traced):
        tally = self.tally
        start = clock()
        for name, params, kinds in DEFAULT_FAMILIES:
            entry = catalog.lookup(name, params)
            for label in kinds:
                case = f"mnss {name}{params}/{label}"
                try:
                    computed = mlechar.mnss(suite.build_profiles(entry, label),
                                            kind_object(entry, label))
                except MlecharError as exc:
                    tally.error(f"{case}: {type(exc).__name__}")
                    continue
                expected = mlechar.expected_mnss(entry, label)
                tally.check(computed.value == expected.value,
                            f"{case}: {computed.value} != {expected.value}")

        tabulate = []
        for name, params, label in DEFAULT_EQUIVALENCE:
            entry = catalog.lookup(name, params)
            kind = kind_object(entry, label)
            half_line = entry.model.support.kind != "full_line" and label == "scale"
            for d in TILT_EXPONENTS:
                case = f"tilt {name}/{label} d={d:g}"
                try:
                    tilted = mlechar.tilt(entry.model, d, kind)
                    d_hat = mlechar.same_class(entry.model, tilted, kind)
                    ident = (mlechar.scale_identification(entry.model, tilted).verdict
                             if half_line else None)
                except MlecharError as exc:
                    tally.error(f"{case}: {type(exc).__name__}")
                    continue
                tally.check(d_hat is not None and abs(d_hat - d) < 1e-6
                            and ident in (None, "mismatch"),
                            f"{case}: recovered {d_hat!r}, identification {ident}")
                if d == TABULATED_D:
                    tabulate.append((entry.model, tilted, kind, f"{name}/{label}"))

        for target_name in FORGE_TARGETS:
            target = catalog.lookup(target_name).model
            for label, h_spec in forge_specs():
                case = f"forge {target_name} {label}"
                try:
                    forged = mlechar.forge_odd_h(target, h_spec)
                    d_hat = mlechar.same_class(target, forged, LOCATION)
                except MlecharError as exc:
                    tally.error(f"{case}: {type(exc).__name__}")
                    continue
                tally.check(d_hat is None, f"{case}: forged density in class d={d_hat!r}")

        for i, (base, tilted, kind, label) in enumerate(tabulate):
            case = f"tabulated round trip {label} d={TABULATED_D:g}"
            path = self.workdir / f"tabulated-{i}.json"
            try:
                specfiles.write_tabulated(tilted, path)
                copy, _ = specfiles.load_family_spec(path)
                d_hat = mlechar.same_class(base, copy, kind, tol=1e-2)
            except MlecharError as exc:
                tally.error(f"{case}: {type(exc).__name__}")
                continue
            tally.check(d_hat is not None and abs(d_hat - TABULATED_D) < 1e-2,
                        f"{case}: recovered {d_hat!r}")
        return clock() - start


# analyze cases the CLI mix draws from, with the MNSS the paper gives them
ANALYZE_CASES = {
    "loc": (("gaussian", "", 3), ("logistic", "", 3), ("gumbel", "", math.inf),
            ("generalized_gaussian", "alpha=1,gamma=1", math.inf)),
    "scale": (("gamma", "alpha=2", math.inf), ("weibull", "k=3", math.inf),
              ("laplace", "", math.inf), ("student", "nu=0.5", 3),
              ("student", "nu=3", 4), ("student", "nu=5", 6)),
    "group": (("sinh_arcsinh_skew_normal", "", 3),),
}
CLI_TIMEOUT_S = 120


def paper_mcss(p_minus, p_plus):
    """ceil(max/min + 1) for unequal finite bounds, 2 for equal ones."""
    if p_minus == p_plus:
        return 2
    value = max(p_minus, p_plus) / min(p_minus, p_plus) + 1.0
    return max(int(math.ceil(value - 1e-9 * value)), 2)


def key_values(stdout):
    return dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)


class CliSession(Workload):
    name = "cli_session"
    why = ("one user running mlechar CLI commands as fresh processes: start-up "
           "(~0.9 s of ~1.1 s) and the tabulated-file paths")
    stresses = ("interpreter + numpy + scipy import, specfiles, tabulated "
                "interpolants with finite differences")
    bypasses = "nothing in-process; solves and builds are small"
    imports = ("mlechar", "mlechar.cli")
    nominal_op_s = 14.0
    in_process = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng(seed)
        self.env = child_env()
        self.command_walls = []   # untraced, one per command
        self.trace_dir = None     # where traced children write their spans
        self.traced_rounds = 0
        self.child_stats = {}
        self.cli_durations = {}
        self.commands = self._commands(rng)

    def _write(self, name, text):
        (self.workdir / name).write_text(text)
        return name

    def _commands(self, rng):
        """(subcommand, arguments, output check, known defect or None) per command."""
        gaussian = self._write("gaussian.json", json.dumps({"catalog": "gaussian"}))
        gamma = self._write("gamma2.json", json.dumps(
            {"catalog": "gamma", "params": {"alpha": 2.0}}))
        loc_data = rng.normal(rng.uniform(-1.0, 1.0), 1.0, 50)
        scale_data = rng.gamma(2.0, rng.uniform(0.5, 2.0), 50)
        loc_file = self._write("loc.txt", "\n".join(repr(float(v)) for v in loc_data))
        scale_file = self._write("scale.txt", "\n".join(repr(float(v)) for v in scale_data))
        config = self._write("suite.json", json.dumps({
            "families": [{"name": "logistic", "params": {}, "kinds": ["location"]}],
            "equivalence": [{"name": "gaussian", "params": {}, "kind": "location"}],
            "tilt_exponents": [2.0], "trials": 20, "sample_sizes": [3],
            "seed": int(rng.integers(0, 2 ** 31))}))
        p_minus, p_plus = (float(v) for v in rng.uniform(0.5, 5.0, 2))
        n_mcss = int(rng.integers(2, 9))
        d = float(rng.choice([0.5, 2.0, 5.0]))
        power = int(rng.choice([3, 5]))
        vc_seed = str(int(rng.integers(0, 2 ** 31)))
        loc_mean = float(np.mean(loc_data))
        scale_rate = 2.0 / float(np.mean(scale_data))
        mcss = paper_mcss(p_minus, p_plus)

        cmds = [("mcss", ["--pminus", repr(p_minus), "--pplus", repr(p_plus),
                          "--n", str(n_mcss)],
                 lambda kv: kv.get("mcss") == str(mcss)
                 and kv.get("projectable") == str(n_mcss >= mcss).lower(), None)]
        for kind, cases in ANALYZE_CASES.items():
            family, params, mnss = cases[int(rng.integers(len(cases)))]
            cmds.append(("analyze", ["--family", family, "--params", params, "--kind", kind],
                         lambda kv, mnss=mnss: kv.get("characterizable") == "true"
                         and kv.get("match") == "true"
                         and float(kv.get("mnss", "nan")) == mnss, None))
        cmds += [
            ("mle", ["--family", gaussian, "--kind", "loc", "--data", loc_file],
             lambda kv: close(float(kv["theta_hat"]), loc_mean, 1e-8)
             and abs(float(kv["residual"])) < MLE_TOL, None),
            ("mle", ["--family", gamma, "--kind", "scale", "--data", scale_file],
             lambda kv: close(float(kv["theta_hat"]), scale_rate, 1e-8)
             and abs(float(kv["residual"])) < MLE_TOL, None),
            ("tilt", ["--family", gaussian, "--d", repr(d), "--kind", "loc",
                      "--emit", "tilted.json"],
             lambda kv: float(kv["d"]) == d and float(kv["normalizer"]) > 0.0
             and kv.get("emitted") == "tilted.json", None),
            ("same-class", ["--f", gaussian, "--g", "tilted.json", "--kind", "loc"],
             lambda kv: kv.get("same_class") == "true" and abs(float(kv["d"]) - d) < 1e-2,
             None),
            ("forge", ["--target", gaussian, "--h", f"odd-power:d=1,p={power}",
                       "--emit", "forged.json"],
             lambda kv: kv.get("emitted") == "forged.json", None),
            ("verify-counterexample", ["--f", gaussian, "--g", "forged.json", "--n", "2",
                                       "--trials", "100", "--seed", vc_seed],
             lambda kv: float(kv["agreement_fraction"]) == 1.0,
             "the tabulated forged density misses two-point MLE agreement at the "
             "CLI's 1e-4 tolerance (p=5 on every sample set, p=3 on a few)"),
            ("verify-counterexample", ["--f", gaussian, "--g", "forged.json", "--n", "3",
                                       "--trials", "100", "--seed", vc_seed],
             lambda kv: float(kv["agreement_fraction"]) < 0.05, None),
            # the tilt of a gaussian is a gaussian: its location MLE is the mean
            ("mle", ["--family", "tilted.json", "--kind", "loc", "--data", loc_file],
             lambda kv: close(float(kv["theta_hat"]), loc_mean, 1e-4), None),
            ("suite", ["--config", config], lambda kv: True, None),
        ]
        return cmds

    def _launch(self, argv, stats_path):
        if stats_path is None:
            cmd = [sys.executable, "-m", "mlechar.cli", *argv]
        else:
            launcher = Path(__file__).resolve().parent / "cli_child.py"
            cmd = [sys.executable, str(launcher), str(stats_path), *argv]
        return subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)

    def op(self, traced):
        """One round of the command mix; returns the round's wall seconds."""
        walls = []
        self.traced_rounds += traced
        for i, (sub, args, check, defect) in enumerate(self.commands):
            stats_path = (self.trace_dir / f"round{self.traced_rounds}-{i}.jsonl"
                          if traced else None)
            start = clock()
            proc = self._launch([sub, *args], stats_path)
            walls.append(clock() - start)
            self.between()
            label = f"{sub} {' '.join(args)}"
            if traced:
                with open(stats_path) as fh:
                    stats = json.loads(fh.readlines()[-1])["stats"]
                tracing.merge(self.child_stats, stats)
                self.cli_durations.setdefault(sub, []).extend(
                    stats["durations"].get("cli.main", []))
            if proc.returncode in (2, 3):
                reason = (proc.stderr.strip().splitlines() or ["?"])[-1]
                self.tally.error(f"{label}: exit {proc.returncode}: {reason[:160]}")
                continue
            try:
                good = proc.returncode == 0 and check(key_values(proc.stdout))
                if sub == "suite":
                    good = good and "overall: PASS" in proc.stdout
            except (KeyError, ValueError):
                good = False
            if defect and not good:
                self.tally.error(f"{label}: known defect: {defect}")
            else:
                self.tally.check(good, f"{label}: exit {proc.returncode}")
        if not traced:
            self.command_walls += walls
        return sum(walls)


WORKLOADS = {w.name: w for w in (SuiteDefault, MleLarge, Construct, CliSession)}
