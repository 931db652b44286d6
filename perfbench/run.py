"""mlechar benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --compare before.jsonl after.jsonl

With ``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json,
its times scaled to a reference speed of the machine (see speed.py), with
``--trace 1`` the per-layer ones.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give every metric with its unit and sample count, plus the figures
named for the workload alone (``suite_s``, ``mle_obs_per_s``, ...).  Each run
also appends its full record (metadata, samples, quartiles, failures) to
``--out``.  See NOTES.md for the workloads, the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy
import scipy

import speed
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3
WORKLOAD_NAMES = ("suite_default", "mle_large", "construct", "cli_session")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values, value=statistics.median):
    """``value(values)`` (the median by default), with the sample count,
    quartiles and samples."""
    q1, q3 = quartiles(values)
    return {"value": value(values), "samples": len(values),
            "q1": q1, "q3": q3, "values": values}


def git_rev():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def metadata():
    return {"git_rev": git_rev(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "started_utc": datetime.now(timezone.utc).isoformat(),
            "loadavg_start": os.getloadavg()}


def setup_probe(workload_cls, env):
    """Wall seconds of a fresh interpreter importing mlechar and doing the
    catalog lookups the workload needs before its first timed operation."""
    code = "\n".join([*(f"import {m}" for m in workload_cls.imports),
                      "from mlechar.catalog import lookup",
                      f"for name, params in {json.dumps(workload_cls.lookups)}:",
                      "    lookup(name, params)"])
    # with its output captured, the wait ends when the child's pipes close;
    # otherwise a wait with a timeout polls, in steps of up to 50 ms
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   capture_output=True, timeout=120)
    return time.perf_counter() - start


def run_ops(workload, count, traced):
    """Run ``count`` operations back to back; returns their wall seconds."""
    return [workload.op(traced) for _ in range(count)]


def run_traced(workload, count, spans):
    """Half of ``count`` operations untraced, then the rest traced.

    Spans go to files in the directory ``spans``.  Returns the per-layer
    values and the operations' wall seconds.
    """
    plain = run_ops(workload, max(1, count // 2), False)
    count = max(1, count - len(plain))
    if workload.in_process:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_ops(workload, count, True)
        finally:
            tracer.uninstall()
        tracer.dump_spans(spans / "spans.jsonl")
        stats, cli_durations = tracer.stats(), {}
    else:
        workload.trace_dir = spans
        traced = run_ops(workload, count, True)
        stats, cli_durations = workload.child_stats, workload.cli_durations
    metrics = tracing.layer_metrics(stats, len(traced), cli_durations)
    traced_wall = statistics.median(traced)
    metrics["trace.op_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(plain)
    metrics["trace.accounted_frac"] = sum(stats["self_s"].values()) / sum(traced)
    return metrics, {"untraced_walls": plain, "traced_walls": traced}


def workload_figures(workload, walls):
    """The figures named for this workload alone: name -> (value, unit, samples)."""
    name, mean = workload.name, statistics.fmean(walls)
    if name == "suite_default":
        return {"suite_s": (mean, "s", len(walls))}
    if name == "mle_large":
        return {"mle_obs_per_s": (workload.observations / mean, "1/s", len(walls))}
    if name == "construct":
        return {"construct_s": (mean, "s", len(walls))}
    commands = workload.command_walls
    return {"cmd_p50_s": (statistics.median(commands), "s", len(commands)),
            "cmd_p90_s": (statistics.quantiles(commands, n=10)[8], "s", len(commands))}


def run_one(args, bench):
    from workloads import WORKLOADS, child_env

    cls = WORKLOADS[args.workload]
    meta = metadata()
    meta["seed"] = args.seed
    workdir = OUT / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = cls(args.seed, workdir)
        if args.trace:
            spans = OUT / "spans" / f"{args.workload}-{args.seed}"
            shutil.rmtree(spans, ignore_errors=True)
            spans.mkdir(parents=True)
            values, figures = run_traced(workload, cls.op_count(args.seconds), spans)
            values = {name: {"value": v} for name, v in values.items()}
        else:
            env, child_probe = child_env(), speed.SpeedProbe(*speed.CHILD)
            setup = [child_probe.measure(lambda: setup_probe(cls, env))
                     for _ in range(SETUP_PROBES)]
            probe = (speed.SpeedProbe(*speed.IN_PROCESS) if workload.in_process
                     else child_probe)
            workload.between = probe.sample
            with probe.timer() if workload.in_process else contextlib.nullcontext():
                timed = [probe.measure(lambda: workload.op(False))
                         for _ in range(cls.op_count(args.seconds))]
            walls = [wall for wall, _ in timed]
            who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
            values = {"setup_s": summary([ref for _, ref in setup]),
                      "op_s": summary([ref for _, ref in timed], statistics.fmean),
                      "peak_rss_mb": summary([resource.getrusage(who).ru_maxrss / 1024])}
            figures = {"setup_wall_s": (statistics.median(w for w, _ in setup), "s", len(setup)),
                       "op_wall_s": (statistics.fmean(walls), "s", len(walls)),
                       "speed_samples": (len(probe.samples), "count", len(probe.samples)),
                       **workload_figures(workload, walls)}
            figures = {name: {"value": v, "unit": u, "samples": n}
                       for name, (v, u, n) in figures.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    tally = workload.tally
    return {
        "workload": args.workload, "why": cls.why, "stresses": cls.stresses,
        "bypasses": cls.bypasses, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": meta, "correct": not tally.wrong,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / max(tally.attempted, 1),
        "errors": dict(tally.errors), "wrong": dict(tally.wrong),
        "metrics": {m["name"]: {**values[m["name"]], "unit": m["unit"]} for m in listed},
        "figures": figures,
    }


def report(record):
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']}): "
          f"{record['why']}")
    print(f"   stresses: {record['stresses']}; bypasses: {record['bypasses']}")
    rows = list(record["metrics"].items())
    if not record["trace"]:
        rows += list(record["figures"].items())
    for name, m in rows:
        spread = (f"  (n={m['samples']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})"
                  if "q1" in m else f"  (n={m['samples']})" if "samples" in m else "")
        print(f"   {name:40s} {m['value']:<14.6g} {m['unit']}{spread}")
    print(f"   failed_frac = {record['failed_frac']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for reason, count in {**record["errors"], **record["wrong"]}.items():
        kind = "WRONG" if reason in record["wrong"] else "error"
        print(f"   {kind} x{count}: {reason}")


def result_line(record):
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"],
                       "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                   for k, v in record["metrics"].items()}})


def run_all(args):
    """Each workload in its own process, so peak RSS stays per workload."""
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace), "--out", str(args.out)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        code = max(code, proc.returncode)
        if lines and proc.returncode in (0, 1):
            results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": code == 0 and len(results) == len(WORKLOAD_NAMES),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return code


def compare(path_a, path_b, bench):
    """Per workload and end-to-end metric: medians, quartiles, verdict."""
    def load(path):
        runs = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
        return runs

    a, b = load(path_a), load(path_b)
    print(f"{'workload':14s} {'metric':12s} {'median A':>11s} {'IQR A':>23s} "
          f"{'median B':>11s} {'IQR B':>23s} {'B vs A':>8s} verdict")
    for workload in [w for w in a if w in b]:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = [r["metrics"][name]["value"] for r in a[workload]]
            vb = [r["metrics"][name]["value"] for r in b[workload]]
            ma, mb = statistics.median(va), statistics.median(vb)
            (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (mb - ma) / ma
            wider = max((a3 - a1) / ma, (b3 - b1) / mb) > bound
            all_better = (max(vb) < min(va)) if sign > 0 else (min(vb) > max(va))
            if wider and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = f"WORSE beyond bound {bound}"
            elif -worse > bound:
                verdict = f"better beyond bound {bound}"
            else:
                verdict = f"within bound {bound}"
            print(f"{workload:14s} {name:12s} {ma:11.5g} [{a1:10.5g},{a3:10.5g}] "
                  f"{mb:11.5g} [{b1:10.5g},{b3:10.5g}] {worse:+8.2%} {verdict}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=OUT / "results.jsonl",
                        help="file each run appends its full record to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(*args.compare, bench)
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "mlechar" / "__init__.py").is_file():
        print(f"no mlechar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    record = run_one(args, bench)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")
    report(record)
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
