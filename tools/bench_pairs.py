"""Run alternating pairs of benchmark runs on a parent and a change checkout.

For each seed it runs ``perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones, and prints every run: its end-to-end metrics and
the minor page faults it took (``RUSAGE_CHILDREN``, so the run's own
child interpreters count too).  Then, per workload and end-to-end metric of
the change's ``BENCHMARK.json``, it prints each side's median and quartiles,
the median and quartiles of the per-pair ratios change/parent (runs of one
pair share the host's load, so these spread less than either side), the
pairs the change won (ties count for neither side) and two verdicts:

- ``gain`` when the change wins at least nine tenths of the pairs and the
  medians differ, in its favour, by more than the parent's quartile
  distance; ``no gain`` otherwise;
- against the metric's bound: ``worse beyond bound`` when the change's
  median is worse by more than the bound, ``unresolved`` when either side's
  quartile distance exceeds the bound and not every change run beats every
  parent run, ``within bound`` otherwise.

Each side runs with its own fresh, empty ``PYTHONPYCACHEPREFIX`` directory
for all of its runs, so both start from no bytecode whatever ``__pycache__``
their checkouts hold (a stale one would recompile in every child), and
neither checkout is written.  Each run also appends its full record to
``OUT/parent.jsonl`` or ``OUT/change.jsonl``, which ``tools/bench_json.py``
summarizes.  Under a run that failed operations or reported a wrong output
it prints the reasons from perfbench's report (its ``WRONG xN: ...`` and
``error xN: ...`` lines).  Exits 1 when a run fails or reports a wrong
output.

    python tools/bench_pairs.py PARENT CHANGE --workload suite_default \\
        --seeds 1-10 --seconds 20 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")

#: perfbench's report line of one failure reason: ``   WRONG x2: <reason>``
REASON = re.compile(r"^\s+(WRONG|error) x\d+: ")


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds = []
    for item in text.split(","):
        first, _, last = item.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def quartiles(values: list[float]) -> tuple[float, float]:
    # the quartile rule of perfbench/run.py: a single run is its own quartiles
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def judge(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pair rule and the bound check for one metric; ``parent[i]`` and
    ``change[i]`` are the two runs of pair i."""
    sign = 1.0 if better == "lower" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = wins >= 0.9 * len(parent) and sign * (mp - mc) > p3 - p1
    worse = sign * (mc - mp) / mp
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if max((p3 - p1) / mp, (c3 - c1) / mc) > bound and not all_better:
        versus_bound = "unresolved"
    elif worse > bound:
        versus_bound = "worse beyond bound"
    else:
        versus_bound = "within bound"
    return {"parent": (mp, p1, p3), "change": (mc, c1, c3), "change_vs_parent": (mc - mp) / mp,
            "ratio": (statistics.median(ratios), *quartiles(ratios)),
            "wins": wins, "pairs": len(parent), "gain": gain, "versus_bound": versus_bound}


def run(checkout: Path, workload: str, seed: int, seconds: float, out: Path,
        pycache: Path) -> tuple[dict, int, list[str]]:
    """One benchmark run, its bytecode kept under ``pycache``: its result
    line, the minor page faults it took and its report's failure reasons."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
                           "--out", str(out)],
                          cwd=checkout, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)})
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), faults, [line.strip() for line in lines if REASON.match(line)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for several")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"),
                        help="one pair per seed, as 1-10 or 1,4,9 (default 1-10)")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the runs' full records")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    metrics = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    names = [m["name"] for m in metrics]
    caches = tempfile.TemporaryDirectory(prefix="bench-pairs-pycache-")
    pycache = {side: Path(caches.name) / side for side in SIDES}
    for path in pycache.values():
        path.mkdir()
    code = 0
    for workload in args.workload:
        values = {side: {name: [] for name in names} for side in SIDES}
        for pair, seed in enumerate(args.seeds):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                result, faults, reasons = run(checkouts[side], workload, seed, args.seconds,
                                              (args.out / f"{side}.jsonl").resolve(),
                                              pycache[side])
                for name in names:
                    values[side][name].append(result["metrics"][name]["value"])
                ok = result["correct"] and not result["failed"]
                code = max(code, 0 if ok else 1)
                print(f"{workload} pair {pair + 1} seed {seed} {side:6s} "
                      + " ".join(f"{name}={values[side][name][-1]:.6g}" for name in names)
                      + f" minflt={faults} failed={result['failed']}/{result['attempted']}"
                      + ("" if result["correct"] else " WRONG"), flush=True)
                for reason in reasons:
                    print(f"    {reason}", flush=True)
        for metric in metrics:
            name = metric["name"]
            v = judge(values["parent"][name], values["change"][name], metric["better"],
                      metric["bound"])
            print(f"{workload} {name}: parent {v['parent'][0]:.6g} "
                  f"[{v['parent'][1]:.6g}, {v['parent'][2]:.6g}] change {v['change'][0]:.6g} "
                  f"[{v['change'][1]:.6g}, {v['change'][2]:.6g}] "
                  f"{v['change_vs_parent']:+.1%} pair ratio {v['ratio'][0]:.4g} "
                  f"[{v['ratio'][1]:.4g}, {v['ratio'][2]:.4g}] wins {v['wins']}/{v['pairs']} "
                  f"{'gain' if v['gain'] else 'no gain'}; {v['versus_bound']} {metric['bound']}",
                  flush=True)
    caches.cleanup()
    return code


if __name__ == "__main__":
    sys.exit(main())
