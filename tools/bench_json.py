"""Summarize the benchmark runs of one git revision as a BENCH file.

Reads the records that ``perfbench/run.py`` appends to its results file
(one JSON object per line), keeps the untraced runs of the given revision
and writes, per workload: the Python, numpy and scipy versions, nproc, the
number of runs and their seeds, and the median and quartiles over the runs
of every end-to-end metric (``op_s``, ``setup_s``, ``peak_rss_mb``).
Exits 1 unless the untraced runs of exactly one revision match, or when the
runs of one workload disagree on the versions or nproc.

    python tools/bench_json.py RESULTS.jsonl --rev SHA -o BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

METRICS = ("op_s", "setup_s", "peak_rss_mb")
MACHINE = ("python", "numpy", "scipy", "nproc")


def _spread(values: list[float]) -> dict:
    # the quartile rule of perfbench/run.py: a single run is its own quartiles
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(records: list[dict], rev: str) -> dict:
    """The BENCH document of the untraced runs whose git rev starts with ``rev``."""
    runs: dict[str, list[dict]] = {}
    for rec in records:
        if not rec["trace"] and rec["metadata"]["git_rev"].startswith(rev):
            runs.setdefault(rec["workload"], []).append(rec)
    revs = {rec["metadata"]["git_rev"] for recs in runs.values() for rec in recs}
    if len(revs) != 1:
        raise ValueError(f"{len(revs)} revisions match {rev!r}: {sorted(revs)}")
    workloads = {}
    for name, recs in sorted(runs.items()):
        machines = {tuple(rec["metadata"][key] for key in MACHINE) for rec in recs}
        if len(machines) != 1:
            raise ValueError(f"{name}: runs disagree on {', '.join(MACHINE)}: {sorted(machines)}")
        workloads[name] = {
            **dict(zip(MACHINE, machines.pop())),
            "runs": len(recs),
            "seeds": [rec["seed"] for rec in recs],
            "metrics": {metric: {"unit": recs[0]["metrics"][metric]["unit"],
                                 **_spread([rec["metrics"][metric]["value"] for rec in recs])}
                        for metric in METRICS},
        }
    return {"git_rev": revs.pop(), "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results", help="a perfbench results file (JSON lines)")
    parser.add_argument("--rev", required=True, help="git revision, or a prefix of it")
    parser.add_argument("-o", "--output", required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)
    with open(args.results) as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    try:
        doc = summarize(records, args.rev)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    with open(args.output, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
