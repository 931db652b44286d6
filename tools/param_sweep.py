"""Check the numeric MNSS against the catalog's over a fixed grid of shape parameters.

With the package under SRC first on the import path, and every warning an
error, it runs each characterizable kind of each case below through
``kind_profiles`` and ``mnss``, and compares the result with the catalog's
recorded MNSS.  The shape parameters are 10^e for each e in ``EXPONENTS``:

- gamma alpha, Weibull k and Student nu;
- generalized gaussian (alpha = 10^e, gamma = +-1) and (alpha = 1, gamma =
  +-10^e).

Lookups that raise are skipped, and each distinct (family, parameters, kind)
runs once.  It prints one count line per family and one for all of them: the
cases, how many gave the recorded MNSS (``right``), how many gave another
(``wrong``), and one count per error class raised.  Then one outcome line
per case: ``right``, ``wrong <mnss>`` or the error class.  It exits 0
whatever the counts; run it on two source trees and diff the outputs to see
which cases a change mends or breaks:

    python tools/param_sweep.py SRC > sweep.txt
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from pathlib import Path

EXPONENTS = (-6, -3, -1, 0, 1, 3, 6, 8.2, 9, 9.4, 10, 12, 15, 16, 20, 50)


def cases() -> list[tuple[str, dict]]:
    """The (family, parameters) grid, in a fixed order."""
    grid = []
    for e in EXPONENTS:
        p = 10.0 ** e
        grid += [("gamma", {"alpha": p}), ("weibull", {"k": p}), ("student", {"nu": p})]
        for sign in (1.0, -1.0):
            grid += [("generalized_gaussian", {"alpha": p, "gamma": sign}),
                     ("generalized_gaussian", {"alpha": 1.0, "gamma": sign * p})]
    return grid


def sweep() -> list[str]:
    from mlechar import MlecharError, expected_mnss, lookup, mnss
    from mlechar.catalog import kind_for
    from mlechar.score import kind_profiles

    counts: dict[str, Counter] = {}
    outcomes, seen = [], set()
    for name, params in cases():
        try:
            entry = lookup(name, params)
        except MlecharError:
            continue
        for kind in entry.characterizable_kinds:
            case = (name, tuple(params.items()), kind)
            if case in seen:
                continue
            seen.add(case)
            tally = counts.setdefault(name, Counter())
            expected = expected_mnss(entry, kind)
            label = ",".join(f"{key}={value!r}" for key, value in params.items())
            try:
                k = kind_for(entry, kind)
                got = mnss(kind_profiles(entry.model, k), k)
            except Exception as exc:
                outcome = type(exc).__name__
            else:
                outcome = "right" if got.value == expected.value else f"wrong {got}"
            tally[outcome.split()[0]] += 1
            outcomes.append(f"{name}({label}) {kind} {outcome}")
    total = sum(counts.values(), Counter())
    lines = []
    for family, tally in [*counts.items(), ("all", total)]:
        errors = sorted(key for key in tally if key not in ("right", "wrong"))
        lines.append(f"{family} cases={sum(tally.values())} right={tally['right']} "
                     f"wrong={tally['wrong']}"
                     + "".join(f" {key}={tally[key]}" for key in errors))
    return lines + outcomes


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve()))
    warnings.simplefilter("error")
    print("\n".join(sweep()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
