"""Print one line per MLE solve of the benchmark's ``mle_large`` case set.

For each seed it draws the 16 samples of ``perfbench/workloads.py`` (8
(family, kind) pairs at n = 1,000 and 10,000, from ``default_rng(seed)`` as
its ``draw`` does) and solves each as one problem of one row with
``mle_block``, the package under SRC first on the import path.  A line
gives the seed, the case, n, theta, the residual and both bracket ends as
``float.hex``, the Brent iterations, the bracket doublings and the score
sums the solve made, ``2 (doublings + 1) + max(iterations - 1, 0)``; a
solve that raises prints the error instead.  Run it on two source trees and
diff the outputs to check that a change keeps every solve bit for bit:

    python tools/solve_digest.py SRC SEED [SEED ...] > digest.txt
"""

from __future__ import annotations

import sys
from pathlib import Path


def digest(seeds) -> list[str]:
    import numpy as np

    from mlechar import MlecharError, catalog
    from mlechar.density import Rows
    from mlechar.estimator import mle_block
    from workloads import MLE_CASES, MLE_SIZES, MLE_TOL, draw

    lines = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for name, params, label in MLE_CASES:
            entry = catalog.lookup(name, params)
            kind = catalog.kind_for(entry, label)
            for n in MLE_SIZES:
                case = f"seed={seed} {name}/{label} n={n}"
                rows = Rows(draw(rng, name, params, n), np.array([n]))
                try:
                    (roots,) = mle_block(kind, [(entry.model, rows)], MLE_TOL)
                except MlecharError as exc:
                    lines.append(f"{case} {type(exc).__name__}: {exc}")
                    continue
                theta, residual, lo, hi = (float(v).hex() for v in (
                    roots.theta[0], roots.residual[0], *roots.bracket[0]))
                iterations, doublings = int(roots.iterations[0]), int(roots.doublings[0])
                sums = 2 * (doublings + 1) + max(iterations - 1, 0)
                lines.append(f"{case} theta={theta} residual={residual} bracket=[{lo}, {hi}] "
                             f"iterations={iterations} doublings={doublings} sums={sums}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()),
                    str(Path(__file__).resolve().parent.parent / "perfbench")]
    print("\n".join(digest([int(seed) for seed in argv[1:]])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
