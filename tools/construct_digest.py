"""Print the numbers that construction gives, as hex lines, for a fixed case set.

For each (family, parameters) of the suite's default family list, with the
package under SRC first on the import path, it prints the model's effective
intervals at drops 40 and 60.  For each kind the family admits (location,
scale, and group where the family carries a transform) it prints the image
bounds of every ``kind_profiles`` profile and, for tilts at d = 0.5 and 3,
the normalizer, the tilt's own ``log_mass``, its effective intervals and
the sha256 of its scan (grid and log-density bytes), which the tilt is
handed as it is built.
The d = 3 tilt is written as a tabulated file and loaded back: the line
gives the file's sha256 and the loaded model's ``log_mass`` and intervals.
The six forged densities of the benchmark's ``construct`` workload (three
perturbations of each of two targets) get the same lines as a tilt.  Floats
print as ``float.hex``; a step that raises prints the error instead.  Run it
on two source trees and diff the outputs to check that a change keeps every
constructed number bit for bit; FAMILY arguments keep only those families:

    python tools/construct_digest.py SRC [FAMILY ...] > digest.txt
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

TILT_EXPONENTS = (0.5, 3.0)
WRITTEN_D = 3.0
KINDS = ("location", "scale", "group")


def _hex(*values) -> str:
    return " ".join(float(v).hex() for v in values)


def _intervals(model) -> str:
    from mlechar.density import effective_interval

    return " ".join(f"interval{drop}=[{_hex(*effective_interval(model, drop=drop))}]"
                    for drop in (40.0, 60.0))


def _model_lines(case: str, model, workdir: Path, write: bool) -> list[str]:
    """``log_mass``, intervals and scan sha256 of a normalized model; with
    ``write``, also its tabulated file's sha256 and the loaded copy's
    numbers."""
    from mlechar import MlecharError, specfiles
    from mlechar.density import log_mass

    lines = []
    try:
        scan = hashlib.sha256(b"".join(a.tobytes() for a in model.scan)).hexdigest()
        lines.append(f"{case} log_mass={_hex(log_mass(model))} {_intervals(model)} "
                     f"scan sha256={scan}")
        if write:
            path = workdir / "written.json"
            specfiles.write_tabulated(model, path)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            loaded, _ = specfiles.load_family_spec(path)
            lines.append(f"{case} file sha256={digest} loaded log_mass="
                         f"{_hex(log_mass(loaded))} {_intervals(loaded)}")
    except MlecharError as exc:
        lines.append(f"{case} {type(exc).__name__}: {exc}")
    return lines


def digest(families, workdir: Path) -> list[str]:
    from mlechar import MlecharError, catalog
    from mlechar.equivalence import tilt_with_spec
    from mlechar.forge import forge_odd_h
    from mlechar.score import kind_profiles
    from mlechar.suite import DEFAULT_FAMILIES
    from workloads import FORGE_TARGETS, forge_specs

    lines = []
    for name, params, _ in DEFAULT_FAMILIES:
        if families and name not in families:
            continue
        entry = catalog.lookup(name, params)
        model = entry.model
        lines.append(f"{model.name} {_intervals(model)}")
        for label in KINDS:
            try:
                kind = catalog.kind_for(entry, label)
                kind.check(model.support)
            except MlecharError:
                continue
            case = f"{model.name}/{label}"
            try:
                bounds = [f"[{_hex(p.p_minus, p.p_plus)}]" for p in kind_profiles(model, kind)]
                lines.append(f"{case} bounds={' '.join(bounds)}")
            except MlecharError as exc:
                lines.append(f"{case} bounds {type(exc).__name__}: {exc}")
            for d in TILT_EXPONENTS:
                tilt_case = f"{case} tilt d={d:g}"
                try:
                    tilted, c = tilt_with_spec(model, d, kind)
                except MlecharError as exc:
                    lines.append(f"{tilt_case} {type(exc).__name__}: {exc}")
                    continue
                lines.append(f"{tilt_case} c={_hex(c)}")
                lines += _model_lines(tilt_case, tilted, workdir, d == WRITTEN_D)
    for target_name in FORGE_TARGETS:
        if families and target_name not in families:
            continue
        target = catalog.lookup(target_name).model
        for label, h_spec in forge_specs():
            case = f"forge {target.name} {label}"
            try:
                forged = forge_odd_h(target, h_spec)
            except MlecharError as exc:
                lines.append(f"{case} {type(exc).__name__}: {exc}")
                continue
            lines += _model_lines(case, forged, workdir, True)
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()),
                    str(Path(__file__).resolve().parent.parent / "perfbench")]
    with tempfile.TemporaryDirectory() as workdir:
        print("\n".join(digest(set(argv[1:]), Path(workdir))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
