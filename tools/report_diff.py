"""Compare two machine reports of the verification suite.

Prints every numeric field that moved between report A and report B, with
its absolute and relative change.  Exits 1 when the reports differ in
anything but numbers: the schema, the seed or the configuration, the
sections and their record keys, the verdicts, any string or bool field, or
any value of the ``catalog_mnss`` section.  Exits 0 otherwise, also when
numbers moved.  Prints nothing when the reports are identical.

    python tools/report_diff.py A.json B.json
"""

from __future__ import annotations

import json
import sys

EXACT_SECTIONS = ("catalog_mnss",)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _label(section: str, index: int, record: dict) -> str:
    tags = [str(record[k]) for k in ("check", "family", "pair", "kind", "d") if k in record]
    return f"{section}[{index}]" + (f" ({' '.join(tags)})" if tags else "")


def diff(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """``(moved, mismatches)``: lines for moved numbers and for other differences."""
    moved, mismatches = [], []
    for key in ("schema_version", "seed", "config", "verdicts", "passed"):
        if a.get(key) != b.get(key):
            mismatches.append(f"{key}: {a.get(key)!r} != {b.get(key)!r}")
    sections_a, sections_b = a.get("sections", {}), b.get("sections", {})
    if list(sections_a) != list(sections_b):
        mismatches.append(f"sections: {list(sections_a)} != {list(sections_b)}")
    for section in [name for name in sections_a if name in sections_b]:
        records_a, records_b = sections_a[section], sections_b[section]
        if len(records_a) != len(records_b):
            mismatches.append(f"{section}: {len(records_a)} != {len(records_b)} records")
        for i, (ra, rb) in enumerate(zip(records_a, records_b)):
            label = _label(section, i, ra)
            if list(ra) != list(rb):
                mismatches.append(f"{label}: keys {list(ra)} != {list(rb)}")
            for field in [key for key in ra if key in rb]:
                va, vb = ra[field], rb[field]
                if va == vb:
                    continue
                if _is_number(va) and _is_number(vb):
                    change = vb - va
                    rel = abs(change) / abs(va) if va else float("inf")
                    line = f"{label}.{field}: {va!r} -> {vb!r}  abs={change:+.3e} rel={rel:.3e}"
                    (mismatches if section in EXACT_SECTIONS else moved).append(line)
                else:
                    mismatches.append(f"{label}.{field}: {va!r} != {vb!r}")
    return moved, mismatches


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    reports = []
    for path in args:
        with open(path) as fh:
            reports.append(json.load(fh))
    moved, mismatches = diff(*reports)
    for line in moved:
        print(f"moved {line}")
    for line in mismatches:
        print(f"DIFFERS {line}")
    if moved or mismatches:
        print(f"{len(moved)} numeric fields moved, {len(mismatches)} other differences")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
