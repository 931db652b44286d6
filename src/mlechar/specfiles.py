"""Family-spec files: JSON documents naming a catalog family or tabulating a
density on a grid.

Two shapes are accepted::

    {"catalog": "gamma", "params": {"alpha": 2}}
    {"tabulated": {"support": "positive_half_line",
                   "grid": [...], "log_pdf": [...],
                   "normalized": true}}

Supports are spelled ``full_line``, ``positive_half_line``,
``negative_half_line`` or a two-element ``[a, b]`` list.  Tabulated densities
are interpolated with monotone cubic pieces and normalized on load unless the
document says they already are.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import CatalogEntry, lookup
from .density import (
    DensityModel,
    SupportSet,
    compact_grid,
    effective_interval,
    normalize,
    tabulated_model,
)
from .errors import InvalidConfig, IoFailure


def _parse_support(spec) -> SupportSet:
    if isinstance(spec, str):
        named = {
            "full_line": SupportSet.full_line,
            "positive_half_line": SupportSet.positive_half_line,
            "negative_half_line": SupportSet.negative_half_line,
        }
        if spec not in named:
            raise InvalidConfig(f"unknown support name {spec!r}")
        return named[spec]()
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        return SupportSet.open_interval(float(spec[0]), float(spec[1]))
    raise InvalidConfig(f"unparseable support {spec!r}")


def _support_to_json(support: SupportSet):
    kind = support.kind
    if kind in ("full_line", "positive_half_line", "negative_half_line"):
        return kind
    return [support.lower, support.upper]


def load_family_spec(path) -> tuple[DensityModel, Optional[CatalogEntry]]:
    """Resolve a family-spec file into a normalized model (+ entry if catalog)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read family spec {path}: {exc}") from exc

    if "catalog" in doc:
        entry = lookup(doc["catalog"], doc.get("params", {}))
        return entry.model, entry
    if "tabulated" in doc:
        tab = doc["tabulated"]
        for key in ("support", "grid", "log_pdf"):
            if key not in tab:
                raise InvalidConfig(f"tabulated spec misses {key!r}")
        model = tabulated_model(
            _parse_support(tab["support"]),
            np.asarray(tab["grid"], dtype=float),
            np.asarray(tab["log_pdf"], dtype=float),
            name=tab.get("name", "tabulated"),
            normalized=bool(tab.get("normalized", False)),
        )
        if not model.normalized:
            _, model = normalize(model)
        return model, None
    raise InvalidConfig("family spec needs a 'catalog' or 'tabulated' key")


def write_tabulated(model: DensityModel, path, points: int = 4001) -> None:
    """Emit a model as a tabulated family-spec file over its effective range.

    Grid nodes are uniform in the compactified coordinate on unbounded
    supports, which concentrates resolution in the bulk of the density (and
    around score zero crossings) rather than on far tails.
    """
    _, xs = compact_grid(model.support, *effective_interval(model), points)
    ys = [model.log_pdf(float(x)) for x in xs]
    if not all(math.isfinite(y) for y in ys):
        # clip to the finite part of the grid
        finite = [i for i, y in enumerate(ys) if math.isfinite(y)]
        xs = xs[finite[0]:finite[-1] + 1]
        ys = ys[finite[0]:finite[-1] + 1]
    doc = {
        "tabulated": {
            "name": model.name,
            "support": _support_to_json(model.support),
            "grid": [float(x) for x in xs],
            "log_pdf": [float(y) for y in ys],
            "normalized": bool(model.normalized),
        }
    }
    try:
        Path(path).write_text(json.dumps(doc))
    except OSError as exc:
        raise IoFailure(f"cannot write family spec {path}: {exc}") from exc
