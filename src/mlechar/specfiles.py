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
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import CatalogEntry, lookup
from .density import (
    NAMED_SUPPORTS,
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
        if spec not in NAMED_SUPPORTS:
            raise InvalidConfig(f"unknown support name {spec!r}")
        return getattr(SupportSet, spec)()
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        try:
            lower, upper = float(spec[0]), float(spec[1])
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"unparseable support {spec!r}") from exc
        return SupportSet.open_interval(lower, upper)
    raise InvalidConfig(f"unparseable support {spec!r}")


def _support_to_json(support: SupportSet):
    if support.kind in NAMED_SUPPORTS:
        return support.kind
    return [support.lower, support.upper]


def load_family_spec(path) -> tuple[DensityModel, Optional[CatalogEntry]]:
    """Resolve a family-spec file into a normalized model (+ entry if catalog)."""
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise IoFailure(f"cannot read family spec {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidConfig(f"family spec {path} is not a JSON object")

    if "catalog" in doc:
        params = doc.get("params", {})
        if not isinstance(params, dict):
            raise InvalidConfig("catalog spec params must be a JSON object")
        entry = lookup(doc["catalog"], params)
        return entry.model, entry
    if "tabulated" in doc:
        tab = doc["tabulated"]
        if not isinstance(tab, dict):
            raise InvalidConfig("tabulated spec is not a JSON object")
        for key in ("support", "grid", "log_pdf"):
            if key not in tab:
                raise InvalidConfig(f"tabulated spec misses {key!r}")
        try:
            grid = np.asarray(tab["grid"], dtype=float)
            log_pdf = np.asarray(tab["log_pdf"], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"tabulated grid and log_pdf must be numbers: {exc}") from exc
        model = tabulated_model(
            _parse_support(tab["support"]),
            grid,
            log_pdf,
            name=tab.get("name", "tabulated"),
            normalized=bool(tab.get("normalized", False)),
        )
        if not model.normalized:
            _, model = normalize(model)
        return model, None
    raise InvalidConfig("family spec needs a 'catalog' or 'tabulated' key")


def write_tabulated(model: DensityModel, path) -> None:
    """Emit a model as a tabulated family-spec file over its effective range.

    The 4001 grid nodes are uniform in the compactified coordinate on unbounded
    supports, which concentrates resolution in the bulk of the density (and
    around score zero crossings) rather than on far tails.
    """
    _, xs = compact_grid(model.support, *effective_interval(model), 4001)
    ys = model.log_pdf(xs)
    finite = np.flatnonzero(np.isfinite(ys))
    # clip to the finite part of the grid
    xs, ys = xs[finite[0]:finite[-1] + 1], ys[finite[0]:finite[-1] + 1]
    doc = {
        "tabulated": {
            "name": model.name,
            "support": _support_to_json(model.support),
            "grid": xs.tolist(),
            "log_pdf": ys.tolist(),
            "normalized": bool(model.normalized),
        }
    }
    try:
        Path(path).write_text(json.dumps(doc))
    except OSError as exc:
        raise IoFailure(f"cannot write family spec {path}: {exc}") from exc
