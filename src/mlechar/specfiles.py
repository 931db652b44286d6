"""Family-spec files: JSON documents naming a catalog family or tabulating a
density on a grid.

Two shapes are accepted::

    {"catalog": "gamma", "params": {"alpha": 2}}
    {"tabulated": {"support": "positive_half_line",
                   "grid": [...], "log_pdf": [...],
                   "normalized": true}}

The grid is spelled in one of two ways.  A list gives the nodes
themselves.  A rule ``{"compact": [t_lo, t_hi], "points": 4001}`` gives
``points`` nodes uniform in the compactified coordinate ``t`` between the
two t-ends (:func:`~mlechar.density.compact_nodes`): ``x = t / (1 - t**2)``
with ``-1 < t_lo < t_hi < 1`` on an unbounded support, ``x = t`` on a
bounded one.  :func:`write_tabulated` writes the rule, whose nodes load bit
for bit as the writer made them; hand-written files list their nodes.

The log-density values are spelled in one of two ways too.  A list gives
them as JSON numbers.  ``{"float64le": "<base64>"}`` gives their
little-endian IEEE-754 doubles in padded standard base64 without newlines;
only the canonical text is accepted, and the bytes must be a whole number of
doubles.  :func:`write_tabulated` writes the encoded spelling, so a file
loads the values the writer evaluated bit for bit, at about 43 KB for 4001
nodes (83 KB as a list).  List-spelled files load as before; files written
in the encoded spelling need a version that reads it.

Supports are spelled ``full_line``, ``positive_half_line``,
``negative_half_line`` or a two-element ``[a, b]`` list.  Tabulated densities
are interpolated with monotone cubic pieces and normalized on load unless the
document says they already are.
"""

from __future__ import annotations

import binascii
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import CatalogEntry, lookup
from .density import (
    NAMED_SUPPORTS,
    OPEN_INTERVAL,
    DensityModel,
    SupportSet,
    compact_grid,
    compact_nodes,
    effective_interval,
    normalize,
    tabulated_model,
)
from .errors import InvalidConfig, IoFailure, NonFiniteLogDensity

#: nodes of the grids :func:`write_tabulated` writes
WRITTEN_POINTS = 4001

#: the most nodes a grid rule may ask for
MAX_RULE_POINTS = 1 << 20


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


def _rule_nodes(support: SupportSet, rule: dict) -> np.ndarray:
    """The x-nodes of a grid rule, checked as outside input before any
    array is made."""
    points, ends = rule.get("points"), rule.get("compact")
    if isinstance(points, bool) or not isinstance(points, int) or not (
            4 <= points <= MAX_RULE_POINTS):
        raise InvalidConfig(f"grid rule points must be an integer in "
                            f"[4, {MAX_RULE_POINTS}], got {points!r}")
    if not (isinstance(ends, list) and len(ends) == 2 and all(
            isinstance(t, (int, float)) and not isinstance(t, bool) for t in ends)):
        raise InvalidConfig(f"grid rule compact must be two numbers, got {ends!r}")
    t_lo, t_hi = float(ends[0]), float(ends[1])
    if not (math.isfinite(t_lo) and math.isfinite(t_hi) and t_lo < t_hi):
        raise InvalidConfig(f"grid rule t-ends must be finite and increasing, "
                            f"got {t_lo!r}, {t_hi!r}")
    if support.kind != OPEN_INTERVAL and not -1.0 < t_lo < t_hi < 1.0:
        raise InvalidConfig(f"grid rule t-ends must lie in (-1, 1) on {support}, "
                            f"got {t_lo!r}, {t_hi!r}")
    return compact_nodes(support, t_lo, t_hi, points)[1]


def read_json(path, what: str):
    """The JSON document in the file at ``path``; a file that cannot be read,
    decoded or parsed raises :class:`IoFailure` naming it as ``what``."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc


def _decode_doubles(spec: dict) -> np.ndarray:
    """The doubles of a ``{"float64le": "<base64>"}`` object, checked as
    outside input: the one key, canonical text and a whole number of doubles."""
    text = spec.get("float64le")
    try:
        raw = binascii.a2b_base64(text)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(f"tabulated log_pdf is not base64 text: {exc}") from exc
    if (spec.keys() != {"float64le"} or len(raw) % 8
            or binascii.b2a_base64(raw, newline=False) != text.encode()):
        raise InvalidConfig('tabulated log_pdf must be {"float64le": "<base64>"}, '
                            "canonical and of whole doubles")
    return np.frombuffer(raw, dtype="<f8").astype(float)


def load_family_spec(path) -> tuple[DensityModel, Optional[CatalogEntry]]:
    """Resolve a family-spec file into a normalized model (+ entry if catalog)."""
    doc = read_json(path, "family spec")
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
        support = _parse_support(tab["support"])
        normalized = tab.get("normalized", False)
        if not isinstance(normalized, bool):
            raise InvalidConfig(f"tabulated normalized must be true or false, got {normalized!r}")
        try:
            grid = (_rule_nodes(support, tab["grid"]) if isinstance(tab["grid"], dict)
                    else np.asarray(tab["grid"], dtype=float))
            log_pdf = (_decode_doubles(tab["log_pdf"]) if isinstance(tab["log_pdf"], dict)
                       else np.asarray(tab["log_pdf"], dtype=float))
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidConfig(f"tabulated grid and log_pdf must be numbers: {exc}") from exc
        model = tabulated_model(
            support,
            grid,
            log_pdf,
            name=tab.get("name", "tabulated"),
            normalized=normalized,
        )
        if not model.normalized:
            _, model = normalize(model)
        return model, None
    raise InvalidConfig("family spec needs a 'catalog' or 'tabulated' key")


def write_tabulated(model: DensityModel, path) -> None:
    """Emit a model as a tabulated family-spec file over its effective range.

    The grid nodes are uniform in the compactified coordinate on unbounded
    supports, which concentrates resolution in the bulk of the density (and
    around score zero crossings) rather than on far tails; the file holds
    their rule, and the log-density values as their encoded doubles.  Where
    the log-density is not finite at the outer nodes, the grid shrinks to
    the t-ends and count of the finite run between them and is evaluated
    anew; a value that is still not finite raises
    :class:`NonFiniteLogDensity`.
    """
    ts, xs = compact_grid(model.support, *effective_interval(model), WRITTEN_POINTS)
    ys = model.log_pdf(xs)
    finite = np.flatnonzero(np.isfinite(ys))
    if not finite.size:
        raise NonFiniteLogDensity(f"log-density of {model.name} is not finite on its grid")
    rule = {"compact": [float(ts[finite[0]]), float(ts[finite[-1]])],
            "points": int(finite[-1] - finite[0]) + 1}
    if finite.size < ys.size:
        ys = model.log_pdf(compact_nodes(model.support, *rule["compact"], rule["points"])[1])
        if not np.isfinite(ys).all():
            raise NonFiniteLogDensity(f"log-density of {model.name} is not finite "
                                      "between the ends of its finite run")
    doc = {
        "tabulated": {
            "name": model.name,
            "support": _support_to_json(model.support),
            "grid": rule,
            "log_pdf": {"float64le": binascii.b2a_base64(
                np.asarray(ys, dtype="<f8").tobytes(), newline=False).decode()},
            "normalized": bool(model.normalized),
        }
    }
    try:
        Path(path).write_text(json.dumps(doc))
    except OSError as exc:
        raise IoFailure(f"cannot write family spec {path}: {exc}") from exc
