"""Command-line interface.

Subcommands: analyze, mcss, mle, tilt, same-class, forge,
verify-counterexample, suite.  Scalar results are printed as flat
``key=value`` lines; suite reports are emitted as schema-versioned JSON.

Exit codes: 0 success / all verdicts pass, 1 failed verdict, 2 configuration
error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import catalog as cat
from .coverage import is_projectable, mcss, mnss, projection_interval
from .density import Sample
from .equivalence import CLASS_RATIO_TOL, same_class, tilt_with_spec
from .errors import (
    InvalidConfig,
    InvalidParams,
    IoFailure,
    MlecharError,
    NotMonotone,
    UnknownFamily,
    UnsupportedSupport,
)
from .estimator import mle
from .forge import AGREEMENT_TOL, OddPower, PlusEvenDerivative, forge_odd_h, verify_counterexample
from .score import kind_profiles
from .specfiles import load_family_spec, read_json, write_tabulated

KIND_ALIASES = {"loc": "location", "location": "location",
                "scale": "scale", "sca": "scale",
                "group": "group"}


def _kv(key, value) -> None:
    print(f"{key}={value}")


def _parse_bound(text: str) -> float:
    # float() reads inf, +inf and infinity in any case, spaces around included
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidConfig(f"bound {text!r} is not a number") from exc


def _parse_params(text: str) -> dict:
    params = {}
    if text:
        for piece in text.split(","):
            if "=" not in piece:
                raise InvalidConfig(f"parameter {piece!r} is not key=value")
            key, value = piece.split("=", 1)
            try:
                params[key.strip()] = float(value)
            except ValueError as exc:
                raise InvalidConfig(f"parameter {piece!r}: {exc}") from exc
    return params


def _parse_kind(text: str) -> str:
    kind = KIND_ALIASES.get(text.strip().lower())
    if kind is None:
        raise InvalidConfig(f"unknown kind {text!r} (use loc, scale or group)")
    return kind


def _tol(given, f_entry, g_entry, analytic: float, interpolated: float) -> float:
    """``given``, or the default for the pair: ``analytic`` when both spec
    files name catalog families, ``interpolated`` when one is tabulated."""
    if given is not None:
        return given
    # interpolated (tabulated) densities carry derivative noise from the
    # monotone-cubic pieces; the same-class ratio test needs tol well above
    # the square root of that noise (the floor |score_f| > tol admits points
    # where the noise is amplified by 1/tol)
    both = f_entry is not None and g_entry is not None
    return analytic if both else interpolated


def _read_sample(path: str) -> Sample:
    try:
        values = [float(line) for line in Path(path).read_text().split()]
    except (OSError, ValueError) as exc:
        raise IoFailure(f"cannot read sample file {path}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise IoFailure(f"sample file {path} holds a value that is not finite")
    return Sample(np.asarray(values))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_analyze(args) -> int:
    entry = cat.lookup(args.family, _parse_params(args.params))
    kind = _parse_kind(args.kind)
    _kv("family", entry.name)
    _kv("params", json.dumps(entry.params, sort_keys=True))
    _kv("kind", kind)
    _kv("score_formula", entry.score_formulas.get(kind, "n/a"))
    _kv("needs_scale_identification",
        str(entry.needs_scale_identification and kind == "scale").lower())
    if kind not in entry.characterizable_kinds:
        _kv("characterizable", "false")
        _kv("reason", entry.blocked.get(kind, "outside scope"))
        return 0
    try:
        profiles = kind_profiles(entry.model, cat.kind_for(entry, kind))
    except (NotMonotone, UnsupportedSupport) as exc:
        _kv("characterizable", "false")
        _kv("reason", str(exc))
        return 0
    # a profile that does not cross zero fails here, before its mcss is asked for
    computed = mnss(profiles, cat.kind_for(entry, kind))
    for prof in profiles:
        tag = f"bounds{prof.domain}"
        _kv(tag, f"(-{prof.p_minus}, {prof.p_plus})")
        _kv(f"provenance{prof.domain}", prof.provenance)
        _kv(f"mcss{prof.domain}", mcss(prof.p_minus, prof.p_plus).value)
    expected = cat.expected_mnss(entry, kind)
    _kv("mnss", computed.value)
    _kv("expected_mnss", expected.value)
    _kv("characterizable", "true")
    _kv("match", str(computed.value == expected.value).lower())
    return 0


def _cmd_mcss(args) -> int:
    pm, pp = _parse_bound(args.pminus), _parse_bound(args.pplus)
    result = mcss(pm, pp)
    if args.n is not None:
        # checks n, so that a bad n fails before anything is printed
        lo, hi = projection_interval(pm, pp, args.n)
    _kv("p_minus", pm)
    _kv("p_plus", pp)
    _kv("mcss", result.value)
    if args.n is not None:
        _kv("n", args.n)
        _kv("projection_interval", f"({lo}, {hi})")
        _kv("projectable", str(is_projectable(pm, pp, args.n)).lower())
    return 0


def _cmd_mle(args) -> int:
    model, entry = load_family_spec(args.family)
    kind = _parse_kind(args.kind)
    sample = _read_sample(args.data)
    result = mle(model, cat.kind_for(entry, kind), sample)
    _kv("n", sample.n)
    _kv("theta_hat", repr(result.theta_hat))
    if kind == "scale":
        _kv("sigma_hat", repr(result.sigma_hat))
    _kv("residual", f"{result.residual:.3e}")
    _kv("method", result.method)
    return 0


def _cmd_tilt(args) -> int:
    model, entry = load_family_spec(args.family)
    kind_label = _parse_kind(args.kind)
    tilted, normalizer = tilt_with_spec(model, args.d, cat.kind_for(entry, kind_label))
    # an emit path that cannot be written fails before anything is printed
    if args.emit:
        write_tabulated(tilted, args.emit)
    _kv("base", model.name)
    _kv("kind", kind_label)
    _kv("d", args.d)
    _kv("normalizer", repr(normalizer))
    if args.emit:
        _kv("emitted", args.emit)
    return 0


def _cmd_same_class(args) -> int:
    f_model, f_entry = load_family_spec(args.f)
    g_model, g_entry = load_family_spec(args.g)
    kind_label = _parse_kind(args.kind)
    kind = cat.kind_for(f_entry, kind_label)
    tol = _tol(args.tol, f_entry, g_entry, analytic=CLASS_RATIO_TOL, interpolated=1e-2)
    d = same_class(f_model, g_model, kind, tol=tol)
    _kv("tol", tol)
    if d is None:
        _kv("same_class", "false")
        _kv("verdict", "distinct classes")
    else:
        _kv("same_class", "true")
        _kv("d", repr(d))
    return 0


def _parse_h_spec(text: str):
    head, _, body = text.partition(":")
    options = _parse_params(body)
    if head == "odd-power":
        p = options.get("p", 3.0)
        if not p.is_integer():
            raise InvalidConfig(f"odd-power needs an integer p, got {p:g}")
        return OddPower(d=options.get("d", 1.0), p=int(p))
    if head == "cos-perturbation":
        amp = options.get("amplitude", 0.1)
        return PlusEvenDerivative(
            w=lambda y: amp * math.cos(y),
            w_prime=lambda y: -amp * math.sin(y),
        )
    raise InvalidConfig(
        f"unknown h spec {text!r} (use odd-power:d=..,p=.. or "
        "cos-perturbation:amplitude=..)"
    )


def _cmd_forge(args) -> int:
    target, _ = load_family_spec(args.target)
    h_spec = _parse_h_spec(args.h)
    forged = forge_odd_h(target, h_spec)
    if args.emit:
        write_tabulated(forged, args.emit)
    _kv("target", target.name)
    _kv("h", args.h)
    _kv("forged", forged.name)
    if args.emit:
        _kv("emitted", args.emit)
    return 0


def _cmd_verify_counterexample(args) -> int:
    f_model, f_entry = load_family_spec(args.f)
    g_model, g_entry = load_family_spec(args.g)
    tol = _tol(args.tol, f_entry, g_entry, analytic=AGREEMENT_TOL, interpolated=1e-4)
    report = verify_counterexample(f_model, g_model, n=args.n, trials=args.trials,
                                   seed=args.seed, tol=tol)
    _kv("n", report.n)
    _kv("trials", report.trials)
    _kv("tol", report.tol)
    _kv("agreement_fraction", report.agreement_fraction)
    if report.worst is not None:
        _kv("worst_sample", ",".join(f"{v:.6g}" for v in report.worst.sample))
        _kv("worst_theta_f", repr(report.worst.theta_f))
        _kv("worst_theta_g", repr(report.worst.theta_g))
        _kv("worst_gap", repr(report.worst.gap))
    return 0


def _cmd_suite(args) -> int:
    # the one subcommand that needs the suite module
    from .suite import SuiteConfig, config_from_json, emit_report, run_suite

    config = (config_from_json(read_json(args.config, "suite config")) if args.config
              else SuiteConfig())
    report = run_suite(config)
    if args.output:
        try:
            Path(args.output).write_bytes(emit_report(report, "machine"))
        except OSError as exc:
            raise IoFailure(f"cannot write report to {args.output}: {exc}") from exc
    sys.stdout.write(emit_report(report, "text").decode())
    if args.output:
        _kv("report_written", args.output)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mlechar",
        description="MLE characterization toolkit: score images, covering "
                    "sample sizes, equivalence classes, counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="characterizability analysis of a catalog family")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default="", help="comma-separated key=value list")
    p.add_argument("--kind", required=True, help="loc | scale | group")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("mcss", help="minimal covering sample size for image bounds")
    p.add_argument("--pminus", required=True, help="positive real or 'inf'")
    p.add_argument("--pplus", required=True, help="positive real or 'inf'")
    p.add_argument("--n", type=int, default=None, help="also report the projection interval")
    p.set_defaults(fn=_cmd_mcss)

    p = sub.add_parser("mle", help="maximum-likelihood estimate from a data file")
    p.add_argument("--family", required=True, help="family-spec JSON file")
    p.add_argument("--kind", required=True)
    p.add_argument("--data", required=True, help="one real per line")
    p.set_defaults(fn=_cmd_mle)

    p = sub.add_parser("tilt", help="construct an equivalence-class member")
    p.add_argument("--family", required=True, help="family-spec JSON file")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--kind", required=True)
    p.add_argument("--emit", default=None, help="write the tilted density (tabulated)")
    p.set_defaults(fn=_cmd_tilt)

    p = sub.add_parser("same-class", help="test two densities for a shared class")
    p.add_argument("--f", required=True, help="family-spec JSON file")
    p.add_argument("--g", required=True, help="family-spec JSON file")
    p.add_argument("--kind", required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="ratio-constancy tolerance (default: auto)")
    p.set_defaults(fn=_cmd_same_class)

    p = sub.add_parser("forge", help="construct a shared-MLE counterexample density")
    p.add_argument("--target", required=True, help="family-spec JSON file")
    p.add_argument("--h", required=True, help="odd-power:d=..,p=.. or cos-perturbation:amplitude=..")
    p.add_argument("--emit", default=None)
    p.set_defaults(fn=_cmd_forge)

    p = sub.add_parser("verify-counterexample", help="empirical shared-MLE agreement report")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", type=float, default=None,
                   help="agreement tolerance (default: auto)")
    p.set_defaults(fn=_cmd_verify_counterexample)

    p = sub.add_parser("suite", help="run the verification suite")
    p.add_argument("--config", default=None, help="suite config JSON file")
    p.add_argument("--output", default=None, help="machine report destination")
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvalidConfig, UnknownFamily, InvalidParams, IoFailure) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # counts an array can address that this machine cannot hold
        detail = f": {exc}" if str(exc) else ""
        print(f"configuration error: out of memory{detail}", file=sys.stderr)
        return 2
    except MlecharError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
