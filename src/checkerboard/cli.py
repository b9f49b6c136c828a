"""Command-line surface for reproducible runs.

Eight subcommands map onto the library: member, boost, and spectrum query
the rational spacetime; enumerate lists lattice paths with amplitudes;
exact and propagator evaluate the finite-lattice and limiting components;
converge emits deviation tables for either lattice model as CSV; and
dirac-check runs the finite-difference verification.

Conventions: rational-valued flags take "a/b" or plain integer strings,
real-valued flags take decimal literals; which is which is stated in each
flag's help text. Rationals are printed as "num/den" in lowest terms,
reals with 17 significant digits so files round-trip bit-exactly. Every
output carries schema_version = 1. Exit codes: 0 success, 2 usage error
(including an --output file that cannot be written), 3 domain error,
4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Any, Optional

from .dirac import Region, dirac_residual
from .errors import CheckerboardError, InvalidParameterError, ResourceLimitError
from .linear import WARNING_COMPONENT, linear_converge
from .paths import (DEFAULT_ENUMERATION_CAP, Direction, bend_records,
                    enumerate_paths, path_amplitude)
from .propagator import (COMPONENT_ORDER, LatticeSpec, closed_matrix,
                         convergence_sweep, exact_parts)
from .spacetime import (SpacetimePoint, apply_boost, boost, format_rational,
                        is_member, parse_rational, velocity_spectrum)

SCHEMA_VERSION = 1

CSV_HEADER = ["schema_version", "P", "Q", "t", "v", "component",
              "exact_re", "exact_im", "closed_re", "closed_im",
              "abs_err", "rel_err"]


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one CLI invocation."""

    subcommand: str
    params: dict[str, Any]
    output: Optional[str] = None
    fmt: str = "json"
    cap: int = DEFAULT_ENUMERATION_CAP


def _fmt_real(x: float) -> str:
    return format(float(x), ".17g")


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational 'a/b' or integer, got {text!r}") from None


def _direction(text: str) -> Direction:
    try:
        return Direction(text.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected R or L, got {text!r}") from None


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def format_amplitude(poly) -> str:
    """Human-readable polynomial in the bend symbol, e.g. 3*(i*eps0)^2."""
    parts = []
    for k in poly.orders():
        c = poly.coeff(k)
        if k == 0:
            parts.append(str(c))
            continue
        base = "(i*eps0)" if k == 1 else f"(i*eps0)^{k}"
        parts.append(base if c == 1 else f"{c}*{base}")
    return " + ".join(parts) if parts else "0"


def _cmd_member(cfg: RunConfig) -> str:
    t = cfg.params["t"]
    x = cfg.params["x"]
    witness = is_member(SpacetimePoint(t=t, x=x))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "t": format_rational(t),
        "x": format_rational(x),
        "member": witness is not None,
        "witness": None if witness is None else {
            "n": witness.n, "m": witness.m, "p": witness.p, "q": witness.q},
    }
    return _dump_json(payload)


def _cmd_boost(cfg: RunConfig) -> str:
    b = boost(cfg.params["p"], cfg.params["q"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "generator": {"p": b.p, "q": b.q},
        "matrix": {"a11": format_rational(b.a11), "a12": format_rational(b.a12),
                   "a21": format_rational(b.a21), "a22": format_rational(b.a22)},
        "velocity": format_rational(b.velocity),
        "determinant": format_rational(b.determinant),
    }
    apply_t = cfg.params.get("apply_t")
    apply_x = cfg.params.get("apply_x")
    if (apply_t is None) != (apply_x is None):
        raise InvalidParameterError("--apply-t and --apply-x go together")
    if apply_t is not None:
        moved = apply_boost(b, SpacetimePoint(t=apply_t, x=apply_x))
        payload["applied"] = {"t": format_rational(moved.t),
                              "x": format_rational(moved.x)}
    return _dump_json(payload)


def _cmd_spectrum(cfg: RunConfig) -> str:
    values = velocity_spectrum(cfg.params["max_pq"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "max_pq": cfg.params["max_pq"],
        "count": len(values),
        "velocities": [format_rational(v) for v in values],
    }
    return _dump_json(payload)


def _cmd_enumerate(cfg: RunConfig) -> str:
    P, Q = cfg.params["P"], cfg.params["Q"]
    start, end = cfg.params["start"], cfg.params["end"]
    paths = list(enumerate_paths(P, Q, start, end, cap=cfg.cap))
    if cfg.fmt == "text":
        lines = []
        for p in paths:
            amp = format_amplitude(path_amplitude(p))
            lines.append(f"{p} bends={p.bends} to_right={p.bends_to_right} "
                         f"to_left={p.bends_to_left} amplitude={amp}")
        return "\n".join(lines) + ("\n" if lines else "")
    entries = []
    for p in paths:
        counted = sum(1 for rec in bend_records(p) if rec.counted)
        entries.append({
            "path": str(p),
            "bends": p.bends,
            "to_right": p.bends_to_right,
            "to_left": p.bends_to_left,
            "counted_bends": counted,
            "amplitude": path_amplitude(p).to_json_dict(),
        })
    payload = {
        "schema_version": SCHEMA_VERSION,
        "P": P, "Q": Q, "start": str(start), "end": str(end),
        "count": len(entries),
        "paths": entries,
    }
    return _dump_json(payload)


def _cmd_exact(cfg: RunConfig) -> str:
    spec = LatticeSpec(P=cfg.params["P"], Q=cfg.params["Q"], t=cfg.params["t"])
    parts = exact_parts(spec)
    components = {}
    for name in COMPONENT_ORDER:
        re, im = parts[name]
        components[name] = {
            "re": format_rational(re), "im": format_rational(im),
            "re_float": float(re), "im_float": float(im),
        }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "P": spec.P, "Q": spec.Q,
        "t": format_rational(spec.t),
        "v": format_rational(spec.v),
        "x": format_rational(spec.x),
        "eps0": format_rational(spec.eps0),
        "components": components,
    }
    return _dump_json(payload)


def _cmd_propagator(cfg: RunConfig) -> str:
    t, x = cfg.params["t"], cfg.params["x"]
    m = closed_matrix(t, x)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "t": t, "x": x,
        "s": sqrt((t - x) * (t + x)),
        "components": {name: {"re": m.component(name).real,
                              "im": m.component(name).imag}
                       for name in COMPONENT_ORDER},
    }
    return _dump_json(payload)


def _cmd_converge(cfg: RunConfig) -> str:
    model = cfg.params["model"]
    t, v = cfg.params["t"], cfg.params["v"]
    if model == "quadratic":
        if cfg.params.get("p_list") is None:
            raise InvalidParameterError("--model quadratic requires --p")
        rows = convergence_sweep(t, v, cfg.params["p_list"])
    else:
        if cfg.params.get("n_list") is None:
            raise InvalidParameterError("--model linear requires --n")
        rows = linear_converge(t, v, cfg.params["n_list"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        if row.component == WARNING_COMPONENT:
            print(f"warning: N={row.P} cannot realize v={format_rational(v)} "
                  "with integer segment counts; emitting marker row",
                  file=sys.stderr)
        writer.writerow([
            SCHEMA_VERSION, row.P, row.Q,
            format_rational(row.t), format_rational(row.v), row.component,
            _fmt_real(row.exact_re), _fmt_real(row.exact_im),
            _fmt_real(row.closed_re), _fmt_real(row.closed_im),
            _fmt_real(row.abs_err), _fmt_real(row.rel_err),
        ])
    return buf.getvalue()


def _cmd_dirac_check(cfg: RunConfig) -> str:
    region = Region(t0=cfg.params["t0"], t1=cfg.params["t1"],
                    xfrac=cfg.params["xfrac"])
    report = dirac_residual(region, cfg.params["h"],
                            j0_scale=cfg.params["j0_scale"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "t0": region.t0, "t1": region.t1, "xfrac": region.xfrac,
        "h": report.h, "margin": report.margin,
        "j0_scale": report.j0_scale,
        "points": {"h": report.points_coarse, "h_half": report.points_fine},
        "max_residual": {"h": report.max_residual_h,
                         "h_half": report.max_residual_h2},
        "ratio": report.ratio,
        "observed_order": report.observed_order,
    }
    return _dump_json(payload)


_HANDLERS = {
    "member": _cmd_member,
    "boost": _cmd_boost,
    "spectrum": _cmd_spectrum,
    "enumerate": _cmd_enumerate,
    "exact": _cmd_exact,
    "propagator": _cmd_propagator,
    "converge": _cmd_converge,
    "dirac-check": _cmd_dirac_check,
}


def run(config: RunConfig) -> int:
    """Execute one configured invocation; returns the process exit code."""
    text = _HANDLERS[config.subcommand](config)
    if config.output:
        try:
            with open(config.output, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {config.output}: {exc.strerror or exc}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write to this file instead of stdout")

    ap = argparse.ArgumentParser(
        prog="checkerboard",
        description="Dirac propagator components from checkerboard path "
                    "sums on a rational spacetime lattice")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", parents=[common],
                       help="test lattice-spacetime membership of a rational event")
    p.add_argument("--t", type=_rational, required=True,
                   help="time, rational 'a/b' or integer")
    p.add_argument("--x", type=_rational, required=True,
                   help="position, rational 'a/b' or integer")

    p = sub.add_parser("boost", parents=[common],
                       help="exact boost matrix for generator (p, q)")
    p.add_argument("--p", type=int, required=True, help="generator p (nonzero integer)")
    p.add_argument("--q", type=int, required=True, help="generator q (nonzero integer)")
    p.add_argument("--apply-t", type=_rational, dest="apply_t",
                   help="optionally transform this event time (rational)")
    p.add_argument("--apply-x", type=_rational, dest="apply_x",
                   help="optionally transform this event position (rational)")

    p = sub.add_parser("spectrum", parents=[common],
                       help="discrete velocity spectrum up to a generator bound")
    p.add_argument("--max-pq", type=int, required=True, dest="max_pq",
                   help="enumerate generators 1 <= p, q <= this bound")

    p = sub.add_parser("enumerate", parents=[common],
                       help="list all lattice paths of one sector with amplitudes")
    p.add_argument("--P", type=int, required=True, help="number of right segments")
    p.add_argument("--Q", type=int, required=True, help="number of left segments")
    p.add_argument("--start", type=_direction, required=True, help="first segment direction, R or L")
    p.add_argument("--end", type=_direction, required=True, help="last segment direction, R or L")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="refuse enumeration when P+Q exceeds this (default %(default)s)")
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt",
                   help="output format (default %(default)s)")

    p = sub.add_parser("exact", parents=[common],
                       help="exact finite-lattice components at (P, Q, t)")
    p.add_argument("--P", type=int, required=True, help="number of right segments")
    p.add_argument("--Q", type=int, required=True, help="number of left segments")
    p.add_argument("--t", type=_rational, required=True,
                   help="endpoint time, rational 'a/b' or integer")

    p = sub.add_parser("propagator", parents=[common],
                       help="closed-form components at a real point inside the light cone")
    p.add_argument("--t", type=float, required=True, help="time, decimal literal")
    p.add_argument("--x", type=float, required=True, help="position, decimal literal")

    p = sub.add_parser("converge", parents=[common],
                       help="CSV table of exact-versus-closed deviations")
    p.add_argument("--model", choices=("quadratic", "linear"), required=True)
    p.add_argument("--v", type=_rational, required=True,
                   help="velocity, rational in the spectrum (e.g. 0, 3/5)")
    p.add_argument("--t", type=_rational, required=True,
                   help="endpoint time, rational")
    p.add_argument("--p", type=_int_list, dest="p_list",
                   help="quadratic model: comma-separated right-segment counts")
    p.add_argument("--n", type=_int_list, dest="n_list",
                   help="linear model: comma-separated total segment counts")

    p = sub.add_parser("dirac-check", parents=[common],
                       help="finite-difference residual of the Dirac system")
    p.add_argument("--t0", type=float, required=True, help="region start time")
    p.add_argument("--t1", type=float, required=True, help="region end time")
    p.add_argument("--xfrac", type=float, required=True,
                   help="half-width of the region as a fraction of t, in [0, 1)")
    p.add_argument("--h", type=float, required=True, help="coarse grid spacing")
    p.add_argument("--j0-scale", type=float, default=1.0, dest="j0_scale",
                   help="rescale the J0-valued components (negative control; "
                        "default %(default)s)")
    return ap


def config_from_args(args: argparse.Namespace) -> RunConfig:
    reserved = {"command", "output", "fmt", "cap"}
    params = {k: v for k, v in vars(args).items() if k not in reserved}
    return RunConfig(
        subcommand=args.command,
        params=params,
        output=getattr(args, "output", None),
        fmt=getattr(args, "fmt", "json"),
        cap=getattr(args, "cap", DEFAULT_ENUMERATION_CAP),
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    config = config_from_args(args)
    try:
        return run(config)
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CheckerboardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
