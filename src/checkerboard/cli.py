"""Command-line surface for reproducible runs.

Eight subcommands map onto the library: member, boost, and spectrum query
the rational spacetime; enumerate lists lattice paths with amplitudes;
exact and propagator evaluate the finite-lattice and limiting components;
converge emits deviation tables for either lattice model as CSV; and
dirac-check runs the finite-difference verification.

Conventions: rational-valued flags take "a/b" or plain integer strings,
real-valued flags take decimal literals (ASCII, no spaces or underscores);
which is which is stated in each flag's help text. A negative rational is
joined to its flag with "=", as in --v=-3/5: after a space argparse reads
"-3/5" as an option.
Every JSON value goes through one encoder, which prints a rational as
"num/den" in lowest terms, as the CSV does, and an amplitude polynomial
as its mapping of orders; reals round-trip bit-exactly. Every JSON
output starts with schema_version = 1, and the converge CSV has it as
its first column; the default text of enumerate carries none. Exit
codes: 0 success, 2 usage error (including an --output file that cannot
be written and a flag given without the flag it goes with), 3 domain
error, 4 resource cap exceeded (the generator cap on spectrum's
--max-pq, the enumeration cap of enumerate, the lattice cap on P + Q of
exact and converge, the node cap on dirac-check's fine grid).
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import re
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Optional

from .dirac import DEFAULT_GRID_CAP, Region, dirac_residual
from .errors import (CheckerboardError, DomainError, InvalidParameterError,
                     ResourceLimitError, brief)
from .paths import (DEFAULT_ENUMERATION_CAP, AmplitudePolynomial, Direction,
                    bend_records, enumerate_paths, path_amplitude)
from .propagator import (COMPONENT_ORDER, DEFAULT_LATTICE_CAP,
                         WARNING_COMPONENT, ConvergenceRow, LatticeSpec,
                         closed_matrix, convergence_sweep, exact_parts,
                         linear_converge, proper_time)
from .spacetime import (DEFAULT_SPECTRUM_CAP, SpacetimePoint, apply_boost,
                        boost, format_rational, is_member, parse_rational,
                        velocity_spectrum)

SCHEMA_VERSION = 1

CSV_HEADER = ["schema_version", *(f.name for f in fields(ConvergenceRow))]

# converge --model: (the size flag it requires, that flag's field, sweep)
MODELS = {"quadratic": ("--p", "p_list", convergence_sweep),
          "linear": ("--n", "n_list", linear_converge)}


def _cell(value) -> object:
    """One CSV cell: a rational as num/den, a real with 17 digits."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, float):
        return format(value, ".17g")
    return value


def _json(value) -> object:
    """The one JSON encoding of an exact value: a rational as num/den, an
    amplitude polynomial as its mapping of orders."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, AmplitudePolynomial):
        return value.to_json_dict()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _integer(text: str) -> int:
    """ASCII digits with an optional sign, nothing else (no spaces,
    underscores or non-ASCII digits, which int() would take)."""
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"expected an integer, got {brief(text)}")
    return int(text)


def _real(text: str) -> float:
    """A decimal literal: an optional sign, ASCII digits with at most one
    point and an optional exponent, or nan, inf or infinity in any case;
    nothing else that float() would take (spaces, underscores, non-ASCII
    digits)."""
    if re.fullmatch(r"[+-]?(([0-9]+\.?[0-9]*|\.[0-9]+)(e[+-]?[0-9]+)?"
                    r"|nan|inf(inity)?)", text, re.IGNORECASE) is None:
        raise argparse.ArgumentTypeError(
            f"expected a decimal literal, got {brief(text)}")
    return float(text)


def _int_list(text: str) -> list[int]:
    return [_integer(part) for part in text.split(",")]


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _direction(text: str) -> Direction:
    try:
        return Direction(text.upper())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected R or L, got {brief(text)}") from None


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but its messages give each argument it read, and an
    ignored explicit argument's value, past 100 characters through brief; its
    choice check leaves out the (choose from ...) tail the usage line lists."""

    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def _check_value(self, action: argparse.Action, value: object) -> None:
        if action.choices is not None and value not in action.choices:
            raise argparse.ArgumentError(action, f"invalid choice: {brief(value)}")

    def error(self, message: str):
        quoted = re.fullmatch(r"(argument \S+: ignored explicit argument )(.*)", message, re.S)
        if quoted:  # argparse writes a part of one argument, by its repr
            message = quoted[1] + brief(ast.literal_eval(quoted[2]))
        for word in sorted(self.argv, key=len, reverse=True):
            if len(word) > 100:  # longest first: one may hold a shorter one
                message = message.replace(word, brief(word))
        super().error(message)


def _cmd_member(args: argparse.Namespace) -> dict:
    witness = is_member(SpacetimePoint(t=args.t, x=args.x))
    return {
        "t": args.t, "x": args.x,
        "member": witness is not None,
        "witness": None if witness is None else {
            "n": witness.n, "m": witness.m, "p": witness.p, "q": witness.q},
    }


def _cmd_boost(args: argparse.Namespace) -> dict:
    b = boost(args.p, args.q)
    payload = {
        "generator": {"p": b.p, "q": b.q},
        "matrix": {"a11": b.a11, "a12": b.a12, "a21": b.a21, "a22": b.a22},
        "velocity": b.velocity,
        "determinant": b.determinant,
    }
    if args.apply_t is not None:
        moved = apply_boost(b, SpacetimePoint(t=args.apply_t, x=args.apply_x))
        payload["applied"] = {"t": moved.t, "x": moved.x}
    return payload


def _cmd_spectrum(args: argparse.Namespace) -> dict:
    values = velocity_spectrum(args.max_pq, cap=args.cap)
    return {"max_pq": args.max_pq, "count": len(values), "velocities": values}


def _cmd_enumerate(args: argparse.Namespace) -> dict | str:
    entries = []
    for path in enumerate_paths(args.P, args.Q, args.start, args.end,
                                cap=args.cap):
        bends = bend_records(path)
        to_left = sum(side is Direction.R for side, _ in bends)
        entries.append({
            "path": "".join(d.value for d in path),
            "bends": len(bends),
            "to_right": len(bends) - to_left,
            "to_left": to_left,
            "counted_bends": max(len(bends) - 1, 0),
            "amplitude": path_amplitude(path),
        })
    if args.fmt == "text":
        return "".join(
            f"{e['path']} bends={e['bends']} to_right={e['to_right']} "
            f"to_left={e['to_left']} "
            f"amplitude={e['amplitude']}\n"
            for e in entries)
    return {"P": args.P, "Q": args.Q, "start": str(args.start),
            "end": str(args.end), "count": len(entries), "paths": entries}


def _cmd_exact(args: argparse.Namespace) -> dict:
    spec = LatticeSpec(P=args.P, Q=args.Q, t=args.t)
    parts = exact_parts(spec, cap=args.cap)
    components = {}
    for name in COMPONENT_ORDER:
        re, im = parts[name]
        try:
            components[name] = {"re": re, "im": im,
                                "re_float": float(re), "im_float": float(im)}
        except OverflowError:
            raise DomainError(f"{name} lies past float range") from None
    return {"P": spec.P, "Q": spec.Q, "t": spec.t, "v": spec.v, "x": spec.x,
            "eps0": spec.eps0, "components": components}


def _cmd_propagator(args: argparse.Namespace) -> dict:
    t, x = args.t, args.x
    m = closed_matrix(t, x)
    return {
        "t": t, "x": x,
        "s": proper_time(t, x),
        "components": {name: {"re": getattr(m, name).real,
                              "im": getattr(m, name).imag}
                       for name in COMPONENT_ORDER},
    }


def _cmd_converge(args: argparse.Namespace) -> str:
    _, field, sweep = MODELS[args.model]
    rows = sweep(args.t, args.v, getattr(args, field), cap=args.cap)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        if row.component == WARNING_COMPONENT:
            print(f"warning: N={brief(row.P)} cannot realize v={brief(args.v)} "
                  "with integer segment counts; emitting marker row",
                  file=sys.stderr)
        writer.writerow([SCHEMA_VERSION, *(_cell(getattr(row, f.name))
                                           for f in fields(row))])
    return buf.getvalue()


def _cmd_dirac_check(args: argparse.Namespace) -> dict:
    region = Region(t0=args.t0, t1=args.t1, xfrac=args.xfrac)
    report = dirac_residual(region, args.h, j0_scale=args.j0_scale,
                            cap=args.cap)
    return {
        "t0": region.t0, "t1": region.t1, "xfrac": region.xfrac,
        "h": report.h, "margin": report.margin,
        "j0_scale": report.j0_scale,
        "points": {"h": report.points_coarse, "h_half": report.points_fine},
        "max_residual": {"h": report.max_residual_h,
                         "h_half": report.max_residual_h2},
        "ratio": report.ratio,
        "observed_order": report.observed_order,
    }


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit code.

    A handler returns its JSON payload as a dict or its CSV as text. A
    payload holds the library's own values, which _json encodes; it is
    written with schema_version first, indented by 2 and ended by a
    newline. Text is written as it is. Either goes to stdout, or to
    --output.
    """
    out = args.handler(args)
    text = out if isinstance(out, str) else json.dumps(
        {"schema_version": SCHEMA_VERSION, **out}, indent=2,
        default=_json) + "\n"
    if args.output:
        try:
            with open(args.output, "w", newline="") as fh:
                fh.write(text)
        except (OSError, ValueError) as exc:  # ValueError: a null byte
            print(f"error: cannot write {brief(args.output)}: "
                  f"{getattr(exc, 'strerror', None) or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write to this file instead of stdout")
    segments = argparse.ArgumentParser(add_help=False)
    segments.add_argument("--P", type=_integer, required=True,
                          help="number of right segments")
    segments.add_argument("--Q", type=_integer, required=True,
                          help="number of left segments")
    lattice_cap = argparse.ArgumentParser(add_help=False)
    lattice_cap.add_argument(
        "--cap", type=_integer, default=DEFAULT_LATTICE_CAP,
        help="refuse a lattice with P+Q above this (default %(default)s)")

    ap = _Parser(
        prog="checkerboard",
        description="Dirac propagator components from checkerboard path "
                    "sums on a rational spacetime lattice")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", parents=[common],
                       help="test lattice-spacetime membership of a rational event")
    p.set_defaults(handler=_cmd_member)
    p.add_argument("--t", type=_rational, required=True,
                   help="time, rational 'a/b' or integer (negative: --t=-5/2)")
    p.add_argument("--x", type=_rational, required=True,
                   help="position, rational 'a/b' or integer "
                        "(negative: --x=-3/2)")

    p = sub.add_parser("boost", parents=[common],
                       help="exact boost matrix for generator (p, q)")
    p.set_defaults(handler=_cmd_boost)
    p.add_argument("--p", type=_integer, required=True, help="generator p (nonzero integer)")
    p.add_argument("--q", type=_integer, required=True, help="generator q (nonzero integer)")
    p.add_argument("--apply-t", type=_rational, dest="apply_t",
                   help="optionally transform this event time (rational; "
                        "negative: --apply-t=-5/1)")
    p.add_argument("--apply-x", type=_rational, dest="apply_x",
                   help="optionally transform this event position "
                        "(rational; negative: --apply-x=-3/1)")

    p = sub.add_parser("spectrum", parents=[common],
                       help="discrete velocity spectrum up to a generator bound")
    p.set_defaults(handler=_cmd_spectrum)
    p.add_argument("--max-pq", type=_integer, required=True, dest="max_pq",
                   help="enumerate generators 1 <= p, q <= this bound")
    p.add_argument("--cap", type=_integer, default=DEFAULT_SPECTRUM_CAP,
                   help="refuse a --max-pq above this (default %(default)s)")

    p = sub.add_parser("enumerate", parents=[common, segments],
                       help="list all lattice paths of one sector with amplitudes")
    p.set_defaults(handler=_cmd_enumerate)
    p.add_argument("--start", type=_direction, required=True, help="first segment direction, R or L")
    p.add_argument("--end", type=_direction, required=True, help="last segment direction, R or L")
    p.add_argument("--cap", type=_integer, default=DEFAULT_ENUMERATION_CAP,
                   help="refuse enumeration when P+Q exceeds this (default %(default)s)")
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt",
                   help="output format (default %(default)s)")

    p = sub.add_parser("exact", parents=[common, lattice_cap, segments],
                       help="exact finite-lattice components at (P, Q, t)")
    p.set_defaults(handler=_cmd_exact)
    p.add_argument("--t", type=_rational, required=True,
                   help="endpoint time, rational 'a/b' or integer")

    p = sub.add_parser("propagator", parents=[common],
                       help="closed-form components at a real point inside the light cone")
    p.set_defaults(handler=_cmd_propagator)
    p.add_argument("--t", type=_real, required=True, help="time, decimal literal")
    p.add_argument("--x", type=_real, required=True, help="position, decimal literal")

    p = sub.add_parser("converge", parents=[common, lattice_cap],
                       help="CSV table of exact-versus-closed deviations")
    p.set_defaults(handler=_cmd_converge)
    p.add_argument("--model", choices=MODELS, required=True)
    p.add_argument("--v", type=_rational, required=True,
                   help="velocity, rational in the spectrum (e.g. 0, 3/5; "
                        "negative: --v=-3/5)")
    p.add_argument("--t", type=_rational, required=True,
                   help="endpoint time, rational")
    p.add_argument("--p", type=_int_list, dest="p_list",
                   help="quadratic model: comma-separated right-segment counts")
    p.add_argument("--n", type=_int_list, dest="n_list",
                   help="linear model: comma-separated total segment counts")

    p = sub.add_parser("dirac-check", parents=[common],
                       help="finite-difference residual of the Dirac system")
    p.set_defaults(handler=_cmd_dirac_check)
    p.add_argument("--t0", type=_real, required=True, help="region start time")
    p.add_argument("--t1", type=_real, required=True, help="region end time")
    p.add_argument("--xfrac", type=_real, required=True,
                   help="half-width of the region as a fraction of t, in [0, 1)")
    p.add_argument("--h", type=_real, required=True, help="coarse grid spacing")
    p.add_argument("--j0-scale", type=_real, default=1.0, dest="j0_scale",
                   help="rescale the J0-valued components (negative control; "
                        "default %(default)s)")
    p.add_argument("--cap", type=_integer, default=DEFAULT_GRID_CAP,
                   help="refuse a fine grid (spacing h/2) of more than this "
                        "many nodes (default %(default)s)")
    return ap


def _check_paired_flags(parser: argparse.ArgumentParser,
                        args: argparse.Namespace) -> None:
    """Flags that only make sense together are a usage error (exit 2)
    when one comes without the other, and so is the size list of the
    converge model not chosen."""
    if args.command == "boost" and (args.apply_t is None) != (args.apply_x is None):
        parser.error("boost: --apply-t and --apply-x go together")
    if args.command == "converge":
        for model, (flag, field, _) in MODELS.items():
            given = getattr(args, field)
            if model == args.model and given is None:
                parser.error(f"converge: --model {args.model} requires {flag}")
            if model != args.model and given is not None:
                parser.error(
                    f"converge: --model {args.model} does not take {flag}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    # a flag read or a value printed may pass Python's int-to-str digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        _check_paired_flags(parser, args)
        return run(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except CheckerboardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, ResourceLimitError) else 3
    finally:
        sys.set_int_max_str_digits(limit)

