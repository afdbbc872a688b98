"""Command-line front end: JSON results on stdout, SVG via the render command.

The CLI keeps only flags and dispatch: `shape`, `waldschmidt` and `areg` print
`geometry.shape_json`, `waldschmidt` and `areg`; `ahf`, `check-graded` and the
planar commands print the `to_json` of `AhfResult`, `GradednessReport` (both
after the family's label) and `PLGraph`.  `_json` writes each payload in one
pass, exactly as `json.dumps(..., indent=2)` would.

Exit codes: 0 success, 1 validation error (bad flags, malformed JSON,
parameter violations), 2 computation error (unsupported dimension, a family
rule breaking its declaration, or a WorkBudgetError: work refused above a
fixed budget).

main(argv) may be called repeatedly in one process: the parser is built once
and no state is kept between calls.  Each call parses once: when argv[0] names
a subcommand and the rest is plain (exact `--flag value` and `--switch`
tokens, each flag once, no value starting with "-", every type, choice and
required flag satisfied), `_read` builds the namespace from a table read off
that subcommand's own actions; any other rest goes to that subcommand's
parser, so help, usage and every error stay argparse's own.  Anything else
(no command, an unknown one, top-level -h) goes through the full parser, the
one source of top-level usage, help and errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import geometry, planar
from .families import FamilyRuleError, GradedFamily, family_from_json, verify_graded
from .hilbert import hilbert_function, hilbert_function_extended, hilbert_polynomial, regularity_index
from .ideals import MonomialIdeal
from .rationals import format_rational, parse_rational
from .svgfig import render_graph, render_polygon, render_staircase
from .work import WorkBudgetError, charge

__all__ = ["main"]


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise CliError(message)


def _load_json_arg(text: str, what: str) -> dict:
    """Inline JSON text, or @path to read from a file."""
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"{what}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{what}: malformed JSON ({exc})") from None


def _family_from_args(args) -> GradedFamily:
    """Map the family flags onto a family JSON spec; unset flags are left out,
    so `family_from_json` reports what is missing or malformed."""
    if args.input:
        return family_from_json(_load_json_arg("@" + args.input, "input"))
    kind = args.family
    if not kind:
        raise CliError("family: provide --family KIND or --input FILE")
    params = {name: getattr(args, name) for name in ("extra_vars", "q1", "q2", "q", "a", "b", "d")}
    if kind == "power" and args.ideal is not None:
        params["ideal"] = _load_json_arg(args.ideal, "ideal")
    if args.breakpoints is not None:
        params["breakpoints"] = [pair.split(",") for pair in args.breakpoints.split(";")]
    spec = {"kind": kind, "params": {k: v for k, v in params.items() if v is not None}}
    return family_from_json(spec)


def _ideal_from_args(args) -> MonomialIdeal:
    """The family's member at --m when a family is given (--ideal is then the
    power family's parameter), else --ideal itself.  For `render`, the
    generator count of a 2-variable closed-form member,
    ceil(m * x-intercept) + 1, is charged to the "triangles" budget before
    that member is built."""
    if args.family or args.input:
        if args.m is None:
            raise CliError("--m required to evaluate a family to an ideal")
        family = _family_from_args(args)
        if args.command == "render" and family.exact_shape is not None and family.nvars == 2:
            charge("triangles", family.exact_shape.columns(args.m))
        return family.ideal(args.m)
    if args.ideal:
        return MonomialIdeal.from_json(_load_json_arg(args.ideal, "ideal"))
    raise CliError("provide --ideal JSON or a family plus --m")


def _counts(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"counts: expected comma-separated integers, got {text!r}") from None


_escape = json.encoder.encode_basestring_ascii  # the escaper json.dumps itself uses


def _json(obj, pad: str = "\n") -> str:
    """Exactly `json.dumps(obj, indent=2)`, in one pass; `pad` is the newline and
    indentation of obj's closing bracket.  A list of only strs or only ints is
    one join.  A non-str key, a Fraction, a set or any other type raises TypeError."""
    if isinstance(obj, str):
        return _escape(obj)
    inner, sep = pad + "  ", "," + pad + "  "
    if isinstance(obj, (list, tuple)):
        types = set(map(type, obj))
        if types == {str}:
            body = sep.join(map(_escape, obj))
        elif types == {int}:
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_json(item, inner) for item in obj])
        return "[" + inner + body + pad + "]" if obj else "[]"
    if isinstance(obj, dict):
        if any(type(key) is not str for key in obj):
            raise TypeError(f"payload keys must be strs: {list(obj)!r}")
        body = sep.join([_escape(key) + ": " + _json(value, inner) for key, value in obj.items()])
        return "{" + inner + body + pad + "}" if obj else "{}"
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, float)):
        return int.__repr__(obj) if isinstance(obj, int) else json.dumps(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, payload) -> None:
    """Write SVG text as it is, and any other payload by `_json` plus a newline."""
    text = payload if isinstance(payload, str) else _json(payload) + "\n"
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"output: {exc}") from None
    else:
        sys.stdout.write(text)


def _cmd_family_eval(args) -> dict:
    if args.m is None:
        raise CliError("--m is required")
    family = _family_from_args(args)
    return {"label": family.label, "m": args.m, "ideal": family.ideal(args.m).to_json()}


def _cmd_check_graded(args) -> dict:
    family = _family_from_args(args)
    return {"label": family.label, **verify_graded(family, args.max_m).to_json()}


def _cmd_hf(args) -> dict:
    # the flags are checked before any member is built
    if args.degree is None and args.t is None:
        raise CliError("hf: provide --degree or --t")
    if args.degree is not None and args.degree < 0:
        raise CliError("degree must be non-negative")
    t = None if args.degree is not None else parse_rational(args.t)
    if t is not None and t < 0:
        raise CliError("extended Hilbert function needs t >= 0")
    ideal = _ideal_from_args(args)
    out: dict = {"ideal": ideal.to_json()}
    if args.degree is not None:
        out["degree"] = args.degree
        out["value"] = hilbert_function(ideal, args.degree)
    else:
        out["t"] = format_rational(t)
        out["value"] = hilbert_function_extended(ideal, t)
    if args.hp:
        out["hilbert_polynomial"] = str(hilbert_polynomial(ideal))
        out["regularity_index"] = regularity_index(ideal)
    return out


def _cmd_shape(args) -> dict:
    return geometry.shape_json(_family_from_args(args), parse_rational(args.t), args.max_m)


def _cmd_waldschmidt(args) -> dict:
    return geometry.waldschmidt(_family_from_args(args), args.max_m)


def _cmd_areg(args) -> dict:
    return geometry.areg(_family_from_args(args), args.max_m)


def _cmd_ahf(args) -> dict:
    family = _family_from_args(args)
    return {"label": family.label, **geometry.ahf(family, parse_rational(args.t), args.max_m).to_json()}


def _planar_config(args) -> planar.LineConfiguration:
    if args.counts is None:
        raise CliError("--counts is required")
    return planar.validate_configuration(_counts(args.counts), args.shared)


def _cmd_planar_reduce(args) -> dict:
    config = _planar_config(args)
    if args.m is None:
        raise CliError("--m is required")
    vec = planar.reduction_vector(config, args.m, approximate=args.approximate)
    return {
        "counts": list(config.counts),
        "shared_intersection": config.shared_intersection,
        "m": vec.multiplicity,
        "exact": vec.exact,
        "entries": list(vec.entries),
        "envelope": planar.dhf_envelope(vec).to_json(),
    }


def _cmd_planar_vertices(args) -> dict:
    config = _planar_config(args)
    return {"counts": list(config.counts), "shared_intersection": config.shared_intersection,
            "vertices": planar._closed_graph(config).to_json()}


def _cmd_render(args) -> str:
    if args.kind == "staircase":
        if args.m is None or args.t is None:  # checked before any member is built
            raise CliError("render staircase needs --m and --t")
        t = parse_rational(args.t)
        return render_staircase(_ideal_from_args(args), args.m, t)
    if args.kind == "graph":
        return render_graph(planar._closed_graph(_planar_config(args)))
    if args.kind == "gamma":
        graph = planar._closed_graph(_planar_config(args))
        return render_polygon(planar.gamma_vertices(graph, args.t), hatched=True)
    family = _family_from_args(args)  # "shape", the last of the parser's choices
    if args.t is None:
        raise CliError("render shape needs --t")
    result = geometry.limiting_shape(family, parse_rational(args.t), args.max_m)
    return render_polygon(result.polygon, hatched=False)


@cache
def _build_parser() -> _Parser:
    # the family flags are the `params` of a family JSON spec, shared by every
    # subcommand that takes a family
    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", help="built-in family kind")
    family.add_argument("--input", help="path to a family JSON file")
    family.add_argument("--ideal", help="ideal JSON (inline or @path)")
    family.add_argument("--extra-vars", type=int, dest="extra_vars")
    family.add_argument("--q1")
    family.add_argument("--q2")
    family.add_argument("--q")
    family.add_argument("--breakpoints")
    family.add_argument("--a", type=int)
    family.add_argument("--b", type=int)
    family.add_argument("--d", type=int)

    parser = _Parser(prog="limshape", description="Exact invariants of graded families of "
                     "monomial ideals and planar reduction vectors, as JSON on stdout.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("family-eval", help="evaluate a family at one index", parents=[family])
    sub.add_argument("--m", type=int)

    sub = subs.add_parser("check-graded", help="verify I_p*I_q <= I_{p+q}", parents=[family])
    sub.add_argument("--max-m", type=int, default=6, dest="max_m")

    sub = subs.add_parser("hf", help="Hilbert function values", parents=[family])
    sub.add_argument("--m", type=int)
    sub.add_argument("--degree", type=int)
    sub.add_argument("--t")
    sub.add_argument("--hp", action="store_true", help="include polynomial and index")

    sub = subs.add_parser("shape", help="limiting shape and complement polygons", parents=[family])
    sub.add_argument("--t", required=True)
    sub.add_argument("--max-m", type=int, default=16, dest="max_m")

    sub = subs.add_parser("waldschmidt", help="Waldschmidt constant", parents=[family])
    sub.add_argument("--max-m", type=int, default=20, dest="max_m")

    sub = subs.add_parser("areg", help="asymptotic regularity", parents=[family])
    sub.add_argument("--max-m", type=int, default=20, dest="max_m")

    sub = subs.add_parser("ahf", help="asymptotic Hilbert function", parents=[family])
    sub.add_argument("--t", required=True)
    sub.add_argument("--max-m", type=int, default=16, dest="max_m")

    sub = subs.add_parser("planar-reduce", help="reduction vector and envelope")
    sub.add_argument("--counts", required=True)
    sub.add_argument("--shared", action="store_true")
    sub.add_argument("--m", type=int)
    sub.add_argument("--approximate", action="store_true")

    sub = subs.add_parser("planar-vertices", help="closed-form graph vertices")
    sub.add_argument("--counts", required=True)
    sub.add_argument("--shared", action="store_true")

    sub = subs.add_parser("render", help="emit an SVG figure", parents=[family])
    sub.add_argument("--kind", required=True, choices=["staircase", "graph", "gamma", "shape"])
    sub.add_argument("--m", type=int)
    sub.add_argument("--t")
    sub.add_argument("--counts")
    sub.add_argument("--shared", action="store_true")
    sub.add_argument("--max-m", type=int, default=16, dest="max_m")

    for sub in subs.choices.values():  # the last flag of every subcommand
        sub.add_argument("--output")
        sub.table = _table(sub)
    parser.commands = subs.choices
    return parser


def _table(sub) -> tuple:
    """What `_read` needs of one subparser, read off its own actions: each
    option string's (dest, is a switch, type, choices), the defaults and the
    required dests.  Help is left out, so `-h` falls back to argparse."""
    flags, defaults, required = {}, {}, set()
    for action in sub._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        for option in action.option_strings:
            flags[option] = (action.dest, action.nargs == 0, action.type, action.choices)
        defaults[action.dest] = action.default
        if action.required:
            required.add(action.dest)
    return flags, defaults, frozenset(required)


def _read(sub, argv):
    """`sub.parse_args(argv[1:], Namespace(command=argv[0]))` for a plain argv:
    exact `--flag value` and `--switch` tokens, each dest at most once, no value
    starting with "-", every type and choice accepted and every required flag
    given.  None for anything else, which argparse then reads (and refuses, or
    helps with) in its own words."""
    flags, defaults, required = sub.table
    args = dict(defaults)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        spec = flags.get(token)
        if spec is None or spec[0] in seen:
            return None
        dest, switch, kind, choices = spec
        seen.add(dest)
        if switch:
            args[dest] = True
            continue
        value = next(tokens, "-")
        if value.startswith("-"):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        args[dest] = value
    if not required <= seen:
        return None
    return argparse.Namespace(command=argv[0], **args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _build_parser()
        sub = parser.commands.get(argv[0]) if argv else None
        if sub is None:
            args = parser.parse_args(argv)
        else:  # what the full parser would do, without its own pass
            args = _read(sub, argv)
            if args is None:
                args = sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        # looked up per call, not stored on the cached parser, so patches apply
        handler = globals()["_cmd_" + args.command.replace("-", "_")]
        _emit(args, handler(args))
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (geometry.UnsupportedDimensionError, FamilyRuleError, WorkBudgetError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
