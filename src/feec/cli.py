"""Command line front end: dimensions, bases, mesh decompositions, verification.

Exit codes: 0 on success, 1 when a verification fails, 2 for usage, input
or output-write errors.  All output is deterministic for fixed arguments.
`main` reads argv written in the exact spellings of the one option table,
COMMANDS, directly, and hands anything else (help, the other spellings
argparse accepts, errors) to the argparse parser built from that table.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable
from functools import cache
from itertools import groupby
from json.encoder import encode_basestring_ascii as escape

from .assemble import assemble_basis, verify_direct_sum, verify_single_valued
from .extension import placed_basis
from .forms import FaceRef
from .mesh import MeshFormatError, load
from .render import format_form, format_generator
from .spaces import Family, SpaceKind, dim_factors, dim_space, enumerate_basis
from .verify import SUITES, run_suites

FORMATS = ("plain", "json", "latex")


def _family(value: str) -> Family:
    try:
        return Family(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {value!r} (use full or minus)")


def dim_payload(family: Family, n: int, r: int, k: int, zero_trace: bool) -> dict:
    """The `feec dim` document; ValueError when the dimension has more digits than int-to-str allows."""
    kind = SpaceKind(family, zero_trace)
    (a, b), (c, d) = dim_factors(kind, n, r, k)
    # Refused before math.comb runs for minutes, in integers: C(x, y) >= 2^(m * (bit_length(x // m) - 1))
    # for m = min(y, x - y) > 0 and log10 2 > 3/10, so a nonzero dimension has more than `low` digits.
    pairs = ((a, min(b, a - b)), (c, min(d, c - d)))
    low = sum(m * ((x // m).bit_length() - 1) * 3 // 10 for x, m in pairs if m > 0)
    if 0 <= b <= a and 0 <= d <= c and 0 < sys.get_int_max_str_digits() <= low:
        raise ValueError("too many digits")
    return {
        "command": "dim",
        "family": family.value,
        "n": n,
        "r": r,
        "k": k,
        "zero_trace": zero_trace,
        "dim": dim_space(kind, n, r, k),
        "formula": f"C({a},{b})*C({c},{d})",
    }


def basis_payload(family: Family, n: int, r: int, k: int) -> dict:
    zero_kind = SpaceKind(family, zero_trace=True)
    groups = []
    for face in FaceRef.full(n).all_subfaces():
        if face.dim < k:
            continue
        gens = []
        for desc, w in zip(enumerate_basis(zero_kind, face, r, k), placed_basis(zero_kind, r, k, face)):
            gens.append(
                {
                    "alpha": list(desc.alpha),
                    "sigma": list(desc.sigma),
                    "generator": format_generator(desc.alpha, desc.sigma, family.value),
                    "expression": format_form(w),
                    "latex": format_form(w, "latex"),
                }
            )
        if gens:
            groups.append({"face": list(face.indices), "dim": face.dim, "generators": gens})
    return {
        "command": "basis",
        "family": family.value,
        "n": n,
        "r": r,
        "k": k,
        "total": sum(len(g["generators"]) for g in groups),
        "groups": groups,
    }


def decompose_payload(mesh_path: str, family: Family, r: int, k: int) -> tuple[dict, str | None]:
    """The `feec decompose` document and its first failed certificate, None when both pass."""
    t = load(mesh_path)
    elements = assemble_basis(t, family, r, k)
    witness = verify_single_valued(t, elements, k)
    report = verify_direct_sum(t, elements, family, r, k)
    counts_by_dim: dict[int, int] = {}
    groups = []
    # assemble_basis emits each face's elements consecutively
    for face, group in groupby(elements, key=lambda el: el.face):
        # descriptor indices are positions within the face; label with the
        # global vertex ids instead
        gens = [
            {
                "alpha": list(el.descriptor.alpha),
                "sigma": list(el.descriptor.sigma),
                "generator": format_generator(
                    el.descriptor.alpha, el.descriptor.sigma, family.value, labels=face.vertices
                ),
            }
            for el in group
        ]
        counts_by_dim[face.dim] = counts_by_dim.get(face.dim, 0) + len(gens)
        groups.append({"face": list(face.vertices), "dim": face.dim, "generators": gens})
    failure = None
    if witness is not None:
        failure = f"multivalued trace on face {witness.face.vertices}"
    elif not report.ok:
        failure = (
            f"direct sum failed: {report.count} elements, expected {report.expected}, "
            f"constrained dimension {report.constrained_dimension}"
        )
    payload = {
        "command": "decompose",
        "family": family.value,
        "r": r,
        "k": k,
        "mesh": {"dim": t.n, "vertices": t.num_vertices, "cells": len(t.cells)},
        "total": len(elements),
        "expected": report.expected,
        "counts_by_dim": {str(d): c for d, c in sorted(counts_by_dim.items())},
        "groups": groups,
        "verified": {"single_valued": witness is None, "direct_sum": report.ok},
    }
    return payload, failure


def verify_payload(names: list[str] | None, max_n: int, max_r: int) -> tuple[dict, str | None]:
    """The `feec verify` document and its first failing case, None when every case passes."""
    results = run_suites(names, max_n=max_n, max_r=max_r)
    failed = [res for res in results if not res.passed]
    payload = {
        "command": "verify",
        "results": [
            {"suite": res.suite, "case": res.label, "passed": res.passed, "detail": res.detail}
            for res in results
        ],
        "failed": len(failed),
    }
    if not failed:
        return payload, None
    first = failed[0]
    return payload, f"first failure: {first.suite} {first.label}: {first.detail}"


def render_json(payload: dict) -> str:
    """Exactly ``json.dumps(payload, indent=2, sort_keys=True)``, written directly.

    The stdlib sends any ``indent`` through its pure-Python encoder.  This
    writer takes str-keyed dicts, lists, strings (ASCII-escaped by the C
    function the stdlib uses), ints, booleans and None, and raises TypeError
    for anything else: a float, a Fraction, a tuple, a key that is not a str.
    Each all-int list's text is built once per (indent, values) in one call.
    """
    ints: dict[tuple[str, tuple[int, ...]], str] = {}

    def write(value: object, indent: str) -> str:
        kind = type(value)
        if kind is str:
            return escape(value)
        if kind is int:
            return int.__repr__(value)
        if kind is list or kind is dict:
            if not value:
                return "[]" if kind is list else "{}"
            inner = indent + "  "
            sep = ",\n" + inner
            if kind is dict:  # sorted() or escape() raises TypeError on a key that is not a str
                body = sep.join([escape(key) + ": " + write(value[key], inner) for key in sorted(value)])
                return "{\n" + inner + body + "\n" + indent + "}"
            if all(type(v) is int for v in value):
                memo = (indent, tuple(value))
                if memo not in ints:
                    ints[memo] = "[\n" + inner + sep.join(map(int.__repr__, value)) + "\n" + indent + "]"
                return ints[memo]
            return "[\n" + inner + sep.join([write(v, inner) for v in value]) + "\n" + indent + "]"
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")

    return write(payload, "")


def render_dim(payload: dict, fmt: str) -> str:
    name = ("P{r}-Lambda{k}" if payload["family"] == "minus" else "P{r} Lambda{k}").format(
        r=payload["r"], k=payload["k"]
    )
    ring = "zero-trace " if payload["zero_trace"] else ""
    if fmt == "latex":
        zero = "\\mathaccent23 " if payload["zero_trace"] else ""
        minus = "^-" if payload["family"] == "minus" else ""
        return (
            f"\\dim {zero}\\mathcal P{minus}_{{{payload['r']}}}"
            f"\\Lambda^{{{payload['k']}}} = {payload['dim']}"
        )
    return f"dim {ring}{name} on a {payload['n']}-simplex = {payload['dim']}  [{payload['formula']}]"


def render_basis(payload: dict, fmt: str) -> str:
    lines = [
        f"basis of {'P-' if payload['family'] == 'minus' else 'P'}_{payload['r']} "
        f"Lambda^{payload['k']} on the {payload['n']}-simplex "
        f"({payload['total']} elements)"
    ]
    for group in payload["groups"]:
        verts = ",".join(f"x{i}" for i in group["face"])
        lines.append(f"face [{verts}]:")
        for gen in group["generators"]:
            body = gen["latex"] if fmt == "latex" else gen["expression"]
            lines.append(f"  {gen['generator']}  ->  {body}" if fmt == "plain" else f"  {body}")
    return "\n".join(lines)


def render_decompose(payload: dict, fmt: str) -> str:
    lines = [
        f"{payload['total']} basis elements on {payload['mesh']['cells']} cells "
        f"(expected {payload['expected']})"
    ]
    for d, c in payload["counts_by_dim"].items():
        lines.append(f"  dimension {d}: {c}")
    for group in payload["groups"]:
        gens = ", ".join(g["generator"] for g in group["generators"])
        lines.append(f"face {tuple(group['face'])}: {gens}")
    v = payload["verified"]
    lines.append(
        f"single-valued: {'yes' if v['single_valued'] else 'NO'}; "
        f"direct sum: {'yes' if v['direct_sum'] else 'NO'}"
    )
    return "\n".join(lines)


def render_verify(payload: dict, fmt: str) -> str:
    lines = []
    for res in payload["results"]:
        tail = f"  ({res['detail']})" if res["detail"] and not res["passed"] else ""
        lines.append(f"{'PASS' if res['passed'] else 'FAIL'} {res['suite']:16s} {res['case']}{tail}")
    total = len(payload["results"])
    lines.append(f"{total - payload['failed']}/{total} checks passed")
    return "\n".join(lines)


def _finish(render: Callable[[dict, str], str], fmt: str, payload: dict, failure: str | None = None) -> int:
    """Print the payload in `fmt` and any failure to stderr; exit code 1 when a verification failed,
    2 when the output could not be written (a closed pipe or descriptor, a full disk), else 0."""
    text = render_json(payload) if fmt == "json" else render(payload, fmt)
    if sys.stdout is None:
        # descriptor 1 was closed at start-up, where print writes nothing and succeeds
        print("cannot write output: standard output is closed", file=sys.stderr)
        return 2
    try:
        print(text, flush=True)
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        # what stays buffered goes to the null device, so the interpreter's final flush cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 2
    if failure is None:
        return 0
    print(failure, file=sys.stderr)
    return 1


def _required_int(flag: str, text: str | None = None) -> tuple[str, dict]:
    return flag, {"type": int, "required": True, "help": text}


FAMILY = ("--family", {"type": _family, "required": True})
ANY_FORMAT = ("--format", {"choices": FORMATS, "default": "plain"})
PLAIN_OR_JSON = ("--format", {"choices": ("plain", "json"), "default": "plain"})
# command -> (help, options), each option its flag and add_argument keywords; build_parser
# and _direct_parse both read this table, and nothing else declares an option
COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict], ...]]] = {
    "dim": ("dimension of a form space", (
        FAMILY, _required_int("-n", "simplex dimension"), _required_int("-r", "polynomial degree"),
        _required_int("-k", "form order"), ("--zero-trace", {"action": "store_true"}), ANY_FORMAT,
    )),
    "basis": ("face-grouped basis of a form space", (
        FAMILY, _required_int("-n"), _required_int("-r"), _required_int("-k"), ANY_FORMAT,
    )),
    "decompose": ("assembled basis over a mesh file", (
        ("--mesh", {"required": True, "help": "mesh file path"}),
        FAMILY, _required_int("-r"), _required_int("-k"), PLAIN_OR_JSON,
    )),
    "verify": ("run the property suites", (
        ("-n", {"type": int, "default": 3, "help": "largest simplex dimension"}),
        ("-r", {"type": int, "default": 3, "help": "largest polynomial degree"}),
        ("--suite", {"action": "append", "choices": sorted(SUITES), "help": "run only this suite (repeatable)"}),
        PLAIN_OR_JSON,
    )),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="feec",
        description="Exact bases and geometric decompositions of simplicial form spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        for flag, spec in options:
            p.add_argument(flag, **spec)
    return parser


def _direct_parse(argv: list[str]) -> argparse.Namespace | None:
    """What build_parser().parse_args(argv) returns when argv uses only the table's exact spellings.

    None for anything else (help, abbreviations, ``--opt=value``, ``-n3``, a value starting with
    "-", an unknown, missing or repeated option, a value its type or choices refuse).
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = dict(COMMANDS[argv[0]][1])
    seen: dict[str, object] = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        action = spec and spec.get("action")
        if spec is None or (flag in seen and action != "append"):
            return None
        if action == "store_true":
            seen[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is declined like one that starts with "-"
        if text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        seen[flag] = [*seen.get(flag, ()), value] if action == "append" else value
    if any(spec.get("required") and flag not in seen for flag, spec in options.items()):
        return None
    args = argparse.Namespace(command=argv[0])
    for flag, spec in options.items():
        default = False if spec.get("action") == "store_true" else spec.get("default")
        setattr(args, flag.lstrip("-").replace("-", "_"), seen.get(flag, default))
    return args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _direct_parse(argv)
    if args is None:
        args = build_parser().parse_args(argv)

    if args.command == "dim":
        if not (0 <= args.k <= args.n):
            build_parser().error(f"need 0 <= k <= n, got k={args.k} n={args.n}")
        if args.r < 0:
            build_parser().error(f"need r >= 0, got r={args.r}")
        try:  # rendering included: str() of an int past the interpreter's integer-string limit raises
            payload = dim_payload(args.family, args.n, args.r, args.k, args.zero_trace)
            return _finish(render_dim, args.format, payload)
        except ValueError:
            print("invalid request: the dimension has too many digits to print", file=sys.stderr)
            return 2

    if args.command == "basis":
        if args.n < 1 or args.n > 4:
            build_parser().error("basis listing supports 1 <= n <= 4")
        if args.r < 1:
            build_parser().error("basis listing needs r >= 1")
        if not (0 <= args.k <= args.n):
            build_parser().error(f"need 0 <= k <= n, got k={args.k} n={args.n}")
        return _finish(render_basis, args.format, basis_payload(args.family, args.n, args.r, args.k))

    if args.command == "decompose":
        try:
            payload, failure = decompose_payload(args.mesh, args.family, args.r, args.k)
        except MeshFormatError as err:
            print(f"mesh error: {err}", file=sys.stderr)
            return 2
        except OSError as err:
            print(f"cannot read mesh: {err}", file=sys.stderr)
            return 2
        except ValueError as err:
            print(f"invalid request: {err}", file=sys.stderr)
            return 2
        return _finish(render_decompose, args.format, payload, failure)

    if args.n < 1 or args.n > 4 or args.r < 1:  # verify, the one command left
        build_parser().error("verification sweeps support 1 <= n <= 4 and r >= 1")
    if args.r > 12:
        build_parser().error(f"verification sweeps support r <= 12, got r={args.r}")
    return _finish(render_verify, args.format, *verify_payload(args.suite, args.n, args.r))


if __name__ == "__main__":
    sys.exit(main())
