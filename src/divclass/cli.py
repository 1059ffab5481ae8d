"""Command-line front end: JSON in, JSON (or text) out.

Input documents carry exactly one mode:

    {"mode": "poset", "elements": ["a", "b"], "relations": [["a", "b"]]}
    {"mode": "cone", "dim": 2, "forms": [[1, 0], [-1, 2]],
     "interior_point": [1, 2]}          # interior_point optional

Integer entries may be given as numbers or decimal strings (an optional
"-" and ASCII digits); all potentially large integers in the output are
decimal strings, printed in full.  Exit codes:
0 success, 1 input error, 2 internal invariant violation.

One argument parser serves the whole process: ``main`` builds it on its
first call and every later call reuses it, with a fresh namespace per parse.
That saves time only where ``main`` runs more than once in one process; a
one-shot command builds the parser once either way.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import __version__
from .errors import InputError, InternalInvariantError, excerpt
from .joinmeet import joinmeet_report
from .poset import Poset, build_poset, two_chains_poset
from .semigroup import (
    ConeDescription,
    cone_report,
    determinantal_invariants,
    segre_veronese_cone,
    veronese_cone,
)
from .sweep import poset_document, run_sweep

_TOOL = {"name": "divclass", "version": __version__}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are input errors, exit code 1
        # argparse quotes the offending argument whole: cut a long message to
        # 200 bytes, counting each non-ASCII character as its longest escape
        if len(message.encode("ascii", "backslashreplace")) > 200:
            message = message[:197]
            while len(message.encode("ascii", "backslashreplace")) > 197:
                message = message[:-1]
            message += "..."
        raise InputError(message)


def _as_int(value, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        try:
            return int(value)
        except ValueError:  # more digits than the interpreter converts
            raise InputError(
                f"{what} is a decimal string of {len(value.lstrip('-'))} digits, "
                f"past the limit of {sys.get_int_max_str_digits()} digits"
            ) from None
    raise InputError(f"{what} must be an integer or a decimal string, got {excerpt(value)}")


def _as_int_vector(value, what: str) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be an array of integers")
    return tuple(_as_int(x, what) for x in value)


# The required fields of each mode, then its optional ones, besides "mode".
_FIELDS = {"poset": (("elements", "relations"), ()), "cone": (("dim", "forms"), ("interior_point",))}


def parse_input_document(obj):
    """Validate a decoded JSON object into the Poset or ConeDescription it describes."""
    if not isinstance(obj, dict):
        raise InputError("input document must be a JSON object")
    mode = obj.get("mode")
    if mode not in ("poset", "cone"):  # by equality: a list or dict mode is refused, not hashed
        raise InputError('input document needs "mode": "poset" or "cone"')
    required, optional = _FIELDS[mode]
    unknown = set(obj) - {"mode", *required, *optional}
    if unknown:
        raise InputError(f"unknown {mode} mode fields: {excerpt(sorted(unknown, key=str))}")
    if not set(required) <= set(obj):
        raise InputError(f"{mode} mode needs " + " and ".join(f'"{name}"' for name in required))
    if mode == "poset":
        elements = obj["elements"]
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise InputError('"elements" must be an array of strings')
        relations = obj["relations"]
        if not isinstance(relations, list):
            raise InputError('"relations" must be an array of string pairs')
        pairs = []
        for rel in relations:
            if not (isinstance(rel, list) and len(rel) == 2 and all(isinstance(x, str) for x in rel)):
                raise InputError(f"relation {excerpt(rel)} is not a pair of element names")
            pairs.append(tuple(rel))
        for name in elements + [x for pair in pairs for x in pair]:
            try:
                name.encode("utf-8")
            except UnicodeEncodeError:
                raise InputError(f"name {excerpt(name)} does not encode as UTF-8") from None
        return build_poset(elements, pairs)
    dim = _as_int(obj["dim"], '"dim"')
    if not isinstance(obj["forms"], list):
        raise InputError('"forms" must be an array of integer arrays')
    forms = tuple(_as_int_vector(f, '"forms" entry') for f in obj["forms"])
    interior = None
    if obj.get("interior_point") is not None:
        interior = _as_int_vector(obj["interior_point"], '"interior_point"')
    return ConeDescription(dim, forms, interior)


def _cone_echo(cone: ConeDescription) -> dict:
    doc = {
        "mode": "cone",
        "dim": cone.dim,
        "forms": [[str(x) for x in f] for f in cone.forms],
    }
    if cone.interior_point is not None:
        doc["interior_point"] = [str(x) for x in cone.interior_point]
    return doc


def _document(mode, echo, basis_tag, report, family=None) -> dict:
    """The report document of a ClassGroupReport, whichever mode produced it."""
    doc = {
        "tool": dict(_TOOL),
        "mode": mode,
        "input": echo,
        "num_height_one_primes": report.num_height_one_primes,
        "rank": report.group.free_rank,
        "invariant_factors": [str(f) for f in report.group.torsion_factors],
        "canonical_class": (
            None
            if report.canonical_in_basis is None
            else {"basis": basis_tag, "coords": [str(c) for c in report.canonical_in_basis]}
        ),
        "torsion_number": str(report.torsion_number),
        "gorenstein": report.gorenstein,
    }
    if mode == "poset":
        doc["pure"] = report.pure
    if family is not None:
        doc["family"] = family
    return doc


def _analyze(subject, family=None) -> dict:
    """Report document for a Poset (poset mode) or a ConeDescription (cone mode)."""
    if isinstance(subject, Poset):
        echo = {"mode": "poset", **poset_document(subject)}
        return _document("poset", echo, "nontree-edges", joinmeet_report(subject), family)
    return _document("cone", _cone_echo(subject), "smith", cone_report(subject), family)


# family name -> (its parameters, the builder taking them by name)
_FAMILIES = {
    "two-chains": (("a", "b"), two_chains_poset),
    "veronese": (("n", "r"), veronese_cone),
    "segre": (("m", "p", "n", "q"), segre_veronese_cone),
    "determinantal": (("m", "n"), determinantal_invariants),
}


def _cmd_family(args) -> dict:
    names, builder = _FAMILIES[args.name]
    params = {name: getattr(args, name) for name in names}
    family = {"name": args.name, **params}
    if args.name != "determinantal":
        return _analyze(builder(**params), family=family)
    # a closed form: no analyzable input document exists to echo
    return _document("determinantal", None, "height-one-prime", builder(**params), family)


def _cmd_sweep(args):
    summary = run_sweep(args.count, args.max_n, args.seed)
    doc = {"tool": dict(_TOOL), "mode": "sweep", **summary.as_document()}
    return doc, 0 if summary.all_passed else 2


def _render_text(doc, prefix="") -> list:
    """The lines of a dict or a list; scalars are written inline by their container."""
    lines = []
    if isinstance(doc, dict):
        for key in doc:
            value = doc[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{prefix}{key}:")
                lines.extend(_render_text(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {value}")
    else:
        if not doc:
            lines.append(f"{prefix}(none)")
        for item in doc:
            if isinstance(item, (dict, list)):
                lines.append(f"{prefix}-")
                lines.extend(_render_text(item, prefix + "  "))
            else:
                lines.append(f"{prefix}- {item}")
    return lines


def render(doc, output: str) -> str:
    if output == "json":
        return json.dumps(doc, indent=2, sort_keys=True)
    return "\n".join(_render_text(doc))


@functools.cache
def build_parser() -> _ArgumentParser:
    """The command line's parser, built on the first call and shared by every later one.

    Each ``parse_args`` returns a fresh namespace, so one parse leaves
    nothing behind for the next.
    """
    parser = _ArgumentParser(
        prog="divclass",
        description="Divisor class groups and torsion numbers of normal affine semigroup rings.",
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    # accepted before or after the subcommand; the subparser only overrides
    # when the flag is actually given
    common = _ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "text"), default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", parents=[common], help="analyze a poset or cone input document"
    )
    analyze.add_argument("--input", metavar="FILE", help="JSON file (stdin when absent)")

    family = sub.add_parser("family", parents=[common], help="analyze a built-in parametric family")
    members = family.add_subparsers(dest="name", required=True)
    for name, (params, _) in _FAMILIES.items():
        member = members.add_parser(name, parents=[common])
        for param in params:
            member.add_argument(f"--{param}", type=int, required=True)

    sweep = sub.add_parser("sweep", parents=[common], help="randomized property sweep over posets")
    sweep.add_argument("--count", type=int, default=200)
    sweep.add_argument("--max-n", dest="max_n", type=int, default=7)
    sweep.add_argument("--seed", type=int, default=42)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: none, or Python < 3.10.7
    try:
        args = parser.parse_args(argv)
        if args.command == "analyze":
            try:
                if args.input is None:
                    raw = sys.stdin.read()
                else:
                    with open(args.input, "r", encoding="utf-8") as handle:
                        raw = handle.read()
            except UnicodeDecodeError as exc:
                raise InputError(f"input is not UTF-8 text: {exc}") from None
            except OSError as exc:
                raise InputError(f"cannot read {args.input or 'standard input'}: {exc}") from None
            try:
                obj = json.loads(raw)
            except ValueError as exc:  # JSONDecodeError, or a number past the digit limit
                raise InputError(f"input is not valid JSON: {exc}") from None
            except RecursionError:
                raise InputError("input JSON is nested too deeply to decode") from None
            subject = parse_input_document(obj)
        if limit:  # the limit guards reading input; answers print in full
            sys.set_int_max_str_digits(0)
        if args.command == "analyze":
            doc, code = _analyze(subject), 0
        elif args.command == "family":
            doc, code = _cmd_family(args), 0
        else:
            doc, code = _cmd_sweep(args)
        sys.stdout.write(render(doc, args.output) + "\n")
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
