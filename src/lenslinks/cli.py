"""Command-line interface.

Subcommands: ``invariance``, ``lift``, ``torus-test``, ``genus``,
``alexander``, ``puiseux``, ``homology``, ``nullhomologous``.  Each
subcommand's handler returns only its JSON fields.  ``run`` prints them as
one JSON object under ``--json``, which every subcommand accepts, and
otherwise as the text that ``_text`` renders from those fields alone: the
text says nothing the JSON does not, and ``--json`` builds no text.  The
JSON field names are a stability contract for scripting; they, the text
output and the ``--help`` pages are pinned by the golden outputs in
``tests/fixtures/cli_golden.json``.

Each call reads its argv once.  ``_build_parser`` declares every option,
and argparse alone writes help and usage errors.  A well-formed argv never
enters argparse: ``_parse`` reads it in one pass over the tokens through the
subcommand's option table, which ``_table`` derives from that subcommand's
parser and so declares no option a second time.  Every other argv goes to
the subcommand's argparse parser (``_parse`` says which).  Either way,
``--opt=VALUE`` hands the text VALUE to the option's ``type``, whatever it
looks like: ``--opt=--`` means the text ``--`` on every interpreter.

Exit codes: 0 success, 1 domain error, 2 usage or parse error, 3 internal
consistency fault or any other exception, which is reported with its class
and the argv that reproduces it, never with a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .braid import parse_braid_word
from .curves import (
    PuiseuxData,
    invariance_class,
    is_torus_knot_lift,
    parse_poly,
    puiseux_pairs,
    torus_poly,
)
from .errors import ConsistencyError, DivisibilityError, ParseError
from .genus import bennequin_fiber, quotient_genus
from .invariants import alexander_of_closure, torus_closure
from .lens import (
    homology_classes,
    lift,
    lifted_component_count,
    nullhomologous_orientation,
    parse_band_diagram,
)

# Printed lifts are materialized words; refuse absurd sizes instead of
# exhausting memory on garbage input.  Each command checks the sizes of what
# it builds, and only those, before it builds anything.  The torus bound also
# keeps lift_genus, about a*b/2, under the 4,300 digits that str() prints.
_LIFT_LETTER_LIMIT = 1_000_000
# The strand count n of a band or braid: closure permutations take O(n)
# memory and Burau matrices (n-1)^2 entries.
_STRAND_LIMIT = 256


def _check_size(size: int, what: str, unit: str = "letters", limit: int = _LIFT_LETTER_LIMIT) -> None:
    if size > limit:
        # A size past 64 bits is shown by its leading power of two: its
        # digits say nothing more, and past 4,300 of them str() raises.
        shown = size if size.bit_length() <= 64 else f"at least 2^{size.bit_length() - 1}"
        raise ValueError(f"{what} would have {shown} {unit}; refusing")


def _check_strands(n: int, what: str) -> None:
    _check_size(n, what, "strands", _STRAND_LIMIT)


def _check_band_strands(space, word) -> None:
    # What homology and nullhomologous build (closure permutations, perm^p by
    # squaring, the orientation table) grows with n and only with log p.
    _check_strands(word.strands, "band diagram")


def _check_lift_size(space, word) -> None:
    n = word.strands
    _check_size(space.p * len(word) + space.q * n * (n - 1), "lifted word")
    _check_band_strands(space, word)


def _torus_on(a: int, b: int, strands: int) -> tuple[int, int]:
    """(A, B) with {A, B} = {a, b} and B = ``strands`` if either is, else B = min(a, b), after a sign and size check.

    T(a,b) = T(b,a) is the closure of a braid on B strands with A*(B - 1)
    letters (torus_closure), so both orders are sized, and built, alike.
    """
    if a < 1 or b < 1:
        raise ValueError("torus parameters must be positive")
    a, b = (a, b) if b == strands else (b, a) if a == strands else (max(a, b), min(a, b))
    _check_size(a * (b - 1), f"torus braid T({a},{b})")
    return a, b


def _band_fields(diagram) -> dict:
    return {"p": diagram.space.p, "q": diagram.space.q, "n": diagram.word.strands}


def _cmd_invariance(args) -> dict:
    f = parse_poly(args.poly)
    k = invariance_class(f, args.p, args.q)
    return {"poly": str(f), "p": args.p, "q": args.q, "invariant": k is not None, "k": k}


def _cmd_lift(args) -> dict:
    diagram = parse_band_diagram(args.band, _check_lift_size)
    n = diagram.word.strands
    if args.compare_torus:
        a, b = _torus_on(*args.compare_torus, n)
    lifted = lift(diagram)
    count = lifted_component_count(diagram)
    fields = {**_band_fields(diagram), "lifted_word": lifted.letters, "components": count}
    if args.compare_torus:
        fields["compare_torus"] = list(args.compare_torus)
        # The torus braid must go on the lift's n strands.
        if b != n:
            fields["equal_up_to_unit"] = None
            fields["note"] = "incomparable presentations"
        else:
            torus = torus_closure(a, b)
            mine = alexander_of_closure(diagram.word, diagram.space.p, diagram.space.q)
            # T(a,b)'s polynomial is never 0 and spans (a-1)(b-1), so any
            # other span answers without building it.  Both polynomials are
            # unit-normalized, from exponent 0: == is equality up to a unit.
            terms = mine.poly.terms
            same_span = bool(terms) and terms[-1][0] == (a - 1) * (b - 1)
            fields["equal_up_to_unit"] = same_span and alexander_of_closure(*torus) == mine
    return fields


def _cmd_torus_test(args) -> dict:
    if args.q is None:
        ok = is_torus_knot_lift(args.a, args.b, args.p)
        return {"a": args.a, "b": args.b, "p": args.p, "lift_of_knot": ok}
    k = invariance_class(torus_poly(args.a, args.b), args.p, args.q)
    return {"a": args.a, "b": args.b, "p": args.p, "q": args.q, "lift_of_link": k is not None, "k": k}


def _cmd_genus(args) -> dict:
    if args.torus:
        a, b = _torus_on(*args.torus, min(args.torus))
        p = math.gcd(a, b)
        fiber = bennequin_fiber(*torus_closure(a, b))
        return {
            "p": p,
            "lift_genus": fiber.genus,
            "lift_components": fiber.boundary_components,
            "quotient_genus": quotient_genus(p, 0, fiber.genus),
        }
    p, k, lift_genus = args.quotient
    return {
        "p": p,
        "k": k,
        "lift_genus": lift_genus,
        "quotient_genus": quotient_genus(p, k, lift_genus),
        "unvalidated_regime": k != 0,
    }


def _cmd_alexander(args) -> dict:
    if args.braid is not None:
        if args.strands is None:
            raise ValueError("--braid requires --strands")
        _check_strands(args.strands, "braid")
        word = parse_braid_word(args.braid, args.strands)
        poly = alexander_of_closure(word)
        return {"strands": word.strands, "word": word.letters, "alexander": str(poly)}
    diagram = parse_band_diagram(args.band, _check_lift_size)
    poly = alexander_of_closure(diagram.word, diagram.space.p, diagram.space.q)
    return {**_band_fields(diagram), "lifted_word": lift(diagram).letters, "alexander": str(poly)}


def _cmd_puiseux(args) -> dict:
    data = PuiseuxData(args.m, tuple(args.exponents))
    seq = puiseux_pairs(data, characteristic_only=args.characteristic_only)
    return {"m": args.m, "exponents": args.exponents, "pairs": seq.pairs}


def _cmd_homology(args) -> dict:
    diagram = parse_band_diagram(args.band, _check_band_strands)
    classes = [c.value for c in homology_classes(diagram)]
    lifted = lifted_component_count(diagram)
    return {**_band_fields(diagram), "components": len(classes), "classes": classes, "lifted_components": lifted}


def _cmd_nullhomologous(args) -> dict:
    diagram = parse_band_diagram(args.band, _check_band_strands)
    signs = nullhomologous_orientation(diagram)
    rendered = None if signs is None else ["+" if s > 0 else "-" for s in signs]
    return {**_band_fields(diagram), "exists": signs is not None, "orientation": rendered}


def _text(command: str, f: dict) -> str:
    """The text output of ``command``, read from its JSON fields ``f`` alone."""
    if command == "invariance":
        lines = [f"k = {f['k']}" if f["invariant"] else "no invariance class"]
    elif command == "torus-test":
        # Without --q there is no q field, and the knot test names L(p,q).
        link, space = f"T({f['a']},{f['b']})", f"L({f['p']},{f.get('q', 'q')})"
        if "lift_of_knot" in f:
            lines = [f"{link} {'is' if f['lift_of_knot'] else 'is not'} the lift of a knot in {space}"]
        elif f["lift_of_link"]:
            lines = [f"{link} lifts from {space}; k = {f['k']}"]
        else:
            lines = [f"{link} is not a lift from {space}"]
    elif command == "genus" and "lift_components" in f:
        lines = [
            f"p = {f['p']}",
            f"lift genus = {f['lift_genus']}",
            f"lift components = {f['lift_components']}",
            f"quotient genus = {f['quotient_genus']}",
        ]
    elif command == "genus":
        lines = [f"quotient genus = {f['quotient_genus']}"]
        if f["unvalidated_regime"]:
            lines.append("warning: k != 0 is an unvalidated regime")
    elif command == "puiseux":
        lines = ["pairs: {" + "; ".join(f"({m},{n})" for m, n in f["pairs"]) + "}"]
    elif command == "homology":
        lines = [f"classes: {' '.join(map(str, f['classes']))}", f"lifted components: {f['lifted_components']}"]
    elif command == "nullhomologous":
        if f["exists"]:
            lines = [f"orientation: {' '.join(f['orientation'])}"]
        else:
            lines = ["no nullhomologous orientation (the diagram is not an algebraic link)"]
    elif command == "alexander":
        # A band's lift comes before its polynomial; a braid shows only the polynomial.
        lines = [f"lifted word: {' '.join(map(str, f['lifted_word']))}"] if "lifted_word" in f else []
        lines.append(f"alexander: {f['alexander']}")
    else:  # lift
        lines = [f"lifted word: {' '.join(map(str, f['lifted_word']))}", f"components: {f['components']}"]
        if "note" in f:
            lines.append(
                f"incomparable presentations: lift on {f['n']} strands, "
                f"torus braid on {min(f['compare_torus'])}"
            )
        elif "equal_up_to_unit" in f:
            lines.append(f"equal_up_to_unit: {'true' if f['equal_up_to_unit'] else 'false'}")
    return "\n".join(lines)


def int_list(text: str) -> list[int]:
    """The integers of comma-separated ``text``; argparse's conversion errors name this type by its ``__name__``."""
    return [int(x) for x in text.split(",") if x.strip()]


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that an option's value ``--`` is text on every interpreter.

    Before 3.13, argparse drops the ``--`` of ``--opt=--`` and hands the
    option an empty list without calling its ``type``; 3.13 reads the text
    ``--`` through the ``type``, as this does everywhere.  An option's own
    arguments never hold the separator ``--`` otherwise.  The usage line
    that a usage error prints is formatted once per parser and terminal
    width (``_usage``); ``--help`` formats its page as argparse does.  The
    subcommand parsers are of this class too.
    """

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)

    def format_usage(self):
        # argparse's formatter takes its width from the terminal, read the same way.
        import shutil

        return _usage(self, shutil.get_terminal_size().columns)


@functools.cache
def _usage(parser: argparse.ArgumentParser, columns: int) -> str:
    """The usage line argparse formats for ``parser`` at a terminal ``columns`` wide, formatted once per width."""
    return argparse.ArgumentParser.format_usage(parser)


# One parser and its subcommand parsers serve every call in a process: parsing does not change them.
@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(
        prog="lenslinks",
        # argparse spells the subcommand choices out on this line, and 3.13
        # wraps them differently; the subcommands keep their own usage lines.
        usage="%(prog)s [-h] COMMAND ...",
        description="Exact computations for algebraic links in lens spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="lenslinks")

    p = sub.add_parser("invariance", help="invariance class of a polynomial under the L(p,q) action")
    p.add_argument("--poly", required=True, help="polynomial text, e.g. 'x^8 + y^2'")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("lift", help="lift a band diagram to a closed braid in the 3-sphere")
    p.add_argument("--band", required=True, help="band diagram 'p q n : letters [| signs]'")
    p.add_argument(
        "--compare-torus",
        nargs=2,
        type=int,
        metavar=("A", "B"),
        help="compare the lift's Alexander polynomial with T(A,B)",
    )
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("torus-test", help="is T(a,b) the lift of an algebraic link/knot?")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, help="test a specific L(p,q); omit to test the knot criterion")
    p.set_defaults(func=_cmd_torus_test)

    p = sub.add_parser("genus", help="Seifert genus of the quotient knot")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--torus", nargs=2, type=int, metavar=("A", "B"))
    group.add_argument(
        "--quotient",
        nargs=3,
        type=int,
        metavar=("P", "K", "LIFT_GENUS"),
        help="apply the quotient-genus formula directly",
    )
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("alexander", help="Alexander polynomial of a closure or lifted band diagram")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--braid", help="braid word, e.g. '1 1 1'")
    group.add_argument("--band", help="band diagram 'p q n : letters'")
    p.add_argument("--strands", type=int, help="strand count for --braid")
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("puiseux", help="rewrite Puiseux exponents into cable pairs")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--exponents",
        type=int_list,
        required=True,
        help="comma-separated numerators, e.g. 6,7",
    )
    p.add_argument("--characteristic-only", action="store_true")
    p.set_defaults(func=_cmd_puiseux)

    p = sub.add_parser("homology", help="homology classes of a band diagram's components")
    p.add_argument("--band", required=True)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("nullhomologous", help="search for a nullhomologous orientation")
    p.add_argument("--band", required=True)
    p.set_defaults(func=_cmd_nullhomologous)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit one JSON object")
    return parser, sub.choices


@functools.cache
def _table(parser: argparse.ArgumentParser) -> tuple:
    """What ``_read`` needs of a subcommand's ``parser``, read from the actions ``_build_parser`` declared.

    That is the option strings, ``dest``, ``nargs``, ``type``, ``required``
    and default of each action, the mutually exclusive groups, and
    ``set_defaults``.  Every action is an option that stores its values or a
    flag, besides help, without choices or a default given as text, which
    argparse would check or convert (a test holds the declarations to that).
    """
    options, defaults = {}, {}
    for action in parser._actions:
        if not isinstance(action, argparse._HelpAction):
            options.update(dict.fromkeys(action.option_strings, action))
            defaults[action.dest] = action.default
    defaults.update(parser._defaults)
    required = frozenset(action.dest for action in options.values() if action.required)
    groups = tuple(
        [
            (frozenset(action.dest for action in group._group_actions), group.required)
            for group in parser._mutually_exclusive_groups
        ]
    )
    # argparse's _parse_optional reads a token that starts with "-" as a value
    # only if it matches no option string, whole or abbreviated, and is a
    # negative number or holds a space (no option string here looks like a
    # negative number).  A token of two leading dashes, or one whose first
    # two characters begin a single-dash option string, goes to argparse,
    # which may read it as an option.
    short = frozenset(o[:2] for o in parser._option_string_actions if o[1:2] != "-")
    negative = parser._negative_number_matcher.match

    def is_value(token: str) -> bool:
        if token[:1] != "-":
            return True
        if token[1:2] == "-" or token[:2] in short:
            return False
        return " " in token or negative(token) is not None

    return parser, options, defaults, required, groups, is_value


def _convert(parser: argparse.ArgumentParser, action: argparse.Action, text: str):
    """``action.type(text)``, or exit 2 with the message argparse gives for it."""
    if action.type is None:
        return text
    try:
        return action.type(text)
    except (TypeError, ValueError):
        name = getattr(action.type, "__name__", repr(action.type))
        parser.error(str(argparse.ArgumentError(action, f"invalid {name} value: {text!r}")))


def _read(table: tuple, tokens: list[str]) -> argparse.Namespace | None:
    """The namespace argparse builds from a well-formed ``tokens``, or None for argparse to read them.

    Well-formed: each option is given once, by its exact option string and
    its values, or as ``--name=VALUE`` for an option of one value; every
    required option and exactly one option of each required group is given.
    The values are converted, in the order given, only once the whole of
    ``tokens`` is known to be well formed, so that any other argv reaches
    argparse, which decides which of its errors comes first, before a
    conversion could report one.
    """
    parser, options, defaults, required, groups, is_value = table
    given = {}
    i, end = 0, len(tokens)
    while i < end:
        token = tokens[i]
        action = options.get(token)
        if action is None:
            name, eq, text = token.partition("=")
            action = options.get(name) if eq else None
            if action is None or action.nargs is not None:
                return None
            texts = (text,)
            i += 1
        else:
            count = 1 if action.nargs is None else action.nargs
            texts = tokens[i + 1 : i + 1 + count]
            if len(texts) < count or not all(map(is_value, texts)):
                return None
            i += 1 + count
        if action.dest in given:
            return None
        given[action.dest] = action, texts
    if not required <= given.keys():
        return None
    for dests, needed in groups:
        hits = len(dests & given.keys())
        if hits > 1 or (needed and not hits):
            return None
    values = dict(defaults)
    for dest, (action, texts) in given.items():
        if action.nargs == 0:
            values[dest] = action.const
        elif action.nargs is None:
            values[dest] = _convert(parser, action, texts[0])
        else:
            values[dest] = [_convert(parser, action, text) for text in texts]
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """The top-level ``parse_args(argv)``, read in one pass where argv is well formed.

    A named subcommand's table (``_table``) reads ``argv[1:]`` when every
    token is an exact option string, ``--name=VALUE``, or one of an option's
    values as argparse would read it, with every option given at most once
    and the required ones and groups satisfied (``_read``).  Every other
    argv goes to argparse, as does any argv whose ``argv[0]`` names no
    subcommand: help, abbreviations, ``--``, repeated options, unknown
    tokens, missing required options and group conflicts.  So argparse
    writes every help page and every usage error but a value's conversion
    error, whose text ``_convert`` takes from argparse.
    """
    parser, commands = _build_parser()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    command = commands[argv[0]]
    args = _read(_table(command), argv[1:])
    if args is None:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv``, execute, and print the result; returns the process exit code.

    ``_parse`` reads ``argv`` once, through the option table of the
    subcommand ``argv[0]`` names where argv is well formed, else through
    argparse.

    This is the one place that writes output.  The handler's fields are the
    only result: they are printed as one JSON object with ``--json``, else
    rendered to text by ``_text``.  An exception no other clause expects
    exits 3 with its class, its message and the argv that reproduces it.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
        fields = args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, DivisibilityError) as exc:
        return _fault(argv, f"internal consistency fault: {exc}")
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # The last resort: any other exception is a fault of the program.
        return _fault(argv, f"internal error: {type(exc).__name__}: {exc}")
    print(json.dumps(fields) if args.json else _text(args.command, fields))
    return 0


def _fault(argv: list[str], message: str) -> int:
    """Print ``message`` with the command line that reproduces it; exit code 3."""
    import shlex  # only this rare message needs it

    print(f"{message}; reproduce with: lenslinks {shlex.join(argv)}", file=sys.stderr)
    return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
