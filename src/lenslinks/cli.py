"""Command-line interface.

Subcommands: ``invariance``, ``lift``, ``torus-test``, ``genus``,
``alexander``, ``puiseux``, ``homology``, ``nullhomologous``.  Every
subcommand accepts ``--json``; the JSON field names are a stability
contract for scripting, pinned by the golden outputs in
``tests/fixtures/cli_golden.json``.

Exit codes: 0 success, 1 domain error, 2 usage or parse error, 3 internal
consistency fault.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .braid import closure_components, parse_braid_word
from .curves import (
    PuiseuxData,
    invariance_class,
    is_torus_knot_lift,
    parse_poly,
    puiseux_pairs,
    torus_lift_class,
)
from .errors import ParseError
from .genus import bennequin_fiber, quotient_genus, torus_quotient_genus
from .invariants import alexander_of_closure, equal_up_to_unit, torus_braid
from .laurent import DivisibilityError
from .lens import (
    ConsistencyError,
    components,
    homology_classes,
    lift,
    lifted_component_count,
    nullhomologous_orientation,
    parse_band_diagram,
)

# Printed lifts and torus braids are materialized words; refuse absurd sizes
# instead of exhausting memory on garbage input.  Every command checks its
# sizes with _check_size before it builds anything.
_LIFT_LETTER_LIMIT = 1_000_000


def _emit(args, fields: dict, text_lines: list[str]) -> int:
    if args.json:
        print(json.dumps(fields))
    else:
        for line in text_lines:
            print(line)
    return 0


def _check_size(size: int, what: str, unit: str = "letters") -> None:
    if size > _LIFT_LETTER_LIMIT:
        raise ValueError(f"{what} would have {size} {unit}; refusing")


def _check_lift_size(diagram) -> None:
    n = diagram.word.strands
    _check_size(diagram.space.p * len(diagram.word) + diagram.space.q * n * (n - 1), "lifted word")


def _check_torus_size(a: int, b: int) -> None:
    # torus_braid itself rejects a < 1 or b < 1.
    _check_size(max(a, 0) * max(b - 1, 0), f"torus braid T({a},{b})")


def _cmd_invariance(args) -> int:
    f = parse_poly(args.poly)
    k = invariance_class(f, args.p, args.q)
    fields = {"poly": str(f), "p": args.p, "q": args.q, "invariant": k is not None, "k": k}
    text = [f"k = {k}"] if k is not None else ["no invariance class"]
    return _emit(args, fields, text)


def _cmd_lift(args) -> int:
    diagram = parse_band_diagram(args.band)
    _check_lift_size(diagram)
    if args.compare_torus:
        _check_torus_size(*args.compare_torus)
    lifted = lift(diagram)
    count = len(closure_components(lifted))
    fields = {
        "p": diagram.space.p,
        "q": diagram.space.q,
        "n": diagram.word.strands,
        "lifted_word": list(lifted.letters),
        "components": count,
    }
    text = [f"lifted word: {lifted}", f"components: {count}"]
    if args.compare_torus:
        a, b = args.compare_torus
        reference = torus_braid(a, b)
        fields["compare_torus"] = [a, b]
        if reference.strands != lifted.strands:
            fields["equal_up_to_unit"] = None
            fields["note"] = "incomparable presentations"
            text.append(
                f"incomparable presentations: lift on {lifted.strands} strands, "
                f"torus braid on {reference.strands}"
            )
        else:
            p, q = diagram.space.p, diagram.space.q
            same = equal_up_to_unit(
                alexander_of_closure(diagram.word, p, q), alexander_of_closure(reference)
            )
            fields["equal_up_to_unit"] = same
            text.append(f"equal_up_to_unit: {'true' if same else 'false'}")
    return _emit(args, fields, text)


def _cmd_torus_test(args) -> int:
    if args.q is not None:
        k = torus_lift_class(args.a, args.b, args.p, args.q)
        fields = {
            "a": args.a,
            "b": args.b,
            "p": args.p,
            "q": args.q,
            "lift_of_link": k is not None,
            "k": k,
        }
        if k is not None:
            text = [f"T({args.a},{args.b}) lifts from L({args.p},{args.q}); k = {k}"]
        else:
            text = [f"T({args.a},{args.b}) is not a lift from L({args.p},{args.q})"]
    else:
        ok = is_torus_knot_lift(args.a, args.b, args.p)
        fields = {"a": args.a, "b": args.b, "p": args.p, "lift_of_knot": ok}
        verdict = "is" if ok else "is not"
        text = [f"T({args.a},{args.b}) {verdict} the lift of a knot in L({args.p},q)"]
    return _emit(args, fields, text)


def _cmd_genus(args) -> int:
    if args.torus:
        a, b = args.torus
        _check_torus_size(a, b)
        p = math.gcd(a, b)
        fiber = bennequin_fiber(torus_braid(a, b))
        g = torus_quotient_genus(a, b)
        fields = {
            "p": p,
            "lift_genus": fiber.genus,
            "lift_components": fiber.boundary_components,
            "quotient_genus": g,
        }
        text = [
            f"p = {p}",
            f"lift genus = {fiber.genus}",
            f"lift components = {fiber.boundary_components}",
            f"quotient genus = {g}",
        ]
    else:
        p, k, lift_genus = args.quotient
        g = quotient_genus(p, k, lift_genus)
        fields = {
            "p": p,
            "k": k,
            "lift_genus": lift_genus,
            "quotient_genus": g,
            "unvalidated_regime": k != 0,
        }
        text = [f"quotient genus = {g}"]
        if k != 0:
            text.append("warning: k != 0 is an unvalidated regime")
    return _emit(args, fields, text)


def _cmd_alexander(args) -> int:
    if args.braid is not None:
        if args.strands is None:
            raise ValueError("--braid requires --strands")
        word = parse_braid_word(args.braid, args.strands)
        poly = alexander_of_closure(word)
        fields = {"strands": word.strands, "word": list(word.letters), "alexander": str(poly)}
        text = [f"alexander: {poly}"]
    else:
        diagram = parse_band_diagram(args.band)
        _check_lift_size(diagram)
        lifted = lift(diagram)
        poly = alexander_of_closure(diagram.word, diagram.space.p, diagram.space.q)
        fields = {
            "p": diagram.space.p,
            "q": diagram.space.q,
            "n": diagram.word.strands,
            "lifted_word": list(lifted.letters),
            "alexander": str(poly),
        }
        text = [f"lifted word: {lifted}", f"alexander: {poly}"]
    return _emit(args, fields, text)


def _cmd_puiseux(args) -> int:
    data = PuiseuxData(args.m, tuple(args.exponents))
    seq = puiseux_pairs(data, characteristic_only=args.characteristic_only)
    fields = {
        "m": args.m,
        "exponents": list(args.exponents),
        "pairs": [list(pair) for pair in seq.pairs],
    }
    return _emit(args, fields, [f"pairs: {seq}"])


def _cmd_homology(args) -> int:
    diagram = parse_band_diagram(args.band)
    _check_lift_size(diagram)
    classes = [c.value for c in homology_classes(diagram)]
    lifted = lifted_component_count(diagram)
    fields = {
        "p": diagram.space.p,
        "q": diagram.space.q,
        "n": diagram.word.strands,
        "components": len(components(diagram)),
        "classes": classes,
        "lifted_components": lifted,
    }
    text = [
        f"classes: {' '.join(str(c) for c in classes)}",
        f"lifted components: {lifted}",
    ]
    return _emit(args, fields, text)


def _cmd_nullhomologous(args) -> int:
    diagram = parse_band_diagram(args.band)
    # The search keeps one mask of min(p, n + 1) bits per component.
    width = min(diagram.space.p, diagram.word.strands + 1)
    _check_size(len(components(diagram)) * width, "orientation table", "bits")
    signs = nullhomologous_orientation(diagram)
    rendered = None if signs is None else ["+" if s > 0 else "-" for s in signs]
    fields = {
        "p": diagram.space.p,
        "q": diagram.space.q,
        "n": diagram.word.strands,
        "exists": signs is not None,
        "orientation": rendered,
    }
    if rendered is None:
        text = ["no nullhomologous orientation (the diagram is not an algebraic link)"]
    else:
        text = [f"orientation: {' '.join(rendered)}"]
    return _emit(args, fields, text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lenslinks",
        description="Exact computations for algebraic links in lens spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit one JSON object")

    p = sub.add_parser("invariance", help="invariance class of a polynomial under the L(p,q) action")
    p.add_argument("--poly", required=True, help="polynomial text, e.g. 'x^8 + y^2'")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_json(p)
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
    add_json(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("torus-test", help="is T(a,b) the lift of an algebraic link/knot?")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, help="test a specific L(p,q); omit to test the knot criterion")
    add_json(p)
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
    add_json(p)
    p.set_defaults(func=_cmd_genus)

    p = sub.add_parser("alexander", help="Alexander polynomial of a closure or lifted band diagram")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--braid", help="braid word, e.g. '1 1 1'")
    group.add_argument("--band", help="band diagram 'p q n : letters'")
    p.add_argument("--strands", type=int, help="strand count for --braid")
    add_json(p)
    p.set_defaults(func=_cmd_alexander)

    p = sub.add_parser("puiseux", help="rewrite Puiseux exponents into cable pairs")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--exponents",
        type=lambda s: [int(x) for x in s.split(",") if x.strip()],
        required=True,
        help="comma-separated numerators, e.g. 6,7",
    )
    p.add_argument("--characteristic-only", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_puiseux)

    p = sub.add_parser("homology", help="homology classes of a band diagram's components")
    p.add_argument("--band", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("nullhomologous", help="search for a nullhomologous orientation")
    p.add_argument("--band", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_nullhomologous)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv`` and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, DivisibilityError) as exc:
        print(f"internal consistency fault: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
