"""JSON command line over the library.

One subcommand per library operation; all input and output is exact (rationals
as "p/q" strings, never floats), and every output is a single JSON document on
standard output. Exit codes: 0 computed, 1 usage or parse error, 2 domain
error (degenerate form, zero coefficient, factorization limit, non-prime
place, a point search that spends its work budget before it answers), 3
inconclusive local oracle.

Syntax errors in flag values (malformed JSON, a field tag that is not
Q/R/Qp:<int>) are usage errors; well-formed values that fail semantic checks
(zero coefficients, composite "primes") are domain errors.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .cohomology import BaseField, cohclass_to_json, h1, hilbert_symbol, is_zero
from .forms import (
    diagonalize,
    form_from_json,
    form_to_json,
    matrix_from_json,
    matrix_to_json,
)
from .gerbe import GALOIS_GROUP, h2_census, main_example_report
from .hasse_witt import hasse_witt_vector, top_obstruction
from .localsolve import InconclusivePrecisionError
from .rationals import Place, as_rational
from .solvability import (
    search_point,
    solvable_over_Q,
    solvable_over_Qp,
    solvable_over_R,
)

# accept -1 and -3/4 as flag values; the stock matcher only knows plain ints
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+)?$")

_FIELD_SYNTAX = re.compile(r"^(Q|R|Qp:-?\d+)$")
_PLACE_SYNTAX = re.compile(r"^(inf|-?\d+)$")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _rational_arg(text: str) -> str:
    try:
        as_rational(text)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return text


def _json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}") from exc


def _field_arg(text: str) -> str:
    if not _FIELD_SYNTAX.match(text.strip()):
        raise argparse.ArgumentTypeError(f"field must be Q, R or Qp:<p>, got {text!r}")
    return text


def _place_arg(text: str) -> str:
    if not _PLACE_SYNTAX.match(text.strip()):
        raise argparse.ArgumentTypeError(f"place must be inf or a prime, got {text!r}")
    return text


def _cmd_diag(args) -> dict:
    transform, diagonal = diagonalize(matrix_from_json(args.matrix))
    return {"transform": matrix_to_json(transform), "diagonal": form_to_json(diagonal)}


def _cmd_hilbert(args) -> dict:
    place = Place.parse(args.place)
    return {"symbol": hilbert_symbol(args.a, args.b, place)}


def _cmd_h1(args) -> dict:
    return cohclass_to_json(h1(args.a, BaseField.parse(args.field)))


def _cmd_hw(args) -> dict:
    form = form_from_json(args.form)
    field = BaseField.parse(args.field)
    vector = hasse_witt_vector(form, field)
    top = vector[form.rank]  # HW_n is the full cup product of the n entries
    return {
        "form": form_to_json(form),
        "field": str(field),
        "hw": [cohclass_to_json(c) for c in vector.classes],
        "top_obstruction": cohclass_to_json(top),
        "zero": is_zero(top),
    }


def _cmd_obstruct(args) -> dict:
    form = form_from_json(args.form)
    field = BaseField.parse(args.field)
    doc = cohclass_to_json(top_obstruction(form, field))
    doc["form"] = form_to_json(form)
    return doc


def _cmd_solvable(args) -> dict:
    form = form_from_json(args.form)
    if args.place is None:
        return solvable_over_Q(form).to_json()
    place = Place.parse(args.place)
    verdict = (
        solvable_over_R(form) if place.is_real else solvable_over_Qp(form, place.p)
    )
    return {"place": str(place), "solvable": verdict}


def _cmd_search(args) -> dict:
    form = form_from_json(args.form)
    point = search_point(form, args.height)
    return {"point": None if point is None else [str(x) for x in point]}


def _cmd_gerbe_verify(args) -> dict:
    report = main_example_report()
    cocycle = report.pop("cocycle")
    labels = [str(g) for g in GALOIS_GROUP]
    report["labels"] = labels
    report["cocycle_table"] = [
        [cocycle(s, t) for t in GALOIS_GROUP] for s in GALOIS_GROUP
    ]
    return report


def _cmd_h2_census(args) -> dict:
    return {"classes": h2_census()}


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--human", action="store_true", help="indent the JSON (same document)"
    )
    parser = _Parser(prog="hassewitt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("diag", parents=[common], help="diagonalize a symmetric matrix")
    p.add_argument("--matrix", required=True, type=_json_arg)
    p.set_defaults(handler=_cmd_diag)

    p = sub.add_parser("hilbert", parents=[common], help="Hilbert symbol (a,b) at a place")
    p.add_argument("-a", required=True, type=_rational_arg)
    p.add_argument("-b", required=True, type=_rational_arg)
    p.add_argument("--place", required=True, type=_place_arg)
    p.set_defaults(handler=_cmd_hilbert)

    p = sub.add_parser("h1", parents=[common], help="square class of a scalar")
    p.add_argument("-a", required=True, type=_rational_arg)
    p.add_argument("--field", required=True, type=_field_arg)
    p.set_defaults(handler=_cmd_h1)

    p = sub.add_parser("hw", parents=[common], help="Hasse-Witt vector of a diagonal form")
    p.add_argument("--form", required=True, type=_json_arg)
    p.add_argument("--field", required=True, type=_field_arg)
    p.set_defaults(handler=_cmd_hw)

    p = sub.add_parser("obstruct", parents=[common], help="top cup-product obstruction")
    p.add_argument("--form", required=True, type=_json_arg)
    p.add_argument("--field", required=True, type=_field_arg)
    p.set_defaults(handler=_cmd_obstruct)

    p = sub.add_parser("solvable", parents=[common], help="does the form represent 1")
    p.add_argument("--form", required=True, type=_json_arg)
    p.add_argument("--place", type=_place_arg)
    p.set_defaults(handler=_cmd_solvable)

    p = sub.add_parser("search", parents=[common], help="bounded rational point search")
    p.add_argument("--form", required=True, type=_json_arg)
    p.add_argument("--height", required=True, type=int)
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("gerbe-verify", parents=[common], help="finite descent example, end to end")
    p.set_defaults(handler=_cmd_gerbe_verify)

    p = sub.add_parser("h2-census", parents=[common], help="count 2-cocycle classes")
    p.set_defaults(handler=_cmd_h2_census)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        doc = args.handler(args)
    except InconclusivePrecisionError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=2 if args.human else None))
    return 0


if __name__ == "__main__":
    sys.exit(main())
