"""Command-line front end.

Exit codes: 0 = success (including negative mathematical verdicts, which
are results, not failures); 1 = domain error, with a machine-readable JSON
object on stderr; 2 = usage error, unreadable or malformed input, with a
one-line message on stderr.  Identical
invocations print identical bytes: output is canonical JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import serialize as ser
from .anosov import certify
from .catalog import csig_fixture, cyclic_cubic_datum, cubic_pisot_unit, sqrt2_datum
from .errors import AnosovError, DimensionBudgetExceeded, MalformedInput
from .exactmath import rat_to_str
from .liealg import Grading, heisenberg
from .numfield import biquadratic_datum, conjugate_modulus_interval, minimal_polynomial
from .pfaffian import (
    binary_form_of,
    classify_type42,
    pfaffian_form,
    scheuneman_dual,
    solve_pell,
)
from .pisot import search_units
from .recipes import (
    recipe_count,
    recipe_csig,
    recipe_last,
    recipe_laur,
    recipe_z4_example,
)

# largest algebra construct builds for --recipe csig|last: dimension 26-27
# is csig class 7 and last class 9 over the default fields
CONSTRUCT_DIM_BUDGET = 27


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:  # ValueError: bad JSON or UTF-8
        print(f"cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)


def _emit(obj) -> int:
    sys.stdout.write(ser.canonical_dumps(obj))
    return 0


def _parse_lambda(datum, text: str):
    try:
        return datum.element(part.strip() for part in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedInput(f"--lambda {text!r}: {e}") from e


def _parse_grading(text: str, dim: int) -> Grading:
    try:
        dims = tuple(int(part) for part in text.split(","))
        if any(d <= 0 for d in dims) or sum(dims) != dim:
            raise ValueError(f"need positive integers summing to {dim}")
    except ValueError as e:
        raise MalformedInput(f"--grading {text!r}: {e}") from e
    return Grading(dims)


def _check_dimension(dim: int) -> None:
    if dim > CONSTRUCT_DIM_BUDGET:
        raise DimensionBudgetExceeded(
            f"dimension {dim} exceeds the budget of {CONSTRUCT_DIM_BUDGET}")


def _field_and_lambda(args, default):
    """(datum, lambda) for construct: the --field datum, else the recipe's
    default() pair, with --lambda parsed on that datum when it is given.
    --field without --lambda is a usage error."""
    if args.field:
        datum = ser.datum_from_json(_read_json(args.field))
        if args.lam is None:
            print(f"construct --recipe {args.recipe} needs --lambda with --field",
                  file=sys.stderr)
            raise SystemExit(2)
        return datum, _parse_lambda(datum, args.lam)
    datum, lam = default()
    return datum, lam if args.lam is None else _parse_lambda(datum, args.lam)


def cmd_certify(args) -> int:
    algebra = ser.algebra_from_json(_read_json(args.algebra))
    matrix = ser.map_from_json(_read_json(args.map))
    cert = certify(algebra, matrix)
    return _emit(ser.certificate_to_json(cert))


def cmd_construct(args) -> int:
    if args.recipe == "z4":
        out = recipe_z4_example()
    elif args.recipe == "count":
        if args.k is None or args.l is None:
            print("construct --recipe count needs --k and --l", file=sys.stderr)
            return 2
        lam = None
        if args.lam is not None:
            lam = _parse_lambda(biquadratic_datum(args.k, args.l), args.lam)
        out = recipe_count(args.k, args.l, lam)
    elif args.recipe == "laur":
        datum, lam = _field_and_lambda(args, lambda: (d := sqrt2_datum(), d.element((1, 1))))
        if args.algebra:
            g = ser.algebra_from_json(_read_json(args.algebra))
            if not args.grading:
                print("construct --recipe laur needs --grading with --algebra",
                      file=sys.stderr)
                return 2
            grading = _parse_grading(args.grading, g.dim)
        else:
            g, grading = heisenberg(), Grading((2, 1))
        out = recipe_laur(g, grading, datum, lam)
    elif args.recipe == "csig":
        datum, lam = _field_and_lambda(args, csig_fixture)
        _check_dimension(datum.degree // 2 * (2 * args.nilpotency_class - 1))
        out = recipe_csig(datum, lam, args.nilpotency_class)
    elif args.recipe == "last":
        datum, lam = _field_and_lambda(
            args, lambda: (d := cyclic_cubic_datum(), cubic_pisot_unit(d)))
        _check_dimension(datum.degree * args.nilpotency_class)
        out = recipe_last(datum, lam, args.nilpotency_class)
    else:  # pragma: no cover - argparse restricts choices
        return 2
    bundle = {"recipe": args.recipe} | ser.recipe_output_to_json(out)
    payload = ser.canonical_dumps(bundle)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        summary = {
            "recipe": args.recipe,
            "written": args.output,
            "signature": list(out.certificate.signature),
            "type": list(out.certificate.algebra_type),
        }
        return _emit(summary)
    sys.stdout.write(payload)
    return 0


def cmd_pisot(args) -> int:
    datum = ser.datum_from_json(_read_json(args.field))
    constraints = []
    if args.constraints:
        constraints = ser.constraints_from_json(_read_json(args.constraints))
    found = search_units(datum, args.height, args.powers, constraints)
    out = []
    for u in found:
        mp = minimal_polynomial(u)
        moduli = [
            ser.interval_to_json(
                conjugate_modulus_interval(u, i, Fraction(1, 1024))
            )
            for i in range(datum.degree)
        ]
        out.append({
            "coeffs": ser.element_to_json(u),
            "min_poly": ser.poly_to_json(mp),
            "conjugate_moduli": moduli,
        })
    return _emit(out)


def cmd_pfaffian(args) -> int:
    algebra = ser.algebra_from_json(_read_json(args.algebra))
    h = pfaffian_form(algebra)
    terms = sorted(
        (list(e), rat_to_str(c)) for e, c in h.terms.items()
    )
    out = {"variables": h.nvars, "terms": [[e, c] for e, c in terms]}
    try:
        bf = binary_form_of(algebra)
        out["binary"] = ser.form_to_json(bf)
        out["discriminant"] = rat_to_str(bf.discriminant)
    except AnosovError:
        pass
    return _emit(out)


def cmd_classify42(args) -> int:
    algebra = ser.algebra_from_json(_read_json(args.algebra))
    k, compatible = classify_type42(algebra)
    return _emit({"k": k, "anosov_compatible": compatible})


def cmd_dualize(args) -> int:
    algebra = ser.algebra_from_json(_read_json(args.algebra))
    return _emit(ser.algebra_to_json(scheuneman_dual(algebra)))


def cmd_pell(args) -> int:
    sol = solve_pell(args.disc)
    return _emit({"x": sol.x, "y": sol.y})


def cmd_verify_field(args) -> int:
    datum = ser.datum_from_json(_read_json(args.field))
    return _emit({
        "verified": True,
        "degree": datum.degree,
        "assume_irreducible": datum.assume_irreducible,
    })


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="anosovforms",
        description="Exact construction and certification of Anosov "
                    "automorphisms on rational nilpotent Lie algebras.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="certify a map on a rational algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("construct", help="run a named construction")
    p.add_argument("--recipe", required=True,
                   choices=["z4", "count", "laur", "csig", "last"])
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--class", dest="nilpotency_class", type=int, default=2)
    p.add_argument("--field", help="Galois datum JSON file")
    p.add_argument("--lambda", dest="lam",
                   help="comma-separated power-basis coordinates")
    p.add_argument("--algebra", help="graded algebra file (laur)")
    p.add_argument("--grading", help="comma-separated grading dims (laur)")
    p.add_argument("-o", "--output", help="write the full bundle here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("pisot", help="search units under cone constraints")
    p.add_argument("--field", required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--powers", type=int, default=1)
    p.add_argument("--constraints")
    p.set_defaults(func=cmd_pisot)

    p = sub.add_parser("pfaffian", help="Pfaffian form of a 2-step algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_pfaffian)

    p = sub.add_parser("classify42", help="classify a type-(4,2) algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_classify42)

    p = sub.add_parser("dualize", help="Scheuneman dual of a 2-step algebra")
    p.add_argument("--algebra", required=True)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("pell", help="fundamental solution of x^2 - D y^2 = 4")
    p.add_argument("--disc", type=int, required=True)
    p.set_defaults(func=cmd_pell)

    p = sub.add_parser("verify-field", help="verify a Galois datum file")
    p.add_argument("--field", required=True)
    p.set_defaults(func=cmd_verify_field)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # argparse strips a lone "--" from a value ("--class=--") and stores an
    # empty list without calling the option's type; no option here takes a list
    if any(isinstance(value, list) for value in vars(args).values()):
        ap.error("an option was given '--' as its value")
    try:
        return args.func(args)
    except MalformedInput as e:
        print(f"malformed input: {e}", file=sys.stderr)
        return 2
    except AnosovError as e:
        err = {"error": type(e).__name__, "detail": str(e)}
        print(json.dumps(err, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
