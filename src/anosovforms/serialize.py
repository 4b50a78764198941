"""JSON encoding and decoding of every on-disk format.

All numbers are exact rational strings ("p/q" or "p"); no floats exist
anywhere in the formats.  canonical_dumps produces byte-identical output
for equal objects (sorted keys, tight separators, trailing newline), which
is what makes gold-file tests and CLI round-trips exact.

Every reader raises MalformedInput on data that does not fit its format:
a missing key, a wrong shape, bad indices, or a JSON float where an exact
number belongs.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction

from .anosov import AnosovCertificate
from .errors import FieldMismatch, MalformedInput
from .exactmath import Interval, Polynomial, RationalMatrix, rat, rat_to_str
from .liealg import LieAlgebra
from .numfield import FieldElement, GaloisDatum, verify_galois_datum
from .pfaffian import BinaryQuadraticForm
from .pisot import ConeConstraint


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _reader(fn):
    """Report the KeyError, IndexError, TypeError, ValueError or
    AttributeError that unusable data raises while it is read as
    MalformedInput."""
    @functools.wraps(fn)
    def read(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except KeyError as e:
            raise MalformedInput(f"missing key {e}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as e:
            raise MalformedInput(str(e)) from None
    return read


def _rat(x) -> Fraction:
    """An exact rational from a string or an integer; floats are refused.
    An ASCII "p" or "p/q" of digits, p optionally signed "-", is read with
    int; every other input by rat, which accepts what Fraction does."""
    if isinstance(x, (str, int, Fraction)) and not isinstance(x, bool):
        try:
            if isinstance(x, str) and x.isascii():
                num, slash, den = x.partition("/")
                if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                    return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            return rat(str(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInput(f"not an exact rational: {x!r}")


def _int(x) -> int:
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise MalformedInput(f"not an integer: {x!r}")


def _bool(x) -> bool:
    if isinstance(x, bool):
        return x
    raise MalformedInput(f"not a boolean: {x!r}")


# -- polynomials, matrices, intervals --------------------------------------


def poly_to_json(p: Polynomial) -> list[str]:
    return [rat_to_str(c) for c in p.coeffs]


@_reader
def poly_from_json(data) -> Polynomial:
    return Polynomial([_rat(c) for c in data])


def matrix_to_json(m: RationalMatrix) -> list[list[str]]:
    return [[rat_to_str(x) for x in row] for row in m.entries]


@_reader
def matrix_from_json(data) -> RationalMatrix:
    return RationalMatrix([[_rat(x) for x in row] for row in data])


def interval_to_json(iv: Interval) -> dict:
    return {"lo": rat_to_str(iv.lo), "hi": rat_to_str(iv.hi)}


@_reader
def interval_from_json(data) -> Interval:
    return Interval(_rat(data["lo"]), _rat(data["hi"]))


# -- Galois data ------------------------------------------------------------


def datum_to_json(d: GaloisDatum) -> dict:
    out = {
        "min_poly": poly_to_json(d.min_poly),
        "automorphisms": [poly_to_json(q) for q in d.automorphisms],
        "identity": d.identity_index,
        "table": [list(row) for row in d.table],
        "assume_irreducible": d.assume_irreducible,
    }
    if d.totally_real:
        out["roots"] = [interval_to_json(iv) for iv in d.root_enclosures]
    else:
        out["totally_real"] = False
        out["moduli"] = [interval_to_json(iv) for iv in d.root_moduli]
    if d.distinguished_index:
        out["distinguished"] = d.distinguished_index
    return out


@_reader
def datum_from_json(data) -> GaloisDatum:
    totally_real = _bool(data.get("totally_real", True))
    datum = GaloisDatum(
        min_poly=poly_from_json(data["min_poly"]),
        automorphisms=tuple(poly_from_json(q) for q in data["automorphisms"]),
        identity_index=_int(data["identity"]),
        table=tuple(tuple(_int(x) for x in row) for row in data["table"]),
        root_enclosures=tuple(interval_from_json(iv) for iv in data["roots"])
        if totally_real else None,
        totally_real=totally_real,
        root_moduli=tuple(interval_from_json(iv) for iv in data.get("moduli", []))
        if not totally_real else None,
        assume_irreducible=_bool(data.get("assume_irreducible", False)),
        distinguished_index=_int(data.get("distinguished", 0)),
    )
    return verify_galois_datum(datum)


def element_to_json(x: FieldElement) -> list[str]:
    return [rat_to_str(c) for c in x.coeffs]


@_reader
def element_from_json(datum: GaloisDatum, data) -> FieldElement:
    return datum.element([_rat(c) for c in data])


# -- Lie algebras -----------------------------------------------------------


def algebra_to_json(a: LieAlgebra) -> dict:
    out = {
        "field": "Q",
        "dim": a.dim,
        "brackets": [[i, j, k, rat_to_str(c)] for (i, j, k, c) in a.brackets],
    }
    if a.basis_labels:
        out["labels"] = list(a.basis_labels)
    return out


@_reader
def algebra_from_json(data) -> LieAlgebra:
    if data["field"] != "Q":
        raise FieldMismatch('Lie algebras are over Q only: "field" must be "Q"')
    brackets = tuple(
        (_int(i), _int(j), _int(k), _rat(c)) for (i, j, k, c) in data["brackets"]
    )
    dim, labels = _int(data["dim"]), data.get("labels")
    if "labels" in data and not (isinstance(labels, list) and len(labels) == dim
                                 and all(isinstance(x, str) for x in labels)):
        raise MalformedInput(f"labels must be a list of {dim} strings")
    return LieAlgebra(dim, brackets, tuple(labels) if "labels" in data else None)


def map_to_json(m: RationalMatrix) -> dict:
    return {"matrix": matrix_to_json(m)}


@_reader
def map_from_json(data) -> RationalMatrix:
    return matrix_from_json(data["matrix"])


# -- certificates and forms -------------------------------------------------


def certificate_to_json(c: AnosovCertificate) -> dict:
    return {
        "charpoly": poly_to_json(c.charpoly),
        "determinant": rat_to_str(c.determinant),
        "integer_like": c.integer_like,
        "hyperbolic": c.hyperbolic,
        "signature": list(c.signature) if c.signature else None,
        "type": list(c.algebra_type),
        "class": c.nilpotency_class,
        "minimal_signature": c.minimal_signature,
        "assumptions": list(c.assumptions),
    }


def form_to_json(h: BinaryQuadraticForm) -> dict:
    return {"a": rat_to_str(h.a), "b": rat_to_str(h.b), "c": rat_to_str(h.c)}


@_reader
def constraints_from_json(data) -> list[ConeConstraint]:
    out = []
    for item in data:
        out.append(ConeConstraint(tuple(_int(c) for c in item["coeffs"]),
                                  str(item["rel"])))
    return out


def recipe_output_to_json(out) -> dict:
    return {
        "algebra": algebra_to_json(out.algebra),
        "matrix": matrix_to_json(out.matrix),
        "certificate": certificate_to_json(out.certificate),
        "provenance": out.provenance,
    }
