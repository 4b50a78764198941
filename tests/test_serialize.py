import json
from fractions import Fraction

import pytest

from anosovforms.errors import FieldMismatch, MalformedInput
from anosovforms.liealg import heisenberg
from anosovforms.recipes import recipe_z4_example
from anosovforms.serialize import (
    _rat,
    algebra_from_json,
    algebra_to_json,
    canonical_dumps,
    certificate_to_json,
    datum_from_json,
    datum_to_json,
    element_from_json,
    element_to_json,
    map_from_json,
    map_to_json,
    poly_from_json,
    poly_to_json,
)


def test_datum_round_trip(quartic):
    data = json.loads(canonical_dumps(datum_to_json(quartic)))
    back = datum_from_json(data)
    assert back.min_poly == quartic.min_poly
    assert back.automorphisms == quartic.automorphisms
    assert back.table == quartic.table
    assert back.verified


def test_element_round_trip(quartic):
    x = quartic.element(["1/2", -3, 0, "7/5"])
    assert element_from_json(quartic, element_to_json(x)) == x


def test_poly_round_trip():
    from anosovforms.exactmath import Polynomial

    p = Polynomial(["-1/3", 0, 2])
    assert poly_from_json(poly_to_json(p)) == p


def test_algebra_round_trip():
    out = recipe_z4_example()
    data = json.loads(canonical_dumps(algebra_to_json(out.algebra)))
    back = algebra_from_json(data)
    assert back.brackets == out.algebra.brackets
    assert back.dim == out.algebra.dim


def test_algebra_labels_round_trip():
    data = algebra_to_json(heisenberg()) | {"labels": ["x", "y", "z"]}
    back = algebra_from_json(json.loads(canonical_dumps(data)))
    assert back.basis_labels == ("x", "y", "z")
    assert algebra_to_json(back) == data


@pytest.mark.parametrize("labels", ["abc", ["x", "y"], ["x", "y", "z", "w"], ["x", "y", 3],
                                    None, {"0": "x"}],
                         ids=["string", "short", "long", "non-string", "null", "object"])
def test_algebra_labels_must_be_dim_strings(labels):
    data = algebra_to_json(heisenberg()) | {"labels": labels}
    with pytest.raises(MalformedInput, match="labels"):
        algebra_from_json(data)


@pytest.mark.parametrize("field", ["sqrt2", "q", 3])
def test_algebra_field_must_be_q(field, sqrt2):
    data = algebra_to_json(heisenberg())
    assert data["field"] == "Q"
    data["field"] = datum_to_json(sqrt2) if field == "sqrt2" else field
    with pytest.raises(FieldMismatch):
        algebra_from_json(data)


def test_matrix_round_trip():
    out = recipe_z4_example()
    data = json.loads(canonical_dumps(map_to_json(out.matrix)))
    assert map_from_json(data) == out.matrix


def test_certificate_shape():
    out = recipe_z4_example()
    data = certificate_to_json(out.certificate)
    assert data["signature"] == [2, 4]
    assert data["type"] == [4, 2]
    assert data["determinant"] == "1"


def test_canonical_dumps_sorted_and_newline():
    s = canonical_dumps({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'


@pytest.mark.parametrize("s", [
    "3", "-3", "+3", " 3", "3_0", "3__0", "3/-4", "-3/-4", "3 / 4", "1.5", "1e3",
    "\u0663", "\u00b2", "3/0", "", "-", "/3", "3/", "0x10", "007/010", "3/4/5", "--3",
    "7" * 5000,
], ids=lambda s: s if len(s) < 10 else f"{len(s)}-digits")
def test_rat_reads_what_fraction_reads(s):
    # "p" and "p/q" are read with int; the value, or the refusal and its
    # message, is Fraction's on every string
    try:
        want = Fraction(s)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(MalformedInput) as e:
            _rat(s)
        assert str(e.value) == f"not an exact rational: {s!r}"
    else:
        got = _rat(s)
        assert type(got) is Fraction and got == want
