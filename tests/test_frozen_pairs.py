"""LieAlgebra, RationalMatrix and the JSON readers against the Fraction
versions they replaced.

An algebra kept its constants as a tuple of (i, j, k, c) with c a Fraction
and cleared them to its integer bracket map on first use; a matrix kept
Fraction rows and cleared them on every automorphism check and charpoly;
the readers built one Fraction per number with _rat.  Both classes now keep
integer numerators over one denominator, and the readers read "p" and
"p/q" straight into that pair.  The frozen copies below are the Fraction
versions: repr, ==, hash and the JSON of each must match, and so must
certify's certificate, the frozen certify running the same kernels on the
frozen clears.  rref no longer clears integer rows; the frozen primitive
clears every row.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms import anosov, liealg, recipes, serialize
from anosovforms.catalog import cubic_pisot_unit, cyclic_cubic_datum, sqrt2_datum
from anosovforms.errors import MalformedInput, NonSquare, NotAutomorphism, RootOnCircle
from anosovforms.exactmath import (
    RationalMatrix,
    binary_power,
    count_roots_inside_unit_disk,
    rat,
    rat_to_str,
    scaled_charpoly,
)
from anosovforms.liealg import LieAlgebra, is_automorphism, lower_central_series
from anosovforms.pfaffian import dual_automorphism, nk_algebra, scheuneman_dual
from test_fieldlinalg import ref_rref
from test_frozen_descent_checks import _bench_generate
from test_frozen_lie_kernels import RECIPES, _recipe_output

# ---------------------------------------------------------------------------
# the frozen code
# ---------------------------------------------------------------------------


def frozen_rat(x):
    """serialize._rat as it was: one Fraction per number."""
    if isinstance(x, (str, int, F)) and not isinstance(x, bool):
        try:
            if isinstance(x, str) and x.isascii():
                num, slash, den = x.partition("/")
                if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                    return F(int(num), int(den)) if slash else F(int(num))
            return rat(str(x))
        except (ValueError, ZeroDivisionError):
            pass
    raise MalformedInput(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class FrozenLieAlgebra:
    """LieAlgebra as it was: the normalized Fraction constants as state."""

    dim: int
    brackets: tuple
    basis_labels: tuple | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
        norm = {}
        for (i, j, k, c) in self.brackets:
            if not (0 <= i < j < self.dim and 0 <= k < self.dim):
                raise ValueError(f"bad bracket indices ({i},{j},{k})")
            row, c = norm.setdefault((i, j), {}), rat(c)
            row[k] = row[k] + c if k in row else c
        flat = []
        for (i, j) in sorted(norm):
            for k in sorted(norm[(i, j)]):
                c = norm[(i, j)][k]
                if not c == 0:
                    flat.append((i, j, k, c))
        object.__setattr__(self, "brackets", tuple(flat))

    def integer_bracket_map(self):
        cached = getattr(self, "_ibmap", None)
        if cached is None:
            (ints,), scale = fl.clear_denominators([[c for (_i, _j, _k, c) in self.brackets]])
            imap = {}
            for (i, j, k, _c), x in zip(self.brackets, ints):
                imap.setdefault((i, j), {})[k] = x
            cached = (imap, scale)
            object.__setattr__(self, "_ibmap", cached)
        return cached


# the dataclass repr names the class by its qualified name
FrozenLieAlgebra.__qualname__ = "LieAlgebra"


class FrozenRationalMatrix:
    """RationalMatrix as it was: Fraction rows as state."""

    def __init__(self, rows):
        ent = tuple(tuple(rat(x) for x in row) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        self.entries = ent

    rows = property(lambda self: len(self.entries))
    cols = property(lambda self: len(self.entries[0]) if self.entries else 0)
    is_square = property(lambda self: self.rows == self.cols)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    @staticmethod
    def identity(n):
        return FrozenRationalMatrix([[F(i == j) for j in range(n)] for i in range(n)])

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return FrozenRationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return FrozenRationalMatrix([[rat(other) * x for x in row] for row in self.entries])
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return FrozenRationalMatrix(fl.mat_mul(self.entries, other.entries))

    __rmul__ = __mul__

    def __neg__(self):
        return self * F(-1)

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return binary_power(self, e, FrozenRationalMatrix.identity(self.rows))

    def __eq__(self, other):
        return isinstance(other, FrozenRationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(rat_to_str(x) for x in row) for row in self.entries)
        return f"RationalMatrix[{body}]"

    def transpose(self):
        return FrozenRationalMatrix(list(zip(*self.entries)) if self.entries else [])

    def det(self):
        return fl.det(self.entries)

    def inverse(self):
        x, e = fl.solve(self.entries, FrozenRationalMatrix.identity(self.rows).entries)
        return FrozenRationalMatrix([[F(v, e) for v in row] for row in x])

    def submatrix(self, row_idx, col_idx):
        return FrozenRationalMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])

    def charpoly(self):
        if not hasattr(self, "_charpoly"):
            self._charpoly = scaled_charpoly(*fl.clear_denominators(self.entries))
        return self._charpoly


@serialize._reader
def frozen_algebra_from_json(data):
    brackets = tuple((serialize._int(i), serialize._int(j), serialize._int(k), frozen_rat(c))
                     for (i, j, k, c) in data["brackets"])
    labels = data.get("labels")
    return FrozenLieAlgebra(serialize._int(data["dim"]), brackets,
                            tuple(labels) if "labels" in data else None)


@serialize._reader
def frozen_map_from_json(data):
    return FrozenRationalMatrix([[frozen_rat(x) for x in row] for row in data["matrix"]])


def frozen_is_automorphism(a, m):
    rows, d = fl.clear_denominators(m.entries)
    return liealg.preserves_brackets(a, [liealg._support(col) for col in zip(*rows)], d) \
        and m.charpoly().constant != 0


def frozen_certificate(a, m):
    """certify's certificate on the frozen classes, as canonical JSON."""
    if not frozen_is_automorphism(a, m):
        raise NotAutomorphism("map is not a Lie algebra automorphism")
    p = m.charpoly()
    try:
        inside = count_roots_inside_unit_disk(p)
        signature = tuple(sorted((inside, a.dim - inside)))
    except RootOnCircle:
        signature = None
    _, algebra_type, nclass = lower_central_series(a)
    return serialize.canonical_dumps(serialize.certificate_to_json(anosov.AnosovCertificate(
        charpoly=p, determinant=(-1) ** a.dim * p.constant,
        integer_like=p.is_integer and abs(p.constant) == 1, hyperbolic=signature is not None,
        signature=signature, algebra_type=algebra_type, nilpotency_class=nclass,
        minimal_signature=bool(signature) and min(signature) == nclass)))


def frozen_primitive(row):
    (ints,), _ = fl.clear_denominators([row])
    return fl.content_free(ints)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """repr of fn's result, or the type and message of the error it raises."""
    try:
        return repr(fn(*args))
    except (ArithmeticError, MalformedInput, NotAutomorphism, TypeError, ValueError) as e:
        return type(e).__name__, str(e)


def _certificate(a, m):
    return serialize.canonical_dumps(serialize.certificate_to_json(anosov.certify(a, m)))


def _bundles():
    """(name, algebra JSON, map JSON or None) of every recipe output of the
    paper_examples and deep_class workloads, the duals and dual maps of the
    sweep ops, and the certify_dense inputs of seeds 1-5."""
    for name in RECIPES:
        out = _recipe_output(name)
        yield name, serialize.algebra_to_json(out.algebra), serialize.map_to_json(out.matrix)
        if name.startswith("sweep"):
            dual = scheuneman_dual(out.algebra)
            _, dual_map = dual_automorphism(
                out.matrix.submatrix(range(4), range(4)), out.algebra, dual)
            yield (f"{name}/dual", serialize.algebra_to_json(dual),
                   serialize.map_to_json(dual_map))
    for seed in range(1, 6):
        for item in _bench_generate().dense_inputs(seed):
            yield (f"{item['id']}@{seed}", json.loads(item["algebra"]),
                   json.loads(item["map"]) if item["map"] is not None else None)


def _last9_dense():
    """The input of CI's dense certify step: last9.json's algebra and map in
    the dense unimodular basis of random.Random(9), and its certificate."""
    gen = _bench_generate()
    datum = cyclic_cubic_datum()
    out = recipes.recipe_last(datum, cubic_pisot_unit(datum), 9)
    n = out.algebra.dim
    p, pinv = gen.unimodular(random.Random(9), n)
    algebra = json.loads(gen.algebra_json(n, gen.change_basis(n, out.algebra.brackets, p, pinv)))
    matrix = json.loads(gen.map_json(gen.conjugate(out.matrix.entries, p, pinv)))
    return algebra, matrix, serialize.canonical_dumps(serialize.certificate_to_json(
        out.certificate))


def _same_pair(ad, md):
    """The readers' algebra and map match the frozen ones on repr, hash,
    JSON and certificate; returns the new pair."""
    a, fa = serialize.algebra_from_json(ad), frozen_algebra_from_json(ad)
    assert repr(a) == repr(fa)
    assert hash(a) == hash(fa)
    assert serialize.algebra_to_json(a) == serialize.algebra_to_json(fa)
    assert a == LieAlgebra(fa.dim, fa.brackets, fa.basis_labels)
    assert a.integer_bracket_map() == fa.integer_bracket_map()
    if md is None:
        return a, None
    m, fm = serialize.map_from_json(md), frozen_map_from_json(md)
    assert repr(m) == repr(fm)
    assert hash(m) == hash(fm)
    assert serialize.matrix_to_json(m) == serialize.matrix_to_json(fm)
    assert m == RationalMatrix(fm.entries)
    rows, den = fl.clear_denominators(fm.entries)
    assert (m.nums, m.den) == (tuple(map(tuple, rows)), den)
    assert _outcome(_certificate, a, m) == _outcome(frozen_certificate, fa, fm)
    return a, m


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestReadersMatchFrozen:
    def test_bundles(self):
        algebras = []
        for _name, ad, md in _bundles():
            algebras.append((_same_pair(ad, md)[0], frozen_algebra_from_json(ad)))
        # == agrees with the frozen == on every pair; the certify_dense
        # inputs of one seed share their algebras
        for (a, fa), (b, fb) in combinations(algebras, 2):
            assert (a == b) == (fa == fb)
            assert (a != b) == (fa != fb)

    def test_ci_dense_last9(self):
        algebra, matrix, certificate = _last9_dense()
        a, m = _same_pair(algebra, matrix)
        assert _certificate(a, m) == certificate

    def test_labels_and_fractions(self):
        ad = serialize.algebra_to_json(LieAlgebra(
            4, ((0, 1, 2, F(3, 4)), (0, 1, 3, F(-5, 6)), (1, 2, 3, F(7))), ("x", "y", "z", "w")))
        ad["brackets"] += [[0, 1, 2, "1/4"], [0, 2, 3, "+2"], [0, 2, 3, " -2"],
                           [1, 2, 3, "6/4"], [0, 3, 1, "0"], [1, 3, 2, "-0/7"]]
        _same_pair(ad, {"matrix": [["1", "2/4", "-0", "3"], ["0", "1", "1/3", "+5"],
                                   ["0", "0", "6/9", " 1"], [0, 1, "-7/14", 2]]})


# the acceptance set of _rat, and some neighbours
RAT_INPUTS = ["+3", " 3", "6/4", "-0", "1/0", 1.5, True, "9" * 4301, "3", "-3/4", "0/0",
              "1.5", "1e3", "3/-4", "", "-", "--3", "3/4/5", "٣", "0x10", 7, -7, 0,
              F(3, 4), F(-5), 10 ** 30, "1/" + "0" * 20 + "3", None, [1], False]


@pytest.mark.parametrize("x", RAT_INPUTS, ids=lambda x: repr(x)[:12])
def test_rat_acceptance_set_is_frozen(x):
    assert _outcome(serialize._rat, x) == _outcome(frozen_rat, x)
    ratio = _outcome(serialize._ratio, x)
    if isinstance(ratio, str):
        p, q = serialize._ratio(x)
        assert q > 0 and F(p, q) == frozen_rat(x)
    else:
        assert ratio == _outcome(frozen_rat, x)


def _random_entries(rng, n, count):
    values = [0, 1, -1, 2, F(1, 2), F(-3, 4), F(5, 3), "2/6", "-7", F(10, 4)]
    return [(*sorted(rng.sample(range(n), 2)), rng.randrange(n), rng.choice(values))
            for _ in range(count)]


class TestConstructorsMatchFrozen:
    def test_random_algebras(self):
        rng = random.Random(31)
        built = []
        for trial in range(300):
            n = rng.randint(2, 6)
            entries = _random_entries(rng, n, rng.randint(0, 12))
            # repeated (i, j, k) entries add up, and may cancel
            entries += [(i, j, k, -rat(c)) for (i, j, k, c) in entries[:rng.randint(0, 2)]]
            labels = tuple("abcdef"[:n]) if trial % 5 == 0 else None
            a, fa = LieAlgebra(n, entries, labels), FrozenLieAlgebra(n, tuple(entries), labels)
            assert repr(a) == repr(fa) and hash(a) == hash(fa)
            assert a.integer_bracket_map() == fa.integer_bracket_map()
            ints, den = fa.integer_bracket_map()
            assert LieAlgebra.from_numerators(n, [(i, j, k, 3 * x) for (i, j), row in ints.items()
                                                  for k, x in row.items()], 3 * den, labels) == a
            built.append((a, fa))
        for (a, fa), (b, fb) in zip(built, built[1:] + built[:1]):
            assert (a == b) == (fa == fb)
            assert (a == LieAlgebra(b.dim, b.brackets, b.basis_labels)) == (fa == fb)

    @pytest.mark.parametrize("dim, entries", [
        (0, ()), (-1, ()), (3, ((0, 0, 1, 1),)), (3, ((1, 0, 2, 1),)), (3, ((0, 1, 3, 1),)),
        (3, ((0, 1, 2, 1.5),)), (3, ((0, 1, 2, None),)), (3, ((0, 1, 2),)),
        (3, ((0, 1, 2, "x"),)), (3, ((0, 1, 2, "1/0"),)), (3, ((0, 1, 2, True),)),
    ])
    def test_refusals(self, dim, entries):
        assert _outcome(LieAlgebra, dim, entries) == _outcome(FrozenLieAlgebra, dim, entries)

    def test_from_numerators_signs_and_zero_denominator(self):
        # a negative den is carried into the map, not kept in C: the same
        # algebra, and so the same repr, == and hash
        for entries, den in ([(0, 1, 2, 1)], 1), ([(0, 1, 2, 2), (0, 2, 1, -4)], 6), ([], 5):
            neg = LieAlgebra.from_numerators(3, [(i, j, k, -x) for (i, j, k, x) in entries], -den)
            pos = LieAlgebra.from_numerators(3, entries, den)
            assert neg == pos and repr(neg) == repr(pos) and hash(neg) == hash(pos)
            assert neg.integer_bracket_map() == pos.integer_bracket_map()
            assert pos == LieAlgebra(3, [(i, j, k, F(x, den)) for (i, j, k, x) in entries])
        assert LieAlgebra.from_numerators(2, [(0, 1, 1, 1)], -1) == LieAlgebra(2, [(0, 1, 1, -1)])
        with pytest.raises(ValueError, match="zero denominator"):
            LieAlgebra.from_numerators(2, [(0, 1, 1, 1)], 0)

    def test_clear_ratios_is_clear_denominators_on_pairs(self):
        rng = random.Random(33)
        for _ in range(100):
            rows = [[F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(rng.randint(0, 4))]
                    for _ in range(rng.randint(0, 3))]
            pairs = [[(x.numerator, x.denominator) for x in row] for row in rows]
            assert fl.clear_ratios(pairs) == fl.clear_denominators(rows)

    def test_views_are_built_once(self):
        a = nk_algebra(3)
        assert a.brackets is a.brackets
        assert a.integer_bracket_map() is a.integer_bracket_map()
        m = RationalMatrix([[1, F(1, 2)], [0, 3]])
        assert m.entries is m.entries and (m.nums, m.den) == (((2, 1), (0, 6)), 2)

    def test_immutable(self):
        a, m = liealg.heisenberg(), RationalMatrix.identity(2)
        for obj, attr in ((a, "dim"), (a, "brackets"), (m, "nums"), (m, "den")):
            with pytest.raises(AttributeError):
                setattr(obj, attr, 1)

    def test_random_matrices_and_arithmetic(self):
        rng = random.Random(32)
        values = [0, 1, -1, 3, F(1, 2), F(-2, 3), F(7, 4), "5/10", "-6"]
        for _ in range(200):
            n, k = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.choice(values) for _ in range(k)] for _ in range(n)]
            other = [[rng.choice(values) for _ in range(k)] for _ in range(n)]
            square = [row[:1] * n for row in rows]
            for i in range(n):
                square[i][i] = rng.choice([1, 2, F(1, 3), -1])
            m, fm = RationalMatrix(rows), FrozenRationalMatrix(rows)
            o, fo = RationalMatrix(other), FrozenRationalMatrix(other)
            s, fs = RationalMatrix(square), FrozenRationalMatrix(square)
            c = rng.choice([0, 2, -1, F(3, 5)])
            pairs = [(m, fm), (m + o, fm + fo), (m - o, fm - fo), (-m, -fm), (m * c, fm * c),
                     (c * m, fm * c), (m.transpose(), fm.transpose()),
                     (m * o.transpose(), fm * fo.transpose()),
                     (m.submatrix(range(n), [k - 1]), fm.submatrix(range(n), [k - 1])),
                     (s ** 3, fs ** 3),
                     (RationalMatrix.identity(n), FrozenRationalMatrix.identity(n))]
            for new, old in pairs:
                assert repr(new) == repr(old) and hash(new) == hash(old)
                assert new.entries == old.entries and new == RationalMatrix(old.entries)
            assert repr(s.det()) == repr(fs.det())
            assert _outcome(lambda: s ** -2) == _outcome(lambda: fs ** -2)
            assert _outcome(s.inverse) == _outcome(fs.inverse)
            assert repr(s.charpoly()) == repr(fs.charpoly())
            assert repr(m[n - 1, 0]) == repr(fm[n - 1, 0])
            assert (m == o) == (fm == fo)

    @pytest.mark.parametrize("rows", [[], [[]], [[], []], [[1, 2], [3]], [[1.5]], [["x"]]])
    def test_matrix_edge_shapes_and_refusals(self, rows):
        assert _outcome(RationalMatrix, rows) == _outcome(FrozenRationalMatrix, rows)

    def test_non_square(self):
        m = RationalMatrix([[1, 2]])
        for fn in (m.det, m.inverse, lambda: m ** 2, m.charpoly):
            with pytest.raises(NonSquare):
                fn()


def _bundles_as_text():
    """Algebras and maps as JSON text: recipe bundles and the dense
    certify_dense accept inputs of seed 1, with integer and with rational
    entries."""
    out = []
    for name in ("last4", "csig3", "sweep5,2"):
        bundle = _recipe_output(name)
        out.append((serialize.canonical_dumps(serialize.algebra_to_json(bundle.algebra)),
                    serialize.canonical_dumps(serialize.map_to_json(bundle.matrix))))
    out += [(item["algebra"], item["map"]) for item in _bench_generate().dense_inputs(1)
            if item["id"].endswith("/accept")]
    return out


def _is_integer(ad, md):
    return all(F(x).denominator == 1 for x in [b[3] for b in ad["brackets"]]
               + [x for row in md["matrix"] for x in row])


def test_reading_and_checking_a_bundle_builds_no_fraction(monkeypatch):
    cases = [(json.loads(a), json.loads(m)) for a, m in _bundles_as_text()]
    assert sum(_is_integer(ad, md) for ad, md in cases) >= 3
    built = []
    real = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
    verdicts = []
    for ad, md in cases:
        a, m = serialize.algebra_from_json(ad), serialize.map_from_json(md)
        verdicts.append((is_automorphism(a, m), m.charpoly().nums))
    assert built == []
    assert len(verdicts) == 8 and all(v for v, _ in verdicts)


def test_rref_of_integer_rows_matches_fraction_rows():
    rng = random.Random(33)
    for _ in range(300):
        n, k = rng.randint(1, 6), rng.randint(1, 7)
        rows = [[rng.randint(-4, 4) * rng.randint(0, 1) * rng.choice([1, 6]) for _ in range(k)]
                for _ in range(n)]
        if rng.random() < 0.3:
            rows.append([2 * x - y for x, y in zip(rows[0], rows[-1])])
        fracs = [[F(x) for x in row] for row in rows]
        before = repr(rows)
        assert repr(fl.rref(rows)) == repr(fl.rref(fracs))
        assert repr(fl.rref([tuple(r) for r in rows])) == repr(fl.rref(fracs))
        assert repr(rows) == before  # the input rows are not changed
        rr, pivots = fl.rref(rows)
        assert [[F(x, r[c]) for x in r] for r, c in zip(rr, pivots)] == ref_rref(fracs)[0][:len(rr)]
        for row in rows + fracs + [[F(x, 4) for x in rows[0]]]:
            got = fl.primitive(row)
            assert repr(got) == repr(frozen_primitive(row))
            assert got is not row


def test_readers_refuse_strings_for_lists():
    for data in (["100", "010", "001"], "1", [["1"], "2"], {"1": "2"}, ("1",)):
        with pytest.raises(MalformedInput):
            serialize.matrix_from_json(data)
        with pytest.raises(MalformedInput):
            serialize.map_from_json({"matrix": data})
    for data in ("123", "1", {"1": 2}):
        with pytest.raises(MalformedInput):
            serialize.poly_from_json(data)
        with pytest.raises(MalformedInput):
            serialize.element_from_json(sqrt2_datum(), data)
    assert serialize.matrix_from_json([["1", "0"], ["0", "1"]]) == RationalMatrix.identity(2)
    assert serialize.poly_from_json(["-2", "0", "1"]) == serialize.poly_from_json(["-2", 0, "1/1"])
