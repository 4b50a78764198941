import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovforms import _fieldlinalg as fl
from anosovforms.catalog import quartic_z4_datum
from anosovforms.errors import NotNilpotent
from anosovforms.exactmath import RationalMatrix
from anosovforms.liealg import (
    Grading,
    LieAlgebra,
    _bracket,
    _support,
    abelian,
    algebra_type,
    check_grading,
    check_jacobi,
    direct_sum,
    heisenberg,
    is_automorphism,
    lower_central_series,
    preserves_brackets,
)
from anosovforms.pfaffian import hk_algebra, nk_algebra
from test_exactmath import diagonal, zeros
from test_fieldlinalg import ref_span_rref


def in_span(basis_rref, vector):
    """Membership test against an RREF basis (each row a nonzero multiple
    of its reduced row, as span_rref returns it)."""
    v = list(vector)
    for row in basis_rref:
        piv = next((i for i, x in enumerate(row) if not x == 0), None)
        if piv is None:
            continue
        if not v[piv] == 0:
            f = v[piv] / row[piv]
            v = [x - f * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)


def map_preserves_series(a, f):
    """Every automorphism preserves each gamma_i."""
    series, _, _ = lower_central_series(a)
    for basis in series:
        rr = fl.span_rref([list(v) for v in basis])
        for v in basis:
            if not in_span(rr, fl.mat_vec(f.entries, list(v))):
                return False
    return True


class TestJacobi:
    def test_heisenberg(self):
        assert check_jacobi(heisenberg())

    def test_nk(self):
        assert check_jacobi(nk_algebra(5))

    def test_added_bracket_still_jacobi(self):
        # adding [b1,b3] = b2 to the Heisenberg table yields a genuine
        # (solvable) Lie algebra: every Jacobi summand vanishes
        solvable = LieAlgebra(3, ((0, 1, 2, F(1)), (0, 2, 1, F(1))))
        assert check_jacobi(solvable)

    def test_bogus_bracket(self):
        # [b1,b2] = b3 with [b1,b3] = b1 breaks the (1,2,3) Jacobi triple
        bad = LieAlgebra(3, ((0, 1, 2, F(1)), (0, 2, 0, F(1))))
        assert not check_jacobi(bad)

    def test_verdict_is_kept_on_the_algebra(self, monkeypatch):
        from anosovforms import liealg
        from anosovforms.errors import JacobiViolation

        calls = []
        inner = liealg.check_jacobi
        monkeypatch.setattr(liealg, "check_jacobi", lambda a: calls.append(a) or inner(a))
        good, bad = heisenberg(), LieAlgebra(3, ((0, 1, 2, F(1)), (0, 2, 0, F(1))))
        for _ in range(2):
            assert liealg.require_jacobi(good) is good
            with pytest.raises(JacobiViolation):
                liealg.require_jacobi(bad)
        assert calls == [good, bad]

    def test_sl2_like_fails_nilpotency_not_jacobi(self):
        # [e,f]=h, [h,e]=2e, [h,f]=-2f: a real Lie algebra (Jacobi holds)
        sl2 = LieAlgebra(3, (
            (0, 1, 2, F(1)), (0, 2, 0, F(-2)), (1, 2, 1, F(2))
        ))
        assert check_jacobi(sl2)
        with pytest.raises(NotNilpotent):
            lower_central_series(sl2)


class TestLowerCentralSeries:
    def test_heisenberg(self):
        series, type_tuple, nclass = lower_central_series(heisenberg())
        assert type_tuple == (2, 1) and nclass == 2
        assert len(series) == 2

    def test_nk(self):
        assert algebra_type(nk_algebra(5)) == (4, 2)

    def test_abelian(self):
        assert algebra_type(abelian(6)) == (6,)

    def test_filiform(self):
        # [b1,b2]=b3, [b1,b3]=b4: type (2,1,1), class 3
        f4 = LieAlgebra(4, ((0, 1, 2, F(1)), (0, 2, 3, F(1))))
        assert algebra_type(f4) == (2, 1, 1)

    def test_type_sums_to_dim(self):
        for a in (heisenberg(), nk_algebra(3), abelian(4)):
            t = algebra_type(a)
            assert sum(t) == a.dim

    def test_computed_once_per_algebra(self, monkeypatch):
        # certify and classify_type42 on one algebra, as recipe_count does
        from anosovforms import liealg
        from anosovforms.anosov import certify
        from anosovforms.pfaffian import classify_type42

        calls = []
        inner = liealg.lower_central_series
        monkeypatch.setattr(liealg, "lower_central_series",
                            lambda a: calls.append(a) or inner(a))
        a = nk_algebra(5)
        cert = certify(a, RationalMatrix.identity(6))
        assert classify_type42(a) == (5, True)
        assert (cert.algebra_type, cert.nilpotency_class) == ((4, 2), 2)
        assert algebra_type(a) == (4, 2) and calls == [a]

    def test_cached_series_is_immutable(self):
        a = nk_algebra(3)
        series, type_tuple, nclass = a.central_series()
        assert a.central_series() is a.central_series()
        assert (series, type_tuple, nclass) == \
            (tuple(map(tuple, lower_central_series(a)[0])), (4, 2), 2)
        assert isinstance(series, tuple)
        assert all(isinstance(basis, tuple) and all(isinstance(v, tuple) for v in basis)
                   for basis in series)
        with pytest.raises(TypeError):
            series[1][0] = series[0][0]


class TestAutomorphisms:
    def test_identity(self):
        h = heisenberg()
        assert is_automorphism(h, RationalMatrix.identity(3))

    def test_bad_swap(self):
        h = heisenberg()
        swap = RationalMatrix([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert not is_automorphism(h, swap)

    def test_heisenberg_scaling(self):
        h = heisenberg()
        m = diagonal([2, 3, 6])
        assert is_automorphism(h, m)

    def test_singular_rejected(self):
        h = heisenberg()
        assert not is_automorphism(h, zeros(3, 3))

    def test_automorphism_preserves_series(self):
        h = heisenberg()
        m = RationalMatrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
        assert is_automorphism(h, m)
        assert map_preserves_series(h, m)


class TestDirectSum:
    def test_two_heisenbergs(self):
        hh = direct_sum([heisenberg(), heisenberg()])
        assert hh.dim == 6
        assert algebra_type(hh) == (4, 2)

    def test_abelian_sum(self):
        assert algebra_type(direct_sum([abelian(1), abelian(2)])) == (3,)

    def test_type_is_padded_sum(self):
        f4 = LieAlgebra(4, ((0, 1, 2, F(1)), (0, 2, 3, F(1))))
        s = direct_sum([f4, heisenberg()])
        assert algebra_type(s) == (4, 2, 1)


class TestGrading:
    def test_heisenberg_21(self):
        assert check_grading(heisenberg(), Grading((2, 1)))

    def test_heisenberg_12(self):
        assert not check_grading(heisenberg(), Grading((1, 2)))

    def test_abelian_any(self):
        assert check_grading(abelian(3), Grading((1, 1, 1)))
        assert check_grading(abelian(3), Grading((3,)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            check_grading(heisenberg(), Grading((2, 2)))


class TestFieldCoefficients:
    def test_bracket_extension(self, sqrt2):
        # rational constants, vectors over the field
        a = heisenberg()
        x = [sqrt2.element([1, 1]), sqrt2.zero(), sqrt2.zero()]
        y = [sqrt2.zero(), sqrt2.element([0, 1]), sqrt2.zero()]
        out = a.bracket(x, y)
        assert out[2] == sqrt2.element([1, 1]) * sqrt2.element([0, 1])


# ---------------------------------------------------------------------------
# the sparse kernel against the dense reference it replaced
# ---------------------------------------------------------------------------

QUARTIC = quartic_z4_datum()
ORACLE = settings(max_examples=60, deadline=None)
small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
nonzero = small.filter(lambda x: x != 0)


def _ref_basis_vector(a, i):
    v = [F(0)] * a.dim
    v[i] = F(1)
    return v


def _ref_bracket_basis(a, i, j):
    out = [F(0)] * a.dim
    if i == j:
        return out
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    for k, c in frozen_bracket_map(a).get((i, j), {}).items():
        out[k] = out[k] + sign * c
    return out


def ref_bracket(a, x, y):
    """Dense bracket: every structure constant, whatever the entries."""
    out = [None] * a.dim
    for (i, j, k, c) in a.brackets:
        t = (x[i] * y[j] - x[j] * y[i]) * c
        out[k] = t if out[k] is None else out[k] + t
    zero_like = None
    for xi in list(x) + list(y):
        zero_like = xi - xi
        break
    return [zero_like if v is None else v for v in out]


def ref_check_jacobi(a):
    n = a.dim
    for i in range(n):
        for j in range(i + 1, n):
            bij = _ref_bracket_basis(a, i, j)
            for k in range(j + 1, n):
                t1 = ref_bracket(a, bij, _ref_basis_vector(a, k))
                t2 = ref_bracket(a, _ref_bracket_basis(a, j, k), _ref_basis_vector(a, i))
                t3 = ref_bracket(a, _ref_bracket_basis(a, k, i), _ref_basis_vector(a, j))
                if any(not (x + y + z) == 0 for x, y, z in zip(t1, t2, t3)):
                    return False
    return True


def ref_lower_central_series(a):
    series = [[tuple(_ref_basis_vector(a, i)) for i in range(a.dim)]]
    while True:
        prev = series[-1]
        gens = [ref_bracket(a, _ref_basis_vector(a, i), list(v))
                for i in range(a.dim) for v in prev]
        nxt = ref_span_rref(gens) if gens else []
        if len(nxt) == len(prev):
            raise NotNilpotent("lower central series stabilizes at a nonzero subspace")
        series.append(nxt)
        if not nxt:
            series.pop()
            break
    dims = [len(b) for b in series] + [0]
    return series, tuple(dims[i] - dims[i + 1] for i in range(len(series))), len(series)


def ref_is_automorphism(a, f):
    """The determinant-first check on a RationalMatrix f."""
    return fl.det(f.entries) != 0 and ref_preserves_brackets(a, f)


def ref_preserves_brackets(a, f):
    cols = [[r[j] for r in f.entries] for j in range(a.dim)]
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            lhs = fl.mat_vec(f.entries, _ref_bracket_basis(a, i, j))
            rhs = ref_bracket(a, cols[i], cols[j])
            if any(not x == y for x, y in zip(lhs, rhs)):
                return False
    return True


def _series_or_error(lcs, a):
    try:
        return repr(lcs(a))
    except NotNilpotent:
        return "NotNilpotent"


@st.composite
def tables(draw):
    """Random bracket tables: with upper=True every [b_i, b_j] lies in the
    span of later basis vectors (nilpotent, Jacobi not guaranteed)."""
    n = draw(st.integers(2, 6))
    upper = draw(st.booleans())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if not upper or j + 1 < n]
    entries = []
    for (i, j) in draw(st.lists(st.sampled_from(pairs), max_size=6)) if pairs else []:
        k = draw(st.integers(j + 1, n - 1) if upper else st.integers(0, n - 1))
        entries.append((i, j, k, draw(nonzero)))
    return LieAlgebra(n, tuple(entries))


# graded algebras with the weight of each basis vector: diag(t^w) is an
# automorphism of each
GRADED = [
    (heisenberg(), (1, 1, 2)),
    (nk_algebra(5), (1, 1, 1, 1, 2, 2)),
    (hk_algebra(3), (1, 1, 1, 1, 2, 2, 2, 2)),
    (LieAlgebra(4, ((0, 1, 2, F(1)), (0, 2, 3, F(1)))), (1, 1, 2, 3)),
    (direct_sum([heisenberg(), abelian(1)]), (1, 1, 2, 1)),
]


def _change_basis(a, p):
    """The same algebra in the basis of p's columns."""
    pinv = p.inverse()
    cols = [[p[i, j] for i in range(a.dim)] for j in range(a.dim)]
    entries = []
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            coords = fl.mat_vec(pinv.entries, ref_bracket(a, cols[i], cols[j]))
            entries += [(i, j, k, c) for k, c in enumerate(coords) if c != 0]
    return LieAlgebra(a.dim, tuple(entries))


# large pairwise coprime denominators, so that D and C are large
BIG_PRIMES = (65521, 65537, 99991, 100003, 999983, 1000003)


def coprime_basis(draw, n):
    """The identity plus a few entries k/q with q drawn from BIG_PRIMES."""
    rows = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] += F(draw(st.integers(1, 9)), draw(st.sampled_from(BIG_PRIMES)))
    return RationalMatrix(rows)


# a fixed near-identity basis change with large coprime denominators
COPRIME_BASIS = RationalMatrix([
    [1, F(1, 65521), 0, F(2, 65537), 0, 0],
    [0, 1, F(3, 99991), 0, 0, 0],
    [F(1, 65537), 0, 1, 0, 0, 0],
    [0, 0, 0, 1, F(1, 65521), 0],
    [0, 0, 0, 0, 1, 0],
    [0, F(5, 99991), 0, 0, 0, 1],
])


@st.composite
def algebra_and_map(draw):
    """A graded algebra in a dense basis with an automorphism, a singular
    map or a perturbed (usually not automorphic) map."""
    a, weights = draw(st.sampled_from(GRADED))
    n = a.dim
    t = draw(nonzero)
    d = diagonal([t ** w for w in weights])
    p = RationalMatrix.identity(n)
    basis = draw(st.sampled_from(["identity", "small", "coprime"]))
    if basis == "small":
        p = RationalMatrix([[draw(small) for _ in range(n)] for _ in range(n)])
    elif basis == "coprime":
        p = coprime_basis(draw, n)
    if p.det() == 0:
        p = RationalMatrix.identity(n)
    a, m = _change_basis(a, p), p.inverse() * d * p
    rows = [list(r) for r in m.entries]
    kind = draw(st.sampled_from(["automorphism", "singular", "perturbed"]))
    if kind == "singular":
        i = draw(st.integers(0, n - 1))
        rows[i] = [F(0)] * n
    elif kind == "perturbed":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] += draw(nonzero)
    return a, RationalMatrix(rows), kind


class TestSparseKernelOracle:
    @ORACLE
    @given(tables())
    def test_jacobi_and_series(self, a):
        assert check_jacobi(a) == ref_check_jacobi(a)
        assert _series_or_error(lower_central_series, a) == \
            _series_or_error(ref_lower_central_series, a)

    @ORACLE
    @given(algebra_and_map())
    def test_automorphism_verdict(self, drawn):
        a, f, kind = drawn
        verdict = is_automorphism(a, f)
        assert verdict == ref_is_automorphism(a, f)
        # the bracket half alone, on columns over a larger common denominator
        rows, d = fl.clear_denominators(f.entries)
        cols = [{i: 3 * x for i, x in enumerate(col) if x} for col in zip(*rows)]
        assert preserves_brackets(a, cols, 3 * d) == ref_preserves_brackets(a, f)
        if kind == "automorphism":
            assert verdict
        if kind == "singular":
            assert not verdict
        assert check_jacobi(a) and ref_check_jacobi(a)
        assert repr(lower_central_series(a)) == repr(ref_lower_central_series(a))

    @ORACLE
    @given(tables(), st.data())
    def test_bracket_matches_dense(self, a, data):
        x = data.draw(st.lists(small, min_size=a.dim, max_size=a.dim))
        y = data.draw(st.lists(small, min_size=a.dim, max_size=a.dim))
        assert repr(a.bracket(x, y)) == repr(ref_bracket(a, x, y))

    @settings(max_examples=15, deadline=None)
    @given(tables(), st.data())
    def test_bracket_on_field_vectors(self, a, data):
        # Q structure constants applied to vectors over the cyclic quartic
        # field, as when structure constants are read off a rational form
        coords = st.lists(small, min_size=4, max_size=4).map(QUARTIC.element)
        x = data.draw(st.lists(coords, min_size=a.dim, max_size=a.dim))
        y = data.draw(st.lists(coords, min_size=a.dim, max_size=a.dim))
        assert repr(a.bracket(x, y)) == repr(ref_bracket(a, x, y))

    def test_smallest_perturbation_rejected(self):
        # one entry of an automorphism moved by 1/(D^2 C), the resolution of
        # the integer comparison: a wrong scale factor would miss it
        p = COPRIME_BASIS
        a = _change_basis(nk_algebra(5), p)
        diag = diagonal([F(2), F(2), F(2), F(2), F(4), F(4)])
        m = p.inverse() * diag * p
        f = m
        assert is_automorphism(a, f) and ref_is_automorphism(a, f)
        _, d = fl.clear_denominators(m.entries)
        c = a.integer_bracket_map()[1]
        assert d > 1 and c > 1
        rows = [list(r) for r in m.entries]
        rows[0][1] += F(1, d * d * c)
        g = RationalMatrix(rows)
        assert fl.det(rows) != 0
        assert not is_automorphism(a, g) and not ref_is_automorphism(a, g)

    def test_integer_constants_scale(self):
        a = _change_basis(nk_algebra(5), COPRIME_BASIS)
        imap, c = a.integer_bracket_map()
        assert c > 1 and a.integer_bracket_map() is a.integer_bracket_map()
        assert {(i, j, k, F(x, c)) for (i, j), row in imap.items()
                for k, x in row.items()} == set(a.brackets)
        assert math.lcm(*(x.denominator for (_i, _j, _k, x) in a.brackets)) == c


# ---------------------------------------------------------------------------
# the bracket on the one integer map against the Fraction map it replaced
# ---------------------------------------------------------------------------


def frozen_bracket_map(a):
    """The Fraction bracket map an algebra kept beside its integer one:
    (i, j) -> {k: c} for i < j."""
    out = {}
    for (i, j, k, c) in a.brackets:
        out.setdefault((i, j), {})[k] = c
    return out


def frozen_bracket(a, x, y):
    """LieAlgebra.bracket on the Fraction map."""
    out = _bracket(frozen_bracket_map(a), _support(x), _support(y))
    return [out[k] if k in out else x[k] - x[k] for k in range(a.dim)]


def _typed(v):
    """Each value with its type: ints, Fractions and field elements must
    come out as the same types as before."""
    return [(type(x).__name__, repr(x)) for x in v]


class TestFrozenBracket:
    @ORACLE
    @given(tables(), st.data())
    def test_int_fraction_and_field_vectors(self, a, data):
        field = st.lists(small, min_size=4, max_size=4).map(QUARTIC.element)
        for coords in (st.integers(-3, 3), small, field):
            x, y = (data.draw(st.lists(coords, min_size=a.dim, max_size=a.dim))
                    for _ in range(2))
            assert _typed(a.bracket(x, y)) == _typed(frozen_bracket(a, x, y))

    def test_scaled_constants(self, sqrt2):
        # C = 6: the integer map's C [x, y] must come back divided by C
        a = LieAlgebra(4, ((0, 1, 2, F(1, 2)), (0, 2, 3, F(-2, 3)), (1, 2, 3, F(5))))
        assert a.integer_bracket_map()[1] == 6
        theta = sqrt2.generator()
        cases = [([1, 2, 0, 0], [0, 1, 3, 0]), ([F(1, 2), 0, 1, 0], [1, F(-1, 3), 0, 2]),
                 ([theta, 1, 0, 0], [0, theta * theta, 1, 0]), ([1, 0, 0, 0], [1, 0, 0, 0])]
        for x, y in cases:
            assert _typed(a.bracket(x, y)) == _typed(frozen_bracket(a, x, y))
        assert a.bracket([1, 0, 0, 0], [0, 1, 0, 0]) == [0, 0, F(1, 2), 0]
        assert _typed(a.bracket([1, 0, 0, 0], [0, 1, 0, 0])) == \
            [("int", "0"), ("int", "0"), ("Fraction", "Fraction(1, 2)"), ("int", "0")]
