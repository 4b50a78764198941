"""Properties of the exact linear-algebra kernel over Q, on rational
matrices and on the flat rational images of matrices over verified number
fields, a high-precision mpmath oracle for det, the Galois action's
matrix path against polynomial composition, the kernel's zero rule
against the dense kernel it replaced, and the integer rref, span_rref,
solve and nullspace against the Fraction elimination they replaced: each
integer result is the primitive rows, or the rows over the least common
denominator, of the frozen Fraction result."""

import math
import random
from fractions import Fraction as F
from itertools import combinations, permutations

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovforms import _fieldlinalg as fl
from anosovforms.catalog import quartic_z4_datum, sqrt2_datum
from anosovforms.errors import DimensionMismatch
from anosovforms.exactmath import Polynomial, RationalMatrix, nullspace
from anosovforms.numfield import apply_automorphism

FIELDS = {"Q": None, "sqrt2": sqrt2_datum(), "quartic": quartic_z4_datum()}
PROPS = settings(max_examples=15, deadline=None)

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _element(name, coords):
    datum = FIELDS[name]
    return coords[0] if datum is None else datum.element(coords)


def _zero(name):
    return _element(name, [F(0)] * _degree(name))


def _degree(name):
    return 1 if FIELDS[name] is None else FIELDS[name].degree


def matrices(name, rows, cols):
    d = _degree(name)
    return st.lists(small, min_size=rows * cols * d, max_size=rows * cols * d).map(
        lambda xs: [[_element(name, xs[(i * cols + j) * d:(i * cols + j + 1) * d])
                     for j in range(cols)] for i in range(rows)])


def square_pair(name):
    return st.integers(1, 3).flatmap(
        lambda n: st.tuples(matrices(name, n, n), matrices(name, n, n)))


def shaped(name):
    return st.tuples(st.integers(1, 3), st.integers(1, 4)).flatmap(
        lambda rc: matrices(name, *rc))


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def multiplication_matrix(x):
    """The rational matrix of multiplication by a field element x: the
    cleared rows over their denominator, as FieldElement built it before
    its trace read the diagonal directly."""
    rows, den = x._scaled_multiplication_rows()
    return RationalMatrix([[F(v, den) for v in row] for row in rows])


def matrix_trace(m):
    """The trace of a square RationalMatrix, as RationalMatrix.trace gave
    it before it moved here: the sum of the diagonal from Fraction(0)."""
    return sum((m[i, i] for i in range(m.rows)), F(0))


def matrix_rank(m):
    """The rank of a RationalMatrix, as RationalMatrix.rank gave it."""
    return len(fl.rref(m.entries)[1])


def matrix_rref(m):
    """The reduced row echelon form of a RationalMatrix (zero rows last)
    and the pivot columns, as RationalMatrix.rref gave them."""
    r, pivots = fl.rref(m.entries)
    return RationalMatrix([[F(x, row[c]) for x in row] for row, c in zip(r, pivots)]
                          + [[0] * m.cols] * (m.rows - len(r))), pivots


def flat(name, m):
    """The rational image of a matrix over the field: each entry x becomes
    the d x d matrix of multiplication by x, so the image acts on the
    stacked power-basis coordinates as m acts on vectors over the field.
    Elimination sees field data only in this form."""
    if FIELDS[name] is None:
        return m
    d = _degree(name)
    blocks = [[multiplication_matrix(x) for x in row] for row in m]
    return [[blocks[i][j][r, c] for j in range(len(m[0])) for c in range(d)]
            for i in range(len(m)) for r in range(d)]


def columns(m):
    return [list(c) for c in zip(*m)]


def solution(a, rhs_cols):
    """The Fraction rows of fl.solve's (X, e): X / e."""
    x, e = fl.solve(a, rhs_cols)
    return [[F(v, e) for v in row] for row in x]


def rref_view(rows, pivots, shape):
    """The Fraction rows of the integer rref, each row over its pivot,
    padded with zero rows to the shape of the input as the kernel returned
    them."""
    return ([[F(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
            + [[F(0)] * len(shape[0]) for _ in range(len(shape) - len(rows))])


def canonical(m, pivots):
    """A Fraction rref as the integer kernel returns it: the nonzero rows,
    each primitive, so positive at its pivot."""
    return [fl.primitive(row) for row in m[:len(pivots)]], pivots


field_names = pytest.mark.parametrize("name", list(FIELDS))


@field_names
@PROPS
@given(data=st.data())
def test_det_multiplicative(name, data):
    a, b = data.draw(square_pair(name))
    ab = flat(name, fl.mat_mul(a, b))
    a, b = flat(name, a), flat(name, b)
    assert ab == fl.mat_mul(a, b)
    assert fl.det(ab) == fl.det(a) * fl.det(b)


@field_names
@PROPS
@given(data=st.data())
def test_inverse_and_solve(name, data):
    a, b = (flat(name, x) for x in data.draw(square_pair(name)))
    n = len(a)
    if fl.det(a) == 0:
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            fl.solve(a, columns(b))
        return
    assert fl.mat_mul(a, solution(a, columns(identity(n)))) == identity(n)
    x = solution(a, columns(b))
    assert fl.mat_mul(a, x) == b
    assert fl.solve(a, columns(b)) == fl.clear_denominators(ref_solve(a, columns(b)))
    # a tall system: one more equation, the sum of the others
    tall = a + [[sum(col) for col in zip(*a)]]
    rhs = b + [[sum(col) for col in zip(*b)]]
    assert solution(tall, columns(rhs)) == x
    rhs[-1][-1] += 1
    with pytest.raises(fl.Inconsistent) as e:
        fl.solve(tall, columns(rhs))
    assert e.value.column == len(b[0]) - 1


@field_names
@PROPS
@given(data=st.data())
def test_singular_solve_raises(name, data):
    a, b = data.draw(square_pair(name))
    # the last row repeats a multiple of the first: rank < n
    c = a[0][0]
    singular = a[:-1] + [[c * x for x in a[0]]] if len(a) > 1 else [[_zero(name)]]
    singular, b = flat(name, singular), flat(name, b)
    with pytest.raises(ZeroDivisionError, match="singular matrix"):
        fl.solve(singular, columns(b))
    assert fl.det(singular) == 0


@field_names
@PROPS
@given(data=st.data())
def test_rank_nullity_and_idempotent_rref(name, data):
    m = flat(name, data.draw(shaped(name)))
    r, pivots = fl.rref(m)
    assert fl.rref(r) == (r, pivots)
    ncols = len(m[0])
    free = [c for c in range(ncols) if c not in pivots]
    for f in free:
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            v[p] = -F(r[i][f], r[i][p])
        assert all(x == 0 for x in fl.mat_vec(m, v))
    assert len(pivots) + len(free) == ncols
    # the row space of an image is a space over the field: Q-rank d * rank
    assert len(pivots) % _degree(name) == 0


@PROPS
@given(data=st.data())
def test_rational_matrix_delegates(data):
    a, b = data.draw(square_pair("Q"))
    ma, mb = RationalMatrix(a), RationalMatrix(b)
    assert (ma * mb).entries == tuple(map(tuple, fl.mat_mul(a, b)))
    assert ma.det() == fl.det(a)
    rr, pivots = ref_rref(a)
    assert matrix_rref(ma) == (RationalMatrix(rr), pivots)
    assert repr(matrix_rref(ma)[0].entries) == repr(tuple(map(tuple, rr)))
    basis, d = nullspace(a)
    assert matrix_rank(ma) + len(basis) == ma.cols
    assert matrix_trace(ma) == sum(a[i][i] for i in range(len(a)))
    for v in basis:
        assert all(x == 0 for x in fl.mat_vec(ma.entries, v))
    assert (basis, d) == fl.clear_denominators(ref_nullspace(a))
    if ma.det() != 0:
        assert ma * ma.inverse() == RationalMatrix.identity(ma.rows)
    else:
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            ma.inverse()


def _embeddings(name):
    """Each root r of the minimal polynomial gives the ring homomorphism
    x -> x(r) into mpmath numbers."""
    datum = FIELDS[name]
    if datum is None:
        return [lambda x: mpmath.mpf(x.numerator) / x.denominator]
    coeffs = [int(c) for c in reversed(datum.min_poly.coeffs)]
    roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
    return [
        (lambda x, r=r: mpmath.fsum(
            mpmath.mpf(c.numerator) / c.denominator * r ** i
            for i, c in enumerate(x.coeffs)))
        for r in roots
    ]


def _leibniz_det(rows):
    """det as the sum over permutations; mpmath 1.3's det raises TypeError
    on singular matrices such as [[0, 1], [0, 1]]."""
    n = len(rows)
    return mpmath.fsum(
        (-1) ** sum(p[i] > p[j] for i, j in combinations(range(n), 2))
        * mpmath.fprod(rows[i][p[i]] for i in range(n))
        for p in permutations(range(n)))


@field_names
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_det_against_mpmath(name, data):
    # the det of the rational image is the norm of the det over the field:
    # the product of its images under all embeddings
    n = data.draw(st.integers(1, 4))
    m = data.draw(matrices(name, n, n))
    exact = fl.det(flat(name, m))
    with mpmath.workdps(60):
        approx = mpmath.fprod(_leibniz_det([[embed(x) for x in row] for row in m])
                              for embed in _embeddings(name))
        exact = mpmath.mpf(exact.numerator) / exact.denominator
        assert abs(approx - exact) <= mpmath.mpf(10) ** -40 * (1 + abs(approx))


def _compose_reference(datum, index, x):
    """The Galois action by polynomial composition, kept as the oracle:
    x(q(X)) mod min_poly by Horner."""
    q, p = datum.automorphisms[index], datum.min_poly
    acc = Polynomial.zero()
    for c in reversed(x.coeffs):
        acc = (acc * q + c) % p
    return datum.element(acc.coeffs)


@pytest.mark.parametrize("name", ["sqrt2", "quartic"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_apply_automorphism_matches_composition(name, data):
    datum = FIELDS[name]
    d = datum.degree
    x, y = (datum.element(data.draw(st.lists(small, min_size=d, max_size=d)))
            for _ in range(2))
    for s in range(d):
        sx = apply_automorphism(datum, s, x)
        assert sx == _compose_reference(datum, s, x)
        assert apply_automorphism(datum, s, x * y) == sx * apply_automorphism(datum, s, y)
        assert apply_automorphism(datum, s, x + y) == sx + apply_automorphism(datum, s, y)


# ---------------------------------------------------------------------------
# the zero rule against the dense kernel it replaced


def _dense_mat_vec(a, v):
    out = []
    for row in a:
        acc = None
        for x, y in zip(v, row):
            t = x * y
            acc = t if acc is None else acc + t
        out.append(acc)
    return out


def _dense_mat_mul(a, b):
    cols = list(zip(*b))
    return [_dense_mat_vec(cols, row) for row in a]


def _inv(x):
    """The pivot inverse of the dense loops, over Q or a number field."""
    if isinstance(x, F):
        return 1 / x
    if isinstance(x, int):
        return F(1, x)
    return x.inverse()


def _dense_rref(rows):
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not m[i][c] == 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c] == 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _dense_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    d = None
    for c in range(n):
        piv = next((r for r in range(c, n) if not m[r][c] == 0), None)
        if piv is None:
            return m[0][0] - m[0][0]
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            m[c] = [-x for x in m[c]]
        d = m[c][c] if d is None else d * m[c][c]
        inv = _inv(m[c][c])
        for r in range(c + 1, n):
            if not m[r][c] == 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] = m[r][k] - f * m[c][k]
    return d


KINDS = ("sparse", "monomial", "zero", "dense")


def elements(name, nonzero=False):
    d = _degree(name)
    coords = st.lists(small, min_size=d, max_size=d)
    if nonzero:
        coords = coords.filter(any)
    return coords.map(lambda xs: _element(name, xs))


@st.composite
def kinded(draw, name, rows, cols, kind):
    """A rows x cols matrix of the given kind; monomial ones are square
    (cols is ignored) with one nonzero entry in each row and column."""
    zero = _zero(name)
    if kind == "zero":
        return [[zero] * cols for _ in range(rows)]
    if kind == "monomial":
        perm = draw(st.permutations(range(rows)))
        return [[draw(elements(name, nonzero=True)) if j == perm[i] else zero
                 for j in range(rows)] for i in range(rows)]
    if kind == "sparse":
        return [[draw(elements(name, nonzero=True)) if draw(st.integers(0, 3)) == 0
                 else zero for _ in range(cols)] for _ in range(rows)]
    return draw(matrices(name, rows, cols))


@st.composite
def product_pair(draw, left, right):
    """(a, b) with cols(a) == rows(b), a over field left, b over right."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    kind_a, kind_b = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    if "monomial" in (kind_a, kind_b):
        n = k = m = n
    return (draw(kinded(left, n, k, kind_a)), draw(kinded(right, k, m, kind_b)))


@field_names
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_rule_matches_dense_kernel(name, data):
    a, b = data.draw(product_pair(name, name))
    assert repr(fl.mat_mul(a, b)) == repr(_dense_mat_mul(a, b))
    v = [row[0] for row in b]
    assert repr(fl.mat_vec(a, v)) == repr(_dense_mat_vec(a, v))
    # elimination sees the rational images only
    for m in (a, b):
        m = flat(name, m)
        r, pivots = fl.rref(m)
        dense, dense_pivots = _dense_rref(m)
        assert (r, pivots) == canonical(dense, dense_pivots)
        assert repr(rref_view(r, pivots, m)) == repr(dense)
    n = min(len(a), len(a[0]))
    square = flat(name, [row[:n] for row in a[:n]])
    assert repr(fl.det(square)) == repr(_dense_det(square))


@pytest.mark.parametrize("name", ["sqrt2", "quartic"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_zero_rule_mixed_rational_and_field_entries(name, data):
    # rho_s * F in transport: Fraction rows times field-element columns
    rs, f = data.draw(product_pair("Q", name))
    assert repr(fl.mat_mul(rs, f)) == repr(_dense_mat_mul(rs, f))
    # a rational matrix applied to a vector over the field
    v = [row[0] for row in f]
    assert repr(fl.mat_vec(rs, v)) == repr(_dense_mat_vec(rs, v))
    f, rs = data.draw(product_pair(name, "Q"))
    assert repr(fl.mat_mul(f, rs)) == repr(_dense_mat_mul(f, rs))


@pytest.mark.parametrize("name", ["sqrt2", "quartic"])
def test_field_element_truth_and_rational_equality(name):
    datum = FIELDS[name]
    zero, three_halves = datum.zero(), datum.element([F(3, 2)])
    theta = datum.element([0, 1])
    shifted = datum.element([F(3, 2), 1])
    assert not zero and three_halves and theta and shifted
    assert zero == 0 and zero == F(0) and not zero == F(3, 2)
    assert three_halves == F(3, 2) and not three_halves == 0
    assert not three_halves == 1 and not three_halves == F(-3, 2)
    # a zero constant term or a matching one says nothing about the rest
    assert not theta == 0 and not theta == F(3, 2)
    assert not shifted == F(3, 2) and not shifted == 0


def test_ragged_rows_raise_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fl.mat_vec([[F(1), F(2), F(3)]], [F(1), F(2)])
    with pytest.raises(DimensionMismatch):
        fl.mat_vec([[F(1), F(2)], [F(3)]], [F(1), F(2)])
    with pytest.raises(DimensionMismatch):
        fl.mat_mul([[F(1), F(2)]], [[F(1)], [F(2)], [F(3)]])
    # a ragged b used to lose the columns past its shortest row
    with pytest.raises(DimensionMismatch):
        fl.mat_mul([[1, 2]], [[1, 2], [3]])


@pytest.mark.parametrize("rows", [[[1], [3, 4]], [[0, 1], [1]]])
def test_ragged_rows_refused_by_elimination(rows):
    # the elimination took its width from row 0: nullspace returned [] on
    # the first and raised IndexError on the second
    for kernel in (fl.rref, fl.span_rref, nullspace,
                   lambda rows: fl.solve(rows, [[1] * len(rows)])):
        with pytest.raises(DimensionMismatch):
            kernel(rows)


# ---------------------------------------------------------------------------
# the integer rref, span_rref, solve and nullspace against the Fraction
# elimination they replaced


def ref_rref(rows):
    """rref over Fractions as the kernel ran it on rational rows."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        nz = [(k, y) for k, y in enumerate(m[r]) if y]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                row = m[i]
                for k, y in nz:
                    row[k] = row[k] - f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def ref_span_rref(vectors):
    """span_rref over Fractions, the reference for the integer path; the
    rows are converted to Fractions first, as the Lie layer passed them."""
    m, pivots = ref_rref([[F(x) for x in v] for v in vectors])
    return [tuple(m[i]) for i in range(len(pivots))]


def ref_solve(a, rhs_cols):
    """solve over Fractions as the kernel ran it: reduce [a | B] and read
    X off the first n rows."""
    n = len(a[0]) if a else 0
    m, pivots = ref_rref([[F(x) for x in row] + [F(col[i]) for col in rhs_cols]
                          for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    if len(pivots) > n:
        raise fl.Inconsistent(pivots[n] - n)
    return [row[n:] for row in m[:n]]


def ref_nullspace(rows):
    """nullspace over Fractions as it ran: one vector per free column of
    the rref, with entry 1 at the free column."""
    r, pivots = ref_rref([[F(x) for x in row] for row in rows])
    ncols = len(rows[0]) if rows else 0
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for i, p in enumerate(pivots):
            if r[i][f]:
                v[p] = -r[i][f]
        basis.append(tuple(v))
    return basis


rational_entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6),
    st.just(F(0)),
)


@st.composite
def rational_row_sets(draw):
    """Int and Fraction rows, with zero rows, duplicate rows and rows that
    combine two others mixed in, so that many sets are rank-deficient."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(rational_entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    for extra in draw(st.lists(st.sampled_from(["zero", "duplicate", "combination"]),
                               max_size=3)):
        if extra == "zero":
            rows.append(draw(st.sampled_from([[0] * ncols, [F(0)] * ncols])))
        elif extra == "duplicate":
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(rational_entries), draw(rational_entries)
            rows.append([a * x + b * y for x, y in zip(u, v)])
    return draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(rational_row_sets())
def test_integer_span_rref_matches_fraction_rref(rows):
    out = fl.span_rref(rows)
    ref = ref_span_rref(rows)
    assert out == [tuple(fl.primitive(v)) for v in ref]
    assert all(type(x) is int for v in out for x in v)
    # rref itself: the nonzero rows and the pivots, and its Fraction view
    # with zero rows last
    r, pivots = fl.rref(rows)
    full = ref_rref([[F(x) for x in v] for v in rows])
    assert (r, pivots) == canonical(*full)
    assert repr(rref_view(r, pivots, rows)) == repr(full[0])
    assert repr([tuple(v) for v in rref_view(r, pivots, r)]) == repr(ref)
    # nullspace and solve: integer rows over the least common denominator
    basis, d = nullspace(rows)
    assert (basis, d) == fl.clear_denominators(ref_nullspace(rows))
    assert all(type(x) is int for v in basis for x in v)
    a, b = [row[:-1] for row in rows], [[row[-1] for row in rows]]
    if len(rows[0]) > 1:
        assert _outcome(fl.solve, a, b) == _outcome(
            lambda *args: fl.clear_denominators(ref_solve(*args)), a, b)


def test_integer_rows_build_no_fraction(monkeypatch):
    # rref, span_rref, nullspace and solve on integer rows: the loop and
    # its readers return ints and build no Fraction
    rng = random.Random(30)
    cases = []
    for n in range(1, 7):
        rows = [[rng.randint(-5, 5) * rng.randint(0, 1) for _ in range(n + 1)] for _ in range(n)]
        rows.append([x + y for x, y in zip(rows[0], rows[-1])])
        a, b = [row[:-1] for row in rows], [[row[-1] for row in rows]]
        cases.append((rows, a, b, fl.clear_denominators(ref_nullspace(rows)),
                      _outcome(lambda *args: fl.clear_denominators(ref_solve(*args)), a, b)))
    built = []
    real = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
    for rows, a, b, kernel, solved in cases:
        assert nullspace(rows) == kernel
        assert _outcome(fl.solve, a, b) == solved
        assert fl.span_rref(rows) == [tuple(v) for v in fl.rref(rows)[0]]
    assert built == []


def _outcome(fn, *args):
    """fn's result, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ZeroDivisionError, fl.Inconsistent) as e:
        return type(e), str(e)


@settings(max_examples=60, deadline=None)
@given(rational_row_sets())
def test_clear_denominators(rows):
    ints, d = fl.clear_denominators(rows)
    dens = [F(x).denominator for v in rows for x in v]
    assert d == math.lcm(*dens)
    assert all(type(x) is int for v in ints for x in v)
    assert ints == [[x * d for x in v] for v in rows]
    for v in rows:
        p = fl.primitive(v)
        assert math.gcd(*p) == (1 if any(v) else 0)
        assert fl.span_rref([p]) == fl.span_rref([v])


ints = st.integers(-4, 4)


@PROPS
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.lists(ints, min_size=n, max_size=n), min_size=1, max_size=2))))
def test_int_matrices_match_fractions(case):
    """All-int input takes the kernel's rational path: det, rref and solve
    give the values they give on the same matrix as Fraction."""
    m, cols = case
    fm = [[F(x) for x in row] for row in m]
    fcols = [[F(x) for x in col] for col in cols]
    assert fl.det(m) == fl.det(fm)
    assert repr(fl.rref(m)) == repr(fl.rref(fm))
    assert all(type(x) is int for row in fl.rref(m)[0] for x in row)
    if fl.det(fm) == 0:
        with pytest.raises(ZeroDivisionError):
            fl.solve(m, cols)
    else:
        x, e = fl.solve(m, cols)
        assert (x, e) == fl.solve(fm, fcols)
        assert (x, e) == fl.clear_denominators(ref_solve(fm, fcols))
        assert all(type(y) is int for row in x for y in row) and type(e) is int


# ---------------------------------------------------------------------------
# the Bareiss det against the Fraction elimination it replaced


def ref_det(rows):
    """det by Fraction forward elimination, as the kernel ran it on
    rational rows; the rows are converted to Fractions first."""
    m = [[F(x) for x in r] for r in rows]
    n = len(m)
    if n == 0:
        return F(1)
    d = None
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return m[0][0] - m[0][0]
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            m[c] = [-x for x in m[c]]
        d = m[c][c] if d is None else d * m[c][c]
        inv = 1 / m[c][c]
        nz = [(k, m[c][k]) for k in range(c, n) if m[c][k]]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                row = m[r]
                for k, y in nz:
                    row[k] = row[k] - f * y
    return d


@pytest.mark.parametrize("rows, value", [
    ([[3]], 3),
    ([[0, 1], [0, 1]], 0),
    ([[2, 1], [1, 1]], 1),
    ([], 1),
    ([[F(1, 2)]], F(1, 2)),
    ([[0, 2], [3, 0]], -6),
])
def test_det_is_a_fraction_on_rational_input(rows, value):
    out = fl.det(rows)
    assert type(out) is F and out == value
    assert repr(out) == repr(ref_det(rows))


@st.composite
def rational_squares(draw):
    """Int, Fraction or mixed square matrices up to n = 12, with zero
    entries, zero leading entries (pivot searches and row swaps), zero
    columns and repeated rows mixed in."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["int", "fraction", "mixed"]))
    entry = {
        "int": st.one_of(st.just(0), st.integers(-9, 9)),
        "fraction": st.one_of(st.just(F(0)),
                              st.fractions(min_value=-20, max_value=20, max_denominator=50)),
        "mixed": st.one_of(st.just(0), st.integers(-9, 9),
                           st.fractions(min_value=-20, max_value=20, max_denominator=50)),
    }[kind]
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    zero = 0 if kind == "int" else F(0)
    for extra in draw(st.lists(st.sampled_from(["lead", "column", "repeat"]), max_size=3)):
        if extra == "lead":
            for r in range(draw(st.integers(0, n - 1))):
                rows[r][0] = zero
        elif extra == "column":
            j = draw(st.integers(0, n - 1))
            for row in rows:
                row[j] = zero
        elif n > 1:
            rows[draw(st.integers(1, n - 1))] = list(rows[0])
    return draw(st.permutations(rows))


@settings(max_examples=250, deadline=None)
@given(rational_squares())
def test_bareiss_det_matches_fraction_elimination(rows):
    out = fl.det(rows)
    assert type(out) is F
    assert repr(out) == repr(ref_det(rows))
    assert repr(RationalMatrix(rows).det()) == repr(out)

