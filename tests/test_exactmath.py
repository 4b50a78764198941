import math
import random
from fractions import Fraction as F

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovforms import _fieldlinalg as fl
from anosovforms import recipes
from anosovforms.catalog import cubic_pisot_unit, cyclic_cubic_datum
from anosovforms.errors import (
    EndpointIsRoot,
    NonSquare,
    RootOnCircle,
    SquarefreeBudgetExceeded,
    ZeroPolynomial,
)
from anosovforms.exactmath import (
    Interval,
    Polynomial,
    RationalMatrix,
    charpoly,
    count_real_roots,
    count_roots_inside_unit_disk,
    count_roots_on_unit_circle,
    nullspace,
    poly_gcd,
    rat,
    rat_to_str,
    squarefree_part_of_rational,
    sturm_count,
)
from test_frozen_polynomial import FrozenPolynomial, frozen_chain_index, frozen_remainder_chain

P = Polynomial

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=6
)


def zeros(r: int, c: int) -> RationalMatrix:
    return RationalMatrix([[F(0)] * c for _ in range(r)])


def diagonal(diag) -> RationalMatrix:
    return RationalMatrix([[F(diag[i]) if i == j else F(0) for j in range(len(diag))]
                           for i in range(len(diag))])


def interval_abs(iv: Interval) -> Interval:
    """The Interval {|t| : t in iv}."""
    if iv.lo >= 0:
        return iv
    if iv.hi <= 0:
        return iv.neg()
    return Interval(F(0), max(-iv.lo, iv.hi))


def poly_xgcd(p: Polynomial, q: Polynomial) -> tuple[Polynomial, Polynomial, Polynomial]:
    """Return (g, s, t) with s*p + t*q = g = monic gcd(p, q)."""
    r0, r1 = p, q
    s0, s1 = Polynomial.one(), Polynomial.zero()
    t0, t1 = Polynomial.zero(), Polynomial.one()
    while not r1.is_zero:
        qu, re = divmod(r0, r1)
        r0, r1 = r1, re
        s0, s1 = s1, s0 - qu * s1
        t0, t1 = t1, t0 - qu * t1
    if r0.is_zero:
        return r0, s0, t0
    lead = r0.leading
    inv = 1 / lead
    return r0.monic(), s0 * inv, t0 * inv


def companion(p: Polynomial) -> RationalMatrix:
    n = p.degree
    assert p.leading == 1
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = F(1)
    for i in range(n):
        rows[i][n - 1] = -p[i]
    return RationalMatrix(rows)


class TestPolynomial:
    def test_zero_degree(self):
        assert P([]).degree == -1
        assert P([0, 0]).degree == -1
        assert P([3]).degree == 0
        assert P([0, 1]).degree == 1

    def test_arithmetic(self):
        x = P.x()
        assert (x + 1) * (x - 1) == P([-1, 0, 1])
        q, r = divmod(P([-1, 0, 1]), x - 1)
        assert q == x + 1 and r.is_zero

    def test_is_integer_is_a_property(self):
        assert P([1, 2, 1]).is_integer is True
        assert P([1, F(1, 2), 1]).is_integer is False
        assert P([]).is_integer is True

    def test_rat_strings(self):
        assert rat_to_str(F(3, 4)) == "3/4"
        assert rat_to_str(F(-5)) == "-5"
        assert rat("3/4") == F(3, 4)

    def test_reciprocal_involution(self):
        p = P([2, -3, 0, 5])
        assert p.reciprocal().reciprocal() == p

    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_reciprocal_involution_random(self, coeffs):
        p = P(coeffs)
        if p.is_zero or p.constant == 0:
            return
        assert p.reciprocal().reciprocal() == p


def frozen_poly_mul(p, q):
    """Polynomial * Polynomial as a Fraction convolution."""
    if p.is_zero or q.is_zero:
        return P.zero()
    out = [F(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return P(out)


class TestPolynomialProduct:
    # the cleared-integer convolution against the Fraction one it replaced
    polys = st.lists(st.one_of(st.integers(-50, 50), st.just(0),
                               st.fractions(min_value=-50, max_value=50,
                                            max_denominator=10 ** 6)),
                     max_size=9).map(P)

    @settings(max_examples=400, deadline=None)
    @given(polys, polys)
    def test_matches_frozen(self, p, q):
        pq = p * q
        assert repr(pq) == repr(frozen_poly_mul(p, q))
        assert all(type(c) is F for c in pq.coeffs)

    def test_zero_constant_and_non_integral_factors(self):
        cases = [P([]), P([0]), P([3]), P([F(-2, 7)]), P([0, 1]), P([F(1, 2), 0, F(-3, 4)]),
                 P([1, F(1, 3), 0, 0, F(5, 9)]), P([-6, 11, -6, 1])]
        for p in cases:
            for q in cases:
                assert repr(p * q) == repr(frozen_poly_mul(p, q))
                assert repr(p ** 3) == repr(frozen_poly_mul(frozen_poly_mul(p, p), p))


class TestCharpoly:
    def test_paper_block(self):
        m = RationalMatrix([[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, 4], [0, 0, 1, 4]])
        assert charpoly(m) == P([1, 1, -4, -4, 1])

    def test_center_block(self):
        m = RationalMatrix([[F(-1, 2), F(-1, 2)], [F(-1, 2), F(-5, 2)]])
        assert charpoly(m) == P([1, 3, 1])

    def test_identity(self):
        assert charpoly(RationalMatrix.identity(2)) == P([1, -2, 1])

    def test_kept_on_the_matrix(self, monkeypatch):
        from anosovforms import exactmath

        calls = []
        inner = exactmath.charpoly
        monkeypatch.setattr(exactmath, "charpoly", lambda m: calls.append(m) or inner(m))
        m = RationalMatrix([[F(-1, 2), F(-1, 2)], [F(-1, 2), F(-5, 2)]])
        assert m.charpoly() is m.charpoly() and m.charpoly() == P([1, 3, 1])
        assert calls == [m]
        # the kept polynomial does not take part in equality or hashing
        twin = RationalMatrix(m.entries)
        assert twin == m and hash(twin) == hash(m)
        with pytest.raises(AttributeError):
            m._charpoly = P([1])

    def test_nonsquare(self):
        with pytest.raises(NonSquare):
            charpoly(zeros(2, 3))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(rationals, min_size=16, max_size=16))
    def test_cayley_hamilton(self, entries):
        m = RationalMatrix([entries[4 * i:4 * i + 4] for i in range(4)])
        p = charpoly(m)
        acc = zeros(4, 4)
        for i, c in enumerate(p.coeffs):
            acc = acc + (m ** i) * c
        assert acc == zeros(4, 4)

    def test_det_consistency(self):
        rng = random.Random(5)
        for _ in range(15):
            m = RationalMatrix(
                [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
                 for _ in range(4)]
            )
            p = charpoly(m)
            assert p.degree == 4 and p.leading == 1
            assert (-1) ** 4 * p.constant == m.det()


def ref_charpoly(m: RationalMatrix) -> Polynomial:
    """det(X*I - m) by exact Hessenberg reduction over Fractions and its
    recurrence, the implementation the integer Berkowitz kernel replaced."""
    n = m.rows
    if n == 0:
        return Polynomial.one()
    h = [list(row) for row in m.entries]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j] != 0), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for row in h:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        base = h[j + 1][j]
        for i in range(j + 2, n):
            if h[i][j] == 0:
                continue
            f = h[i][j] / base
            for k in range(n):
                h[i][k] -= f * h[j + 1][k]
            for r in range(n):
                h[r][j + 1] += f * h[r][i]
    ps = [Polynomial.one()]
    x = Polynomial.x()
    for k in range(1, n + 1):
        p = (x - Polynomial((h[k - 1][k - 1],))) * ps[k - 1]
        prod = F(1)
        for mm in range(k - 1, 0, -1):
            prod *= h[mm][mm - 1]
            if h[mm - 1][k - 1] != 0 and prod != 0:
                p = p - (h[mm - 1][k - 1] * prod) * ps[mm - 1]
            if prod == 0:
                break
        ps.append(p)
    return ps[n]


@st.composite
def square_rows(draw, max_n=12):
    """Square rows of ints, Fractions or both, from dense to mostly zero."""
    n = draw(st.integers(0, max_n))
    ints = st.integers(-9, 9)
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=40)
    entry = draw(st.sampled_from([ints, fracs, st.one_of(ints, fracs)]))
    zero_share = draw(st.sampled_from([0, 0.5, 0.85]))
    rng = draw(st.randoms(use_true_random=False))
    return [[draw(entry) if rng.random() >= zero_share else 0 for _ in range(n)]
            for _ in range(n)]


def _assert_same_charpoly(m):
    p, ref = charpoly(m), ref_charpoly(m)
    assert repr(p) == repr(ref)
    assert p.coeffs == ref.coeffs and all(type(c) is F for c in p.coeffs)
    assert m.charpoly() == p


@settings(max_examples=150, deadline=None)
@given(square_rows())
def test_charpoly_matches_hessenberg(rows):
    _assert_same_charpoly(RationalMatrix(rows))


@settings(max_examples=60, deadline=None)
@given(square_rows(), st.integers(1, 10 ** 6))
def test_int_charpoly_scales_by_the_common_denominator(rows, d):
    """On integer rows the kernel gives ints; over a denominator D its
    coefficient k is D^(n-k) times the rational charpoly's."""
    n = len(rows)
    ints = [[int(x * 1000) for x in row] for row in rows]
    cs = fl.int_charpoly(ints)
    assert all(type(c) is int for c in cs) and cs[-1] == 1 and len(cs) == n + 1
    ref = ref_charpoly(RationalMatrix([[F(x, d) for x in row] for row in ints]))
    assert [F(c, d ** (n - k)) for k, c in enumerate(cs)] == list(ref.coeffs)


@pytest.mark.parametrize("build", [
    lambda: recipes.recipe_last(cyclic_cubic_datum(),
                                cubic_pisot_unit(cyclic_cubic_datum()), 6).matrix,
    lambda: recipes.recipe_csig_default(4).matrix,
], ids=["recipe_last_c6", "recipe_csig_c4"])
def test_charpoly_matches_hessenberg_on_recipe_maps(build):
    m = build()
    _assert_same_charpoly(m)
    _assert_same_charpoly(m.transpose())


class TestMatrixShapes:
    def test_sum_and_difference_need_equal_shapes(self):
        a, b = RationalMatrix([[1, 2]]), RationalMatrix([[1]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            a + b
        with pytest.raises(ValueError, match="dimension mismatch"):
            b + a
        with pytest.raises(ValueError, match="dimension mismatch"):
            RationalMatrix([[1, 2], [3, 4]]) - a
        with pytest.raises(ValueError, match="dimension mismatch"):
            a - RationalMatrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            a * b

    def test_sum_and_difference_entrywise(self):
        a = RationalMatrix([[1, F(1, 2)], [3, 4]])
        b = RationalMatrix([[F(1, 3), 2], [0, -4]])
        assert a + b == RationalMatrix([[F(4, 3), F(5, 2)], [3, 0]])
        assert a - b == RationalMatrix([[F(2, 3), F(-3, 2)], [3, 8]])
        assert RationalMatrix([]) - RationalMatrix([]) == RationalMatrix([])


class TestNullspace:
    def test_zero_matrix(self):
        basis = nullspace(zeros(2, 2).entries)
        assert basis == ([[1, 0], [0, 1]], 1)

    def test_identity(self):
        assert nullspace(RationalMatrix.identity(3).entries) == ([], 1)

    def test_rank_one(self):
        assert nullspace([[1, 1], [2, 2]]) == ([[-1, 1]], 1)

    def test_least_common_denominator(self):
        # the canonical basis (-3/2, 1, 0), (-1/2, 0, 1) over D = 2
        assert nullspace([[2, 3, 1]]) == ([[-3, 2, 0], [-1, 0, 2]], 2)

    def test_kernel_canonical(self):
        m = RationalMatrix([[1, 2, 3], [2, 4, 6]])
        basis, d = nullspace(m.entries)
        assert len(basis) == 2 and d == 1
        for v in basis:
            assert all(sum(row[i] * v[i] for i in range(3)) == 0
                       for row in m.entries)

    def test_int_and_fraction_rows_agree(self):
        # the kernel depends on the row space only: int rows, the same rows
        # as Fractions, and rows scaled by rationals give one basis
        rng = random.Random(19)
        for _ in range(40):
            r, c = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) * rng.randint(0, 1) for _ in range(c)]
                    for _ in range(r)]
            basis = nullspace(rows)
            assert all(type(x) is int for v in basis[0] for x in v) and type(basis[1]) is int
            assert repr(nullspace([[F(x) for x in row] for row in rows])) == repr(basis)
            scaled = [[F(x, k) for x in row] for k, row in enumerate(rows, start=2)]
            assert repr(nullspace(scaled)) == repr(basis)
            assert repr(nullspace(RationalMatrix(rows).entries)) == repr(basis)
            assert len(basis[0]) == c - len(fl.rref(rows)[1])


class TestSturm:
    def test_sqrt2(self):
        assert sturm_count(P([-2, 0, 1]), (0, 2)) == 1

    def test_no_real_roots(self):
        assert sturm_count(P([1, 0, 1]), (-10, 10)) == 0

    def test_quartic_pisot(self):
        assert sturm_count(P([1, 1, -4, -4, 1]), (1, 10)) == 1

    def test_endpoint_root(self):
        with pytest.raises(EndpointIsRoot):
            sturm_count(P([-1, 0, 1]), (1, 2))

    def test_additivity(self):
        p = P([1, 1, -4, -4, 1])  # roots ~ 4.78, .51, -.55, -.75
        pieces = [(-1, 0), (0, F(1, 2)), (F(1, 2), 2), (2, 5)]
        total = sum(sturm_count(p, iv) for iv in pieces)
        assert total == sturm_count(p, (-1, 5)) == 4

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-6, 6), min_size=2, max_size=6),
           st.integers(-8, 8), st.integers(1, 8), st.integers(1, 8))
    def test_additivity_random(self, coeffs, a, w1, w2):
        p = P(coeffs)
        if p.degree < 1:
            return
        p = p.squarefree_part()
        a, b, c = F(a), F(a + w1), F(a + w1 + w2)
        try:
            whole = sturm_count(p, (a, c))
            parts = sturm_count(p, (a, b)) + sturm_count(p, (b, c))
        except EndpointIsRoot:
            return
        mid_root = 1 if p.eval(b) == 0 else 0
        assert whole == parts + mid_root


class TestUnitCircle:
    def test_pm_one(self):
        assert count_roots_on_unit_circle(P([-1, 0, 1])) == 2

    def test_golden(self):
        assert count_roots_on_unit_circle(P([1, 3, 1])) == 0

    def test_self_reciprocal_hyperbolic(self):
        # the gcd with the reciprocal is the whole polynomial here, yet no
        # root has modulus one
        assert count_roots_on_unit_circle(P([1, -3, 1])) == 0

    def test_cyclotomic(self):
        assert count_roots_on_unit_circle(P([1, 1, 1])) == 2
        assert count_roots_on_unit_circle(P([1, 0, 1])) == 2

    def test_mixed(self):
        p = P([1, 1, 1]) * P([-2, 1]) * P([-1, 1])
        assert count_roots_on_unit_circle(p) == 3

    def test_zero_poly(self):
        with pytest.raises(ZeroPolynomial):
            count_roots_on_unit_circle(P([]))


class TestUnitDisk:
    def test_golden(self):
        assert count_roots_inside_unit_disk(P([1, 3, 1])) == 1

    def test_outside(self):
        assert count_roots_inside_unit_disk(P([-2, 1])) == 0

    def test_quartic(self):
        assert count_roots_inside_unit_disk(P([1, 1, -4, -4, 1])) == 3

    def test_degenerate_self_inversive(self):
        assert count_roots_inside_unit_disk(P([1, -3, 1])) == 1

    def test_multiplicity(self):
        p = P([F(-1, 2), 1]) ** 2 * P([-3, 1])
        assert count_roots_inside_unit_disk(p) == 2

    def test_zero_roots_count_inside(self):
        assert count_roots_inside_unit_disk(P([0, 0, 1]) * P([-2, 1])) == 2

    def test_circle_root_rejected(self):
        with pytest.raises(RootOnCircle):
            count_roots_inside_unit_disk(P([-1, 0, 1]))

    def test_partition(self):
        rng = random.Random(11)
        for _ in range(30):
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(2, 6))] + [1]
            p = P(coeffs)
            if p.constant == 0:
                continue
            on = count_roots_on_unit_circle(p)
            if on:
                continue
            inside = count_roots_inside_unit_disk(p)
            recip = count_roots_inside_unit_disk(p.reciprocal())
            assert inside + recip == p.degree

    def test_counts_against_float_oracle(self):
        # the oracle is numeric root finding at high precision, used only
        # to cross-check the exact pipelines
        import mpmath as mp

        rng = random.Random(23)
        checked = 0
        with mp.workdps(50):
            while checked < 60:
                deg = rng.randint(2, 6)
                coeffs = [rng.randint(-8, 8) for _ in range(deg)] + [1]
                p = P(coeffs).squarefree_part()
                if p.degree < 2 or p.constant == 0:
                    continue
                roots = mp.polyroots(
                    [mp.mpf(str(c)) for c in reversed(p.coeffs)],
                    maxsteps=200, extraprec=200,
                )
                on_oracle = sum(1 for r in roots
                                if abs(abs(r) - 1) < mp.mpf(10) ** -30)
                assert count_roots_on_unit_circle(p) == on_oracle
                if on_oracle == 0:
                    inside_oracle = sum(1 for r in roots if abs(r) < 1)
                    assert count_roots_inside_unit_disk(p) == inside_oracle
                checked += 1


class TestGcd:
    def test_common_factor(self):
        assert poly_gcd(P([-1, 0, 1]), P([-1, 1])) == P([-1, 1])

    def test_coprime(self):
        assert poly_gcd(P([1, 3, 1]), P([1, -3, 1])) == P([1])

    def test_self(self):
        p = P([2, 4, 6])
        assert poly_gcd(p, p) == p.monic()

    def test_xgcd(self):
        p, q = P([-1, 0, 1]), P([1, 1])
        g, s, t = poly_xgcd(p, q)
        assert s * p + t * q == g == P([1, 1])

    def test_both_zero(self):
        assert poly_gcd(P([]), P([])).is_zero


class TestInterval:
    def test_mul_signs(self):
        a = Interval(F(-2), F(3))
        b = Interval(F(-1), F(4))
        prod = a.mul(b)
        assert prod.lo == -8 and prod.hi == 12

    def test_abs(self):
        assert interval_abs(Interval(F(-3), F(2))) == Interval(F(0), F(3))
        assert interval_abs(Interval(F(-3), F(-2))) == Interval(F(2), F(3))

    def test_poly_eval(self):
        p = P([-2, 0, 1])
        iv = p.eval_interval(Interval(F(1), F(2)))
        assert iv.lo <= -1 and iv.hi >= 2


def test_count_real_roots():
    assert count_real_roots(P([1, 1, -4, -4, 1])) == 4
    assert count_real_roots(P([1, 0, 1])) == 0
    assert count_real_roots(P([0, 1]) ** 3) == 1


# ---------------------------------------------------------------------------
# poly_gcd and count_real_roots on the one remainder chain, against the
# Euclid loop and the squarefree-first count they replaced


def frozen_poly_gcd(p, q):
    """The Euclid loop on the frozen Fraction polynomials, as a Polynomial."""
    a, b = FrozenPolynomial(p.coeffs), FrozenPolynomial(q.coeffs)
    while not b.is_zero:
        a, b = b, a % b
    return P(a.monic().coeffs)


def frozen_count_real_roots(p):
    if p.is_zero:
        raise ZeroPolynomial("count_real_roots of the zero polynomial")
    g = FrozenPolynomial(frozen_poly_gcd(p, p.derivative()).coeffs)
    p = FrozenPolynomial(p.coeffs)
    q = p.monic() if p.degree <= 0 else (p // g).monic()
    return frozen_chain_index(frozen_remainder_chain(q, q.derivative()))


def _repeated_factor_polys(rng, count):
    """Products of small random factors with multiplicities up to 3, times
    a random rational scale: most have repeated factors."""
    for _ in range(count):
        p = P([F(rng.randint(-5, 5), rng.randint(1, 4)) or 1])
        for _ in range(rng.randint(0, 3)):
            factor = P([rng.randint(-4, 4) for _ in range(rng.randint(2, 3))])
            if factor.degree >= 1:
                p = p * factor ** rng.randint(1, 3)
        yield p


def test_remainder_chain_gcd_and_real_roots_match_frozen():
    rng = random.Random(16)
    polys = list(_repeated_factor_polys(rng, 3000))
    zero = P([])
    for p, q in zip(polys, polys[1:] + polys[:1]):
        common = polys[rng.randrange(len(polys))]
        a, b = p * common, q * common
        assert poly_gcd(a, b) == frozen_poly_gcd(a, b)
        assert count_real_roots(p) == frozen_count_real_roots(p)
    for p in (zero, P([3]), P([0, 1]), polys[0]):
        for q in (zero, P([F(-1, 2)]), polys[1]):
            assert poly_gcd(p, q) == frozen_poly_gcd(p, q)
    with pytest.raises(ZeroPolynomial):
        count_real_roots(zero)
    assert count_real_roots(P([F(2, 3)])) == frozen_count_real_roots(P([F(2, 3)])) == 0


# ---------------------------------------------------------------------------
# charpoly and the root counts against high-precision numeric oracles

CYCLOTOMIC = {
    3: P([1, 1, 1]),
    4: P([1, 0, 1]),
    5: P([1, 1, 1, 1, 1]),
    8: P([1, 0, 0, 0, 1]),
}


def _scaled(p, r):
    """The polynomial whose roots are those of p times r."""
    return P([c * F(1, r) ** i for i, c in enumerate(p.coeffs)]).monic()


def _mp(q):
    return mp.mpf(q.numerator) / q.denominator


def _mp_det(rows):
    try:
        return mp.det(mp.matrix(rows))
    except TypeError:
        # mpmath 1.3 raises TypeError instead of returning 0 when an
        # elimination column is exactly zero, which makes the matrix singular
        return mp.mpf(0)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_charpoly_against_mpmath_det(rows):
    n = len(rows)
    p = charpoly(RationalMatrix(rows))
    assert p.degree == n and p.leading == 1
    with mp.workdps(60):
        for t in (F(0), F(1), F(-2), F(1, 3), F(7, 2)):
            shifted = [[_mp(t * (i == j) - x) for j, x in enumerate(row)]
                       for i, row in enumerate(rows)]
            oracle = _mp_det(shifted)
            exact = _mp(p.eval(t))
            assert abs(oracle - exact) <= mp.mpf(10) ** -40 * (1 + abs(exact))


def _distinct(roots, tol):
    out = []
    for r in roots:
        if all(abs(r - s) > tol for s in out):
            out.append(r)
    return out


def _oracle_counts(factors, find_roots):
    """(distinct roots on the circle, roots inside the disk with
    multiplicity) of the product of the factors, from the roots of each."""
    roots = [r for f in factors for r in find_roots(f)]
    on = _distinct([r for r in roots if abs(abs(r) - 1) < mp.mpf(10) ** -25],
                   mp.mpf(10) ** -20)
    return len(on), sum(1 for r in roots if abs(r) < 1)


def _mp_roots(p):
    return mp.polyroots([_mp(c) for c in reversed(p.coeffs)], maxsteps=400, extraprec=400)


@st.composite
def cyclotomic_products(draw):
    """A small random integer factor times cyclotomic factors (roots on the
    circle) and pairs Phi(2x) Phi(x/2) (self-reciprocal, none on it)."""
    factors = []
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
        f = P(coeffs + [1])
        # squarefree, so the numeric root finders converge on every root
        if f.constant != 0 and poly_gcd(f, f.derivative()).degree == 0:
            factors.append(f)
    for k in draw(st.lists(st.sampled_from(sorted(CYCLOTOMIC)), max_size=3)):
        factors.append(CYCLOTOMIC[k])
    for k in draw(st.lists(st.sampled_from(sorted(CYCLOTOMIC)), max_size=2)):
        factors += [_scaled(CYCLOTOMIC[k], 2), _scaled(CYCLOTOMIC[k], F(1, 2))]
    if not factors:
        factors.append(CYCLOTOMIC[draw(st.sampled_from(sorted(CYCLOTOMIC)))])
    return factors


def _check_counts(factors, find_roots):
    p = P([1])
    for f in factors:
        p = p * f
    on, inside = _oracle_counts(factors, find_roots)
    assert count_roots_on_unit_circle(p) == on
    if on:
        with pytest.raises(RootOnCircle):
            count_roots_inside_unit_disk(p)
    else:
        assert count_roots_inside_unit_disk(p) == inside


@settings(max_examples=40, deadline=None)
@given(cyclotomic_products())
def test_root_counts_with_cyclotomic_factors_against_mpmath(factors):
    with mp.workdps(50):
        _check_counts(factors, _mp_roots)


@settings(max_examples=20, deadline=None)
@given(cyclotomic_products())
def test_root_counts_with_cyclotomic_factors_against_sympy(factors):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def sympy_roots(p):
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)], x)
        return [mp.mpc(str(sympy.re(r)), str(sympy.im(r)))
                for r in poly.nroots(n=50, maxsteps=200)]

    with mp.workdps(50):
        _check_counts(factors, sympy_roots)


# ---------------------------------------------------------------------------
# the circle and disk counts before the boundary chain, frozen as the
# reference: squarefree part, gcd with the reciprocal and a Chebyshev
# contraction for the circle; Schur-Cohn with a degree-2n winding fallback
# for the disk


def _ref_strip_zero_roots(p):
    k = 0
    while k <= p.degree and p[k] == 0:
        k += 1
    return k, P(p.coeffs[k:])


def _ref_chebyshev_contract(g):
    d2 = g.degree
    assert d2 % 2 == 0
    d = d2 // 2
    assert all(g[i] == g[d2 - i] for i in range(d + 1))
    h = P((g[d],))
    pj_prev, pj = P((2,)), P.x()
    for j in range(1, d + 1):
        h = h + g[d + j] * pj
        pj_prev, pj = pj, P.x() * pj - pj_prev
    return h


def ref_count_on(p):
    q = p.squarefree_part()
    _, q = _ref_strip_zero_roots(q)
    count = 0
    for r in (F(1), F(-1)):
        if q.eval(r) == 0:
            count += 1
            q = q // P((-r, 1))
    if q.degree <= 0:
        return count
    g = poly_gcd(q, q.reciprocal())
    if g.degree <= 0:
        return count
    h = _ref_chebyshev_contract(g).squarefree_part()
    return count + 2 * sturm_count(h, (F(-2), F(2)))


class _RefSchurDegenerate(Exception):
    pass


def _ref_schur_inside(f):
    n = f.degree
    if n <= 0:
        return 0
    a0, an = f.constant, f.leading
    delta = a0 * a0 - an * an
    tf = a0 * f - an * f.reciprocal()
    if delta == 0:
        if tf.is_zero:
            return n // 2
        raise _RefSchurDegenerate
    if delta > 0:
        return _ref_schur_inside(tf)
    return n - _ref_schur_inside(tf)


def _ref_cauchy_index(a, b):
    chain = [a, b]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    signs_pos = [q.leading > 0 for q in chain if not q.is_zero]
    signs_neg = [q.leading * (-1) ** q.degree > 0 for q in chain if not q.is_zero]

    def changes(s):
        return sum(1 for x, y in zip(s, s[1:]) if x != y)

    return changes(signs_neg) - changes(signs_pos)


def _ref_winding_inside(f):
    n = f.degree
    if n <= 0:
        return 0
    one_minus, two_t, one_plus = P((1, 0, -1)), P((0, 2)), P((1, 0, 1))
    pows_plus = [P.one()]
    for _ in range(n):
        pows_plus.append(pows_plus[-1] * one_plus)
    re_acc, im_acc = P.zero(), P.zero()
    re_pow, im_pow = P.one(), P.zero()
    for k, a in enumerate(f.coeffs):
        if a != 0:
            re_acc = re_acc + a * re_pow * pows_plus[n - k]
            im_acc = im_acc + a * im_pow * pows_plus[n - k]
        re_pow, im_pow = (re_pow * one_minus - im_pow * two_t,
                          re_pow * two_t + im_pow * one_minus)
    index = _ref_cauchy_index(re_acc, im_acc)
    assert index % 2 == 0
    return -index // 2


def ref_count_inside(p):
    """Roots inside the disk with multiplicity, or None for a root on the
    circle (where the library raises RootOnCircle)."""
    if ref_count_on(p) != 0:
        return None
    k, f = _ref_strip_zero_roots(p)
    try:
        return k + _ref_schur_inside(f)
    except _RefSchurDegenerate:
        return k + _ref_winding_inside(f)


CIRCLE_FACTORS = [
    P([-1, 1]), P([1, 1]),                      # X - 1, X + 1
    P([1, 1, 1]), P([1, 0, 1]), P([1, 1, 1, 1, 1]), P([1, -1, 1]),
    P([1] * 7), P([1, 0, 0, 0, 1]),             # Phi_3 ... Phi_8
]


@st.composite
def boundary_cases(draw):
    """Products of X +- 1 and Phi_3..Phi_8, pairs Phi(2x) Phi(x/2), zero
    roots, repeated factors and non-monic rational factors, degree 1..14."""
    p = P([draw(st.fractions(min_value=F(1, 4), max_value=4, max_denominator=4)
                .filter(lambda c: c != 0))])
    if draw(st.booleans()):
        for f in draw(st.lists(st.sampled_from(CIRCLE_FACTORS), min_size=1, max_size=3)):
            p = p * f
    for f in draw(st.lists(st.sampled_from(CIRCLE_FACTORS[2:]), max_size=2)):
        p = p * _scaled(f, 2) * _scaled(f, F(1, 2))
    for coeffs in draw(st.lists(st.lists(rationals, min_size=2, max_size=4), max_size=2)):
        if P(coeffs).degree > 0:
            p = p * P(coeffs)
    p = p * P.x() ** draw(st.integers(0, 2))
    if draw(st.booleans()):
        p = p * p
    if not 1 <= p.degree <= 14:
        p = P([draw(st.integers(-3, 3)), 1]) * draw(st.sampled_from(CIRCLE_FACTORS))
    return p


@settings(max_examples=300, deadline=None)
@given(boundary_cases())
def test_boundary_chain_matches_frozen_reference(p):
    assert count_roots_on_unit_circle(p) == ref_count_on(p)
    inside = ref_count_inside(p)
    if inside is None:
        with pytest.raises(RootOnCircle):
            count_roots_inside_unit_disk(p)
    else:
        assert count_roots_inside_unit_disk(p) == inside


def test_boundary_chain_fixed_cases():
    # Phi(2x) Phi(x/2): gcd(A, B) has degree > 0 and no real root
    pair = _scaled(P([1, 1, 1]), 2) * _scaled(P([1, 1, 1]), F(1, 2))
    assert count_roots_on_unit_circle(pair) == 0
    assert count_roots_inside_unit_disk(pair) == 2
    # -1 is a root: the boundary polynomial drops below deg p
    assert count_roots_on_unit_circle(P([1, 1]) ** 2 * P([1, 1, 1])) == 3
    # a zero root is inside; a nonzero constant has no roots at all
    assert count_roots_inside_unit_disk(P([0, 3, -1])) == 1
    assert count_roots_on_unit_circle(P([F(-2, 3)])) == 0
    assert count_roots_inside_unit_disk(P([F(-2, 3)])) == 0


# ---------------------------------------------------------------------------
# the squarefree part against the two trial-division routines it replaced
# ---------------------------------------------------------------------------


def frozen_squarefree_part_of_rational(x):
    """pfaffian's routine: trial division while d^2 <= n, no budget."""
    x = rat(x)
    if x == 0:
        raise ValueError("zero has no squarefree part")
    n = abs(x.numerator * x.denominator)
    s = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            s *= d
            n //= d
        d += 1
    s *= n
    return s if x > 0 else -s


def frozen_is_squarefree_int(n):
    """numfield's test: no d^2 with d^2 <= n divides n, no budget."""
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _primes(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


class TestSquarefreePart:
    def test_matches_the_frozen_routines_up_to_20000(self):
        for n in range(1, 20_001):
            s = squarefree_part_of_rational(n)
            assert s == frozen_squarefree_part_of_rational(n), n
            assert squarefree_part_of_rational(-n) == -s
            assert (s == n) == frozen_is_squarefree_int(n), n

    def test_matches_the_frozen_routine_on_seeded_integers_and_fractions(self):
        # the frozen routine runs to sqrt(n), so these stay below 10^9;
        # the cofactors past the cube root are covered below
        rng = random.Random(2301)
        for _ in range(1_000):
            n = rng.randrange(1, 10 ** 9)
            assert squarefree_part_of_rational(n) == frozen_squarefree_part_of_rational(n), n
            x = F(rng.randrange(-10 ** 4, 10 ** 4) or 1, rng.randrange(1, 10 ** 4))
            assert squarefree_part_of_rational(x) == frozen_squarefree_part_of_rational(x), x

    def test_cofactors_past_the_cube_root(self):
        # s q^2 with s squarefree has squarefree part s; large primes put
        # p, p q or p^2 past the cube root where trial division stops
        primes = _primes(2 * 10 ** 5)
        large = [p for p in primes if p > 10 ** 4]
        rng = random.Random(2302)
        checked = 0
        while checked < 600:
            s = math.prod(set(rng.sample(primes[:40], rng.randint(0, 3))
                              + rng.sample(large, rng.randint(0, 2))))
            q = rng.choice([1, rng.choice(primes), rng.choice(large), rng.randint(1, 10 ** 5)])
            if s * q * q >= 10 ** 13:
                continue
            sign = rng.choice((1, -1))
            assert squarefree_part_of_rational(sign * s * q * q) == sign * s, (s, q)
            assert squarefree_part_of_rational(F(sign * s, q * q)) == sign * s, (s, q)
            checked += 1
        for p in large[-5:]:
            assert squarefree_part_of_rational(p ** 3) == p
            assert squarefree_part_of_rational(2 * p ** 2) == 2
            assert squarefree_part_of_rational(3 * p * large[0]) == 3 * p * large[0]

    def test_large_inputs_finish_or_raise_the_budget_error(self):
        # 10^16 + 61 is squarefree (classify42 on N_k prints it); n < 10^18
        # stays inside the budget
        k = 10 ** 16 + 61
        assert squarefree_part_of_rational(4 * k) == k
        assert squarefree_part_of_rational(F(-k, 9)) == -k
        # three primes past 10^6: d^3 <= r holds beyond the budget
        with pytest.raises(SquarefreeBudgetExceeded):
            squarefree_part_of_rational(1_000_003 * 1_000_000_007 * 1_000_000_009)
        with pytest.raises(ValueError):
            squarefree_part_of_rational(0)
