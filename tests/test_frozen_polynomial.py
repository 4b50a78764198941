"""Polynomial on integer numerators against a frozen copy of the Fraction
Polynomial and the Fraction remainder chain it replaced.

FrozenPolynomial below keeps its coefficients as reduced Fractions and
divides by the Fraction loop; the frozen chain is the signed remainder
sequence a, b, -(a mod b), ... over Q.  The integer code must match it
repr for repr (arithmetic, division, evaluation, normal forms, gcd) and
verdict for verdict (root counts and their errors).  Its chain is the
primitive one: every term must be a positive rational multiple of the
frozen term, which keeps degrees, signs and the Cauchy index.
"""

import random
from fractions import Fraction as F
from functools import partial

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms import recipes
from anosovforms.catalog import cubic_pisot_unit, cyclic_cubic_datum, sqrt2_datum
from anosovforms.errors import EndpointIsRoot, OddWindingIndex, RootOnCircle, ZeroPolynomial
from anosovforms.exactmath import (
    Interval,
    Polynomial,
    _boundary_chain,
    _circle_split,
    _remainder_chain,
    count_real_roots,
    count_roots_inside_unit_disk,
    count_roots_on_unit_circle,
    interval_horner,
    poly_gcd,
    rat,
    rat_to_str,
    sturm_count,
)
from anosovforms.liealg import Grading, heisenberg

# ---------------------------------------------------------------------------
# the frozen code
# ---------------------------------------------------------------------------


class FrozenPolynomial:
    """The Polynomial over reduced Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else F(0)

    @property
    def leading(self):
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self):
        return self[0]

    def __add__(self, other):
        other = _as_frozen(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return FrozenPolynomial(self[i] + other[i] for i in range(n))

    def __neg__(self):
        return FrozenPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-_as_frozen(other))

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return FrozenPolynomial(rat(other) * c for c in self.coeffs)
        other = _as_frozen(other)
        if self.is_zero or other.is_zero:
            return FrozenPolynomial()
        (a,), da = fl.clear_denominators([self.coeffs])
        (b,), db = fl.clear_denominators([other.coeffs])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        den = da * db
        return FrozenPolynomial(F(c, den) for c in out)

    def __pow__(self, e):
        r = FrozenPolynomial((1,))
        for _ in range(e):
            r = r * self
        return r

    def __divmod__(self, other):
        den = _as_frozen(other)
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [F(0)] * max(len(self.coeffs) - len(den.coeffs) + 1, 1)
        rem = list(self.coeffs)
        dd, dl = den.degree, den.leading
        while len(rem) - 1 >= dd:
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - 1 - dd
            c = rem[-1] / dl
            q[shift] += c
            for i, dc in enumerate(den.coeffs):
                rem[shift + i] -= c * dc
            rem.pop()
        return FrozenPolynomial(q), FrozenPolynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_to_str(c))
            else:
                mono = "X" if i == 1 else f"X^{i}"
                terms.append(mono if c == 1 else f"{rat_to_str(c)}*{mono}")
        return "Polynomial(" + " + ".join(terms) + ")"

    def derivative(self):
        return FrozenPolynomial(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def eval(self, x):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, iv):
        (nums,), e = fl.clear_denominators([self.coeffs])
        return Interval.from_numerators(*interval_horner(nums, e, iv.numerators()))

    def monic(self):
        if self.is_zero:
            return self
        lead = self.leading
        return self if lead == 1 else FrozenPolynomial(c / lead for c in self.coeffs)

    def reciprocal(self):
        if self.is_zero:
            raise ZeroPolynomial("reciprocal of the zero polynomial")
        return FrozenPolynomial(reversed(self.coeffs))

    def squarefree_part(self):
        if self.degree <= 0:
            return self.monic()
        return (self // frozen_poly_gcd(self, self.derivative())).monic()


def _as_frozen(x):
    return x if isinstance(x, FrozenPolynomial) else FrozenPolynomial((x,))


def frozen_poly_gcd(p, q):
    return frozen_remainder_chain(p, q)[-1].monic()


def frozen_remainder_chain(a, b):
    chain = [a, b]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def frozen_sign_changes(vals):
    signs = [v > 0 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def frozen_sturm_count(p, interval):
    a, b = rat(interval[0]), rat(interval[1])
    if a > b:
        raise ValueError("empty interval")
    if p.is_zero:
        raise ZeroPolynomial("sturm_count of the zero polynomial")
    if p.eval(a) == 0 or p.eval(b) == 0:
        raise EndpointIsRoot(f"polynomial vanishes at an endpoint of ({a}, {b})")
    chain = frozen_remainder_chain(p, p.derivative())
    return (frozen_sign_changes(q.eval(a) for q in chain)
            - frozen_sign_changes(q.eval(b) for q in chain))


def frozen_chain_index(chain):
    at_pos = frozen_sign_changes(q.leading for q in chain if not q.is_zero)
    at_neg = frozen_sign_changes(q.leading * (-1) ** q.degree for q in chain if not q.is_zero)
    return at_neg - at_pos


def frozen_boundary_chain(p):
    f = [p.leading]
    w = [1]
    for a in reversed(p.coeffs[:-1]):
        w = [x - y for x, y in zip(w + [0], [0] + w)]
        f = [x + y + a * z for x, y, z in zip(f + [0], [0] + f, w)]
    sign = (1, 1, -1, -1)
    re = FrozenPolynomial(sign[j % 4] * c if j % 2 == 0 else 0 for j, c in enumerate(f))
    im = FrozenPolynomial(sign[j % 4] * c if j % 2 else 0 for j, c in enumerate(f))
    if p.degree % 2 == 0:
        return frozen_remainder_chain(re, im)
    return frozen_remainder_chain(im, re)


def frozen_count_real_roots(p):
    if p.is_zero:
        raise ZeroPolynomial("count_real_roots of the zero polynomial")
    return frozen_chain_index(frozen_remainder_chain(p, p.derivative()))


def frozen_circle_split(p):
    chain = frozen_boundary_chain(p)
    on = int(p.eval(-1) == 0)
    if chain[-1].degree > 0:
        on += frozen_count_real_roots(chain[-1])
    if on:
        return on, None
    n = p.degree
    index = frozen_chain_index(chain)
    twice = n - index if n % 2 == 0 else n + index
    if twice % 2:
        raise OddWindingIndex("odd winding index over a closed curve")
    return 0, twice // 2


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except Exception as e:
        return type(e).__name__


def assert_positive_multiples(chain, frozen):
    """Each integer term is c times the frozen term for a rational c > 0."""
    assert len(chain) == len(frozen)
    for t, f in zip(chain, frozen):
        assert len(t) == len(f.coeffs)
        if t:
            c = F(t[-1]) / f.leading
            assert c > 0 and all(F(x) == c * y for x, y in zip(t, f.coeffs))


def assert_same_polynomial(p, f):
    assert repr(p) == repr(f)
    assert p.coeffs == f.coeffs and all(type(c) is F for c in p.coeffs)
    assert Polynomial(f.coeffs) == p and (p.nums, p.den) == _cleared(f)


def _cleared(f):
    (nums,), den = fl.clear_denominators([f.coeffs])
    return tuple(nums), den


def assert_same_counts(p, f):
    """Root counts and their errors, and the chains they read."""
    assert _outcome(count_real_roots, p) == _outcome(frozen_count_real_roots, f)
    if p.is_zero:
        return
    assert_positive_multiples(_remainder_chain(p.nums, p.derivative().nums),
                              frozen_remainder_chain(f, f.derivative()))
    assert_positive_multiples(_boundary_chain(p), frozen_boundary_chain(f))
    split = frozen_circle_split(f)
    assert _circle_split(p) == split
    assert count_roots_on_unit_circle(p) == split[0]
    if split[1] is None:
        with pytest.raises(RootOnCircle):
            count_roots_inside_unit_disk(p)
    else:
        assert count_roots_inside_unit_disk(p) == split[1]


CIRCLE_FACTORS = ([-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1], [1, 1, 1, 1, 1])


def seeded_polys(rng, count):
    """Seeded rational polynomials: zero and constants, products of small
    rational factors with multiplicities up to 3, X - 1, X + 1 and
    cyclotomic factors, roots at zero, and rational scales."""
    yield from (Polynomial([]), Polynomial([F(-3, 7)]), Polynomial([1]), Polynomial([0, 1]))
    for _ in range(count):
        p = Polynomial([F(rng.randint(-9, 9) or 1, rng.randint(1, 12))])
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.35:
                factor = Polynomial(rng.choice(CIRCLE_FACTORS))
            else:
                factor = Polynomial([F(rng.randint(-6, 6), rng.randint(1, 5))
                                     for _ in range(rng.randint(2, 4))])
            if factor.degree >= 1:
                p = p * factor ** rng.randint(1, 3)
        if rng.random() < 0.2:
            p = p * Polynomial([0, 1]) ** rng.randint(1, 2)
        if rng.random() < 0.1:
            p = Polynomial([rng.randint(-3, 3)])
        yield p


def _frozen(p):
    return FrozenPolynomial(p.coeffs)


def test_arithmetic_and_normal_forms_match_frozen():
    rng = random.Random(2701)
    polys = list(seeded_polys(rng, 400))
    for p, q in zip(polys, polys[7:] + polys[:7]):
        fp, fq = _frozen(p), _frozen(q)
        assert_same_polynomial(p, fp)
        for got, want in ((p + q, fp + fq), (p - q, fp - fq), (p * q, fp * fq),
                          (-p, -fp), (p * F(-5, 3), fp * F(-5, 3)), (p + 2, fp + 2),
                          (p ** 2, fp ** 2), (p.monic(), fp.monic()),
                          (p.derivative(), fp.derivative()),
                          (p.squarefree_part(), fp.squarefree_part())):
            assert_same_polynomial(got, want)
        assert _outcome(divmod, p, q) == _outcome(divmod, fp, fq)
        assert _outcome(divmod, p * q + p, q) == _outcome(divmod, fp * fq + fp, fq)
        assert _outcome(Polynomial.reciprocal, p) == _outcome(FrozenPolynomial.reciprocal, fp)
        assert repr(poly_gcd(p, q)) == repr(frozen_poly_gcd(fp, fq))
        assert repr(poly_gcd(p * q, q)) == repr(frozen_poly_gcd(fp * fq, fq))
        for x in (0, 1, -1, F(rng.randint(-20, 20), rng.randint(1, 9))):
            assert p.eval(x) == fp.eval(F(x)) and type(p.eval(x)) is F
        lo = F(rng.randint(-20, 20), rng.randint(1, 9))
        iv = Interval(lo, lo + F(rng.randint(0, 9), rng.randint(1, 9)))
        assert p.eval_interval(iv) == fp.eval_interval(iv)


def test_division_by_zero_and_constants():
    p = Polynomial([1, F(1, 2), 3])
    with pytest.raises(ZeroDivisionError):
        divmod(p, Polynomial([]))
    for c in (F(-2, 3), 5):
        q, r = divmod(p, Polynomial([c]))
        fq, fr = divmod(_frozen(p), FrozenPolynomial([c]))
        assert (repr(q), repr(r)) == (repr(fq), repr(fr))
    q, r = divmod(Polynomial([]), p)
    assert q.is_zero and r.is_zero


def test_root_counts_match_frozen():
    rng = random.Random(2702)
    for p in seeded_polys(rng, 500):
        f = _frozen(p)
        assert_same_counts(p, f)
        for a, b in ((-2, 2), (F(-1, 3), F(5, 2)), (0, 1), (1, 1)):
            assert _outcome(sturm_count, p, (a, b)) == _outcome(frozen_sturm_count, f, (a, b))


def test_zero_polynomial_errors_match_frozen():
    zero = Polynomial([])
    for count in (count_real_roots, count_roots_on_unit_circle, count_roots_inside_unit_disk):
        with pytest.raises(ZeroPolynomial):
            count(zero)
    with pytest.raises(ZeroPolynomial):
        sturm_count(zero, (0, 1))
    assert poly_gcd(zero, zero).is_zero
    assert repr(poly_gcd(zero, Polynomial([0, F(-2, 3)]))) == "Polynomial(X)"


def _last(c):
    datum = cyclic_cubic_datum()
    return recipes.recipe_last(datum, cubic_pisot_unit(datum), c)


# every recipe op of the three bench workloads; certify_dense runs the
# recipe outputs in dense bases, with perturbed and non-hyperbolic maps
WORKLOAD_RECIPES = {
    "z4": recipes.recipe_z4_example,
    **{f"sweep{k},{l}": partial(recipes.recipe_count, k, l)
       for k, l in ((2, 3), (3, 2), (5, 2), (6, 5), (7, 2), (10, 3), (11, 2))},
    **{f"csig{c}": partial(recipes.recipe_csig_default, c) for c in (2, 3, 4)},
    **{f"last{c}": partial(_last, c) for c in (2, 3, 4, 5, 6)},
    "laur": lambda: recipes.recipe_laur(heisenberg(), Grading((2, 1)), sqrt2_datum(),
                                        sqrt2_datum().element((1, 1))),
}


def _dense_cases(seed):
    # imported here: test_frozen_descent_checks imports test_exactmath,
    # which imports this module
    from test_frozen_descent_checks import _dense_cases

    return _dense_cases(seed)


def _recipe_charpolys():
    for name, build in WORKLOAD_RECIPES.items():
        out = build()
        yield name, out.matrix.charpoly()
    for kind, _algebra, m in _dense_cases(1):
        yield f"dense/{kind}", m.charpoly()


def test_workload_charpolys_match_frozen():
    names = []
    for name, p in _recipe_charpolys():
        names.append(name)
        f = FrozenPolynomial(p.coeffs)
        assert_same_polynomial(p, f)
        assert_same_counts(p, f)
        assert repr(p.squarefree_part()) == repr(f.squarefree_part()), name
    assert len(names) == len(WORKLOAD_RECIPES) + sum(1 for _ in _dense_cases(1))


def test_constant_polynomials_hash_like_their_values():
    # equal values hash alike: a set holds one of them, a dict finds either
    for p, v in ((Polynomial([3]), 3), (Polynomial([]), 0), (Polynomial([F(-1, 2)]), F(-1, 2))):
        assert p == v and hash(p) == hash(v)
        assert len({p, v}) == 1 and {v: "a"}.get(p) == "a"
    p = Polynomial([1, F(1, 2)])
    assert hash(p) == hash(Polynomial.from_numerators((2, 1), 2))


def test_from_numerators_is_the_canonical_form():
    p = Polynomial.from_numerators((6, -4, 2, 0, 0), -4)
    assert (p.nums, p.den) == ((-3, 2, -1), 2)
    assert p == Polynomial([F(-3, 2), 1, F(-1, 2)])
    assert Polynomial.from_numerators((0, 0), 7).nums == () and Polynomial([]).den == 1


def test_a_polynomial_is_not_iterable():
    # __getitem__ answers 0 past the degree, so iteration would never stop
    with pytest.raises(TypeError):
        list(Polynomial([1, 2]))
