"""The field layer on kept integer numerators against frozen copies of the
Fraction code it replaced: the element that kept Fraction coordinates, the
product that cleared both factors on every call, the norm through the rational det, the automorphism image from the
Fraction coordinates, the root path that bisected on Polynomial.eval, the
unit search over the whole box, and the conjugate questions (moduli,
|sigma_i(x)| against 1, the Pisot cone, cone products) asked of Interval
levels by an Interval Horner loop.  Values must match repr for repr,
enclosures endpoint for endpoint, verdicts and search lists exactly."""

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product
from math import lcm

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms.catalog import (
    csig_fixture,
    cubic_pisot_unit,
    cyclic_cubic_datum,
    quartic_z4_datum,
    sqrt2_datum,
)
from anosovforms.errors import BadEnclosure, DatumMismatch, NotIrreducible
from anosovforms.exactmath import Interval, Polynomial, rat_to_str, scaled_charpoly
from anosovforms.numfield import (
    EXACT_TIE_LEVEL,
    FieldElement,
    GaloisDatum,
    RootPath,
    apply_automorphism,
    automorphism_matrix,
    biquadratic_datum,
    compare_abs_to_one,
    conjugate_levels,
    conjugate_modulus_interval,
    refine_until,
)
from anosovforms.pisot import ConeConstraint, in_pisot_cone, search_unit_pisot, search_units
from anosovforms.recipes import biquadratic_pisot_unit
from anosovforms.serialize import interval_to_json
from test_exactmath import interval_abs

P = Polynomial

# ---------------------------------------------------------------------------
# frozen references


def frozen_rows(x):
    """(M, D) of multiplication by x, cleared from the Fraction
    coordinates on every call."""
    (col,), den = fl.clear_denominators([x.coeffs])
    low = [c.numerator if c.denominator == 1 else c for c in x.datum.min_poly.coeffs[:-1]]
    cols = [col]
    for _ in range(len(col) - 1):
        top = col[-1]
        col = [a - top * c for a, c in zip([0] + col[:-1], low)]
        cols.append(col)
    return list(zip(*cols)), den


def frozen_act(datum, pair, x):
    """The old _act: A times x's coordinates cleared afresh, each entry
    divided by D D_X as a Fraction."""
    a, da = pair
    (b,), db = fl.clear_denominators([x.coeffs])
    return FieldElement(datum, tuple(F(u, da * db) for u in fl.mat_vec(a, b)))


def frozen_mul(x, y):
    return frozen_act(x.datum, frozen_rows(x), y)


def frozen_apply(datum, index, x):
    return frozen_act(datum, automorphism_matrix(datum, index), x)


def frozen_norm(x):
    rows, den = frozen_rows(x)
    return fl.det(rows) / den ** x.datum.degree


class FrozenElement:
    """FieldElement as it kept Fraction coordinates: sums, scalar products
    and equality on the Fractions, a product or an inverse on the rows
    cleared from them on every call, its result built back as Fractions."""

    def __init__(self, datum, coeffs):
        if len(coeffs) != datum.degree:
            raise ValueError("coordinate count must equal the field degree")
        self.datum, self.coeffs = datum, tuple(coeffs)

    def _coerce(self, other):
        if isinstance(other, FrozenElement):
            if other.datum is not self.datum and \
                    other.datum.fingerprint() != self.datum.fingerprint():
                raise DatumMismatch("elements of different fields")
            return other
        if isinstance(other, (int, F)):
            return FrozenElement(self.datum, (F(other),) + (F(0),) * (self.datum.degree - 1))
        return None

    @property
    def is_zero(self):
        return not any(self.coeffs)

    @property
    def is_rational(self):
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self):
        if not self.is_rational:
            raise ValueError("element is not rational")
        return self.coeffs[0]

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FrozenElement(self.datum, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FrozenElement(self.datum, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _rows(self):
        rows, den = frozen_rows(self)
        if not self.datum.min_poly.is_integer:
            rows, e = fl.clear_denominators(rows)
            den *= e
        return rows, den

    def __mul__(self, other):
        if isinstance(other, (int, F)):
            return FrozenElement(self.datum, [F(other) * a for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        rows, da = self._rows()
        (b,), db = fl.clear_denominators([o.coeffs])
        return FrozenElement(self.datum, [F(u, da * db) for u in fl.mat_vec(rows, b)])

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        rows, den = self._rows()
        chi = scaled_charpoly(rows, den).nums
        if not chi[0]:
            raise NotIrreducible("minimal polynomial is reducible")
        y, scale = [chi[-1]] + [0] * (len(rows) - 1), 1
        for c in reversed(chi[1:-1]):
            y = fl.mat_vec(rows, y)
            scale *= den
            y[0] += c * scale
        return FrozenElement(self.datum, [F(-v, chi[0] * scale) for v in y])

    def __truediv__(self, other):
        if isinstance(other, (int, F)):
            return self * (1 / F(other))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, (int, F)):
            return self.coeffs[0] == other and not any(self.coeffs[1:])
        return (isinstance(other, FrozenElement)
                and self.datum.fingerprint() == other.datum.fingerprint()
                and self.coeffs == other.coeffs)

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __repr__(self):
        return "FieldElement(" + ", ".join(rat_to_str(c) for c in self.coeffs) + ")"


class FrozenRootPath:
    """RootPath as it bisected: the sign of each midpoint from the
    Fraction value p.eval(mid)."""

    def __init__(self, p, iv):
        flo, fhi = p.eval(iv.lo), p.eval(iv.hi)
        if flo == 0 or fhi == 0 or (flo > 0) == (fhi > 0):
            raise BadEnclosure(f"no sign change of p on [{iv.lo}, {iv.hi}]")
        self.p = p
        self._lo_positive = flo > 0
        self._levels = [iv]

    def level(self, k):
        levels = self._levels
        while len(levels) <= k:
            iv = levels[-1]
            mid = iv.midpoint
            fm = self.p.eval(mid)
            if fm == 0:
                iv = Interval(mid, mid)
            elif (fm > 0) == self._lo_positive:
                iv = Interval(mid, iv.hi)
            else:
                iv = Interval(iv.lo, mid)
            levels.append(iv)
        return levels[k]


def frozen_eval_interval(p, iv):
    acc = Interval.point(0)
    for c in reversed(p.coeffs):
        acc = acc.mul(iv).add(Interval.point(c))
    return acc


def frozen_conjugate_levels(x, i):
    datum = x.datum
    path = FrozenRootPath(datum.min_poly, datum.root_enclosures[datum.root_map[i]])
    poly = Polynomial(x.coeffs)
    return lambda k: frozen_eval_interval(poly, path.level(k))


def sign_against(iv, c):
    """+1 or -1 when iv lies strictly above or below c, 0 when iv is the
    point c, None while iv contains c: the Interval sign the questions
    read."""
    if iv.lo > c:
        return 1
    if iv.hi < c:
        return -1
    return 0 if iv.lo == iv.hi == c else None


def frozen_interval_horner(nums, e, iv):
    """interval_horner as it took an Interval and returned one: the
    endpoints over lcm of iv's reduced denominators, as Fractions."""
    if not nums:
        return Interval.point(0)
    d = lcm(iv.lo.denominator, iv.hi.denominator)
    a = iv.lo.numerator * (d // iv.lo.denominator)
    b = iv.hi.numerator * (d // iv.hi.denominator)
    lo = hi = nums[-1]
    scale = 1
    for c in reversed(nums[:-1]):
        scale *= d
        prods = (lo * a, lo * b, hi * a, hi * b)
        shift = c * scale
        lo, hi = min(prods) + shift, max(prods) + shift
    return Interval(F(lo, e * scale), F(hi, e * scale))


_FROZEN_PATHS = {}


def frozen_levels(x, i):
    """conjugate_levels as it was asked: x's cleared numerators by the
    Interval Horner loop on the Interval levels of the root's path, one
    kept path per root."""
    datum = x.datum
    root = datum.root_map[i]
    key = (id(datum), root)
    if key not in _FROZEN_PATHS:
        _FROZEN_PATHS[key] = (datum, FrozenRootPath(datum.min_poly, datum.root_enclosures[root]))
    path = _FROZEN_PATHS[key][1]
    (nums,), den = fl.clear_denominators([x.coeffs])
    return lambda k: frozen_interval_horner(nums, den, path.level(k))


def frozen_compare_abs_to_one(x, i):
    if x.is_rational:
        v = abs(x.rational_value())
        return (v > 1) - (v < 1)
    conj = frozen_levels(x, i)
    return refine_until(lambda k: sign_against(interval_abs(conj(k)), 1))


def frozen_modulus_interval(x, i, precision):
    if x.is_rational:
        return Interval.point(abs(x.rational_value()))
    conj = frozen_levels(x, i)

    def narrow(k):
        iv = interval_abs(conj(k))
        return iv if iv.width <= precision else None
    return refine_until(narrow)


def frozen_in_pisot_cone(lam):
    datum = lam.datum
    if lam.is_rational:
        return False
    for i in range(datum.degree):
        distinguished = i == datum.identity_index
        if distinguished:
            conj = frozen_levels(lam, i)
            sign = refine_until(lambda k: sign_against(conj(k), 1))
        else:
            sign = frozen_compare_abs_to_one(lam, i)
        if sign != (1 if distinguished else -1):
            return False
    return True


def frozen_sign_on_paths(constraint, lam):
    """ConeConstraint._sign_on_paths on Fraction products of the Interval
    levels."""
    factors = [(frozen_levels(lam, i), c) for i, c in enumerate(constraint.coeffs) if c]

    def product_enclosure(k):
        lo = hi = F(1)
        for levels, c in factors:
            iv = interval_abs(levels(k))
            if c < 0:
                if not iv.lo:
                    return None
                iv, c = Interval(1 / iv.hi, 1 / iv.lo), -c
            lo *= iv.lo ** c
            hi *= iv.hi ** c
        return Interval(lo, hi)

    def test(k):
        iv = product_enclosure(k)
        sign = None if iv is None else sign_against(iv, 1)
        if sign is None and k == EXACT_TIE_LEVEL:
            mu = constraint._product(lam)
            if mu == 1 or mu == -1:
                return 0
        return sign
    return refine_until(test)


def frozen_search_units(datum, height_bound, power_bound=1, constraints=()):
    """search_units over the whole box, with the frozen norm and product."""
    units = []
    for vec in product(range(-height_bound, height_bound + 1), repeat=datum.degree):
        if all(v == 0 for v in vec):
            continue
        x = datum.element(vec)
        if abs(frozen_norm(x)) == 1:
            units.append(x)
    seen = {u.coeffs: u for u in units}
    for u in units:
        acc = u
        for _ in range(2, power_bound + 1):
            acc = frozen_mul(acc, u)
            seen.setdefault(acc.coeffs, acc)
    for a, b in combinations_with_replacement(list(seen.values()), 2):
        ab = frozen_mul(a, b)
        seen.setdefault(ab.coeffs, ab)
    one = datum.one()
    out = [u for u in seen.values() if u != one and u != -one
           and all(c.holds_for(u) for c in constraints)]
    out.sort(key=lambda u: (u.trace(), u.coeffs))
    return out


# ---------------------------------------------------------------------------
# data

FIELDS = {
    "sqrt2": sqrt2_datum(),
    "cubic": cyclic_cubic_datum(),
    "quartic": quartic_z4_datum(),
    "csig": csig_fixture()[0],
    "biquad52": biquadratic_datum(5, 2),
    "biquad226": biquadratic_datum(2, 26),
}


def seeded_elements(name, count=12):
    """Seeded elements with denominators, integral ones, zero, rationals
    and theta."""
    datum = FIELDS[name]
    rng = random.Random(name)
    fracs = [F(1, 2), F(-3, 7), F(5, 6), F(2), F(0), F(-1, 9), F(4, 3), F(-5)]
    out = [datum.element([rng.choice(fracs) for _ in range(datum.degree)]) for _ in range(count)]
    out += [datum.element([rng.randint(-3, 3) for _ in range(datum.degree)]) for _ in range(4)]
    out += [datum.zero(), datum.one(), -datum.one(), datum.element([F(-7, 3)]),
            datum.generator()]
    return out


def _kept_form_is_cleared(x):
    """The cleared form an element was created with is what
    clear_denominators returns on its reduced coordinates."""
    (nums,), den = fl.clear_denominators([x.coeffs])
    return x._cleared() == (tuple(nums), den)


# ---------------------------------------------------------------------------
# element arithmetic


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_products_match_the_fraction_product(name):
    elements = seeded_elements(name)
    for x in elements:
        for y in elements:
            got = x * y
            assert repr(got) == repr(frozen_mul(x, y))
            assert _kept_form_is_cleared(got)
            assert all(type(c) is F for c in got.coeffs)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_norms_match_the_rational_det(name):
    for x in seeded_elements(name):
        got = x.norm()
        assert type(got) is F and repr(got) == repr(frozen_norm(x))
        assert repr((x * x).norm()) == repr(frozen_norm(frozen_mul(x, x)))


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_automorphism_images_match_the_fraction_path(name):
    datum = FIELDS[name]
    for x in seeded_elements(name):
        for i in range(datum.degree):
            got = apply_automorphism(datum, i, x)
            assert repr(got) == repr(frozen_apply(datum, i, x))
            assert _kept_form_is_cleared(got)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_inverses_keep_their_cleared_form(name):
    for x in seeded_elements(name):
        if x.is_zero:
            continue
        inv = x.inverse()
        assert _kept_form_is_cleared(inv)
        assert repr(frozen_mul(x, inv)) == repr(x.datum.one())


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_negated_and_summed_elements_clear_on_first_use(name):
    elements = seeded_elements(name)
    for x, y in zip(elements, elements[1:]):
        for z in (-x, x + y, x - y, x * F(-2, 3)):
            assert _kept_form_is_cleared(z)
            assert repr(z * y) == repr(frozen_mul(z, y))


# an unverified datum whose monic p is not integral: X^3 - 3/4 X + 1/2,
# irreducible (no rational root), its multiplication rows cleared twice
UNVERIFIED = GaloisDatum(min_poly=P([F(1, 2), F(-3, 4), 0, 1]), automorphisms=(),
                         identity_index=0, table=None)


def integer_pairs(datum, name):
    """Seeded (numerators, denominator) inputs, negative denominators
    among them, and the Fraction coordinates of the seeded elements."""
    rng = random.Random("pairs" + name)
    d = datum.degree
    pairs = [(tuple(rng.randint(-9, 9) for _ in range(d)), rng.choice([1, 2, -3, 6, -7, 12]))
             for _ in range(8)]
    pairs += [((0,) * d, -5), ((4,) + (0,) * (d - 1), -6), ((1, -1) + (0,) * (d - 2), 1)]
    fracs = [F(1, 2), F(-3, 7), F(5, 6), F(2), F(0), F(-1, 9)]
    pairs += [(tuple(rng.choice(fracs) for _ in range(d)), 1) for _ in range(4)]
    return pairs + [((F(-7, 3),) + (0,) * (d - 1), 1)]


def _element_pair(datum, nums, den):
    return FieldElement(datum, nums, den), FrozenElement(datum, [F(u) / den for u in nums])


@pytest.mark.parametrize("name", sorted(FIELDS) + ["unverified"])
def test_elements_match_the_fraction_coordinate_element(name):
    datum = UNVERIFIED if name == "unverified" else FIELDS[name]
    pairs = [_element_pair(datum, nums, den) for nums, den in integer_pairs(datum, name)]
    pairs.append((datum.generator(), FrozenElement(datum, datum.generator().coeffs)))
    assert any(x.is_zero for x, _ in pairs) and any(x.is_rational and x for x, _ in pairs)
    # -7/3 equals a seeded rational, -2/5 shares the numerator of -2/3
    scalars = [0, 3, -1, F(1, 2), F(-5, 6), F(-7, 3), F(-2, 5)]
    for x, fx in pairs:
        assert repr(x) == repr(fx) and x.coeffs == fx.coeffs
        assert x.is_zero == fx.is_zero and x.is_rational == fx.is_rational
        assert _outcome(x.rational_value) == _outcome(fx.rational_value)
        assert _outcome(x.inverse) == _outcome(fx.inverse)
        assert repr(-x) == repr(-fx)
        if x.is_rational:
            assert hash(x) == hash(fx) == hash(x.rational_value())
        for c in scalars:
            for op in (lambda a: a + c, lambda a: c + a, lambda a: a - c, lambda a: c - a,
                       lambda a: a * c, lambda a: c * a, lambda a: a / c, lambda a: c / a):
                assert _outcome(op, x) == _outcome(op, fx)
            assert (x == c) == (fx == c) and (x != c) == (fx != c)
        assert (x == 0.5) is (fx == 0.5) is False
        for y, fy in pairs:
            for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                       lambda a, b: a / b):
                assert _outcome(op, x, y) == _outcome(op, fx, fy)
            assert (x == y) == (fx == fy)
            if x == y:
                assert hash(x) == hash(y)


def test_elements_of_other_fields_mismatch_alike():
    x, fx = _element_pair(FIELDS["sqrt2"], (1, 1), 2)
    y, fy = _element_pair(FIELDS["quartic"], (1, 0, 0, 1), 1)
    for op in (lambda a, b: a + b, lambda a, b: a * b, lambda a, b: a - b):
        assert _outcome(op, x, y) == _outcome(op, fx, fy) == DatumMismatch
    assert (x == y) is (fx == fy) is False


@pytest.mark.parametrize("name", sorted(FIELDS) + ["unverified"])
def test_element_arithmetic_builds_no_fraction(name, monkeypatch):
    datum = UNVERIFIED if name == "unverified" else FIELDS[name]
    d = datum.degree
    x = FieldElement(datum, tuple(range(1, d + 1)), 6)
    y = FieldElement(datum, tuple(range(d, 0, -1)), -35)
    half = F(1, 2)
    built = []
    real = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
    z = -(x + y) - x + 1
    w = (x * y) * half / 3 + z * z
    v = w.inverse() * x ** 2 - 1
    images = [apply_automorphism(datum, i, v) for i in range(d)] if datum.verified else []
    assert built == [] and v and not v.is_rational and v != half
    assert all(len(u.nums) == d for u in images)
    # the Fraction view is built on first read, and kept
    assert len(v.coeffs) == d and len(built) == d
    assert v.coeffs is v.coeffs and len(built) == d


# ---------------------------------------------------------------------------
# root paths, enclosures and verdicts


_PATH_CASES = [(FIELDS[n].min_poly, iv) for n in ("sqrt2", "cubic", "quartic", "csig", "biquad52")
               for iv in FIELDS[n].root_enclosures]
_PATH_CASES += [
    (P([-2, 0, 1]), Interval(F(1), F(2))),
    (P([F(-2, 3), 0, F(1, 3)]), Interval(F(-2), F(-1))),
    (P([-1, 2]), Interval(F(0), F(1))),             # the first midpoint is the root
    (P([-3, 8]), Interval(F(0), F(1))),             # a dyadic root at level 3
    (P([F(1, 5), F(-7, 2), 0, 1]), Interval(F(0), F(1, 10))),
]


@pytest.mark.parametrize("p, iv", _PATH_CASES)
def test_root_path_levels_match_the_fraction_bisection(p, iv):
    got, want = RootPath(p, iv), FrozenRootPath(p, iv)
    for k in (0, 1, 2, 3, 4, 9, 16, 40, 64):
        assert interval_to_json(got.level(k)) == interval_to_json(want.level(k))


@pytest.mark.parametrize("p, iv", [
    (P([-2, 0, 1]), Interval(F(2), F(3))),
    (P([-2, 0, 1]), Interval(F(-2), F(2))),
    (P([-1, 2]), Interval(F(1, 2), F(1))),
    (P([]), Interval(F(0), F(1))),
])
def test_root_path_rejects_what_the_fraction_path_rejects(p, iv):
    for path in (RootPath, FrozenRootPath):
        with pytest.raises(BadEnclosure):
            path(p, iv)


@pytest.mark.parametrize("name", ["sqrt2", "cubic", "quartic", "csig", "biquad52"])
def test_enclosures_and_verdicts_match(name):
    datum = FIELDS[name]
    for x in seeded_elements(name):
        for i in range(datum.degree):
            assert compare_abs_to_one(x, i) == frozen_compare_abs_to_one(x, i)
            if x.is_rational:
                continue
            got, want = conjugate_levels(x, i), frozen_conjugate_levels(x, i)
            for k in (0, 4, 8, 16, 32):
                assert interval_to_json(got(k)) == interval_to_json(want(k))


# ---------------------------------------------------------------------------
# conjugate questions on integer enclosures

_QUESTION_FIELDS = ["sqrt2", "cubic", "quartic", "biquad52", "biquad226"]


def _unit(name):
    datum = FIELDS[name]
    if name == "sqrt2":
        return datum.element([1, 1])
    if name == "cubic":
        return cubic_pisot_unit(datum)
    if name == "quartic":
        return csig_fixture()[1]
    k, l = {"biquad52": (5, 2), "biquad226": (2, 26)}[name]
    return biquadratic_pisot_unit(datum, k, l)


def question_elements(name):
    """The seeded elements (rationals among them), the unit, its inverse
    and square, and theta - lo for each root enclosure [lo, hi], whose
    conjugate at that root has a level-0 enclosure touching 0."""
    datum = FIELDS[name]
    theta = datum.generator()
    u = _unit(name)
    return (seeded_elements(name) + [u, u.inverse(), u * u]
            + [theta - iv.lo for iv in datum.root_enclosures])


def question_cones(name):
    """Seeded exponent vectors in [-2, 2]^d, negative ones among them, the
    all-ones vector (the norm) and the all-minus-ones vector."""
    d = FIELDS[name].degree
    rng = random.Random("cone" + name)
    cones = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(6)]
    return cones + [(1,) * d, (-1,) * d]


def _outcome(fn, *args):
    """repr of a value, the error type of a reject."""
    try:
        return repr(fn(*args))
    except Exception as e:  # noqa: BLE001 - the type is the verdict
        return type(e)


@pytest.mark.parametrize("name", _QUESTION_FIELDS)
def test_root_path_levels_match_the_interval_path(name):
    datum = FIELDS[name]
    for root, iv in enumerate(datum.root_enclosures):
        got, want = RootPath(datum.min_poly, iv), FrozenRootPath(datum.min_poly, iv)
        for k in (0, 1, 2, 5, 16, 33, 64, 100):
            assert repr(got.level(k)) == repr(want.level(k))
            a, b, q = got.numerators(k)
            assert q > 0 and (F(a, q), F(b, q)) == (want.level(k).lo, want.level(k).hi)
        assert got.level(100) == datum._paths[root].level(100)


def test_midpoint_root_path_and_its_questions():
    # the first midpoint of [0, 1] is the root of 2X - 1: every later level
    # is the point 1/2, kept as (m, m, 2q)
    got = RootPath(P([-1, 2]), Interval(F(0), F(1)))
    want = FrozenRootPath(P([-1, 2]), Interval(F(0), F(1)))
    polys = [P([F(-1, 2), 1]), P([1, -3, F(5, 7)]), P([F(-1, 4), 0, 1]), P([3])]
    for k in range(0, 41):
        assert repr(got.level(k)) == repr(want.level(k))
        a, b, q = got.numerators(k)
        if k:
            assert a == b and got.level(k) == Interval.point(F(1, 2))
        for p in polys:
            (nums,), e = fl.clear_denominators([p.coeffs])
            assert repr(p.eval_interval(got.level(k))) == \
                repr(frozen_interval_horner(nums, e, want.level(k)))


@pytest.mark.parametrize("name", _QUESTION_FIELDS)
def test_moduli_and_verdicts_match_the_interval_questions(name):
    datum = FIELDS[name]
    elements = question_elements(name)
    assert any(x.is_rational for x in elements)
    for x in elements:
        for i in range(datum.degree):
            assert compare_abs_to_one(x, i) == frozen_compare_abs_to_one(x, i)
            for precision in (F(1, 4), F(1, 10 ** 6), F(1, 10 ** 30)):
                got = conjugate_modulus_interval(x, i, precision)
                assert repr(got) == repr(frozen_modulus_interval(x, i, precision))
            if not x.is_rational:
                assert repr(conjugate_levels(x, i)(4)) == repr(frozen_levels(x, i)(4))
        assert _outcome(in_pisot_cone, x) == _outcome(frozen_in_pisot_cone, x)
    assert in_pisot_cone(_unit(name)) and frozen_in_pisot_cone(_unit(name))


@pytest.mark.parametrize("name", _QUESTION_FIELDS)
def test_cone_products_match_the_fraction_products(name):
    datum = FIELDS[name]
    touched = 0
    for x in question_elements(name):
        for coeffs in question_cones(name):
            cone = ConeConstraint(coeffs, "<1")
            got = _outcome(cone._sign_on_paths, x)
            assert got == _outcome(frozen_sign_on_paths, cone, x)
            touched += any(c < 0 and interval_abs(frozen_levels(x, i)(0)).lo == 0
                           for i, c in enumerate(coeffs))
    # a negative exponent on an enclosure that touches 0 at level 0 waits
    # for a level that excludes 0
    assert touched > 0
    # the norm of a unit is +-1: the product encloses 1 at every level and
    # the exact tie test answers
    assert ConeConstraint((1,) * datum.degree)._sign_on_paths(_unit(name)) == 0


def test_compare_abs_to_one_builds_no_interval(monkeypatch):
    # a fresh datum, so the questions bisect its paths under the count
    datum = quartic_z4_datum.__wrapped__()
    xs = [datum.generator(), datum.element([0, -1, -1, 1]),
          datum.element([F(1, 2), 3, 0, F(-1, 3)]), datum.element([F(-9, 10), 1, 0, 0])]
    want = [frozen_compare_abs_to_one(x, i) for x in xs for i in range(datum.degree)]
    built = []
    post_init = Interval.__post_init__
    monkeypatch.setattr(Interval, "__post_init__", lambda iv: built.append(iv) or post_init(iv))
    got = [compare_abs_to_one(x, i) for x in xs for i in range(datum.degree)]
    assert got == want
    assert built == []
    Interval(F(0), F(1))
    assert len(built) == 1


# ---------------------------------------------------------------------------
# the unit search on half the box

_CONE = ConeConstraint((1, 0, 2, 0), "<1")
# the four benchmark boxes and the quartic h=3 box
_BOXES = [("sqrt2", 2), ("cubic", 2), ("quartic", 1), ("quartic", 2), ("quartic", 3)]


@pytest.mark.parametrize("name, height", _BOXES)
def test_search_units_matches_the_full_box(name, height):
    datum = FIELDS[name]
    cones = [()] + ([(_CONE,)] if datum.degree == 4 else [])
    for constraints in cones:
        got = search_units(datum, height, constraints=list(constraints))
        want = frozen_search_units(datum, height, constraints=constraints)
        assert [repr(u) for u in got] == [repr(u) for u in want]


@pytest.mark.parametrize("name, height", [("sqrt2", 2), ("cubic", 1), ("quartic", 1),
                                          ("biquad52", 1)])
def test_search_units_with_powers_matches_the_full_box(name, height):
    datum = FIELDS[name]
    got = search_units(datum, height, power_bound=3)
    assert [repr(u) for u in got] == \
        [repr(u) for u in frozen_search_units(datum, height, power_bound=3)]


def test_warm_quartic_search_clears_each_element_once(monkeypatch):
    # the full-box Fraction path cleared 6,680 times here
    datum = FIELDS["quartic"]
    search_unit_pisot(datum, 2, extra_constraints=[_CONE])
    calls = []
    real = fl.clear_denominators
    monkeypatch.setattr(fl, "clear_denominators", lambda rows: calls.append(1) or real(rows))
    found = search_unit_pisot(datum, 2, extra_constraints=[_CONE])
    assert len(found) == 29
    assert len(calls) < 500
