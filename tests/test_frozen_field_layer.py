"""The field layer on kept integer numerators against frozen copies of the
Fraction code it replaced: the product that cleared both factors on every
call, the norm through the rational det, the automorphism image from the
Fraction coordinates, the root path that bisected on Polynomial.eval, and
the unit search over the whole box.  Values must match repr for repr,
enclosures endpoint for endpoint, verdicts and search lists exactly."""

import random
from fractions import Fraction as F
from itertools import combinations_with_replacement, product

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms.catalog import csig_fixture, cyclic_cubic_datum, quartic_z4_datum, sqrt2_datum
from anosovforms.errors import BadEnclosure
from anosovforms.exactmath import Interval, Polynomial
from anosovforms.numfield import (
    FieldElement,
    RootPath,
    apply_automorphism,
    automorphism_matrix,
    biquadratic_datum,
    compare_abs_to_one,
    conjugate_levels,
    refine_until,
    sign_against,
)
from anosovforms.pisot import ConeConstraint, search_unit_pisot, search_units
from anosovforms.serialize import interval_to_json

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
    poly = x.as_polynomial()
    return lambda k: frozen_eval_interval(poly, path.level(k))


def frozen_compare_abs_to_one(x, i):
    if x.is_rational:
        v = abs(x.rational_value())
        return (v > 1) - (v < 1)
    conj = frozen_conjugate_levels(x, i)
    return refine_until(lambda k: sign_against(conj(k).abs(), 1))


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
