"""The unit search on integer kernels against frozen copies of the code it
replaced: interval Horner on Interval arithmetic, the field product and
multiplication matrix by reduction modulo the minimal polynomial, the norm
as a Fraction determinant, the unit test through the squarefree part of
the Hessenberg characteristic polynomial, the inverse by the extended
Euclidean algorithm, compare_abs_to_one through the conjugate element,
the cone check through the product formed as one field element, and the
unit test, minimal polynomial and inverse on a fresh kernel run per call
against the element's kept charpoly.  Endpoints, values and verdicts
must be identical, and the cone verdicts must not depend on the level of
the exact tie test."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovforms import _fieldlinalg as fl
from anosovforms import numfield
from anosovforms.catalog import (
    CSIG_N2_UNIT_COORDS,
    cyclic_cubic_datum,
    quartic_z4_datum,
    sqrt2_datum,
)
from anosovforms.errors import BadParameters, NotIrreducible, PrecisionUnreachable
from anosovforms.exactmath import Interval, Polynomial, RationalMatrix
from anosovforms.numfield import (
    DEFAULT_REFINE_STEPS,
    FieldElement,
    GaloisDatum,
    apply_automorphism,
    biquadratic_datum,
    compare_abs_to_one,
    conjugate_modulus_interval,
    is_algebraic_unit,
    minimal_polynomial,
    refine_until,
    verify_galois_datum,
)
from anosovforms.pisot import ConeConstraint, search_unit_pisot, search_units
from anosovforms.recipes import biquadratic_pisot_unit
from test_exactmath import interval_abs, poly_xgcd, ref_charpoly
from test_fieldlinalg import multiplication_matrix, ref_det
from test_frozen_field_layer import sign_against

# ---------------------------------------------------------------------------
# frozen references


def ref_eval_interval(p, iv):
    acc = Interval.point(0)
    for c in reversed(p.coeffs):
        acc = acc.mul(iv).add(Interval.point(c))
    return acc


def ref_theta_power_rows(datum):
    d = datum.degree
    cur = [-c for c in datum.min_poly.coeffs[:-1]]
    rows = [tuple(cur)]
    for _ in range(max(d - 2, 0)):
        top = cur[-1]
        cur = [F(0)] + cur[:-1]
        if top:
            cur = [a + top * b for a, b in zip(cur, rows[0])]
        rows.append(tuple(cur))
    return rows


def ref_reduce_coeffs(datum, cs):
    d = datum.degree
    out = list(cs[:d]) + [F(0)] * max(0, d - len(cs))
    rows = ref_theta_power_rows(datum)
    for k in range(d, len(cs)):
        c = cs[k]
        if c:
            out = [a + c * b for a, b in zip(out, rows[k - d])]
    return tuple(out)


def ref_mul(x, y):
    d = x.datum.degree
    conv = [F(0)] * (2 * d - 1)
    for i, a in enumerate(x.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(y.coeffs):
            if b:
                conv[i + j] += a * b
    return FieldElement(x.datum, ref_reduce_coeffs(x.datum, conv))


def ref_pow(x, e):
    base = x.inverse() if e < 0 else x
    acc = x.datum.one()
    for _ in range(abs(e)):
        acc = ref_mul(acc, base)
    return acc


def ref_multiplication_matrix(x):
    d = x.datum.degree
    col = list(x.coeffs)
    cols = [col]
    for _ in range(d - 1):
        col = list(ref_reduce_coeffs(x.datum, [F(0)] + col))
        cols.append(col)
    return RationalMatrix([[cols[j][i] for j in range(d)] for i in range(d)])


def ref_norm(x):
    return ref_det(ref_multiplication_matrix(x).entries)


def ref_is_algebraic_unit(x):
    mp = ref_charpoly(ref_multiplication_matrix(x)).squarefree_part()
    return mp.is_integer and abs(mp.constant) == 1


def ref_inverse(x):
    if x.is_zero:
        raise ZeroDivisionError("inverse of zero field element")
    g, s, _ = poly_xgcd(Polynomial(x.coeffs), x.datum.min_poly)
    if g.degree != 0:
        raise NotIrreducible("minimal polynomial is reducible")
    return x.datum.element((s * (1 / g.constant) % x.datum.min_poly).coeffs)


def ref_compare_abs_to_one(x, i):
    datum = x.datum
    sx = apply_automorphism(datum, i, x)
    if sx.is_rational:
        v = abs(sx.rational_value())
        return (v > 1) - (v < 1)
    if not datum.totally_real:
        sign = sign_against(conjugate_modulus_interval(x, i, F(1, 4)), 1)
        if sign is None:
            raise PrecisionUnreachable("fixture modulus enclosure contains 1")
        return sign
    poly = Polynomial(x.coeffs)
    path = datum._paths[datum.root_map[i]]
    return refine_until(lambda k: sign_against(interval_abs(ref_eval_interval(poly, path.level(k))), 1))


def ref_holds_for(cone, lam):
    datum = lam.datum
    mu = datum.one()
    for i, c in enumerate(cone.coeffs):
        if c:
            mu = ref_mul(mu, ref_pow(apply_automorphism(datum, i, lam), c))
    sign = ref_compare_abs_to_one(mu, datum.identity_index)
    return sign < 0 if cone.rel == "<1" else sign > 0


# ---------------------------------------------------------------------------
# data

DATA = {
    "sqrt2": sqrt2_datum(),
    "cubic": cyclic_cubic_datum(),
    "quartic": quartic_z4_datum(),
    "biquad52": biquadratic_datum(5, 2),
}
PROPS = settings(max_examples=60, deadline=None)

coordinate = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.just(0),
)


def elements(name):
    datum = DATA[name]
    return st.lists(coordinate, min_size=datum.degree, max_size=datum.degree).map(datum.element)


def exponents(d):
    return st.lists(st.integers(-3, 3), min_size=d, max_size=d).map(tuple)


# ---------------------------------------------------------------------------
# interval Horner


rational = st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 4)


@settings(max_examples=300, deadline=None)
@given(st.lists(rational, max_size=8), rational, st.one_of(st.just(F(0)), rational))
def test_eval_interval_matches_interval_horner(coeffs, lo, width):
    p = Polynomial(coeffs)
    iv = Interval(lo, lo + abs(width))
    assert repr(p.eval_interval(iv)) == repr(ref_eval_interval(p, iv))


def test_eval_interval_edge_cases():
    for p in (Polynomial([]), Polynomial([F(-3, 7)]), Polynomial([0, 0, 1])):
        for iv in (Interval.point(0), Interval(F(-1, 3), F(1, 2)), Interval(-2, -1)):
            assert repr(p.eval_interval(iv)) == repr(ref_eval_interval(p, iv))


# ---------------------------------------------------------------------------
# field products, multiplication matrices, norms and the unit test


@pytest.mark.parametrize("name", list(DATA))
@PROPS
@given(data=st.data())
def test_products_and_norms_match(name, data):
    x = data.draw(elements(name))
    y = data.draw(elements(name))
    assert repr(x * y) == repr(ref_mul(x, y))
    assert repr(multiplication_matrix(x)) == repr(ref_multiplication_matrix(x))
    assert repr(x.norm()) == repr(ref_norm(x))
    assert type(x.norm()) is F
    assert repr(x.trace()) == repr(ref_multiplication_matrix(x).trace())
    assert is_algebraic_unit(x) == ref_is_algebraic_unit(x)


@pytest.mark.parametrize("name", list(DATA))
def test_unit_verdicts_on_units_match(name):
    datum = DATA[name]
    if name == "biquad52":
        # Z[theta] meets no unit in the h = 1 box; take the Pell-built one
        u = biquadratic_pisot_unit(datum, 5, 2)
        units = [u, u.inverse(), -u]
    else:
        units = search_units(datum, 1)
    assert units
    for u in units + [ref_mul(u, u) for u in units[:5]]:
        assert is_algebraic_unit(u) and ref_is_algebraic_unit(u)
        assert u.norm() in (1, -1)
    half = F(1, 2)
    for x in (datum.element([half]), datum.element([2]), datum.element([0, half])):
        assert is_algebraic_unit(x) == ref_is_algebraic_unit(x)


def test_non_integral_element_of_norm_one_is_no_unit(sqrt2):
    # (11 + 6 sqrt2)/7 has norm 1 but minimal polynomial X^2 - 22/7 X + 1
    x = sqrt2.element([F(11, 7), F(6, 7)])
    assert x.norm() == 1
    assert not is_algebraic_unit(x)
    assert not ref_is_algebraic_unit(x)
    assert not Polynomial([1, F(-22, 7), 1]).is_integer


def test_unit_test_matches_on_algebraic_integers_outside_z_theta():
    """Z[theta] is not the ring of integers of Q(sqrt5, sqrt2): sqrt5 =
    (17 theta - theta^3)/6 is integral, so the divisibility test, not the
    power-basis denominator, must decide."""
    datum = DATA["biquad52"]
    s5 = datum.element([0, F(17, 6), 0, F(-1, 6)])
    s2 = datum.element([0, F(-11, 6), 0, F(1, 6)])
    assert s5 * s5 == 5 and s2 * s2 == 2
    cases = {
        2 + s5: True, 1 + s2: True, 3 + s5 * s2: True, (2 + s5) * (1 - s2): True,
        s5: False, (2 + s5) / 2: False, (1 + s5) / 2 + s2 / 3: False,
    }
    for x, unit in cases.items():
        assert is_algebraic_unit(x) is unit
        assert ref_is_algebraic_unit(x) is unit


@pytest.mark.parametrize("name", list(DATA))
@PROPS
@given(data=st.data())
def test_unit_test_matches_over_small_denominators(name, data):
    datum = DATA[name]
    den = data.draw(st.integers(1, 6))
    nums = data.draw(st.lists(st.integers(-4, 4), min_size=datum.degree, max_size=datum.degree))
    x = datum.element([F(a, den) for a in nums])
    assert is_algebraic_unit(x) == ref_is_algebraic_unit(x)
    for u in search_units(datum, 1)[:3] if name != "biquad52" else ():
        assert is_algebraic_unit(u * den) == ref_is_algebraic_unit(u * den)
        assert is_algebraic_unit(u + x) == ref_is_algebraic_unit(u + x)


def test_unit_test_requires_verified_datum(sqrt2):
    raw = GaloisDatum(min_poly=sqrt2.min_poly, automorphisms=sqrt2.automorphisms,
                      identity_index=0, table=sqrt2.table,
                      root_enclosures=sqrt2.root_enclosures)
    with pytest.raises(BadParameters):
        is_algebraic_unit(raw.element([1, 1]))


# ---------------------------------------------------------------------------
# compare_abs_to_one


@pytest.mark.parametrize("name", list(DATA))
@PROPS
@given(data=st.data())
def test_compare_abs_to_one_matches(name, data):
    x = data.draw(elements(name))
    for i in range(x.datum.degree):
        if x.is_zero:
            assert compare_abs_to_one(x, i) == -1
        else:
            assert compare_abs_to_one(x, i) == ref_compare_abs_to_one(x, i)


def test_compare_abs_to_one_rational_and_complex():
    datum = DATA["quartic"]
    for v in (F(1), F(-1), F(1, 2), F(-3), F(0)):
        x = datum.element([v])
        assert [compare_abs_to_one(x, i) for i in range(4)] == \
            [ref_compare_abs_to_one(x, i) for i in range(4)]
    # X^2 - X + 2: complex roots of modulus sqrt 2, a fixture for theta only
    P = Polynomial
    cplx = verify_galois_datum(GaloisDatum(
        min_poly=P([2, -1, 1]), automorphisms=(P.x(), P([1, -1])),
        identity_index=0, table=((0, 1), (1, 0)), totally_real=False,
        root_moduli=(Interval(F(7, 5), F(3, 2)),) * 2,
    ))
    th = cplx.generator()
    assert [compare_abs_to_one(th, i) for i in range(2)] == [1, 1]
    for x in (th ** 2, th + 1):
        with pytest.raises(PrecisionUnreachable):
            compare_abs_to_one(x, 0)
        with pytest.raises(PrecisionUnreachable):
            ref_compare_abs_to_one(x, 0)
    assert compare_abs_to_one(cplx.element([F(1, 3)]), 1) == -1


# ---------------------------------------------------------------------------
# cone checks on per-conjugate enclosures


def _cone_cases():
    """(datum name, coefficients, elements): the norm cone (1,...,1) on
    units is a tie, (1,0,1,0) is the relative norm to the quadratic
    subfield of the cyclic quartic, and negative exponents and rational
    lambda take part."""
    quartic, sqrt2, cubic = DATA["quartic"], DATA["sqrt2"], DATA["cubic"]
    q_units = search_units(quartic, 1)[:12]
    rationals = [quartic.element([v]) for v in (F(1), F(-1), F(1, 2), F(-3, 2))]
    q_other = [quartic.element([1, 1, 0, 0]), quartic.element([F(1, 2), 0, -1, 1]),
               quartic.element(CSIG_N2_UNIT_COORDS)]
    return [
        ("quartic", (1, 1, 1, 1), q_units + q_other + rationals),
        ("quartic", (1, 0, 1, 0), q_units + q_other + rationals),
        ("quartic", (0, 1, 0, 1), q_units + q_other),
        ("quartic", (1, 0, 2, 0), q_units + q_other + rationals),
        ("quartic", (1, -1, 0, 2), q_units + q_other + rationals),
        ("quartic", (-2, 0, 1, 0), q_units + q_other),
        ("quartic", (0, 0, 0, 0), q_units[:2] + rationals),
        ("sqrt2", (1, 1), search_units(sqrt2, 2) + [sqrt2.element([F(11, 7), F(6, 7)])]),
        ("sqrt2", (1, -1), search_units(sqrt2, 2) + [sqrt2.element([F(-1, 2)])]),
        ("sqrt2", (-1, -1), search_units(sqrt2, 2) + [sqrt2.element([2, 1])]),
        ("cubic", (1, 1, 1), search_units(cubic, 1)[:10]),
        ("cubic", (2, -1, 0), search_units(cubic, 1)[:10] + [cubic.element([F(2)])]),
    ]


CONE_CASES = _cone_cases()


def _verdicts_match(cases):
    for _, coeffs, elems in cases:
        for rel in ("<1", ">1"):
            cone = ConeConstraint(coeffs, rel)
            for lam in elems:
                assert cone.holds_for(lam) == ref_holds_for(cone, lam), (coeffs, rel, lam)


def test_cone_verdicts_match():
    _verdicts_match(CONE_CASES)


@pytest.mark.parametrize("level", [0, 4])
def test_cone_verdicts_do_not_depend_on_the_tie_level(monkeypatch, level):
    monkeypatch.setattr(numfield, "EXACT_TIE_LEVEL", level)
    _verdicts_match(CONE_CASES)


def test_cone_verdicts_with_the_tie_test_at_the_budget(monkeypatch):
    """The tie test at the last level refine_until asks: a tie then
    refines all the way, so there are two ties here, and fresh data keep
    the long paths off the other tests."""
    monkeypatch.setattr(numfield, "EXACT_TIE_LEVEL", DEFAULT_REFINE_STEPS)
    quartic, sqrt2 = quartic_z4_datum(), sqrt2_datum()
    units = search_units(quartic, 1)[:3]
    pairs = [
        (ConeConstraint((1, 1, 1, 1), "<1"), quartic.generator()),
        (ConeConstraint((1, 1), ">1"), sqrt2.element([1, 1])),
        (ConeConstraint((1, 1, 1, 1), ">1"), quartic.element([1, 1, 0, 0])),
    ]
    for rel in ("<1", ">1"):
        pairs += [(ConeConstraint((1, 0, 2, 0), rel), u) for u in units]
        pairs += [(ConeConstraint((1, -1, 0, 2), rel), u)
                  for u in units + [quartic.element([F(1, 2)])]]
    for cone, lam in pairs:
        assert cone.holds_for(lam) == ref_holds_for(cone, lam), (cone, lam)


def test_exact_tie_test_runs_once_and_only_on_ties(monkeypatch, quartic):
    calls = []
    product = ConeConstraint._product

    def counted(self, lam):
        calls.append(lam)
        return product(self, lam)
    monkeypatch.setattr(ConeConstraint, "_product", counted)
    unit = quartic.generator()
    assert not ConeConstraint((1, 1, 1, 1), "<1").holds_for(unit)
    assert len(calls) == 1
    calls.clear()
    assert ConeConstraint((1, 0, 2, 0), ">1").holds_for(unit) == \
        ref_holds_for(ConeConstraint((1, 0, 2, 0), ">1"), unit)
    assert ConeConstraint((1, 0, 0, 0), ">1").holds_for(unit)
    assert calls == []


def test_cone_on_complex_datum_keeps_precision_unreachable():
    P = Polynomial
    cplx = verify_galois_datum(GaloisDatum(
        min_poly=P([2, -1, 1]), automorphisms=(P.x(), P([1, -1])),
        identity_index=0, table=((0, 1), (1, 0)), totally_real=False,
        root_moduli=(Interval(F(7, 5), F(3, 2)),) * 2,
    ))
    th = cplx.generator()
    assert ConeConstraint((1, 0), ">1").holds_for(th)
    with pytest.raises(PrecisionUnreachable):
        ConeConstraint((2, 0), "<1").holds_for(th)
    with pytest.raises(PrecisionUnreachable):
        ref_holds_for(ConeConstraint((2, 0), "<1"), th)


def test_cone_on_zero_with_negative_exponent_raises(quartic):
    zero = quartic.zero()
    with pytest.raises(ZeroDivisionError):
        ConeConstraint((-1, 0, 0, 0), "<1").holds_for(zero)
    assert ConeConstraint((1, 0, 0, 0), "<1").holds_for(zero)


def test_cone_requires_verified_datum(sqrt2):
    raw = GaloisDatum(min_poly=sqrt2.min_poly, automorphisms=sqrt2.automorphisms,
                      identity_index=0, table=sqrt2.table,
                      root_enclosures=sqrt2.root_enclosures)
    with pytest.raises(BadParameters):
        ConeConstraint((1, 2), "<1").holds_for(raw.element([1, 1]))


@pytest.mark.parametrize("name", ["sqrt2", "cubic", "quartic"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_random_cones_match(name, data):
    datum = DATA[name]
    lam = data.draw(elements(name).filter(lambda x: not x.is_zero))
    cone = ConeConstraint(data.draw(exponents(datum.degree)),
                          data.draw(st.sampled_from(["<1", ">1"])))
    assert cone.holds_for(lam) == ref_holds_for(cone, lam)


# ---------------------------------------------------------------------------
# the constrained quartic search


FROZEN_H3_CONE_1020 = [
    (-1, 0, 3, 0), (0, -1, -1, 1), (-1, -1, 2, 1), (-1, 0, 4, 1), (0, 0, 1, 2),
    (0, -1, 0, 3), (-1, -1, 3, 3), (-1, 0, 5, 3), (-1, -2, 2, 4), (-1, -2, 3, 6),
    (-1, -2, 4, 8), (-2, -2, 8, 9), (-3, -3, 10, 10), (-2, -2, 9, 11),
    (-3, -4, 12, 17), (-4, -5, 14, 18), (-4, -6, 15, 23), (-6, -7, 22, 27),
    (-7, -7, 27, 30), (-7, -9, 25, 33), (-8, -9, 30, 36), (-9, -11, 34, 44),
    (-10, -13, 37, 50), (-11, -13, 42, 53), (-13, -16, 47, 60), (-13, -17, 49, 67),
    (-17, -20, 64, 80), (-20, -23, 74, 90), (-20, -24, 76, 97), (-23, -27, 86, 107),
    (-27, -33, 101, 130), (-30, -37, 113, 147), (-33, -40, 123, 157),
    (-36, -44, 135, 174), (-37, -44, 140, 177), (-40, -49, 148, 190),
    (-44, -53, 165, 210), (-50, -60, 187, 237), (-53, -64, 199, 254),
    (-60, -73, 224, 287), (-64, -77, 241, 307), (-67, -80, 251, 317),
    (-67, -81, 253, 324), (-80, -97, 300, 384), (-97, -117, 364, 464),
    (-107, -130, 401, 514), (-110, -133, 411, 524), (-117, -141, 440, 561),
    (-130, -157, 487, 621), (-147, -177, 551, 701), (-157, -190, 588, 751),
    (-174, -210, 652, 831), (-177, -214, 664, 848), (-190, -230, 711, 908),
    (-210, -254, 787, 1005), (-254, -307, 952, 1215),
]


def test_quartic_h3_cone_search_is_frozen(quartic):
    found = search_unit_pisot(quartic, 3, extra_constraints=[ConeConstraint((1, 0, 2, 0), "<1")])
    assert [tuple(u.coeffs) for u in found] == [tuple(map(F, c)) for c in FROZEN_H3_CONE_1020]
    assert tuple(CSIG_N2_UNIT_COORDS) in FROZEN_H3_CONE_1020
    assert all(type(c) is F for u in found for c in u.coeffs)


def test_search_units_under_tie_cone_is_empty(quartic):
    # every unit has prod_i |sigma_i(u)| = |N(u)| = 1, so '>1' and '<1' fail
    for rel in ("<1", ">1"):
        assert search_units(quartic, 1, constraints=[ConeConstraint((1, 1, 1, 1), rel)]) == []
    assert search_units(quartic, 1)


# ---------------------------------------------------------------------------
# the inverse by Cayley-Hamilton against the extended Euclidean algorithm


def reducible_datum():
    """(X^2 - 1)(X^2 - 4), accepted under assume_irreducible with no factor
    search: X -> -X and X -> +-2/X permute its roots 2, 1, -1, -2."""
    p = Polynomial([4, 0, -5, 0, 1])
    half = F(1, 2)
    auts = (Polynomial.x(), Polynomial([0, -1]), Polynomial([0, 5 * half, 0, -half]),
            Polynomial([0, -5 * half, 0, half]))
    table = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    enclosures = tuple(Interval(r - F(1, 4), r + F(1, 4)) for r in (2, 1, -1, -2))
    return verify_galois_datum(GaloisDatum(
        min_poly=p, automorphisms=auts, identity_index=0, table=table,
        root_enclosures=enclosures, assume_irreducible=True), factor_budget=0)


INVERSE_DATA = {
    "sqrt2": DATA["sqrt2"],
    "cubic": DATA["cubic"],
    "quartic": DATA["quartic"],
    "biquad112": biquadratic_datum(11, 2),
    "reducible": reducible_datum(),
}


def _inverse_outcome(inverse, x):
    try:
        return repr(inverse(x))
    except (ZeroDivisionError, NotIrreducible) as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("name", list(INVERSE_DATA))
@PROPS
@given(data=st.data())
def test_inverse_matches_xgcd(name, data):
    datum = INVERSE_DATA[name]
    den = data.draw(st.integers(1, 10 ** 4))
    nums = data.draw(st.lists(st.integers(-30, 30), min_size=datum.degree, max_size=datum.degree))
    x = datum.element([F(a, den) for a in nums])
    out = _inverse_outcome(FieldElement.inverse, x)
    assert out == _inverse_outcome(ref_inverse, x)
    if isinstance(out, str):
        assert x * x.inverse() == 1 and all(type(c) is F for c in x.inverse().coeffs)


@pytest.mark.parametrize("name", list(INVERSE_DATA))
def test_inverse_verdicts_on_zero_and_zero_divisors(name):
    datum = INVERSE_DATA[name]
    cases = [datum.zero(), datum.one(), datum.element([F(-2, 3)]), datum.generator()]
    if name == "reducible":
        # theta - 1, theta^2 - 4 and (1 - theta^2)/2 vanish at roots of p;
        # 3 + theta at none
        cases += [datum.element([-1, 1]), datum.element([-4, 0, 1]),
                  datum.element([F(1, 2), 0, F(-1, 2)]), datum.element([3, 1])]
    verdicts = [_inverse_outcome(FieldElement.inverse, x) for x in cases]
    assert verdicts == [_inverse_outcome(ref_inverse, x) for x in cases]
    assert verdicts[0] == ("ZeroDivisionError", "inverse of zero field element")
    if name == "reducible":
        assert [v[0] for v in verdicts[4:7]] == ["NotIrreducible"] * 3
        assert isinstance(verdicts[7], str)


# ---------------------------------------------------------------------------
# the element charpoly against the per-call kernel runs it replaced


def frozen_is_algebraic_unit(x):
    """The unit test on the integer kernel's c_k, run on each call: |c_0| =
    D^d and D^(d-k) divides c_k."""
    rows, den = x._scaled_multiplication_rows()
    d = len(rows)
    cs = fl.int_charpoly(rows)
    return abs(cs[0]) == den ** d and all(c % den ** (d - k) == 0 for k, c in enumerate(cs))


def frozen_minimal_polynomial(x):
    return multiplication_matrix(x).charpoly().squarefree_part()


def frozen_inverse(x):
    """Cayley-Hamilton on a fresh kernel run."""
    if x.is_zero:
        raise ZeroDivisionError("inverse of zero field element")
    rows, den = x._scaled_multiplication_rows()
    cs = fl.int_charpoly(rows)
    if not cs[0]:
        raise NotIrreducible("minimal polynomial is reducible")
    y = [1] + [0] * (len(rows) - 1)
    for c in reversed(cs[1:-1]):
        y = fl.mat_vec(rows, y)
        y[0] += c
    return FieldElement(x.datum, tuple(F(-den * v, cs[0]) for v in y))


def _element_facts(x, inverse, is_unit, minpoly):
    return (_inverse_outcome(inverse, x), is_unit(x), repr(minpoly(x)))


@pytest.mark.parametrize("name", list(INVERSE_DATA))
@PROPS
@given(data=st.data())
def test_element_facts_match_frozen(name, data):
    datum = INVERSE_DATA[name]
    den = data.draw(st.integers(1, 12))
    nums = data.draw(st.lists(st.integers(-30, 30), min_size=datum.degree, max_size=datum.degree))
    x = datum.element([F(a, den) for a in nums])
    # a fresh copy of x for each side, so neither reads the other's chi
    fresh = datum.element(x.coeffs)
    assert (_element_facts(x, FieldElement.inverse, is_algebraic_unit, minimal_polynomial)
            == _element_facts(fresh, frozen_inverse, frozen_is_algebraic_unit,
                              frozen_minimal_polynomial))
    assert repr(x.charpoly()) == repr(multiplication_matrix(x).charpoly())
    assert repr(x.trace()) == repr(multiplication_matrix(x).trace())


@pytest.mark.parametrize("name", list(INVERSE_DATA))
def test_element_facts_on_units_and_catalog_elements(name):
    datum = INVERSE_DATA[name]
    cases = [datum.zero(), datum.one(), datum.generator(), -datum.generator(),
             datum.element([F(1, 2)]), datum.element([0, F(1, 2)])]
    if name != "reducible":
        cases += search_units(datum, 1)[:6]
    if name == "biquad112":
        u = biquadratic_pisot_unit(datum, 11, 2)
        cases += [u, -u, u * u]
    for x in cases:
        fresh = datum.element(x.coeffs)
        assert (_element_facts(x, FieldElement.inverse, is_algebraic_unit, minimal_polynomial)
                == _element_facts(fresh, frozen_inverse, frozen_is_algebraic_unit,
                                  frozen_minimal_polynomial))


def test_each_element_runs_the_kernel_once(monkeypatch):
    datum = DATA["quartic"]
    calls = []
    real = fl.int_charpoly
    monkeypatch.setattr(fl, "int_charpoly", lambda rows: calls.append(1) or real(rows))
    x = datum.element([2, 1, 0, F(-1, 3)])
    assert not is_algebraic_unit(x)
    minimal_polynomial(x)
    x.inverse()
    x.inverse()
    assert len(calls) == 1
    x.trace()
    assert len(calls) == 1
