import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovforms.errors import (
    AnosovError,
    AutomorphismFailsMinPoly,
    BadParameters,
    DatumMismatch,
    EnclosuresOverlap,
    IrreducibilityBudgetExceeded,
    NotIrreducible,
    PrecisionUnreachable,
    TableNotAGroup,
    WrongAutomorphismCount,
)
from anosovforms.catalog import (
    csig_fixture,
    cubic_pisot_unit,
    cyclic_cubic_datum,
    quartic_z4_datum,
    sqrt2_datum,
)
from anosovforms import _fieldlinalg as fl
from anosovforms.exactmath import Interval, Polynomial, RationalMatrix
from anosovforms.numfield import (
    DEFAULT_FACTOR_BUDGET,
    FieldElement,
    GaloisDatum,
    RootPath,
    _check_irreducible,
    _l2_norm_bound,
    apply_automorphism,
    automorphism_matrix,
    biquadratic_datum,
    biquadratic_sqrts,
    compare_abs_to_one,
    conjugate_levels,
    conjugate_modulus_interval,
    datum_from_automorphism_polys,
    is_algebraic_unit,
    minimal_polynomial,
    refine_until,
    verify_galois_datum,
)
from anosovforms.serialize import interval_to_json
from test_exactmath import interval_abs

P = Polynomial


def refine_enclosure(p, iv, width):
    """Shrink a sign-change enclosure of a root of p below the given width
    by exact bisection: the first level of its path that is narrow enough."""
    return RootPath(p, iv).level((math.ceil(iv.width / width) - 1).bit_length())


class TestVerification:
    def test_sqrt2_verifies(self, sqrt2):
        assert sqrt2.verified
        assert sqrt2.degree == 2
        assert sqrt2.root_map == (0, 1)

    def test_bad_automorphism(self):
        with pytest.raises(AutomorphismFailsMinPoly):
            datum_from_automorphism_polys(
                P([-2, 0, 1]),
                [P.x(), P([1, 1])],  # theta -> 1 + theta is not an automorphism
                [Interval(F(5, 4), F(3, 2)), Interval(F(-3, 2), F(-5, 4))],
            )

    def test_non_integer_min_poly_rejected(self):
        # X^2 - 1/2 is monic but not integral; is_integer is a property,
        # so the check reads its value rather than a bound method
        with pytest.raises(BadParameters, match="integer coefficients"):
            verify_galois_datum(GaloisDatum(
                min_poly=P([F(-1, 2), 0, 1]),
                automorphisms=(P.x(), P([0, -1])),
                identity_index=0,
                table=((0, 1), (1, 0)),
                root_enclosures=(Interval(F(1, 2), 1), Interval(-1, F(-1, 2))),
            ))

    def test_wrong_count(self):
        with pytest.raises(WrongAutomorphismCount):
            verify_galois_datum(GaloisDatum(
                min_poly=P([-2, 0, 1]),
                automorphisms=(P.x(),),
                identity_index=0,
                table=((0,),),
                root_enclosures=(Interval(F(5, 4), F(3, 2)),),
            ))

    def test_reducible(self):
        with pytest.raises(NotIrreducible):
            datum_from_automorphism_polys(
                P([-1, 0, 1]),  # X^2 - 1 factors
                [P.x(), P([0, -1])],
                [Interval(F(1), F(1)), Interval(F(-1), F(-1))],
            )

    def test_broken_table(self, sqrt2):
        bad = GaloisDatum(
            min_poly=sqrt2.min_poly,
            automorphisms=sqrt2.automorphisms,
            identity_index=0,
            table=((0, 1), (1, 1)),
            root_enclosures=sqrt2.root_enclosures,
        )
        with pytest.raises(TableNotAGroup):
            verify_galois_datum(bad)

    def test_overlapping_enclosures(self, sqrt2):
        bad = GaloisDatum(
            min_poly=sqrt2.min_poly,
            automorphisms=sqrt2.automorphisms,
            identity_index=0,
            table=sqrt2.table,
            root_enclosures=(Interval(F(-2), F(2)), Interval(F(-3, 2), F(-1))),
        )
        with pytest.raises((EnclosuresOverlap, Exception)):
            verify_galois_datum(bad)

    def test_quartic_fixture_is_cyclic(self, quartic):
        assert quartic.verified
        t = quartic.table
        # row of the generator acts as +1 shift: sigma^a . sigma^b = sigma^(a+b)
        assert t[1][1] == 2 and t[1][2] == 3 and t[1][3] == 0
        assert quartic.root_map == (0, 1, 2, 3)

    def test_irreducibility_budget(self, quartic):
        from dataclasses import replace

        from anosovforms.errors import IrreducibilityBudgetExceeded

        bare = replace(quartic, assume_irreducible=False)
        with pytest.raises(IrreducibilityBudgetExceeded):
            verify_galois_datum(bare, factor_budget=1)
        flagged = replace(quartic, assume_irreducible=True)
        out = verify_galois_datum(flagged, factor_budget=1)
        assert out.verified and out.assume_irreducible
        # with enough budget the proof clears the flag
        proven = verify_galois_datum(flagged)
        assert proven.verified and not proven.assume_irreducible


class TestBiquadratic:
    def test_5_2(self, biquad52):
        assert biquad52.min_poly == P([9, 0, -14, 0, 1])
        assert biquad52.verified

    def test_2_3(self):
        d = biquadratic_datum(2, 3)
        assert d.min_poly == P([1, 0, -10, 0, 1])

    def test_rejects_non_squarefree(self):
        with pytest.raises(BadParameters):
            biquadratic_datum(4, 2)
        with pytest.raises(BadParameters):
            biquadratic_datum(5, 5)

    def test_klein_four(self, biquad52):
        t = biquad52.table
        for i in range(4):
            assert t[i][i] == 0  # every element squares to the identity

    def test_sqrt_elements(self, biquad52):
        sk, sl = biquadratic_sqrts(biquad52, 5, 2)
        assert sk * sk == 5 and sl * sl == 2
        tau = next(i for i in range(4)
                   if i != 0 and apply_automorphism(biquad52, i, sk) == sk)
        assert apply_automorphism(biquad52, tau, sl) == -sl


class TestElements:
    def test_identity_action(self, sqrt2):
        x = sqrt2.element([3, 7])
        assert apply_automorphism(sqrt2, 0, x) == x

    def test_conjugation(self, sqrt2):
        x = sqrt2.element([1, 1])
        assert apply_automorphism(sqrt2, 1, x) == sqrt2.element([1, -1])

    def test_arithmetic(self, sqrt2):
        s = sqrt2.element([0, 1])
        assert s * s == 2
        assert (1 + s) * (1 - s) == -1
        assert (1 + s).inverse() == s - 1
        assert (s / s) == 1

    def test_datum_mismatch(self, sqrt2, quartic):
        with pytest.raises(DatumMismatch):
            sqrt2.element([1, 1]) + quartic.element([1])

    def test_minimal_polynomial(self, sqrt2, quartic):
        assert minimal_polynomial(sqrt2.one()) == P([-1, 1])
        assert minimal_polynomial(sqrt2.element([1, 1])) == P([-1, -2, 1])
        assert minimal_polynomial(quartic.generator()) == P([1, 1, -4, -4, 1])

    def test_units(self, sqrt2, quartic):
        assert is_algebraic_unit(sqrt2.element([1, 1]))
        assert not is_algebraic_unit(sqrt2.element([2]))
        assert not is_algebraic_unit(sqrt2.element([0, 1]))  # sqrt2: norm -2
        assert is_algebraic_unit(quartic.generator())

    def test_power_arithmetic(self, quartic):
        th = quartic.generator()
        assert th ** 4 == 4 * th ** 3 + 4 * th ** 2 - th - 1
        assert th ** -1 == th.inverse()

    def test_hash_agrees_with_equality(self, sqrt2, quartic):
        x = sqrt2.element([3])
        assert x == 3 and hash(x) == hash(3) == hash(F(3))
        assert len({x, F(3)}) == 1
        assert {F(3): "a"}.get(x) == "a"
        half = quartic.element([F(1, 2), 0, 0, 0])
        assert half == F(1, 2) and hash(half) == hash(F(1, 2))
        # elements equal to each other hash alike, rational or not
        assert hash(sqrt2.element([1, 1])) == hash(sqrt2.element([F(2, 2), 1]))

    def test_constructor_reads_coordinates_through_rat(self, sqrt2):
        # a float used to be stored as it came and failed later, in repr
        # or *; a string was stored unequal to its value
        with pytest.raises(TypeError):
            FieldElement(sqrt2, (0.5, 0))
        with pytest.raises(TypeError):
            sqrt2.element([1, 0.5])
        half = FieldElement(sqrt2, ("1/2", 0))
        assert half == sqrt2.element(["1/2"]) == F(1, 2)
        assert half + 1 == F(3, 2) and repr(half * half) == "FieldElement(1/4, 0)"
        x = FieldElement(sqrt2, (3, -6), -9)
        assert x == sqrt2.element([F(-1, 3), F(2, 3)]) and (x.nums, x.den) == ((-1, 2), 3)
        with pytest.raises(ValueError):
            FieldElement(sqrt2, (1, 2, 3))
        with pytest.raises(ValueError):
            sqrt2.element([1, 2, 3])
        with pytest.raises(ZeroDivisionError):
            FieldElement(sqrt2, (1, 2), 0)


class TestEnclosures:
    def test_rational_point(self, sqrt2):
        iv = conjugate_modulus_interval(sqrt2.element([2]), 1, F(1, 10 ** 6))
        assert iv == Interval(F(2), F(2))

    def test_conjugate_of_unit(self, sqrt2):
        x = sqrt2.element([1, 1])
        iv = conjugate_modulus_interval(x, 1, F(1, 1000))
        assert iv.width <= F(1, 1000)
        # contains sqrt(2) - 1 ~ 0.41421
        assert iv.lo < F(41422, 100000) < iv.hi or iv.contains(F(414213, 10 ** 6))

    def test_quartic_largest(self, quartic):
        th = quartic.generator()
        iv = conjugate_modulus_interval(th, 0, F(1, 100))
        assert iv.lo > 1

    def test_compare_abs(self, sqrt2):
        x = sqrt2.element([1, 1])
        assert compare_abs_to_one(x, 0) == 1
        assert compare_abs_to_one(x, 1) == -1
        assert compare_abs_to_one(sqrt2.element([-1]), 0) == 0

    def test_refine(self):
        p = P([-2, 0, 1])
        iv = refine_enclosure(p, Interval(F(1), F(2)), F(1, 10 ** 9))
        assert iv.width <= F(1, 10 ** 9)
        assert iv.lo ** 2 < 2 < iv.hi ** 2


class TestInvariants:
    def test_table_polynomial_consistency(self, quartic):
        rng_elems = [
            quartic.element([1, 2, 0, -1]),
            quartic.element([F(1, 2), 0, 3, F(-2, 3)]),
        ]
        for x in rng_elems:
            for i in range(4):
                for j in range(4):
                    lhs = apply_automorphism(
                        quartic, i, apply_automorphism(quartic, j, x)
                    )
                    rhs = apply_automorphism(quartic, quartic.table[i][j], x)
                    assert lhs == rhs

    def test_unit_norm_product_encloses_one(self, quartic):
        th = quartic.generator()
        prod = Interval(F(1), F(1))
        for i in range(4):
            prod = prod.mul(conjugate_modulus_interval(th, i, F(1, 10 ** 4)))
        assert prod.contains(F(1))

    def test_minpoly_invariant_under_automorphisms(self, quartic):
        x = quartic.element([1, -1, 2, 0])
        mp = minimal_polynomial(x)
        for i in range(4):
            assert minimal_polynomial(apply_automorphism(quartic, i, x)) == mp

    def test_enclosures_contain_one_sign_change(self, quartic):
        p = quartic.min_poly
        for iv in quartic.root_enclosures:
            assert (p.eval(iv.lo) > 0) != (p.eval(iv.hi) > 0)
        for a, b in zip(quartic.root_enclosures, quartic.root_enclosures[1:]):
            assert b.hi < a.lo


class TestDegreeOne:
    def test_rational_datum(self):
        d = datum_from_automorphism_polys(
            P([1, 1]), [P([-1])], [Interval(F(-1), F(-1))]
        )
        assert d.degree == 1
        x = d.element([-1])
        assert minimal_polynomial(x) == P([1, 1])
        assert is_algebraic_unit(x)


# -- reference: the refinement loops that each root's bisection path replaced


def _bisect_below(p, iv, width):
    lo, hi = iv.lo, iv.hi
    flo = p.eval(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = p.eval(mid)
        if fm == 0:
            return Interval(mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return Interval(lo, hi)


def _reference_modulus(x, i, precision):
    """Start from the fixture enclosure of the root and bisect to 1/16 of
    the last width each round until |sigma_i(x)| is narrow enough."""
    datum = x.datum
    if x.is_rational:
        return Interval.point(abs(x.rational_value()))
    base = datum.root_enclosures[datum.root_map[i]]
    width = base.width
    while True:
        out = interval_abs(Polynomial(x.coeffs).eval_interval(base))
        if out.width <= precision:
            return out
        width = width / 16
        base = _bisect_below(datum.min_poly, base, width)


def _reference_biquadratic_enclosures(k, l):
    """Enclose sqrt(k) and sqrt(l) to width 1/64, 1/1024, ... from unit
    intervals until the four roots of theta separate."""
    def sqrt_enclosure(n, width):
        r = math.isqrt(n)
        return _bisect_below(P([-n, 0, 1]), Interval(F(r), F(r + 1)), width)

    width = F(1, 64)
    while True:
        rk, rl = sqrt_enclosure(k, width), sqrt_enclosure(l, width)
        ivs = (rk.add(rl), rk.sub(rl) if k > l else rl.sub(rk),
               rl.sub(rk) if k > l else rk.sub(rl), rk.add(rl).neg())
        if all(b.hi < a.lo for a, b in zip(ivs, ivs[1:])):
            return ivs
        width = width / 16


def _catalog_elements():
    sqrt2, cubic = sqrt2_datum(), cyclic_cubic_datum()
    quartic, csig_unit = csig_fixture()
    return [
        sqrt2.generator(), sqrt2.element([1, 1]), sqrt2.element([F(-3, 2), 5]),
        cubic.generator(), cubic_pisot_unit(cubic), cubic.element([2, -1, 3]),
        quartic.generator(), csig_unit, quartic.element([1, 2, 0, -1]),
    ]


class TestRootPaths:
    def test_moduli_match_reference(self):
        for x in _catalog_elements():
            for i in range(x.datum.degree):
                for precision in (F(1, 4), F(1, 1024), F(1, 10 ** 6)):
                    got = conjugate_modulus_interval(x, i, precision)
                    want = _reference_modulus(x, i, precision)
                    assert interval_to_json(got) == interval_to_json(want)

    @pytest.mark.parametrize("k, l", [(2, 3), (5, 7), (11, 2)])
    def test_biquadratic_enclosures_match_reference(self, k, l):
        got = biquadratic_datum(k, l).root_enclosures
        want = _reference_biquadratic_enclosures(k, l)
        assert [interval_to_json(iv) for iv in got] == \
            [interval_to_json(iv) for iv in want]

    def test_second_question_adds_no_bisection(self, monkeypatch):
        # a fresh datum: the catalog's kept one may have bisected already
        datum = sqrt2_datum.__wrapped__()
        x = datum.element([1, 1])
        # each bisection step reads one sign from the path's integer kernel
        evals = []
        plain_sign = RootPath._sign
        monkeypatch.setattr(RootPath, "_sign",
                            lambda path, a, q: evals.append((a, q)) or plain_sign(path, a, q))
        first = conjugate_modulus_interval(x, 1, F(1, 1024))
        steps = len(evals)
        assert steps > 0
        assert compare_abs_to_one(x, 1) == -1
        assert compare_abs_to_one(x * x, 1) == -1
        assert conjugate_modulus_interval(x, 1, F(1, 1024)) == first
        assert len(evals) == steps

    def test_unresolvable_question_terminates(self):
        # the midpoint of [0, 1] is the root of 2X - 1, so every level past
        # the first is the point 1/2, where X - 1/2 has no sign
        path = RootPath(P([-1, 2]), Interval(F(0), F(1)))
        q = P([F(-1, 2), 1])

        def sign(k):
            iv = q.eval_interval(path.level(k))
            if iv.lo > 0:
                return 1
            if iv.hi < 0:
                return -1
            return None
        with pytest.raises(PrecisionUnreachable):
            refine_until(sign)
        assert path.level(1) == Interval.point(F(1, 2))

    @pytest.mark.parametrize("modulus, sign", [
        (Interval(F(1, 2), F(2)), None),
        (Interval(F(7, 5), F(3, 2)), 1),
    ])
    def test_complex_datum_fixture_moduli(self, modulus, sign):
        # X^2 - X + 2 has the complex roots (1 +- i sqrt 7)/2 of modulus sqrt 2
        datum = verify_galois_datum(GaloisDatum(
            min_poly=P([2, -1, 1]),
            automorphisms=(P.x(), P([1, -1])),
            identity_index=0,
            table=((0, 1), (1, 0)),
            totally_real=False,
            root_moduli=(modulus, modulus),
        ))
        th = datum.generator()
        for i in range(2):
            if sign is None:
                with pytest.raises(PrecisionUnreachable):
                    compare_abs_to_one(th, i)
            else:
                assert compare_abs_to_one(th, i) == sign

    def test_complex_datum_fixture_is_theta_only(self):
        # the fixture encloses |sigma_i(theta)| = sqrt 2; |theta^2| = 2 is
        # outside it, and no other element has an enclosure to give
        datum = verify_galois_datum(GaloisDatum(
            min_poly=P([2, -1, 1]),
            automorphisms=(P.x(), P([1, -1])),
            identity_index=0,
            table=((0, 1), (1, 0)),
            totally_real=False,
            root_moduli=(Interval(F(7, 5), F(3, 2)),) * 2,
        ))
        th = datum.generator()
        assert conjugate_modulus_interval(th, 0, 1) == Interval(F(7, 5), F(3, 2))
        for x in (th ** 2, -th, th + 1):
            with pytest.raises(PrecisionUnreachable):
                conjugate_modulus_interval(x, 0, 1)
            with pytest.raises(PrecisionUnreachable):
                compare_abs_to_one(x, 1)


# ---------------------------------------------------------------------------
# the divisibility-filtered factor search against the unfiltered one
# ---------------------------------------------------------------------------


def _reference_check_irreducible(p, budget):
    """_check_irreducible without the divisibility filters: every monic
    candidate in the Mignotte box goes to the exact division."""
    d = p.degree
    if d <= 0:
        raise NotIrreducible("constant polynomial")
    if d == 1:
        return True
    if not p.is_integer or p.leading != 1:
        raise BadParameters("minimal polynomial must be monic with integer coefficients")
    m = _l2_norm_bound(p)
    for k in range(1, d // 2 + 1):
        bounds = [math.comb(k, j) * m for j in range(k)]
        total = 1
        for b in bounds:
            total *= 2 * b + 1
            if total > budget:
                return False
        def rec(j, coeffs):
            if j == k:
                g = Polynomial(coeffs + [1])
                if (p % g).is_zero:
                    raise NotIrreducible(f"factor found: {g!r}")
                return
            for c in range(-bounds[j], bounds[j] + 1):
                rec(j + 1, coeffs + [c])
        rec(0, [])
    return True


def _outcome(check, p, budget):
    try:
        return ("returned", check(p, budget))
    except NotIrreducible as e:
        return ("NotIrreducible", str(e))


_coeff = st.integers(-30, 30)
_monic = st.integers(1, 3).flatmap(
    lambda deg: st.lists(_coeff, min_size=deg, max_size=deg)
).map(lambda cs: P(cs + [1]))
_products = st.lists(_monic, min_size=2, max_size=3).map(
    lambda fs: math.prod(fs[1:], start=fs[0]))
_random = st.integers(2, 6).flatmap(
    lambda deg: st.lists(_coeff, min_size=deg, max_size=deg)
).map(lambda cs: P(cs + [1]))


# the (4,2) sweep pairs of the benchmark and (3, 7): X^4 - 2(k+l)X^2 + (k-l)^2
_FIELD_POLYS = {
    f"biquadratic{k, l}": P([(k - l) ** 2, 0, -2 * (k + l), 0, 1])
    for k, l in ((2, 3), (3, 2), (5, 2), (6, 5), (7, 2), (10, 3), (11, 2), (3, 7))
}
_FIELD_POLYS.update({
    "sqrt2": sqrt2_datum().min_poly,
    "quartic_z4": quartic_z4_datum().min_poly,
    "cyclic_cubic": cyclic_cubic_datum().min_poly,
    "csig": csig_fixture()[0].min_poly,
})


def _assert_kept_relation(p, budget):
    """The filtered search sizes its box after the constant-term filter, so
    its box is never larger than the unfiltered one: the outcomes are equal
    whenever the unfiltered search finishes, and the filtered search runs
    out of budget only where the unfiltered one does."""
    out = _outcome(_check_irreducible, p, budget)
    ref = _outcome(_reference_check_irreducible, p, budget)
    if ref != ("returned", False):
        assert out == ref
    if out == ("returned", False):
        assert ref == ("returned", False)


# the ordered squarefree pairs 2 <= k, l <= 30 whose quartic's factor box,
# sized before the constant-term filter, exceeded DEFAULT_FACTOR_BUDGET
_BUDGET_PAIRS = [(2, 26), (2, 29), (2, 30), (3, 26), (3, 29), (3, 30), (5, 29), (5, 30),
                 (6, 29), (6, 30), (7, 30), (26, 2), (26, 3), (29, 2), (29, 3), (29, 5),
                 (29, 6), (30, 2), (30, 3), (30, 5), (30, 6), (30, 7)]


class TestPrunedFactorSearch:
    # the unfiltered reference tries up to 10^5 Fraction divisions per
    # draw at the largest budget, so that budget gets fewer draws
    @settings(max_examples=60, deadline=None)
    @given(p=st.one_of(_products, _random), budget=st.sampled_from([1, 10 ** 3]))
    def test_matches_unfiltered_search(self, p, budget):
        _assert_kept_relation(p, budget)

    @settings(max_examples=8, deadline=None)
    @given(p=st.one_of(_products, _random))
    def test_matches_unfiltered_search_large_budget(self, p):
        _assert_kept_relation(p, 10 ** 5)

    def test_box_is_sized_by_the_constant_terms_that_pass(self):
        # X^4 - 56 X^2 + 576 (k, l = 2, 26): 42 of the 1,159 constant terms
        # divide 576, so the quadratic box is 42 * 2,317, not 1,159 * 2,317
        p = P([576, 0, -56, 0, 1])
        assert _l2_norm_bound(p) == 579
        assert _reference_check_irreducible(p, DEFAULT_FACTOR_BUDGET) is False
        assert _check_irreducible(p, 42 * 2317) is True
        assert _check_irreducible(p, 42 * 2317 - 1) is False

    def test_reducible_sextic_still_runs_out(self):
        # (X^3 - 50)(X^3 - 51): the cubic box has 48 constant terms times
        # (6 * 2552 + 1)^2, about 10^10
        p = P([2550, 0, 0, -101, 0, 0, 1])
        assert _check_irreducible(p, DEFAULT_FACTOR_BUDGET) is False

    def test_large_constant_term_gives_up_before_listing(self):
        # X^4 - 2(k + l) X^2 + (k - l)^2 for k, l = 2, 1000003: the bound m
        # and |p(0)| are about 10^12, so listing the divisors of p(0) would
        # take days; both searches give up at once, on the first box size
        p = P([(2 - 1000003) ** 2, 0, -2 * (2 + 1000003), 0, 1])
        start = time.perf_counter()
        assert _check_irreducible(p, DEFAULT_FACTOR_BUDGET) is False
        assert time.perf_counter() - start < 1.0
        assert _reference_check_irreducible(p, DEFAULT_FACTOR_BUDGET) is False
        with pytest.raises(IrreducibilityBudgetExceeded):
            biquadratic_datum(2, 1000003)

    def test_divisor_listing_is_budgeted(self):
        # X^2 - 1009 * 1013: m = 1,022,118 and |p(0)| = 1,022,117, so the
        # listing takes 1,022,117 trials for a box of 8 constant terms; a
        # smaller budget stops it before the listing, where the unfiltered
        # search's 2m + 1 constant terms are over budget as well
        p = P([-1009 * 1013, 0, 1])
        top = min(_l2_norm_bound(p), 1009 * 1013)
        assert _check_irreducible(p, top) is True
        assert _check_irreducible(p, top - 1) is False
        assert _reference_check_irreducible(p, top - 1) is False

    @pytest.mark.parametrize("k, l", _BUDGET_PAIRS)
    def test_biquadratic_pairs_past_the_unfiltered_budget_build(self, k, l):
        p = P([(k - l) ** 2, 0, -2 * (k + l), 0, 1])
        assert _reference_check_irreducible(p, DEFAULT_FACTOR_BUDGET) is False
        datum = biquadratic_datum(k, l)
        assert datum.verified and not datum.assume_irreducible

    @pytest.mark.parametrize("name", sorted(_FIELD_POLYS))
    def test_field_polynomials(self, name):
        p = _FIELD_POLYS[name]
        assert _check_irreducible(p, DEFAULT_FACTOR_BUDGET) is True
        assert _reference_check_irreducible(p, DEFAULT_FACTOR_BUDGET) is True

    def test_first_factor_is_kept(self):
        # (X^2 + 1)(X^2 - 2)(X + 3): the unfiltered search meets X + 3 first
        p = P([1, 0, 1]) * P([-2, 0, 1]) * P([3, 1])
        expected = ("NotIrreducible", f"factor found: {P([3, 1])!r}")
        assert _outcome(_check_irreducible, p, DEFAULT_FACTOR_BUDGET) == expected
        assert _outcome(_reference_check_irreducible, p, DEFAULT_FACTOR_BUDGET) == expected

    def test_zero_constant_term(self):
        # p(0) = 0: every constant term passes the filter and X divides p
        for p in (P([0, 0, 1, 1]), P([0, -2, 0, 1]), P([0, 0, 0, 0, 1])):
            assert (_outcome(_check_irreducible, p, 10 ** 5)
                    == _outcome(_reference_check_irreducible, p, 10 ** 5))
            assert _outcome(_check_irreducible, p, 10 ** 5)[0] == "NotIrreducible"


# ---------------------------------------------------------------------------
# the power-basis Galois action against the composition path it replaced
# ---------------------------------------------------------------------------


def _frozen_compose_mod(f, g, p):
    """f(g(X)) mod p by Horner."""
    acc = Polynomial.zero()
    for c in reversed(f.coeffs):
        acc = (acc * g + Polynomial((c,))) % p
    return acc


def _frozen_table_from_polys(auts, p):
    d = len(auts)
    idx = {q.coeffs: i for i, q in enumerate(auts)}
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            comp = _frozen_compose_mod(auts[j], auts[i], p)
            if comp.coeffs not in idx:
                raise TableNotAGroup("automorphisms not closed under composition")
            row.append(idx[comp.coeffs])
        table.append(tuple(row))
    return tuple(table)


def _frozen_verify(candidate, factor_budget=DEFAULT_FACTOR_BUDGET):
    """verify_galois_datum's checks up to the group table, by polynomial
    composition; returns the table it certified."""
    p = candidate.min_poly
    d = p.degree
    if d < 1:
        raise BadParameters("minimal polynomial must have degree >= 1")
    if not p.is_integer or p.leading != 1:
        raise BadParameters("minimal polynomial must be monic with integer coefficients")
    proved = _check_irreducible(p, factor_budget)
    if not proved and not candidate.assume_irreducible:
        raise IrreducibilityBudgetExceeded(
            "irreducibility not proven within budget; set assume_irreducible")
    n_aut = len(candidate.automorphisms)
    if n_aut != d:
        raise WrongAutomorphismCount(f"{n_aut} automorphisms for degree {d}")
    for i, q in enumerate(candidate.automorphisms):
        if q.degree >= d and d > 1:
            raise BadParameters(f"automorphism {i} not reduced mod min_poly")
        if not _frozen_compose_mod(p, q, p).is_zero:
            raise AutomorphismFailsMinPoly(f"automorphism {i} fails the minimal polynomial")
    if len(set(q.coeffs for q in candidate.automorphisms)) != d:
        raise WrongAutomorphismCount("duplicate automorphism polynomials")
    ident = candidate.identity_index
    if not (0 <= ident < d):
        raise TableNotAGroup("identity index out of range")
    if d > 1 and candidate.automorphisms[ident] != Polynomial.x():
        raise TableNotAGroup("identity automorphism is not X")
    if len(candidate.table) != d or any(len(row) != d for row in candidate.table):
        raise TableNotAGroup("table has wrong shape")
    for i in range(d):
        for j in range(d):
            comp = _frozen_compose_mod(candidate.automorphisms[j], candidate.automorphisms[i], p)
            k = candidate.table[i][j]
            if not (0 <= k < d) or candidate.automorphisms[k] != comp:
                raise TableNotAGroup(f"table entry ({i},{j}) does not match composition")
    for i in range(d):
        if sorted(candidate.table[i]) != list(range(d)):
            raise TableNotAGroup(f"row {i} is not a permutation")
        if sorted(row[i] for row in candidate.table) != list(range(d)):
            raise TableNotAGroup(f"column {i} is not a permutation")
        if candidate.table[ident][i] != i or candidate.table[i][ident] != i:
            raise TableNotAGroup("identity row/column is not the identity")
    return tuple(candidate.table)


def _frozen_from_polys(min_poly, auts, encl, identity_index=0):
    """datum_from_automorphism_polys as it was: the min-poly pre-check and
    the table build, then verification of the table."""
    for i, q in enumerate(auts):
        if not _frozen_compose_mod(min_poly, q, min_poly).is_zero:
            raise AutomorphismFailsMinPoly(f"automorphism {i} fails the minimal polynomial")
    table = _frozen_table_from_polys(list(auts), min_poly)
    return _frozen_verify(GaloisDatum(min_poly, tuple(auts), identity_index, table,
                                      tuple(encl)))


def _frozen_automorphism_matrix(datum, index):
    """The lazy build: columns 1, q(theta), q(theta)^2, ... by field
    multiplication."""
    cols = []
    power = datum.one()
    sigma_theta = datum.element(datum.automorphisms[index].coeffs)
    for _ in range(datum.degree):
        cols.append(power.coeffs)
        power = power * sigma_theta
    return RationalMatrix(zip(*cols))


def _cleared(m):
    """The integer pair (A, D) of a rational matrix, as clear_denominators
    gives it, with A's rows as tuples."""
    a, da = fl.clear_denominators(m.entries)
    return tuple(map(tuple, a)), da


def _frozen_apply(datum, index, x):
    """apply_automorphism as it was: the frozen Fraction matrix times x's
    coordinates."""
    return type(x)(datum, tuple(fl.mat_vec(_frozen_automorphism_matrix(datum, index).entries, x.coeffs)))


def _verdict(fn, *args):
    try:
        return ("ok", fn(*args))
    except AnosovError as e:
        return (type(e).__name__, str(e))


def _new_verify(candidate):
    return verify_galois_datum(candidate).table


def _new_from_polys(min_poly, auts, encl, identity_index=0):
    return datum_from_automorphism_polys(min_poly, auts, encl, identity_index).table


def _expected_from_polys(min_poly, auts, encl, identity_index=0):
    """The frozen verdicts in verify_galois_datum's order: a fault that
    verification finds before the table (irreducibility, count, reduction,
    min-poly, duplicates, identity) comes first; otherwise the frozen table
    build and its verification decide."""
    try:
        # a table of None stops the frozen checks at the table, by TypeError
        _frozen_verify(GaloisDatum(min_poly, tuple(auts), identity_index, None, tuple(encl)))
    except TypeError:
        return _verdict(_frozen_from_polys, min_poly, auts, encl, identity_index)
    except AnosovError as e:
        return (type(e).__name__, str(e))
    raise AssertionError("the frozen checks passed a datum with no table")


_BIQUADRATIC_GRID = [(2, 3), (3, 2), (5, 2), (2, 5), (6, 5), (7, 2), (10, 3),
                     (11, 2), (3, 7), (7, 5), (13, 6)]


def _frozen_cases():
    """name -> a verified datum built by the code under test from fixed
    automorphism polynomials."""
    cases = {"sqrt2": sqrt2_datum(), "cyclic_cubic": cyclic_cubic_datum(),
             "quartic_z4": quartic_z4_datum()}
    cases.update({f"biquadratic{k, l}": biquadratic_datum(k, l) for k, l in _BIQUADRATIC_GRID})
    return cases


_FROZEN_CASES = _frozen_cases()


def _with(datum, **changes):
    fields = dict(min_poly=datum.min_poly, automorphisms=datum.automorphisms,
                  identity_index=datum.identity_index, table=datum.table,
                  root_enclosures=datum.root_enclosures)
    fields.update(changes)
    return GaloisDatum(**fields)


@pytest.mark.parametrize("build", [sqrt2_datum, cyclic_cubic_datum, quartic_z4_datum])
def test_catalog_datum_is_built_once(build):
    first = build()
    assert first.verified and build() is first
    fresh = build.__wrapped__()
    assert fresh.verified and fresh is not first
    assert (fresh, fresh.root_map) == (first, first.root_map)


class TestFrozenComposition:
    @pytest.mark.parametrize("name", sorted(_FROZEN_CASES))
    def test_catalog_tables_match(self, name):
        datum = _FROZEN_CASES[name]
        args = (datum.min_poly, datum.automorphisms, datum.root_enclosures)
        assert ("ok", datum.table) == _verdict(_frozen_from_polys, *args)
        assert _verdict(_new_verify, _with(datum)) == _verdict(_frozen_verify, _with(datum))
        assert _verdict(_new_verify, _with(datum, table=None)) == ("ok", datum.table)

    @pytest.mark.parametrize("name", sorted(_FROZEN_CASES))
    def test_automorphism_matrix_repr(self, name):
        datum = _FROZEN_CASES[name]
        for i in range(datum.degree):
            assert automorphism_matrix(datum, i) == _cleared(_frozen_automorphism_matrix(datum, i))

    @pytest.mark.parametrize("name", sorted(_FROZEN_CASES))
    def test_apply_matches_the_frozen_fraction_path(self, name):
        datum = _FROZEN_CASES[name]
        rng = random.Random(name)
        fracs = [F(1, 2), F(-3, 7), F(5, 6), F(2), F(0), F(-1, 9)]
        elements = [datum.element([rng.choice(fracs) for _ in range(datum.degree)])
                    for _ in range(6)] + [datum.zero(), datum.one(), datum.generator()]
        for x in elements:
            for i in range(datum.degree):
                assert repr(apply_automorphism(datum, i, x)) == repr(_frozen_apply(datum, i, x))

    @pytest.mark.parametrize("name", sorted(_FROZEN_CASES))
    def test_relabeled_automorphisms(self, name):
        datum = _FROZEN_CASES[name]
        d = datum.degree
        perm = list(reversed(range(d)))  # new label a holds old label perm[a]
        inv = {old: new for new, old in enumerate(perm)}
        auts = tuple(datum.automorphisms[o] for o in perm)
        table = tuple(tuple(inv[datum.table[perm[a]][perm[b]]] for b in range(d))
                      for a in range(d))
        ident = inv[datum.identity_index]
        relabeled = _with(datum, automorphisms=auts, table=table, identity_index=ident)
        assert _verdict(_new_verify, relabeled) == _verdict(_frozen_verify, relabeled) \
            == ("ok", table)
        args = (datum.min_poly, auts, datum.root_enclosures, ident)
        assert _verdict(_new_from_polys, *args) == _verdict(_frozen_from_polys, *args) \
            == ("ok", table)

    @pytest.mark.parametrize("seed", range(40))
    def test_perturbed_coefficients(self, seed):
        rng = random.Random(seed)
        datum = _FROZEN_CASES[rng.choice(sorted(_FROZEN_CASES))]
        d = datum.degree
        auts = list(datum.automorphisms)
        i, k = rng.randrange(d), rng.randrange(d)
        if rng.random() < 0.25:
            # a valid automorphism in the wrong slot: a duplicate
            auts[i] = auts[rng.randrange(d)]
        else:
            coeffs = [auts[i][m] for m in range(d)]
            coeffs[k] += rng.choice([F(1), F(-1), F(1, 2), F(-2, 3)])
            auts[i] = P(coeffs)
        bad = _with(datum, automorphisms=tuple(auts))
        assert _verdict(_new_verify, bad) == _verdict(_frozen_verify, bad)
        args = (datum.min_poly, auts, datum.root_enclosures)
        assert _verdict(_new_from_polys, *args) == _expected_from_polys(*args)

    @pytest.mark.parametrize("name", sorted(_FROZEN_CASES))
    def test_bad_tables(self, name):
        datum = _FROZEN_CASES[name]
        d = datum.degree
        t = [list(row) for row in datum.table]
        tables = []
        for i in range(d):
            for j in range(d):
                for k in (-1, d, (t[i][j] + 1) % d):
                    bad = [list(row) for row in t]
                    bad[i][j] = k
                    tables.append(bad)
        for i in range(d):
            swapped = [list(row) for row in t]
            swapped[i][0], swapped[i][-1] = swapped[i][-1], swapped[i][0]
            tables.append(swapped)
        tables.append(t[::-1])
        tables.append(t[:-1])
        tables.append([row[:-1] for row in t])
        for table in tables:
            bad = _with(datum, table=tuple(tuple(row) for row in table))
            assert _verdict(_new_verify, bad) == _verdict(_frozen_verify, bad)
            assert _verdict(_new_verify, bad)[0] == "TableNotAGroup"
        for ident in (-1, d, *range(d)):
            bad = _with(datum, identity_index=ident)
            assert _verdict(_new_verify, bad) == _verdict(_frozen_verify, bad)

    def test_non_closed_set(self):
        # X^3 - X = X (X - 1)(X + 1) with assume_irreducible: the "field" is
        # Q^3, and q maps the roots 0, 1, -1 to roots; the transposition
        # (0 1) and the map theta -> -theta compose to a map outside the set
        p = P([0, -1, 0, 1])
        auts = (P.x(), P([1, F(1, 2), F(-3, 2)]), P([0, -1]))
        encl = (Interval(F(1, 2), F(3, 2)), Interval(F(-1, 2), F(1, 2)),
                Interval(F(-3, 2), F(-1, 2)))
        derived = GaloisDatum(p, auts, 0, None, encl, assume_irreducible=True)
        expected = ("TableNotAGroup", "automorphisms not closed under composition")
        assert _verdict(verify_galois_datum, derived, 1) == expected
        assert _verdict(_frozen_table_from_polys, auts, p) == expected
        given = replace(derived, table=((0, 1, 2), (1, 0, 2), (2, 1, 0)))
        assert _verdict(lambda c: verify_galois_datum(c, 1).table, given) == \
            _verdict(_frozen_verify, given, 1) == \
            ("TableNotAGroup", "table entry (1,2) does not match composition")
        # from the polynomials alone, irreducibility now comes first
        assert _verdict(_new_from_polys, p, auts, encl)[0] == "NotIrreducible"
        assert _verdict(_frozen_from_polys, p, auts, encl) == expected
        assert _expected_from_polys(p, auts, encl)[0] == "NotIrreducible"

    def test_non_abelian_regular_action(self):
        # S3 acting on itself by left multiplication, on the six rational
        # roots 0..5 of p (the algebra Q^6 under assume_irreducible): the
        # only datum here whose table is not symmetric, so it tells
        # sigma_i o sigma_j from sigma_j o sigma_i
        from itertools import permutations

        group = list(permutations(range(3)))
        roots = range(6)
        p = math.prod((P([-r, 1]) for r in roots), start=P([1]))

        def interpolate(values):
            q = P([])
            for k in roots:
                basis = P([values[k]])
                for m in roots:
                    if m != k:
                        basis = basis * P([F(-m, k - m), F(1, k - m)])
                q = q + basis
            return q

        auts = tuple(interpolate([group.index(tuple(g[h[x]] for x in range(3)))
                                  for h in group]) for g in group)
        encl = tuple(Interval(r - F(1, 3), r + F(1, 3)) for r in reversed(roots))
        derived = GaloisDatum(p, auts, 0, None, encl, assume_irreducible=True)
        table = _frozen_table_from_polys(auts, p)
        assert table != tuple(zip(*table))
        out = verify_galois_datum(derived, 1)
        assert out.table == table and out.assume_irreducible
        for t in (table, tuple(zip(*table))):
            given = replace(derived, table=t)
            assert _verdict(lambda c: verify_galois_datum(c, 1).table, given) == \
                _verdict(_frozen_verify, given, 1)
        for i in range(6):
            assert automorphism_matrix(out, i) == _cleared(_frozen_automorphism_matrix(out, i))
            x = out.element([F(k + 1, 6 - k) for k in range(6)])
            assert repr(apply_automorphism(out, i, x)) == repr(_frozen_apply(out, i, x))

    @pytest.mark.parametrize("auts, table, ident", [
        ((P([3]),), ((0,),), 0),
        ((P([5]),), ((0,),), 0),
        ((P([3]),), ((1,),), 0),
        ((P([3]),), ((-1,),), 0),
        ((P([3]),), ((0,),), 1),
        ((P([3]),), ((0, 0),), 0),
        ((P([3]), P([3])), ((0, 0), (0, 0)), 0),
    ])
    def test_degree_one(self, auts, table, ident):
        p = P([-3, 1])
        encl = (Interval.point(3),)
        candidate = GaloisDatum(p, auts, ident, table, encl)
        assert _verdict(_new_verify, candidate) == _verdict(_frozen_verify, candidate)
        args = (p, auts, encl, ident)
        assert _verdict(_new_from_polys, *args) == _expected_from_polys(*args)


class TestDegreeOneRules:
    def test_constant_root_accepted(self):
        d = verify_galois_datum(GaloisDatum(P([-3, 1]), (P([3]),), 0, None,
                                            (Interval.point(3),)))
        assert d.table == ((0,),)
        assert automorphism_matrix(d, 0) == (((1,),), 1) == \
            _cleared(_frozen_automorphism_matrix(d, 0))
        assert apply_automorphism(d, 0, d.generator()) == 3

    @pytest.mark.parametrize("q", [P.x(), P([0, 0, F(1, 3)])])
    def test_unreduced_automorphism_rejected(self, q):
        # theta -> theta is the identity and 3 -> 3^2 / 3 a root, but
        # neither polynomial is reduced mod X - 3; the frozen composition
        # path lets both through to the table
        candidate = GaloisDatum(P([-3, 1]), (q,), 0, ((0,),), (Interval.point(3),))
        with pytest.raises(BadParameters, match="automorphism 0 not reduced"):
            verify_galois_datum(candidate)
        assert _verdict(_frozen_verify, candidate) == \
            ("TableNotAGroup", "table entry (0,0) does not match composition")

    def test_wrong_constant_rejected(self):
        with pytest.raises(AutomorphismFailsMinPoly):
            datum_from_automorphism_polys(P([-3, 1]), [P([4])], [Interval.point(3)])

    def test_automorphism_matrix_needs_verified_datum(self, sqrt2):
        with pytest.raises(BadParameters):
            automorphism_matrix(_with(sqrt2), 1)


class TestAutomorphismIndex:
    @pytest.mark.parametrize("name", ["sqrt2", "quartic_z4"])
    def test_out_of_range_index_is_rejected(self, name):
        # -1 used to read the last automorphism, d a bare IndexError
        datum = _FROZEN_CASES[name]
        x = datum.element([1, 1])
        for index in (-1, datum.degree):
            with pytest.raises(BadParameters, match="out of range"):
                automorphism_matrix(datum, index)
            with pytest.raises(BadParameters, match="out of range"):
                apply_automorphism(datum, index, x)
            with pytest.raises(BadParameters, match="out of range"):
                datum.inverse_index(index)

    def test_inverse_index_needs_a_verified_datum(self, sqrt2):
        # with table=None this used to raise a bare TypeError
        for table in (None, sqrt2.table):
            with pytest.raises(BadParameters, match="verified"):
                _with(sqrt2, table=table).inverse_index(1)


class TestConjugateIndex:
    @pytest.mark.parametrize("name", ["cyclic_cubic", "quartic_z4"])
    def test_totally_real_path(self, name):
        # on the cyclic cubic, compare_abs_to_one(1 + theta, -1) used to
        # answer -1 for the last conjugate, and d raised a bare IndexError
        datum = _FROZEN_CASES[name]
        for x in (datum.element([1, 1]), datum.element([F(-3, 2)])):
            for index in (-1, datum.degree):
                with pytest.raises(BadParameters, match="out of range"):
                    conjugate_levels(x, index)
                with pytest.raises(BadParameters, match="out of range"):
                    conjugate_modulus_interval(x, index, F(1, 4))
                with pytest.raises(BadParameters, match="out of range"):
                    compare_abs_to_one(x, index)

    def test_root_moduli_path(self):
        datum = verify_galois_datum(GaloisDatum(
            min_poly=P([2, -1, 1]), automorphisms=(P.x(), P([1, -1])),
            identity_index=0, table=((0, 1), (1, 0)), totally_real=False,
            root_moduli=(Interval(F(7, 5), F(3, 2)),) * 2,
        ))
        th = datum.generator()
        assert compare_abs_to_one(th, 1) == 1
        for index in (-1, 2):
            with pytest.raises(BadParameters, match="out of range"):
                conjugate_modulus_interval(th, index, 1)
            with pytest.raises(BadParameters, match="out of range"):
                compare_abs_to_one(th, index)

    def test_conjugate_levels_without_root_paths(self):
        # a datum that is not totally real used to raise a bare TypeError
        # here, and a degree-1 datum a bare IndexError
        complex_datum = verify_galois_datum(GaloisDatum(
            min_poly=P([2, -1, 1]), automorphisms=(P.x(), P([1, -1])),
            identity_index=0, table=((0, 1), (1, 0)), totally_real=False,
            root_moduli=(Interval(F(7, 5), F(3, 2)),) * 2,
        ))
        rational = verify_galois_datum(GaloisDatum(P([-3, 1]), (P([3]),), 0, None,
                                                   (Interval.point(3),)))
        for datum in (complex_datum, rational):
            for index in range(datum.degree):
                with pytest.raises(BadParameters, match="totally real datum of degree > 1"):
                    conjugate_levels(datum.generator(), index)


class TestNonIntegralMinPoly:
    """An unverified datum whose monic minimal polynomial X^2 + X/2 - 1 is
    not integral (verification refuses it).  Its elements' charpoly, trace
    and norm are what they were when _multiplication_rows read p's
    Fractions; a product and the inverse, which then raised TypeError and
    returned theta, are exact."""

    @pytest.fixture
    def datum(self):
        p = P([-1, F(1, 2), 1])
        return GaloisDatum(p, (P.x(), P([F(-1, 2), -1])), 0, None,
                           (Interval(F(1, 2), 1), Interval(-2, -1)))

    def test_charpoly_trace_and_norm(self, datum):
        th, x = datum.generator(), datum.element([F(1, 3), 2])
        assert repr(th.charpoly()) == "Polynomial(-1 + 1/2*X + X^2)"
        assert (th.trace(), th.norm()) == (F(-1, 2), F(-1))
        assert repr(x.charpoly()) == "Polynomial(-38/9 + 1/3*X + X^2)"
        assert (x.trace(), x.norm()) == (F(-1, 3), F(-38, 9))
        assert repr(datum.element([3]).charpoly()) == "Polynomial(9 + -6*X + X^2)"

    def test_product_and_inverse(self, datum):
        th = datum.generator()
        assert th * th == datum.element([1, F(-1, 2)])
        assert th.inverse() == datum.element([F(1, 2), 1])
        assert th * th.inverse() == 1
        assert datum.element([3]) * th == datum.element([0, 3])
        with pytest.raises(BadParameters):
            verify_galois_datum(datum)
