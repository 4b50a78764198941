from fractions import Fraction as F
from itertools import permutations, product

import pytest
from test_pisot import frozen_is_unit_pisot, frozen_search_unit_pisot

from anosovforms import numfield, pisot, recipes
from anosovforms.anosov import check_type_constraints
from anosovforms.errors import BadParameters, ConstraintFailed, NotPisot, PisotNotFound
from anosovforms.exactmath import RationalMatrix
from anosovforms.liealg import Grading, abelian, heisenberg
from anosovforms.numfield import biquadratic_datum, biquadratic_sqrts
from anosovforms.pfaffian import PellSolution, binary_form_of, classify_type42, solve_pell
from anosovforms.pisot import is_unit_pisot
from anosovforms.recipes import (
    biquadratic_pisot_unit,
    recipe_count,
    recipe_csig,
    recipe_csig_default,
    recipe_last,
    recipe_laur,
    recipe_z4_example,
)

GOLD_MATRIX = RationalMatrix([
    [0, 0, 0, -1, 0, 0],
    [1, 0, 0, -1, 0, 0],
    [0, 1, 0, 4, 0, 0],
    [0, 0, 1, 4, 0, 0],
    [0, 0, 0, 0, F(-1, 2), F(-1, 2)],
    [0, 0, 0, 0, F(-1, 2), F(-5, 2)],
])

GOLD_BRACKETS = (
    (0, 1, 4, F(1)),
    (0, 2, 5, F(1)),
    (0, 3, 4, F(3, 2)),
    (0, 3, 5, F(9, 2)),
    (1, 2, 4, F(-1, 2)),
    (1, 2, 5, F(-1, 2)),
    (1, 3, 4, F(-1, 2)),
    (1, 3, 5, F(-5, 2)),
    (2, 3, 4, F(1, 2)),
    (2, 3, 5, F(3, 2)),
)


class TestZ4:
    def test_gold_matrix(self):
        out = recipe_z4_example()
        assert out.matrix == GOLD_MATRIX

    def test_gold_brackets(self):
        out = recipe_z4_example()
        assert out.algebra.brackets == GOLD_BRACKETS

    def test_certificate(self):
        cert = recipe_z4_example().certificate
        assert cert.signature == (2, 4)
        assert cert.algebra_type == (4, 2)
        assert cert.minimal_signature

    def test_classification(self):
        out = recipe_z4_example()
        assert classify_type42(out.algebra) == (5, True)
        assert binary_form_of(out.algebra).discriminant == F(5, 4)


class TestCount:
    def test_5_2(self):
        out = recipe_count(5, 2)
        assert out.certificate.signature == (2, 4)
        assert out.provenance["classified"] == 5

    def test_2_3(self):
        out = recipe_count(2, 3)
        assert out.certificate.signature == (2, 4)
        assert out.provenance["classified"] == 2

    def test_2_26(self):
        # the field's unfiltered factor box exceeds the budget
        out = recipe_count(2, 26)
        assert out.certificate.hyperbolic and out.certificate.signature == (2, 4)
        assert out.provenance["classified"] == 2

    def test_bad_parameters(self):
        with pytest.raises(BadParameters):
            recipe_count(4, 2)

    def test_charpoly_is_label_product(self):
        out = recipe_count(3, 2)
        p = out.matrix.charpoly()
        assert p.degree == 6 and p.is_integer and abs(p.constant) == 1

    def test_charpoly_factors_into_minpolys(self, biquad52):
        from anosovforms.numfield import (
            apply_automorphism,
            biquadratic_sqrts,
            minimal_polynomial,
        )

        lam = biquadratic_pisot_unit(biquad52, 5, 2)
        out = recipe_count(5, 2, lam)
        sk, _ = biquadratic_sqrts(biquad52, 5, 2)
        tau = next(i for i in range(1, 4)
                   if apply_automorphism(biquad52, i, sk) == sk)
        pair = lam * apply_automorphism(biquad52, tau, lam)
        assert out.matrix.charpoly() == \
            minimal_polynomial(lam) * minimal_polynomial(pair)

    def test_subfield_unit_fallback(self, biquad52):
        lam = biquadratic_pisot_unit(biquad52, 5, 2)
        assert is_unit_pisot(lam)

    def test_explicit_lambda(self, biquad52):
        lam = biquadratic_pisot_unit(biquad52, 5, 2)
        out = recipe_count(5, 2, lam)
        assert out.provenance["classified"] == 5

    def test_non_pisot_rejected(self, biquad52):
        with pytest.raises(NotPisot):
            recipe_count(5, 2, biquad52.element([2]))


# frozen references: the subfield-unit search running is_unit_pisot on
# each candidate, and recipe_count's choice of lambda as a height-2 box
# search with that search as the fallback


def frozen_biquadratic_pisot_unit(datum, k, l, exponent_bound=5):
    sk, sl = biquadratic_sqrts(datum, k, l)
    units = []
    for m, s in ((k, sk), (l, sl), (k * l, sk * sl)):
        sol = solve_pell(m)
        units.append((datum.one() * F(sol.x, 2)) + s * F(sol.y, 2))
    inverses = [u.inverse() for u in units]
    exps = sorted(product(range(-exponent_bound, exponent_bound + 1), repeat=3),
                  key=lambda e: (sum(abs(x) for x in e), e))
    for e in exps:
        if all(x == 0 for x in e):
            continue
        cand = datum.one()
        for x, u, iu in zip(e, units, inverses):
            for _ in range(abs(x)):
                cand = cand * (u if x > 0 else iu)
        if frozen_is_unit_pisot(cand):
            return cand
    raise PisotNotFound("no Pisot unit among subfield-unit products")


def frozen_count_lambda(datum, k, l):
    found = frozen_search_unit_pisot(datum, 2)
    return found[0] if found else frozen_biquadratic_pisot_unit(datum, k, l)


SQUAREFREE_UP_TO_11 = (2, 3, 5, 6, 7, 10, 11)


@pytest.mark.parametrize("k,l", list(permutations(SQUAREFREE_UP_TO_11, 2)))
def test_count_lambda_matches_frozen(k, l):
    datum = biquadratic_datum(k, l)
    want = frozen_count_lambda(datum, k, l)
    lam = biquadratic_pisot_unit(datum, k, l)
    assert repr(lam) == repr(want)
    assert repr(frozen_biquadratic_pisot_unit(datum, k, l)) == repr(want)
    assert recipe_count(k, l).provenance["lambda"] == [str(c) for c in want.coeffs]


def test_count_runs_no_box_search(monkeypatch):
    calls = []
    search = pisot.search_units

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)
    monkeypatch.setattr(pisot, "search_units", counted)
    recipe_count(5, 2)
    assert calls == []


def test_subfield_unit_search_tests_three_units(monkeypatch):
    """is_algebraic_unit runs on the three Pell units only: a product of
    units is a unit, so the candidates meet the cone check alone."""
    datum = biquadratic_datum(5, 2)
    calls = []
    unit_test = numfield.is_algebraic_unit

    def counted(x):
        calls.append(x)
        return unit_test(x)
    for module in (numfield, pisot, recipes):
        monkeypatch.setattr(module, "is_algebraic_unit", counted, raising=False)
    lam = biquadratic_pisot_unit(datum, 5, 2)
    assert len(calls) == 3
    assert frozen_is_unit_pisot(lam)


def test_subfield_unit_search_refuses_a_non_unit_pell_solution(monkeypatch, biquad52):
    """The candidates skip the unit test only because the Pell units pass
    it: 1 + sqrt m (norm 1 - m) is refused before any product is formed."""
    monkeypatch.setattr(recipes, "solve_pell",
                        lambda m: PellSolution(2, 2) if m == 5 else solve_pell(m))
    with pytest.raises(PisotNotFound, match="not an algebraic unit"):
        biquadratic_pisot_unit(biquad52, 5, 2)


class TestLaur:
    def test_heisenberg_sqrt2(self, sqrt2):
        out = recipe_laur(heisenberg(), Grading((2, 1)), sqrt2,
                          sqrt2.element([1, 1]))
        assert out.certificate.signature == (3, 3)
        assert out.certificate.algebra_type == (4, 2)

    def test_abelian_toral(self, sqrt2):
        out = recipe_laur(abelian(1), Grading((1,)), sqrt2,
                          sqrt2.element([1, 1]))
        assert out.certificate.signature == (1, 1)
        assert out.certificate.algebra_type == (2,)

    def test_rejects_non_pisot(self, sqrt2):
        with pytest.raises(NotPisot):
            recipe_laur(heisenberg(), Grading((2, 1)), sqrt2,
                        sqrt2.element([0, 1]))

    def test_rejects_bad_grading(self, sqrt2):
        from anosovforms.errors import NotGraded

        with pytest.raises(NotGraded):
            recipe_laur(heisenberg(), Grading((1, 2)), sqrt2,
                        sqrt2.element([1, 1]))

    def test_cubic_field_three_copies(self, cubic, cubic_unit):
        out = recipe_laur(heisenberg(), Grading((2, 1)), cubic, cubic_unit)
        assert out.algebra.dim == 9
        assert out.certificate.algebra_type == (6, 3)


class TestCsig:
    def test_c2(self, csig_pair):
        datum, lam = csig_pair
        out = recipe_csig(datum, lam, 2)
        assert out.certificate.algebra_type == (4, 2)
        assert out.certificate.signature == (2, 4)
        assert out.certificate.minimal_signature

    def test_c3(self, csig_pair):
        datum, lam = csig_pair
        out = recipe_csig(datum, lam, 3)
        assert out.certificate.algebra_type == (4, 2, 4)
        assert out.certificate.signature == (3, 7)
        assert out.certificate.minimal_signature

    def test_default_fixture(self):
        out = recipe_csig_default(2)
        assert out.certificate.minimal_signature

    def test_theta_fails_constraint(self, quartic):
        # the generator itself is unit Pisot but |theta sigma^2(theta)^2|>1
        with pytest.raises(ConstraintFailed):
            recipe_csig(quartic, quartic.generator(), 2)

    def test_class_grows_dimension(self, csig_pair):
        datum, lam = csig_pair
        out4 = recipe_csig(datum, lam, 4)
        assert out4.certificate.algebra_type == (4, 2, 4, 4)
        assert out4.certificate.minimal_signature
        assert min(out4.certificate.signature) == 4


class TestLast:
    def test_n3_c3(self, cubic, cubic_unit):
        out = recipe_last(cubic, cubic_unit, 3)
        assert out.certificate.algebra_type == (3, 3, 3)
        assert check_type_constraints(out.certificate.algebra_type) == "case_iii"

    def test_n3_c2(self, cubic, cubic_unit):
        out = recipe_last(cubic, cubic_unit, 2)
        assert out.certificate.algebra_type == (3, 3)

    def test_n3_c1_toral(self, cubic, cubic_unit):
        out = recipe_last(cubic, cubic_unit, 1)
        assert out.certificate.algebra_type == (3,)
        # eigenvalues are the conjugates of the unit, so the charpoly is
        # its minimal polynomial
        from anosovforms.numfield import minimal_polynomial

        assert out.matrix.charpoly() == minimal_polynomial(cubic_unit)

    def test_rejects_non_pisot(self, cubic):
        with pytest.raises(NotPisot):
            recipe_last(cubic, cubic.generator(), 2)

    def test_n4_c2(self, quartic):
        out = recipe_last(quartic, quartic.generator(), 2)
        assert out.certificate.algebra_type == (4, 4)
        assert check_type_constraints(out.certificate.algebra_type) == "case_ii"


@pytest.fixture(scope="module")
def all_outputs(csig_pair, cubic, cubic_unit, sqrt2):
    datum, lam = csig_pair
    return [
        recipe_z4_example(),
        recipe_count(5, 2),
        recipe_laur(heisenberg(), Grading((2, 1)), sqrt2,
                    sqrt2.element([1, 1])),
        recipe_csig(datum, lam, 2),
        recipe_last(cubic, cubic_unit, 2),
    ]


class TestRecipeInvariants:
    def test_all_anosov(self, all_outputs):
        for out in all_outputs:
            assert out.certificate.integer_like
            assert out.certificate.hyperbolic

    def test_types_feasible(self, all_outputs):
        for out in all_outputs:
            assert check_type_constraints(out.certificate.algebra_type) != "infeasible"

    def test_signature_bound(self, all_outputs):
        for out in all_outputs:
            cert = out.certificate
            assert min(cert.signature) >= cert.nilpotency_class
