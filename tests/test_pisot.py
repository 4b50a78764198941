from fractions import Fraction as F

import pytest

from anosovforms.errors import BadParameters, SearchBudgetExceeded
from anosovforms.numfield import apply_automorphism, biquadratic_datum
from anosovforms.pisot import (
    SEARCH_BUDGET,
    ConeConstraint,
    brute_force_full_rank,
    check_full_rank_condition,
    is_unit_pisot,
    pisot_cone,
    search_unit_pisot,
    search_units,
)


class TestIsUnitPisot:
    def test_golden_like(self, sqrt2):
        assert is_unit_pisot(sqrt2.element([1, 1]))

    def test_sqrt2_not_unit(self, sqrt2):
        assert not is_unit_pisot(sqrt2.element([0, 1]))

    def test_quartic_generator(self, quartic):
        assert is_unit_pisot(quartic.generator())

    def test_negative_rejected(self, sqrt2):
        # -1 - sqrt2 has modulus > 1 but is negative, hence not Pisot
        assert not is_unit_pisot(sqrt2.element([-1, -1]))

    def test_rational_rejected(self, sqrt2):
        assert not is_unit_pisot(sqrt2.element([-1]))
        assert not is_unit_pisot(sqrt2.element([2]))


class TestConstraints:
    def test_rel_validation(self):
        with pytest.raises(BadParameters):
            ConeConstraint((1, 0), "<=1")

    def test_existence_constraint(self, sqrt2):
        lam = sqrt2.element([1, 1])
        c = ConeConstraint((1, 2), "<1")  # |lambda sigma(lambda)^2| < 1
        assert c.holds_for(lam)
        # exact witness: lambda * sigma(lambda)^2 = sqrt2 - 1
        mu = lam * apply_automorphism(sqrt2, 1, lam) ** 2
        assert mu == sqrt2.element([-1, 1])

    def test_norm_constraint_empty(self, sqrt2):
        # prod of all conjugate moduli of a unit is 1: demanding > 1 fails
        c = ConeConstraint((1, 1), ">1")
        found = search_units(sqrt2, 2, constraints=[c])
        assert found == []

    def test_tie_is_decided_exactly(self, sqrt2):
        c = ConeConstraint((1, 1), "<1")
        assert not c.holds_for(sqrt2.element([1, 1]))


class TestSearch:
    def test_finds_golden(self, sqrt2):
        found = search_units(sqrt2, 2, constraints=pisot_cone(sqrt2))
        assert sqrt2.element([1, 1]) in found

    def test_height_zero(self, sqrt2):
        assert search_units(sqrt2, 0) == []

    def test_box_over_budget(self, sqrt2):
        # height 2 in degree 2: 5^2 - 1 = 24 box points
        with pytest.raises(SearchBudgetExceeded):
            search_units(sqrt2, 2, candidate_budget=23)
        assert search_units(sqrt2, 2, candidate_budget=24)

    def test_product_round_over_budget(self, sqrt2):
        # height 1: 8 box points, 6 of them units (+-1 and +-1 +- sqrt2), so
        # one product round forms 15 pairs; past the budget it raises
        # instead of returning the unclosed set
        with pytest.raises(SearchBudgetExceeded, match="15 pairs"):
            search_units(sqrt2, 1, candidate_budget=14)
        assert search_units(sqrt2, 1, candidate_budget=15)

    def test_budget_is_a_constant(self, sqrt2, monkeypatch):
        monkeypatch.setenv("ANOSOV_SEARCH_BUDGET", "1")
        assert search_units(sqrt2, 2) == \
            search_units(sqrt2, 2, candidate_budget=SEARCH_BUDGET)
        assert SEARCH_BUDGET == 200_000

    def test_pisot_wrapper_positive(self, sqrt2):
        found = search_unit_pisot(sqrt2, 2)
        assert found and all(is_unit_pisot(u) for u in found)
        assert sqrt2.element([1, 1]) in found

    def test_deterministic(self, sqrt2):
        a = search_units(sqrt2, 2, constraints=pisot_cone(sqrt2))
        b = search_units(sqrt2, 2, constraints=pisot_cone(sqrt2))
        assert a == b

    def test_powers_in_cone(self, sqrt2):
        for u in search_unit_pisot(sqrt2, 2):
            for k in range(1, 5):
                assert is_unit_pisot(u ** k)

    def test_results_recheck(self, quartic):
        cone = pisot_cone(quartic)
        for u in search_unit_pisot(quartic, 1):
            assert all(c.holds_for(u) for c in cone)

    def test_quartic_cone_contains_generator(self, quartic):
        found = search_unit_pisot(quartic, 1)
        assert quartic.generator() in found

    def test_combined_cone_and_existence_constraint(self, sqrt2):
        extra = ConeConstraint((1, 2), "<1")
        found = search_unit_pisot(sqrt2, 2, extra_constraints=[extra])
        assert sqrt2.element([1, 1]) in found


def frozen_search_unit_pisot(datum, height, extra=()):
    """search_unit_pisot as it re-decided every hit with is_unit_pisot."""
    hits = search_units(datum, height, 1, pisot_cone(datum) + list(extra))
    return [u for u in hits if is_unit_pisot(u)]


@pytest.mark.parametrize("name,height", [("sqrt2", 3), ("cubic", 2), ("quartic", 2),
                                         ("biquad52", 2), ("biquad37", 2)])
def test_search_unit_pisot_matches_frozen(name, height, request):
    datum = biquadratic_datum(3, 7) if name == "biquad37" else request.getfixturevalue(name)
    cones = [()]
    if datum.degree == 4:
        cones.append((ConeConstraint((1, 0, 2, 0), "<1"),))
    for extra in cones:
        found = search_unit_pisot(datum, height, extra_constraints=list(extra))
        assert found == frozen_search_unit_pisot(datum, height, extra)
        assert all(type(c) is F for u in found for c in u.coeffs)


class TestFullRank:
    def test_golden(self, sqrt2):
        lam = sqrt2.element([1, 1])
        assert check_full_rank_condition(lam, 5)
        assert brute_force_full_rank(lam, 5)

    def test_rational_unit_vacuous(self):
        from anosovforms.exactmath import Interval, Polynomial
        from anosovforms.numfield import datum_from_automorphism_polys

        d = datum_from_automorphism_polys(
            Polynomial([1, 1]), [Polynomial([-1])], [Interval(F(-1), F(-1))]
        )
        assert check_full_rank_condition(d.element([-1]), 5)

    def test_violating_unit(self, sqrt2):
        # sqrt2+1 times its conjugate is -1: exponents (1,1) are equal, so
        # no violation; but 3+2sqrt2 = (1+sqrt2)^2 also passes; construct a
        # genuine violation from a unit that is its own conjugate inverse
        lam = sqrt2.element([1, 1])
        mu = lam * apply_automorphism(sqrt2, 1, lam)  # = -1
        assert mu == sqrt2.element([-1])

    def test_quartic_theta(self, quartic):
        th = quartic.generator()
        assert check_full_rank_condition(th, 3)
        assert brute_force_full_rank(th, 3)
