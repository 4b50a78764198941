import random
from fractions import Fraction as F

import pytest

from anosovforms.errors import (
    BadParameters,
    PrecisionUnreachable,
    SearchBudgetExceeded,
    Undecidable,
)
from anosovforms.exactmath import Interval, Polynomial
from anosovforms.numfield import (
    GaloisDatum,
    apply_automorphism,
    biquadratic_datum,
    compare_abs_to_one,
    conjugate_levels,
    is_algebraic_unit,
    refine_until,
    verify_galois_datum,
)
from anosovforms.pisot import (
    SEARCH_BUDGET,
    ConeConstraint,
    brute_force_full_rank,
    check_full_rank_condition,
    in_pisot_cone,
    is_unit_pisot,
    search_unit_pisot,
    search_units,
)
from anosovforms.recipes import biquadratic_pisot_unit
from test_frozen_field_layer import sign_against

# ---------------------------------------------------------------------------
# frozen references: the Pisot cone as a constraint list, the sign of the
# distinguished embedding refined a second time, and the unit Pisot test
# built from both


def pisot_cone(datum):
    """The constraints defining unit Pisot numbers: own embedding > 1 and
    every other conjugate of modulus < 1."""
    d = datum.degree
    return [ConeConstraint(tuple(1 if j == i else 0 for j in range(d)),
                           ">1" if i == datum.identity_index else "<1")
            for i in range(d)]


def frozen_embeds_negative(lam):
    datum = lam.datum
    if lam.is_rational:
        return lam.rational_value() < 0
    if not datum.totally_real:
        return False
    conj = conjugate_levels(lam, datum.identity_index)
    return refine_until(lambda k: sign_against(conj(k), 0)) < 0


def frozen_is_unit_pisot(lam):
    datum = lam.datum
    if not datum.verified:
        raise BadParameters("is_unit_pisot requires a verified datum")
    if not is_algebraic_unit(lam) or lam.is_rational:
        return False
    try:
        for i in range(datum.degree):
            want = 1 if i == datum.identity_index else -1
            if compare_abs_to_one(lam, i) != want:
                return False
        return not frozen_embeds_negative(lam)
    except PrecisionUnreachable as e:
        raise Undecidable(str(e)) from e


def frozen_in_cone(lam):
    """The cone as search_unit_pisot decided it on a unit."""
    return all(c.holds_for(lam) for c in pisot_cone(lam.datum)) and not frozen_embeds_negative(lam)


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

    def test_power_round_stops_at_the_pair_budget(self, sqrt2):
        # the powers of 1 +- sqrt2 never repeat: the search used to form
        # all 1,000 powers of each unit (about 3,000 elements, 4,504,501
        # pairs) before its pair check; it now stops once the elements
        # seen make more pairs than the budget
        with pytest.raises(SearchBudgetExceeded) as err:
            search_units(sqrt2, 1, power_bound=1000)
        pairs = int(str(err.value).split()[0])
        assert SEARCH_BUDGET < pairs < SEARCH_BUDGET + 1000
        assert search_units(sqrt2, 1, power_bound=100) == \
            search_units(sqrt2, 1, power_bound=100, candidate_budget=10 ** 6)

    def test_torsion_unit_chains_stop_at_one(self, monkeypatch):
        # Z[i]'s units +-1, +-i are torsion: their powers repeat once they
        # reach 1, so 50 powers cost 0 + 1 + 3 + 3 products, not 4 * 49
        from anosovforms import numfield
        from anosovforms.serialize import datum_from_json

        gauss = datum_from_json({
            "min_poly": ["1", "0", "1"], "automorphisms": [["0", "1"], ["0", "-1"]],
            "identity": 0, "table": [[0, 1], [1, 0]], "totally_real": False,
            "moduli": [{"lo": "1/2", "hi": "3/2"}] * 2})
        calls = []
        real = numfield._act
        monkeypatch.setattr(numfield, "_act",
                            lambda pair, form: calls.append(1) or real(pair, form))
        found = search_units(gauss, 1, power_bound=50)
        assert found == [gauss.element([0, -1]), gauss.element([0, 1])]
        # 7 powers and the 10 products of the round over 4 elements, each
        # formed at the one product site
        assert len(calls) == 7 + 10

    def test_builds_one_element_per_kept_key(self, quartic, monkeypatch):
        # the box loop reads |N(x)| off integer rows and the product round
        # looks each product's key up before it builds; at h = 2 the search
        # built 1,711 elements for 416 kept before
        from anosovforms import numfield

        built = []
        real = numfield.FieldElement.__post_init__
        monkeypatch.setattr(numfield.FieldElement, "__post_init__",
                            lambda x: built.append(x) or real(x))
        found = search_units(quartic, 2)
        assert len(found) == 416
        keys = {x._cleared() for x in built}
        # one construction per key of seen: the hits and, if formed, +-1
        assert len(built) == len(keys)
        assert keys - {((1, 0, 0, 0), 1), ((-1, 0, 0, 0), 1)} == {u._cleared() for u in found}
        # every element built is a unit, so no non-unit box point built one
        assert all(abs(x.norm()) == 1 for x in built)

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
    return [u for u in hits if frozen_is_unit_pisot(u)]


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


def _seeded_elements(datum, units, seed, count=40):
    """Seeded products of units with exponents in [-2, 2], their negatives,
    and non-units: integer and half-integer vectors and rationals."""
    rng = random.Random(seed)
    d = datum.degree
    out_units = list(units)
    for _ in range(count):
        x = datum.one()
        for u in rng.sample(units, min(3, len(units))):
            x = x * u ** rng.randint(-2, 2)
        out_units += [x, -x]
    others = [datum.element([rng.randint(-3, 3) for _ in range(d)]) for _ in range(count)]
    others += [datum.element([F(rng.randint(-5, 5), 2) for _ in range(d)]) for _ in range(10)]
    others += [datum.element([v]) for v in (1, -1, 2, F(1, 2), 0)]
    return out_units, others


def _units_of(name, request):
    if name in ("biquad52", "biquad37"):
        k, l = (5, 2) if name == "biquad52" else (3, 7)
        datum = biquadratic_datum(k, l)
        u = biquadratic_pisot_unit(datum, k, l)
        return datum, [apply_automorphism(datum, i, u) for i in range(datum.degree)]
    datum = request.getfixturevalue(name)
    return datum, search_units(datum, 1)


@pytest.mark.parametrize("name", ["sqrt2", "cubic", "quartic", "biquad52", "biquad37"])
def test_unit_pisot_verdicts_match_frozen(name, request):
    datum, units = _units_of(name, request)
    units, others = _seeded_elements(datum, units, seed=len(name) * 1009 + datum.degree)
    verdicts = []
    for x in units + others:
        verdict = is_unit_pisot(x)
        assert verdict == frozen_is_unit_pisot(x), x
        verdicts.append(verdict)
    for u in units:
        assert in_pisot_cone(u) == frozen_in_cone(u), u
    assert True in verdicts and False in verdicts


def test_unit_pisot_on_a_complex_datum():
    """X^2 - X + 2, whose conjugate moduli are fixture data for theta only.
    is_unit_pisot keeps its verdicts; the cone check on theta reads the
    fixture modulus of sigma_1(theta) where the constraint list formed
    1 - theta and raised PrecisionUnreachable, and the cone check turns an
    unrefinable enclosure into Undecidable, as is_unit_pisot did."""
    P = Polynomial
    cplx = verify_galois_datum(GaloisDatum(
        min_poly=P([2, -1, 1]), automorphisms=(P.x(), P([1, -1])),
        identity_index=0, table=((0, 1), (1, 0)), totally_real=False,
        root_moduli=(Interval(F(7, 5), F(3, 2)),) * 2,
    ))
    th = cplx.generator()
    rationals = [cplx.element([v]) for v in (1, -1, 2, F(1, 2), 0)]
    for x in [th, th + 1, th ** 2, 1 - th] + rationals:
        assert is_unit_pisot(x) == frozen_is_unit_pisot(x) is False
    for x in rationals:
        assert not in_pisot_cone(x)
    assert not in_pisot_cone(th)
    with pytest.raises(PrecisionUnreachable):
        frozen_in_cone(th)
    with pytest.raises(Undecidable):
        in_pisot_cone(th + 1)
    with pytest.raises(PrecisionUnreachable):
        frozen_in_cone(th + 1)


def test_cone_check_requires_verified_datum(sqrt2):
    raw = GaloisDatum(min_poly=sqrt2.min_poly, automorphisms=sqrt2.automorphisms,
                      identity_index=0, table=sqrt2.table,
                      root_enclosures=sqrt2.root_enclosures)
    for x in (raw.element([1, 1]), raw.element([2])):
        with pytest.raises(BadParameters):
            in_pisot_cone(x)
        with pytest.raises(BadParameters):
            is_unit_pisot(x)


class TestFullRank:
    def test_golden(self, sqrt2):
        lam = sqrt2.element([1, 1])
        assert check_full_rank_condition(lam, 5)
        assert brute_force_full_rank(lam, 5)

    def test_rational_unit_vacuous(self):
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
