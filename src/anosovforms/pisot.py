"""Search and certification of unit Pisot numbers and constrained units.

A multiplicative constraint prod_i |sigma_i(lambda)|^{c_i} < 1 is decided
exactly.  Over a totally real field the product of the c_i-th powers of
the integer enclosures of |sigma_i(lambda)|, each on the bisection path
of its root, is kept as four integers (the numerators and denominators
of its ends) and refined under refine_until's one budget until it
excludes 1; one that still contains 1 at EXACT_TIE_LEVEL asks once whether
mu = prod_i sigma_i(lambda)^{c_i} is +-1, the only way a real mu has
modulus one.  Rational lambda and fields that are not totally real
compare mu, formed as a field element, to 1.  The Pisot cone check
decides lambda > 1 on the distinguished root's path and each other
|sigma_i(lambda)| against 1 on its own; over a totally real field both
read integers and build no Interval.  No logarithms, no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from . import _fieldlinalg as fl
from . import numfield
from .errors import BadParameters, PrecisionUnreachable, SearchBudgetExceeded, Undecidable
from .numfield import (
    FieldElement,
    GaloisDatum,
    abs_enclosure,
    apply_automorphism,
    compare_abs_to_one,
    conjugate_numerators,
    is_algebraic_unit,
    refine_until,
    sign_against_one,
)


# box points of one search, and pairs of one product round, unless the
# caller passes candidate_budget
SEARCH_BUDGET = 200_000


@dataclass(frozen=True)
class ConeConstraint:
    """Integer linear functional on the log-embedding vector, checked
    multiplicatively: coeffs c with rel '<1' means
    prod_i |sigma_i(lambda)|^{c_i} < 1."""

    coeffs: tuple[int, ...]
    rel: str = "<1"

    def __post_init__(self):
        if self.rel not in ("<1", ">1"):
            raise BadParameters(f"relation must be '<1' or '>1', got {self.rel!r}")
        if not all(isinstance(c, int) for c in self.coeffs):
            raise BadParameters("constraint coefficients must be integers")

    def holds_for(self, lam: FieldElement) -> bool:
        datum = lam.datum
        if len(self.coeffs) != datum.degree:
            raise BadParameters("constraint length must equal the field degree")
        if datum.totally_real and not lam.is_rational:
            sign = self._sign_on_paths(lam)
        else:
            sign = compare_abs_to_one(self._product(lam), datum.identity_index)
        return sign < 0 if self.rel == "<1" else sign > 0

    def _product(self, lam: FieldElement) -> FieldElement:
        """mu = prod_i sigma_i(lam)^{c_i} as a field element."""
        datum = lam.datum
        mu = datum.one()
        for i, c in enumerate(self.coeffs):
            if c:
                mu = mu * (apply_automorphism(datum, i, lam) ** c)
        return mu

    def _sign_on_paths(self, lam: FieldElement) -> int:
        """Sign of prod_i |sigma_i(lam)|^{c_i} - 1 on the roots' paths,
        with the one exact tie test at EXACT_TIE_LEVEL."""
        factors = [(conjugate_numerators(lam, i), c) for i, c in enumerate(self.coeffs) if c]

        def product_sign(k: int) -> int | None:
            # the product lies in [ln/ld, un/ud]; a factor [lo/e, hi/e]
            # with c < 0 is [e/hi, e/lo] to the power -c
            ln = ld = un = ud = 1
            for enclose, c in factors:
                lo, hi, e = abs_enclosure(*enclose(k))
                if c > 0:
                    ec = e ** c
                    ln, ld, un, ud = ln * lo ** c, ld * ec, un * hi ** c, ud * ec
                elif not lo:
                    return None  # 1/|sigma_i(lam)| is not bounded yet
                else:
                    ec = e ** -c
                    ln, ld, un, ud = ln * ec, ld * hi ** -c, un * ec, ud * lo ** -c
            return sign_against_one(ln * ud, un * ld, ld * ud)

        def test(k: int) -> int | None:
            sign = product_sign(k)
            if sign is None and k == numfield.EXACT_TIE_LEVEL:
                mu = self._product(lam)
                if mu == 1 or mu == -1:
                    return 0
            return sign

        return refine_until(test)


def in_pisot_cone(lam: FieldElement) -> bool:
    """The Pisot cone check for lam known to be a unit: lam > 1 under the
    distinguished embedding and |sigma_i(lam)| < 1 for every other i.

    A rational lam is never inside.  Over a totally real field lam > 1 is
    decided on its root's path, otherwise |lam| > 1 is compared to one.
    Undecidable: an enclosure could not be refined far enough.
    """
    datum = lam.datum
    if not datum.verified:
        raise BadParameters("the Pisot cone check requires a verified datum")
    if lam.is_rational:
        return False
    try:
        for i in range(datum.degree):
            distinguished = i == datum.identity_index
            if distinguished and datum.totally_real:
                enclose = conjugate_numerators(lam, i)
                sign = refine_until(lambda k: sign_against_one(*enclose(k)))
            else:
                sign = compare_abs_to_one(lam, i)
            if sign != (1 if distinguished else -1):
                return False
        return True
    except PrecisionUnreachable as e:
        raise Undecidable(str(e)) from e


def is_unit_pisot(lam: FieldElement) -> bool:
    """lam is an algebraic unit inside the Pisot cone (in_pisot_cone)."""
    return is_algebraic_unit(lam) and in_pisot_cone(lam)


def search_units(datum: GaloisDatum, height_bound: int, power_bound: int = 1,
                 constraints: list[ConeConstraint] | None = None,
                 candidate_budget: int | None = None) -> list[FieldElement]:
    """Enumerate integer coefficient vectors in [-H, H]^d, keep the
    algebraic units, close under powers up to power_bound and one round of
    pairwise products, then filter by the constraints.  Only the half of
    the box whose first nonzero coordinate is positive is visited; each
    unit x found there brings -x, of the same |norm|.

    Every element formed lies in Z[theta]: the box is integral, p is monic
    over Z, and a product is integer rows times integer numerators.  So a
    box point's |N(x)| = 1 is the determinant of its integer rows, an
    element is built only for a unit or a product whose integer pair
    (X, 1) is new, and Tr(x) = sum_i X_i s_i with s_i = Tr(theta^i), the
    power sums of p's roots, read once off the rows of each theta^i.
    Results are sorted by (Tr(x), X), the order of (trace, coordinates),
    so identical calls return identical lists.

    Complete only in the sense of the enumeration box: units of the ring of
    integers outside Z[theta] are found only if some power or product lands
    in the box closure.  SearchBudgetExceeded: the box holds more than
    candidate_budget points, or the product round would form more than
    that many pairs, known as soon as the distinct powers formed so far do.
    """
    if not datum.verified:
        raise BadParameters("search_units requires a verified datum")
    if height_bound < 0:
        raise BadParameters("height bound must be >= 0")
    budget = candidate_budget if candidate_budget is not None else SEARCH_BUDGET
    constraints = constraints or []
    d = datum.degree
    box_points = (2 * height_bound + 1) ** d - 1
    if box_points > budget:
        raise SearchBudgetExceeded(f"{box_points} box points over the budget {budget}")
    units: list[FieldElement] = []
    span = range(-height_bound, height_bound + 1)
    for zeros in range(d):
        for head in range(1, height_bound + 1):
            for tail in product(span, repeat=d - 1 - zeros):
                nums = (0,) * zeros + (head,) + tail
                rows = numfield._multiplication_rows(datum, nums)
                if abs(fl.int_det(rows)) == 1:
                    x = FieldElement(datum, nums)
                    units += (x, -x)
    # keyed by the integer pair: unique per element, cheap to hash
    seen = {(u.nums, u.den): u for u in units}

    def kept(form: tuple) -> FieldElement:
        x = seen.get(form)
        if x is None:
            x = seen[form] = FieldElement(datum, *form)
        return x

    for u in units:
        acc = u
        # a torsion unit's powers repeat once they reach 1; seen only grows,
        # so a product round over the budget shows as soon as seen does
        for _ in range(2, power_bound + 1):
            if acc == 1 or len(seen) * (len(seen) - 1) // 2 > budget:
                break
            acc = kept(numfield._act(u._scaled_multiplication_rows(), (acc.nums, acc.den)))
    pairs = len(seen) * (len(seen) - 1) // 2
    if pairs > budget:
        raise SearchBudgetExceeded(f"{pairs} pairs in a product round over the budget {budget}")
    for (_, a), (form, _) in combinations_with_replacement(list(seen.items()), 2):
        kept(numfield._act(a._scaled_multiplication_rows(), form))
    sums = [sum(row[i] for i, row in enumerate(numfield._multiplication_rows(datum, e)))
            for e in ((0,) * i + (1,) + (0,) * (d - 1 - i) for i in range(d))]
    out = [u for u in seen.values()
           if not (u == 1 or u == -1) and all(c.holds_for(u) for c in constraints)]
    out.sort(key=lambda u: (sum(x * s for x, s in zip(u.nums, sums)), u.nums))
    return out


def search_unit_pisot(datum: GaloisDatum, height_bound: int, power_bound: int = 1,
                      extra_constraints: list[ConeConstraint] | None = None,
                      ) -> list[FieldElement]:
    """Unit Pisot numbers reachable by search_units: the hits inside the
    Pisot cone that meet every extra constraint, in search_units' order.

    Every hit is a unit (integral of norm +-1, or a power or product of
    such) and never +-1, so in_pisot_cone decides it alone, once, before
    any extra constraint is tested.
    """
    extra = list(extra_constraints or [])
    hits = search_units(datum, height_bound, power_bound)
    return [u for u in hits if in_pisot_cone(u) and all(c.holds_for(u) for c in extra)]


def check_full_rank_condition(lam: FieldElement, exponent_bound: int) -> bool:
    """Brute-force check that prod_j sigma_j(lambda)^{d_j} = +-1 forces all
    exponents equal, over |d_j| <= exponent_bound.

    Short-circuits to True for unit Pisot numbers, which always satisfy the
    condition.
    """
    datum = lam.datum
    if not is_algebraic_unit(lam):
        raise BadParameters("full rank condition is about algebraic units")
    if datum.degree == 1:
        return True
    if in_pisot_cone(lam):
        return True
    return brute_force_full_rank(lam, exponent_bound)


def brute_force_full_rank(lam: FieldElement, exponent_bound: int) -> bool:
    """The exhaustive check without the Pisot shortcut (used as an oracle)."""
    datum = lam.datum
    d = datum.degree
    b = exponent_bound
    conj = [apply_automorphism(datum, i, lam) for i in range(d)]
    powers = []
    for c in conj:
        row = {0: datum.one()}
        for e in range(1, b + 1):
            row[e] = row[e - 1] * c
        inv = c.inverse()
        for e in range(1, b + 1):
            row[-e] = row[-(e - 1)] * inv
        powers.append(row)
    one = datum.one()
    for exps in product(range(-b, b + 1), repeat=d):
        if all(e == exps[0] for e in exps):
            continue
        acc = powers[0][exps[0]]
        for i in range(1, d):
            acc = acc * powers[i][exps[i]]
        if acc == one or acc == -one:
            return False
    return True
