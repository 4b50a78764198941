"""End-to-end constructions: field + unit in, certified Anosov algebra out.

Each recipe assembles a labeled algebra and a Galois representation, runs
the rational-form machinery, transports the diagonal eigenvalue map to a
rational matrix and certifies the result.  A recipe only returns when its
certificate is integer-like and hyperbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

from .anosov import AnosovCertificate, certify
from .catalog import csig_fixture, quartic_z4_datum
from .errors import (
    BadParameters,
    ConstraintFailed,
    LabelCollision,
    NotGraded,
    NotPisot,
    PisotNotFound,
)
from .exactmath import RationalMatrix
from .galoisform import (
    LabeledAlgebra,
    Representation,
    build_labeled_algebra,
    extend_representation,
    main2_construct,
    verify_representation,
)
from .liealg import Grading, LieAlgebra, check_grading, direct_sum
from .numfield import (
    FieldElement,
    GaloisDatum,
    apply_automorphism,
    biquadratic_datum,
    biquadratic_sqrts,
    is_algebraic_unit,
)
from .pfaffian import classify_type42, solve_pell
from .pisot import ConeConstraint, in_pisot_cone, is_unit_pisot
from .serialize import element_to_json, poly_to_json


@dataclass(frozen=True)
class RecipeOutput:
    algebra: LieAlgebra
    matrix: RationalMatrix
    certificate: AnosovCertificate
    provenance: dict

    def __post_init__(self):
        if not (self.certificate.integer_like and self.certificate.hyperbolic):
            raise BadParameters("recipe produced a non-Anosov certificate")


def _assumptions(datum: GaloisDatum) -> tuple[str, ...]:
    if datum.assume_irreducible:
        coeffs = ",".join(poly_to_json(datum.min_poly))
        return (f"assume_irreducible:[{coeffs}]",)
    return ()


def _ordered(i: int, j: int, coeff, k: int) -> tuple[int, int, object, int]:
    if i < j:
        return (i, j, coeff, k)
    if j < i:
        return (j, i, -coeff, k)
    raise BadParameters("bracket of a basis vector with itself")


def _generator_index(datum: GaloisDatum) -> int:
    """Index of a generator when the Galois group is cyclic."""
    for g in range(datum.degree):
        if _order_of(datum, g) == datum.degree:
            return g
    raise BadParameters("Galois group is not cyclic")


def _power_index(datum: GaloisDatum, g: int, e: int) -> int:
    idx = datum.identity_index
    for _ in range(e % _order_of(datum, g)):
        idx = datum.table[g][idx]
    return idx


def _order_of(datum: GaloisDatum, g: int) -> int:
    idx = g
    n = 1
    while idx != datum.identity_index:
        idx = datum.table[g][idx]
        n += 1
    return n


# ---------------------------------------------------------------------------
# the worked 6-dimensional example over the cyclic quartic field
# ---------------------------------------------------------------------------


def recipe_z4_example() -> RecipeOutput:
    """Reproduce the published 6-dimensional example bit for bit: two
    Heisenberg blocks labeled by the conjugates of the quartic unit, the
    cyclic representation, and the explicit basis that pins the published
    matrix and brackets."""
    datum = quartic_z4_datum()
    theta = datum.generator()
    lams = [theta]
    for _ in range(3):
        lams.append(apply_automorphism(datum, 1, lams[-1]))
    l1, l2, l3, l4 = lams
    labels = (l1, l2, l3, l4, l1 * l3, l2 * l4)
    la = build_labeled_algebra(
        labels,
        [(0, 2, 1, 4), (1, 3, 1, 5)],
        generators=(0, 1, 2, 3),
    )
    rho = extend_representation(
        la, {1: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}}
    )
    zero = datum.zero()
    explicit = []
    for i in range(1, 5):
        explicit.append(tuple(lams[j] ** (i - 1) for j in range(4)) + (zero, zero))
    for i in range(1, 3):
        explicit.append((zero,) * 4 + (l3 ** i - l1 ** i, l4 ** i - l2 ** i))
    algebra, matrix, _basis = main2_construct(la, rho, explicit_basis=explicit)
    cert = certify(algebra, matrix, assumptions=_assumptions(datum))
    return RecipeOutput(algebra, matrix, cert, {
        "recipe": "z4",
        "min_poly": poly_to_json(datum.min_poly),
        "lambda": element_to_json(theta),
        "labels": [element_to_json(lab) for lab in labels],
    })


# ---------------------------------------------------------------------------
# type (4,2) algebras with signature {2,4} over biquadratic fields
# ---------------------------------------------------------------------------


@cache
def _exponent_order(bound: int) -> tuple[tuple[int, int, int], ...]:
    """The nonzero exponent triples with entries in [-bound, bound], by
    (sum of |e_i|, e)."""
    exps = sorted(product(range(-bound, bound + 1), repeat=3),
                  key=lambda e: (sum(abs(x) for x in e), e))
    return tuple(e for e in exps if any(e))


def biquadratic_pisot_unit(datum: GaloisDatum, k: int, l: int,
                           exponent_bound: int = 5) -> FieldElement:
    """A unit Pisot number in Q(sqrt k, sqrt l) built from the Pell units
    of the three quadratic subfields.

    The box search over integer power-basis vectors routinely misses every
    unit of such fields at desk heights (the order Z[theta] meets the unit
    group in a thin subgroup), while the subfield units generate a finite
    index subgroup of full rank whose intersection with the Pisot cone is
    reached at tiny exponents.  Each Pell unit passes is_algebraic_unit
    once; a product of units is a unit, so each candidate product only
    meets in_pisot_cone."""
    sk, sl = biquadratic_sqrts(datum, k, l)
    units = []
    for m, s in ((k, sk), (l, sl), (k * l, sk * sl)):
        sol = solve_pell(m)
        units.append((datum.one() * Fraction(sol.x, 2)) + s * Fraction(sol.y, 2))
    if not all(is_algebraic_unit(u) for u in units):
        raise PisotNotFound("a subfield Pell solution is not an algebraic unit")
    inverses = [u.inverse() for u in units]
    # u^e for |e| <= exponent_bound, filled on first use; a candidate is a
    # product of at most three entries, each keeping its multiplication rows
    tables = [{0: datum.one(), 1: u, -1: iu} for u, iu in zip(units, inverses)]

    def power(i: int, e: int) -> FieldElement:
        table = tables[i]
        if e not in table:
            table[e] = (units[i] * power(i, e - 1) if e > 0
                        else inverses[i] * power(i, e + 1))
        return table[e]

    for e in _exponent_order(exponent_bound):
        cand = None
        for i, x in enumerate(e):
            if x:
                cand = power(i, x) if cand is None else power(i, x) * cand
        if in_pisot_cone(cand):
            return cand
    raise PisotNotFound(
        f"no Pisot unit among subfield-unit products at exponent bound {exponent_bound}"
    )


def recipe_count(k: int, l: int, lam: FieldElement | None = None) -> RecipeOutput:
    """Anosov automorphism of signature {2,4} on the type-(4,2) algebra of
    parameter k, via the field Q(sqrt k, sqrt l).

    Labels are the four conjugates of a unit Pisot number plus the two
    products pairing conjugates over the subfield Q(sqrt k); the output is
    certified and classified back to k.  With no lam the unit is
    biquadratic_pisot_unit's; a supplied lam must pass is_unit_pisot."""
    datum = biquadratic_datum(k, l)
    sk, _sl = biquadratic_sqrts(datum, k, l)
    d = datum.degree
    tau = next(
        i for i in range(d)
        if i != datum.identity_index and apply_automorphism(datum, i, sk) == sk
    )
    sigma = next(
        i for i in range(d) if i not in (datum.identity_index, tau)
    )
    sigma_tau = datum.table[sigma][tau]
    if lam is None:
        lam = biquadratic_pisot_unit(datum, k, l)
    elif not is_unit_pisot(lam):
        raise NotPisot("supplied element is not a unit Pisot number")
    l1, l2, l3, l4 = lam, *(apply_automorphism(datum, g, lam) for g in (tau, sigma, sigma_tau))
    labels = (l1, l2, l3, l4, l1 * l2, l3 * l4)
    la = build_labeled_algebra(
        labels, [(0, 1, 1, 4), (2, 3, 1, 5)], generators=(0, 1, 2, 3)
    )
    rho = extend_representation(la, {
        tau: {0: (1, 1), 1: (1, 0), 2: (1, 3), 3: (1, 2)},
        sigma: {0: (1, 2), 1: (1, 3), 2: (1, 0), 3: (1, 1)},
    })
    algebra, matrix, _ = main2_construct(la, rho)
    cert = certify(algebra, matrix, assumptions=_assumptions(datum))
    cls, _compatible = classify_type42(algebra)
    if cls != k:
        raise BadParameters(f"output classified to {cls}, expected {k}")
    return RecipeOutput(algebra, matrix, cert, {
        "recipe": "count",
        "k": k,
        "l": l,
        "lambda": element_to_json(lam),
        "classified": cls,
    })


# ---------------------------------------------------------------------------
# graded direct sums
# ---------------------------------------------------------------------------


def recipe_laur(g: LieAlgebra, grading: Grading, datum: GaloisDatum,
                lam: FieldElement) -> RecipeOutput:
    """Anosov rational form on the m-fold direct sum of a graded algebra,
    m the field degree: component i carries the conjugate sigma_i, a basis
    vector of degree j in component i gets the label sigma_i(lambda^j)."""
    if not check_grading(g, grading):
        raise NotGraded("grading is not compatible with the brackets")
    m = datum.degree
    if m < 2:
        raise BadParameters("need a field of degree at least 2")
    if not is_unit_pisot(lam):
        raise NotPisot("need a unit Pisot number")
    total = direct_sum([g] * m)
    conj = [apply_automorphism(datum, i, lam) for i in range(m)]
    labels = [c ** grading.degree_of(s) for c in conj for s in range(g.dim)]
    images = []
    for s in range(m):
        mat = [[0] * total.dim for _ in range(total.dim)]
        for i in range(m):
            pi = datum.table[s][i]
            for t in range(g.dim):
                mat[pi * g.dim + t][i * g.dim + t] = 1
        images.append(RationalMatrix.from_numerators(mat))
    rho = verify_representation(
        Representation(datum, tuple(images), algebra=total)
    )
    la = LabeledAlgebra(total, tuple(labels), generators=())
    algebra, matrix, _ = main2_construct(la, rho)
    cert = certify(algebra, matrix, assumptions=_assumptions(datum))
    return RecipeOutput(algebra, matrix, cert, {
        "recipe": "laur",
        "copies": m,
        "grading": list(grading.subspace_dims),
        "lambda": element_to_json(lam),
    })


# ---------------------------------------------------------------------------
# minimal signature over cyclic groups of even order
# ---------------------------------------------------------------------------


def recipe_csig(datum: GaloisDatum, lam: FieldElement, c: int) -> RecipeOutput:
    """Nilpotency class c with minimal signature: min(sg) = c.

    Needs a cyclic group of order 2n (n >= 2), a unit Pisot lambda with
    |lambda * sigma^n(lambda)^2| < 1, and c >= 2.  The slot grid has one
    collapse: the j = 2 labels repeat with period n, which is exactly what
    makes the representation pick up its minus signs."""
    d = datum.degree
    if d % 2 != 0 or d < 4:
        raise BadParameters("need a cyclic group of even order 2n, n >= 2")
    n = d // 2
    if c < 2:
        raise BadParameters("nilpotency class must be at least 2")
    gen = _generator_index(datum)
    if not is_unit_pisot(lam):
        raise NotPisot("need a unit Pisot number")
    coeffs = [0] * d
    coeffs[datum.identity_index] = 1
    coeffs[_power_index(datum, gen, n)] = 2
    if not ConeConstraint(tuple(coeffs), "<1").holds_for(lam):
        raise ConstraintFailed("|lambda sigma^n(lambda)^2| >= 1")

    def s(i: int) -> int:
        return _power_index(datum, gen, i)

    conj = [apply_automorphism(datum, s(i), lam) for i in range(2 * n + 1)]

    def mu(i: int, j: int) -> FieldElement:
        return conj[i] ** (j - 1) * conj[(i + n) % (2 * n)]

    slots: dict[tuple[int, int], int] = {}
    labels: list[FieldElement] = []

    def add_slot(key, label):
        slots[key] = len(labels)
        labels.append(label)

    for i in range(1, 2 * n + 1):
        add_slot((i % (2 * n), 1), conj[i % (2 * n)])
    for i in range(1, n + 1):
        add_slot((i, 2), mu(i, 2))
    for j in range(3, c + 1):
        for i in range(1, 2 * n + 1):
            add_slot((i % (2 * n), j), mu(i % (2 * n), j))

    def slot2(i: int, j: int) -> int:
        if j == 2:
            # mu_{i,2} has period n in i; canonical key in 1..n
            i = ((i - 1) % (2 * n)) + 1
            return slots[(i if i <= n else i - n, 2)]
        return slots[(i % (2 * n), j)]

    if len(set(labels)) != len(labels):
        raise LabelCollision("distinct slots received equal labels")

    brackets = []
    for i in range(1, n + 1):
        brackets.append(_ordered(slots[(i, 1)], slots[((i + n) % (2 * n), 1)], 1,
                                 slot2(i, 2)))
    for j in range(2, c):
        for i in range(1, 2 * n + 1):
            ii = i % (2 * n)
            brackets.append(_ordered(slots[(ii, 1)], slot2(ii, j), 1,
                                     slots[(ii, j + 1)]))
    la = build_labeled_algebra(labels, brackets,
                               generators=tuple(range(2 * n)))
    gen_map = {slots[(i % (2 * n), 1)]: (1, slots[((i + 1) % (2 * n), 1)])
               for i in range(1, 2 * n + 1)}
    rho = extend_representation(la, {gen: gen_map})
    algebra, matrix, _ = main2_construct(la, rho)
    cert = certify(algebra, matrix, assumptions=_assumptions(datum))
    if not cert.minimal_signature:
        raise BadParameters("construction failed to reach minimal signature")
    return RecipeOutput(algebra, matrix, cert, {
        "recipe": "csig",
        "n": n,
        "class": c,
        "lambda": element_to_json(lam),
    })


def recipe_csig_default(c: int) -> RecipeOutput:
    """recipe_csig on the frozen searched fixture (n = 2)."""
    datum, lam = csig_fixture()
    return recipe_csig(datum, lam, c)


# ---------------------------------------------------------------------------
# type (n, ..., n) of any class over cyclic groups
# ---------------------------------------------------------------------------


def recipe_last(datum: GaloisDatum, lam: FieldElement, c: int) -> RecipeOutput:
    """Anosov algebra of type (n, ..., n) and class c over a cyclic field
    of degree n > 2: chains [X_{lambda_i}, X_{mu_{i,j}}] = X_{mu_{i,j+1}}
    with mu_{i,j} = lambda_i^j sigma(lambda_i)."""
    n = datum.degree
    if n < 3:
        raise BadParameters("need a cyclic group of order at least 3")
    if c < 1:
        raise BadParameters("class must be at least 1")
    gen = _generator_index(datum)
    if not is_unit_pisot(lam):
        raise NotPisot("need a unit Pisot number")

    conj = [apply_automorphism(datum, _power_index(datum, gen, i), lam)
            for i in range(n)]

    def label(i: int, j: int) -> FieldElement:
        return (conj[i] ** j) * conj[(i + 1) % n]

    labels = [label(i, j) for j in range(c) for i in range(n)]
    if len(set(labels)) != len(labels):
        raise LabelCollision("the mu labels are not pairwise distinct")

    def slot(i: int, j: int) -> int:
        return j * n + i

    brackets = []
    for j in range(c - 1):
        for i in range(n):
            brackets.append(_ordered(slot((i - 1) % n, 0), slot(i, j), 1,
                                     slot(i, j + 1)))
    la = build_labeled_algebra(labels, brackets, generators=tuple(range(n)))
    gen_map = {slot(i, 0): (1, slot((i + 1) % n, 0)) for i in range(n)}
    rho = extend_representation(la, {gen: gen_map})
    algebra, matrix, _ = main2_construct(la, rho)
    cert = certify(algebra, matrix, assumptions=_assumptions(datum))
    if cert.algebra_type != (n,) * c:
        raise BadParameters(f"type came out as {cert.algebra_type}")
    return RecipeOutput(algebra, matrix, cert, {
        "recipe": "last",
        "n": n,
        "class": c,
        "lambda": element_to_json(lam),
    })
