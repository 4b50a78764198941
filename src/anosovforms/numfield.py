"""Number fields as verified Galois data.

A GaloisDatum packages a monic integer minimal polynomial together with
explicit automorphism polynomials, a composition table and certified real
root enclosures.  Nothing is ever *discovered* here: the datum is a claim,
and verify_galois_datum proves every part of it by exact arithmetic
(irreducibility by bounded factor search; the automorphism property and
the group structure from each automorphism's power-basis matrix, built
once and kept as an integer matrix over one denominator, the only form
of the Galois action).  Downstream code only accepts verified data.

A field element is its integer pair x = X / D in the canonical form
fl.reduced returns, and every operation runs on that pair: sums over the
lcm of the denominators, products and automorphism images as an integer
matrix times X (_act), its multiplication rows (M, D) kept on it, and the
norm the integer determinant of M over D^d.

Each real root of a verified datum has one bisection path (RootPath), kept
on the datum, whose levels are integer triples (a, b, q) for [a/q, b/q]
and whose signs are integer sums over the minimal polynomial's kept
numerators.  Every question about a real conjugate is asked of that path
by refine_until, under the single level budget DEFAULT_REFINE_STEPS, and
read off x's kept numerators by the one interval Horner kernel as an
integer enclosure [lo/E, hi/E]: moduli, signs against 1 and cone
products compare integers, and an Interval is only the view a caller
gets back (RootPath.level, conjugate_levels, conjugate_modulus_interval).
A datum that is not totally real, or of degree 1, has no paths, and
conjugate_numerators refuses it with BadParameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from . import _fieldlinalg as fl
from .errors import (
    AutomorphismFailsMinPoly,
    BadEnclosure,
    BadParameters,
    DatumMismatch,
    EnclosuresOverlap,
    IrreducibilityBudgetExceeded,
    NotIrreducible,
    PrecisionUnreachable,
    TableNotAGroup,
    WrongAutomorphismCount,
)
from .exactmath import (
    Interval,
    Polynomial,
    binary_power,
    horner,
    interval_horner,
    rat,
    scaled_charpoly,
    squarefree_part_of_rational,
)

DEFAULT_FACTOR_BUDGET = 2_000_000
DEFAULT_REFINE_STEPS = 4096
# the path level at which an interval test that still straddles a
# threshold first asks the exact algebraic question (a multiple of 4)
EXACT_TIE_LEVEL = 16


@dataclass(frozen=True)
class GaloisDatum:
    """A degree-d number field with an explicit, machine-verifiable
    Galois group action.

    automorphisms[i] is the polynomial q_i with sigma_i(theta) = q_i(theta);
    table[i][j] is the index of sigma_i o sigma_j (None: verification
    derives it).  root_enclosures lists disjoint rational intervals for the
    real roots in descending order; the distinguished embedding sends theta
    to the root in enclosure distinguished_index (default: the largest
    root).
    """

    min_poly: Polynomial
    automorphisms: tuple[Polynomial, ...]
    identity_index: int
    table: tuple[tuple[int, ...], ...] | None
    root_enclosures: tuple[Interval, ...] | None = None
    totally_real: bool = True
    root_moduli: tuple[Interval, ...] | None = None
    assume_irreducible: bool = False
    distinguished_index: int = 0
    # set by verify_galois_datum only (a replace() copy is unverified);
    # root_map: automorphism index -> root index of the distinguished root
    verified: bool = field(default=False, init=False, compare=False)
    root_map: tuple[int, ...] | None = field(default=None, init=False, compare=False)

    @property
    def degree(self) -> int:
        return self.min_poly.degree

    def fingerprint(self) -> tuple:
        return self.min_poly, tuple(self.automorphisms)

    # -- elements ---------------------------------------------------------

    def element(self, coeffs: Iterable) -> "FieldElement":
        """The element with these leading coordinates, the rest zero."""
        cs = tuple(coeffs)
        return FieldElement(self, cs + (0,) * (self.degree - len(cs)))

    def zero(self) -> "FieldElement":
        return self.element(())

    def one(self) -> "FieldElement":
        return self.element((1,))

    def generator(self) -> "FieldElement":
        if self.degree == 1:
            # theta is the rational root of the linear minimal polynomial
            return self.element((-self.min_poly[0],))
        return self.element((0, 1))

    def inverse_index(self, i: int) -> int:
        _require_verified(self)
        _check_index(self, i)
        return self.table[i].index(self.identity_index)


@dataclass(frozen=True)
class FieldElement:
    """Element of a GaloisDatum's field in the power basis 1, theta, ...,
    theta^(d-1): x = sum_i nums[i] theta^i / den in the canonical form
    fl.reduced returns (den > 0, gcd(den, *nums) = 1), rational or string
    coordinates read through rat.  coeffs, the Fraction coordinates, is
    the view built on first read and kept, like the multiplication rows
    (M, D) and the charpoly."""

    datum: GaloisDatum
    nums: tuple[int, ...]
    den: int = 1

    def __post_init__(self):
        nums, den = self.nums, self.den
        if len(nums) != self.datum.degree:
            raise ValueError("coordinate count must equal the field degree")
        if not all(isinstance(u, int) for u in nums):
            (nums,), scale = fl.clear_denominators([[rat(c) for c in nums]])
            den *= scale
        if not den:
            raise ZeroDivisionError("field element with denominator zero")
        nums, den = fl.reduced(nums, den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = getattr(self, "_coeffs", None)
        if cs is None:
            cs = tuple(Fraction(u, self.den) for u in self.nums)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    # -- coercion and structure

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.datum is not self.datum and \
                    other.datum.fingerprint() != self.datum.fingerprint():
                raise DatumMismatch("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.datum.element((other,))
        return None

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def __bool__(self) -> bool:
        return any(self.nums)

    @property
    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("element is not rational")
        return Fraction(self.nums[0], self.den)

    # -- arithmetic

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self.den, o.den)
        a, b = den // self.den, den // o.den
        return FieldElement(self.datum, [a * x + b * y for x, y in zip(self.nums, o.nums)], den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.datum, [-u for u in self.nums], self.den)

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

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.datum, [u * other.numerator for u in self.nums],
                                self.den * other.denominator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.datum, *_act(self._scaled_multiplication_rows(), (o.nums, o.den)))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Cayley-Hamilton on chi's numerators n_0, ..., n_d (n_d its
        denominator): x^-1 = -(n_d x^(d-1) + ... + n_2 x + n_1) / n_0, by
        Horner on the cleared multiplication matrix (M, D) with integer
        mat_vec; after j steps the vector is D^j times the partial sum.
        n_0 is 0 for a nonzero x iff x shares a factor with p."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero field element")
        rows, den = self._scaled_multiplication_rows()
        chi = self.charpoly().nums
        if not chi[0]:
            raise NotIrreducible("minimal polynomial is reducible")
        y, scale = [chi[-1]] + [0] * (len(rows) - 1), 1
        for c in reversed(chi[1:-1]):
            y = fl.mat_vec(rows, y)
            scale *= den
            y[0] += c * scale
        return FieldElement(self.datum, [-v for v in y], chi[0] * scale)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.datum, [u * other.denominator for u in self.nums],
                                self.den * other.numerator)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        return binary_power(self, e, self.datum.one())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return (self.is_rational and self.nums[0] == other.numerator
                    and self.den == other.denominator)
        return (
            isinstance(other, FieldElement)
            and self.datum.fingerprint() == other.datum.fingerprint()
            and self.nums == other.nums and self.den == other.den
        )

    def __hash__(self):
        # a rational element equals its Fraction value, so hashes like it
        if self.is_rational:
            return hash(Fraction(self.nums[0], self.den))
        return hash((self.nums, self.den))

    def __repr__(self):
        from .exactmath import rat_to_str

        return "FieldElement(" + ", ".join(rat_to_str(c) for c in self.coeffs) + ")"

    # -- linear algebra over Q

    def _cleared(self) -> tuple[tuple[int, ...], int]:
        """The pair (X, D) with x = X / D."""
        return self.nums, self.den

    def _scaled_multiplication_rows(self) -> tuple[list[tuple], int]:
        """(M, D) with M / D the matrix of multiplication by x: M is
        _multiplication_rows of the numerators X, over D = den e^(d-1) for
        p = P / e.  Computed once and kept."""
        kept = getattr(self, "_rows", None)
        if kept is None:
            kept = (_multiplication_rows(self.datum, self.nums),
                    self.den * self.datum.min_poly.den ** (self.datum.degree - 1))
            object.__setattr__(self, "_rows", kept)
        return kept

    def charpoly(self) -> Polynomial:
        """chi_x = det(X I - M / D), monic of degree d, computed once by
        scaled_charpoly on (M, D) and kept.  chi_x is mp_x^(d / deg mp_x)."""
        chi = getattr(self, "_charpoly", None)
        if chi is None:
            chi = scaled_charpoly(*self._scaled_multiplication_rows())
            object.__setattr__(self, "_charpoly", chi)
        return chi

    def trace(self) -> Fraction:
        """The diagonal of M over D."""
        rows, den = self._scaled_multiplication_rows()
        return Fraction(sum(row[i] for i, row in enumerate(rows)), den)

    def norm(self) -> Fraction:
        """det(M / D) = det(M) / D^d, det(M) by the integer Bareiss kernel."""
        rows, den = self._scaled_multiplication_rows()
        return Fraction(fl.int_det(rows), den ** len(rows))


def _multiplication_rows(datum: GaloisDatum, col: Sequence[int]) -> list[tuple]:
    """Integer rows of e^(d-1) times the matrix with columns X, theta X,
    ..., theta^(d-1) X for integers X = col, p = P / e (e = 1 on a verified
    datum).  Column k is kept as e^k theta^k X: each step shifts up, scales
    by e and replaces e theta^d by -sum_i P_i theta^i (p monic); column k
    is then scaled by e^(d-1-k)."""
    p = datum.min_poly
    low, e = p.nums[:-1], p.den
    cols = [col]
    for _ in range(len(col) - 1):
        top = col[-1]
        col = [e * a - top * c for a, c in zip((0, *col[:-1]), low)]
        cols.append(col)
    if e != 1:
        cols = [[x * e ** (len(cols) - 1 - k) for x in c] for k, c in enumerate(cols)]
    return list(zip(*cols))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _l2_norm_bound(p: Polynomial) -> int:
    return math.isqrt(sum(c * c for c in p.nums)) + 1


def _check_irreducible(p: Polynomial, budget: int) -> bool:
    """Prove irreducibility over Q by exhausting monic integer factors of
    degree <= deg/2 with Mignotte-bounded coefficients.

    Returns True when proven irreducible, False when the box of candidates
    would exceed the budget (caller must then rely on assume_irreducible).
    Raises NotIrreducible when a factor is found.

    The exact division p % g alone decides a factor.  Two integer filters
    skip candidates before it: g(0) must divide p(0), and g(t) must divide
    p(t) for t in (1, -1, 2, -2).  A monic integer factor of p passes both
    (p = g h with h integral).  The box is sized after the first filter:
    its constant terms are the divisors of p(0) within the bound (all of
    them when p(0) = 0).  The box is then no larger than the unfiltered
    one, so wherever the unfiltered search finishes, the verdict and the
    first factor found are its own, and the search runs out of budget
    only where the unfiltered one does.  Listing the divisors takes
    min(bound, |p(0)|) steps; past the budget it gives up before listing.
    """
    d = p.degree
    if d <= 0:
        raise NotIrreducible("constant polynomial")
    if d == 1:
        return True
    if not p.is_integer or p.leading != 1:
        raise BadParameters("minimal polynomial must be monic with integer coefficients")
    m = _l2_norm_bound(p)
    p0 = p.nums[0]
    # the unfiltered box, with 2m + 1 constant terms, is over budget too here
    if (min(m, abs(p0)) if p0 else 2 * m + 1) > budget:
        return False
    divisors = [c for c in range(1, min(m, abs(p0)) + 1) if p0 % c == 0]
    constants = [-c for c in reversed(divisors)] + divisors if p0 else range(-m, m + 1)
    values = [(t, horner(p.nums, t)) for t in (1, -1, 2, -2)]
    for k in range(1, d // 2 + 1):
        bounds = [math.comb(k, j) * m for j in range(k)]
        if len(constants) * math.prod(2 * b + 1 for b in bounds[1:]) > budget:
            return False
        def rec(j: int, coeffs: list[int]):
            if j == k:
                cs = coeffs + [1]
                for t, pt in values:
                    gt = horner(cs, t)
                    if pt % gt if gt else pt:
                        return
                g = Polynomial.from_numerators(cs)
                if (p % g).is_zero:
                    raise NotIrreducible(f"factor found: {g!r}")
                return
            for c in (constants if j == 0 else range(-bounds[j], bounds[j] + 1)):
                rec(j + 1, coeffs + [c])
        rec(0, [])
    return True


class RootPath:
    """The bisection path of one real root of p: level 0 is a sign-change
    enclosure, level k + 1 the half of level k that keeps the sign change
    (or the root itself once a midpoint hits it).  Each level is kept as
    the integer triple (a, b, q), q > 0, meaning [a/q, b/q]: bisection
    gives (a + b, 2b, 2q) or (2a, a + b, 2q), or the point (m, m, 2q) with
    m = a + b, with no reduction.  Levels are computed on demand and kept,
    so no question about the root bisects twice.  Each sign is read off
    an integer sum over p's numerators (_sign).  level(k) is the Interval
    view of the triple."""

    def __init__(self, p: Polynomial, iv: Interval):
        self._nums = p.nums
        a, b, q = iv.numerators()
        flo, fhi = self._sign(a, q), self._sign(b, q)
        if flo == 0 or fhi == 0 or flo == fhi:
            raise BadEnclosure(f"no sign change of p on [{iv.lo}, {iv.hi}]")
        self._lo_sign = flo
        self._levels = [(a, b, q)]

    def _sign(self, a: int, q: int) -> int:
        """The sign of p(a / q), q > 0: that of horner over p's numerators."""
        acc = horner(self._nums, a, q)
        return (acc > 0) - (acc < 0)

    def numerators(self, k: int) -> tuple[int, int, int]:
        """Level k as its triple (a, b, q)."""
        if k > DEFAULT_REFINE_STEPS:
            raise PrecisionUnreachable("bisection budget exhausted")
        levels = self._levels
        while len(levels) <= k:
            a, b, q = levels[-1]
            m, q = a + b, 2 * q
            sign = self._sign(m, q)
            if sign == 0:
                levels.append((m, m, q))
            elif sign == self._lo_sign:
                levels.append((m, 2 * b, q))
            else:
                levels.append((2 * a, m, q))
        return levels[k]

    def level(self, k: int) -> Interval:
        return Interval.from_numerators(*self.numerators(k))


def refine_until(test: Callable[[int], object]):
    """Ask test at levels 0, 4, 8, ... and return its first answer that is
    not None; PrecisionUnreachable once the levels pass
    DEFAULT_REFINE_STEPS."""
    for k in range(0, DEFAULT_REFINE_STEPS + 1, 4):
        answer = test(k)
        if answer is not None:
            return answer
    raise PrecisionUnreachable("refinement budget exhausted")


def _check_index(datum: GaloisDatum, index: int) -> None:
    if not 0 <= index < datum.degree:
        raise BadParameters(f"automorphism index {index} is out of range")


def _act(pair: tuple, form: tuple) -> tuple[tuple[int, ...], int]:
    """The cleared form of the image of X / D_X, given as its form (X, D_X),
    under the Q-linear map A / D given as the pair (A, D) (an automorphism,
    or multiplication by an element): A X over D D_X, fl.reduced.  Every
    product and automorphism image is formed here."""
    a, da = pair
    b, db = form
    return fl.reduced(fl.mat_vec(a, b), da * db)


def verify_galois_datum(candidate: GaloisDatum,
                        factor_budget: int = DEFAULT_FACTOR_BUDGET) -> GaloisDatum:
    """Run every invariant check and return the datum marked verified.

    Checks: irreducibility (or the assume_irreducible escape hatch), that
    every automorphism polynomial q is reduced and satisfies
    min_poly(q(theta)) = 0, that the composition table (derived when None)
    is the multiplication table of a group of order equal to the degree,
    and that the root enclosures are genuine, disjoint and descending; both
    algebraic checks read each automorphism's power-basis matrix, built
    once and kept.  Starts each real root's bisection path from its
    enclosure and pins down which root each automorphism sends the
    distinguished root to (the root_map).
    """
    p = candidate.min_poly
    d = p.degree
    if d < 1:
        raise BadParameters("minimal polynomial must have degree >= 1")
    if not p.is_integer or p.leading != 1:
        raise BadParameters("minimal polynomial must be monic with integer coefficients")

    proved = _check_irreducible(p, factor_budget)
    if not proved and not candidate.assume_irreducible:
        raise IrreducibilityBudgetExceeded(
            "irreducibility not proven within budget; set assume_irreducible"
        )

    n_aut = len(candidate.automorphisms)
    if n_aut != d:
        raise WrongAutomorphismCount(f"{n_aut} automorphisms for degree {d}")

    # the Galois action in the power basis: column k of A_i / D_i is
    # q_i(theta)^k = M^k e_1 / D^k, (M, D) the cleared numerators of
    # multiplication by q_i(theta); column d decides the min-poly check
    low = p.nums[:-1]
    elems, autmat = [], []
    for i, q in enumerate(candidate.automorphisms):
        if q.degree >= d:
            raise BadParameters(f"automorphism {i} not reduced mod min_poly")
        x = FieldElement(candidate, q.nums + (0,) * (d - len(q.nums)), q.den)
        rows, den = x._scaled_multiplication_rows()
        cols = [[1] + [0] * (d - 1)]
        for _ in range(d):
            cols.append(fl.mat_vec(rows, cols[-1]))
        # D^d min_poly(q_i(theta)) = column d + sum_k p_k D^(d-k) column k
        residual = cols[d]
        for k, c in enumerate(low):
            residual = [a + c * den ** (d - k) * b for a, b in zip(residual, cols[k])]
        if any(residual):
            raise AutomorphismFailsMinPoly(f"automorphism {i} fails the minimal polynomial")
        elems.append(x)
        # over D^(d-1), reduced: the least denominator
        flat, top = fl.reduced([c * den ** (d - 1 - k) for k, col in enumerate(cols[:d])
                                for c in col], den ** (d - 1))
        autmat.append((tuple(zip(*(flat[k * d:(k + 1) * d] for k in range(d)))), top))

    coords = [(x.nums, x.den) for x in elems]
    if len(set(coords)) != d:
        raise WrongAutomorphismCount("duplicate automorphism polynomials")

    ident = candidate.identity_index
    if not (0 <= ident < d):
        raise TableNotAGroup("identity index out of range")
    if elems[ident] != candidate.generator():
        raise TableNotAGroup("identity automorphism is not X")

    given = candidate.table
    if given is not None and (len(given) != d or any(len(row) != d for row in given)):
        raise TableNotAGroup("table has wrong shape")
    index = {c: i for i, c in enumerate(coords)}
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            # sigma_i o sigma_j sends theta to sigma_i(q_j(theta))
            comp = _act(autmat[i], coords[j])
            k = index.get(comp, -1) if given is None else given[i][j]
            if not (0 <= k < d) or coords[k] != comp:
                raise TableNotAGroup("automorphisms not closed under composition" if given is None
                                     else f"table entry ({i},{j}) does not match composition")
            row.append(k)
        table.append(tuple(row))
    for i in range(d):
        if sorted(table[i]) != list(range(d)):
            raise TableNotAGroup(f"row {i} is not a permutation")
        if sorted(row[i] for row in table) != list(range(d)):
            raise TableNotAGroup(f"column {i} is not a permutation")
        if table[ident][i] != i or table[i][ident] != i:
            raise TableNotAGroup("identity row/column is not the identity")

    if not (0 <= candidate.distinguished_index < d):
        raise BadParameters("distinguished root index out of range")
    paths: tuple[RootPath, ...] = ()
    if candidate.totally_real:
        encl = candidate.root_enclosures
        if encl is None or len(encl) != d:
            raise BadEnclosure("need one root enclosure per root")
        if d == 1:
            if encl[0].lo != encl[0].hi or p.eval(encl[0].lo) != 0:
                raise BadEnclosure("degree-1 enclosure must be the exact root")
        else:
            paths = tuple(RootPath(p, iv) for iv in encl)
        for a, b in zip(encl, encl[1:]):
            if not b.hi < a.lo:
                raise EnclosuresOverlap("enclosures must be disjoint and descending")
    else:
        if candidate.root_moduli is None or len(candidate.root_moduli) != d:
            raise BadEnclosure("non-real datum needs per-conjugate modulus enclosures")
        prod = Interval.point(1)
        for iv in candidate.root_moduli:
            if iv.lo < 0:
                raise BadEnclosure("modulus enclosures must be nonnegative")
            prod = prod.mul(iv)
        # |norm(theta)| = |constant term| for a monic irreducible polynomial
        if not prod.contains(abs(p.constant)):
            raise BadEnclosure("modulus enclosures inconsistent with the norm")

    out = replace(
        candidate,
        table=tuple(table),
        assume_irreducible=candidate.assume_irreducible and not proved,
    )
    object.__setattr__(out, "verified", True)
    object.__setattr__(out, "_paths", paths)
    object.__setattr__(out, "_autmat", tuple(autmat))
    object.__setattr__(out, "root_map",
                       _compute_root_map(out) if out.totally_real else None)
    return out


def _compute_root_map(datum: GaloisDatum) -> tuple[int, ...]:
    """For each automorphism i, the index of the one root enclosure that
    sigma_i's image of the distinguished root's path meets."""
    d = datum.degree
    if d == 1:
        return (0,)
    encl = datum.root_enclosures
    path = datum._paths[datum.distinguished_index]

    def image_root(q: Polynomial, k: int) -> int | None:
        img = q.eval_interval(path.level(k))
        hits = [j for j, iv in enumerate(encl) if not img.disjoint(iv)]
        return hits[0] if len(hits) == 1 else None

    out = tuple(refine_until(lambda k: image_root(q, k)) for q in datum.automorphisms)
    if sorted(out) != list(range(d)):
        raise TableNotAGroup("automorphisms do not permute the root enclosures")
    return out


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _biquadratic_sqrt_numerators(k: int, l: int) -> tuple[tuple[int, ...], ...]:
    """sqrt(k), sqrt(l) over 2(k - l), solving (theta, theta^3) = M (sqrt k, sqrt l)."""
    return (0, 3 * k + l, 0, -1), (0, -(k + 3 * l), 0, 1)


def biquadratic_datum(k: int, l: int) -> GaloisDatum:
    """The verified degree-4 datum for Q(sqrt(k), sqrt(l)).

    Primitive element theta = sqrt(k) + sqrt(l) with minimal polynomial
    X^4 - 2(k+l)X^2 + (k-l)^2; the four automorphisms flip the signs of the
    two square roots, giving the Klein four-group.
    """
    if k <= 1 or l <= 1 or k == l or any(squarefree_part_of_rational(n) != n for n in (k, l)):
        raise BadParameters("need distinct squarefree integers k, l > 1")
    p = Polynomial(((k - l) ** 2, 0, -2 * (k + l), 0, 1))
    sqrt_k, sqrt_l = (Polynomial.from_numerators(nums, 2 * (k - l))
                      for nums in _biquadratic_sqrt_numerators(k, l))
    ident = Polynomial.x()
    tau = (sqrt_k - sqrt_l) % p          # fixes sqrt(k), flips sqrt(l)
    sigma = (sqrt_l - sqrt_k) % p        # flips sqrt(k), fixes sqrt(l)
    sigma_tau = -ident
    auts = (ident, sigma, tau, sigma_tau)

    sqrt_paths = [RootPath(Polynomial((-n, 0, 1)), Interval(math.isqrt(n), math.isqrt(n) + 1))
                  for n in (k, l)]

    def separated(level: int) -> tuple[Interval, ...] | None:
        # the square roots' paths start from unit intervals; level 6 (width
        # 1/64) is where the enclosures of theta's roots are first tried
        rk, rl = (path.level(level + 6) for path in sqrt_paths)
        ivs = (
            rk.add(rl),
            (rk.sub(rl)) if k > l else (rl.sub(rk)),
            (rl.sub(rk)) if k > l else (rk.sub(rl)),
            rk.add(rl).neg(),
        )
        return ivs if all(b.hi < a.lo for a, b in zip(ivs, ivs[1:])) else None

    return datum_from_automorphism_polys(p, auts, refine_until(separated))


def biquadratic_sqrts(datum: GaloisDatum, k: int, l: int) -> tuple[FieldElement, FieldElement]:
    """The elements sqrt(k), sqrt(l) inside a biquadratic_datum(k, l),
    certified by squaring."""
    sk, sl = (FieldElement(datum, nums, 2 * (k - l))
              for nums in _biquadratic_sqrt_numerators(k, l))
    if not (sk * sk == k and sl * sl == l):
        raise BadParameters("datum is not the biquadratic field of (k, l)")
    return sk, sl


def datum_from_automorphism_polys(min_poly: Polynomial,
                                  auts: Sequence[Polynomial],
                                  root_enclosures: Sequence[Interval],
                                  identity_index: int = 0,
                                  distinguished_index: int = 0) -> GaloisDatum:
    """Assemble and verify a datum when only the automorphism polynomials
    are known; verification derives the composition table."""
    return verify_galois_datum(GaloisDatum(
        min_poly=min_poly,
        automorphisms=tuple(auts),
        identity_index=identity_index,
        table=None,
        root_enclosures=tuple(root_enclosures),
        distinguished_index=distinguished_index,
    ))


# ---------------------------------------------------------------------------
# the Galois action on elements
# ---------------------------------------------------------------------------


def _require_verified(datum: GaloisDatum):
    if not datum.verified:
        raise BadParameters("operation requires a verified GaloisDatum")


def automorphism_matrix(datum: GaloisDatum, index: int) -> tuple[tuple, int]:
    """(A, D), A / D the matrix of the Q-linear map x -> sigma_index(x) in
    the power basis (column k is sigma_index(theta)^k), A integral over the
    least D, as verify_galois_datum built it."""
    _require_verified(datum)
    _check_index(datum, index)
    return datum._autmat[index]


def apply_automorphism(datum: GaloisDatum, index: int, x: FieldElement) -> FieldElement:
    """sigma_index(x): the automorphism's matrix times x's coordinates."""
    aut = automorphism_matrix(datum, index)
    if x.datum.fingerprint() != datum.fingerprint():
        raise DatumMismatch("element does not belong to this datum")
    return FieldElement(datum, *_act(aut, (x.nums, x.den)))


def minimal_polynomial(x: FieldElement) -> Polynomial:
    """Monic minimal polynomial of x over Q: the squarefree part of chi_x
    (which is that minimal polynomial raised to the power d/deg)."""
    _require_verified(x.datum)
    return x.charpoly().squarefree_part()


def is_algebraic_unit(x: FieldElement) -> bool:
    """True iff the minimal polynomial has integer coefficients with
    constant term +-1, read off chi_x = mp^k: mp^k is integral iff mp is
    (Gauss's lemma; both are monic), and |mp^k(0)| = |mp(0)|^k."""
    _require_verified(x.datum)
    chi = x.charpoly()
    return chi.is_integer and abs(chi.constant) == 1


def sign_against_one(lo: int, hi: int, e: int) -> int | None:
    """+1 or -1 when [lo/e, hi/e] (e > 0) lies strictly above or below 1,
    0 when it is the point 1 (a fixture modulus), None while it contains 1."""
    if lo > e:
        return 1
    if hi < e:
        return -1
    return 0 if lo == hi == e else None


def abs_enclosure(lo: int, hi: int, e: int) -> tuple[int, int, int]:
    """The integer enclosure (lo', hi', e) of |t| for t in [lo/e, hi/e]."""
    if lo >= 0:
        return lo, hi, e
    if hi <= 0:
        return -hi, -lo, e
    return 0, max(-lo, hi), e


def conjugate_numerators(x: FieldElement, conjugate_index: int,
                         ) -> Callable[[int], tuple[int, int, int]]:
    """k -> (lo, hi, E) with sigma_i(x) in [lo/E, hi/E] (totally real
    datum): x's kept numerators evaluated by interval_horner on level k of
    the path of the root that sigma_i sends theta to.  BadParameters on a
    datum that is not totally real or of degree 1, which have no root
    paths."""
    _require_verified(x.datum)
    _check_index(x.datum, conjugate_index)
    if not x.datum.totally_real or x.datum.degree == 1:
        raise BadParameters("conjugate levels need a totally real datum of degree > 1")
    path = x.datum._paths[x.datum.root_map[conjugate_index]]
    return lambda k: interval_horner(x.nums, x.den, path.numerators(k))


def conjugate_levels(x: FieldElement, conjugate_index: int) -> Callable[[int], Interval]:
    """k -> the Interval view of conjugate_numerators(x, i)(k)."""
    enclose = conjugate_numerators(x, conjugate_index)
    return lambda k: Interval.from_numerators(*enclose(k))


def conjugate_modulus_interval(x: FieldElement, conjugate_index: int,
                               precision: Fraction) -> Interval:
    """Certified enclosure of |sigma_i(x)| with width <= precision.

    Totally real case: the first level 0, 4, 8, ... of the root's path on
    which the enclosure of sigma_i(x) is narrow enough, tested on its
    numerators; the Interval is built once, on return.  Otherwise x must
    be theta, whose conjugate moduli are fixture data.
    """
    datum = x.datum
    _require_verified(datum)
    _check_index(datum, conjugate_index)
    precision = rat(precision)
    if precision <= 0:
        raise BadParameters("precision must be positive")
    if x.is_rational:
        return Interval.point(abs(x.rational_value()))
    if not datum.totally_real:
        iv = datum.root_moduli[conjugate_index]
        if x == datum.generator() and iv.width <= precision:
            return iv
        raise PrecisionUnreachable(
            "complex modulus enclosures are fixture data for theta and cannot be refined"
        )
    enclose = conjugate_numerators(x, conjugate_index)
    num, den = precision.numerator, precision.denominator

    def narrow(k: int) -> Interval | None:
        lo, hi, e = abs_enclosure(*enclose(k))
        if (hi - lo) * den <= num * e:
            return Interval.from_numerators(lo, hi, e)
        return None
    return refine_until(narrow)


def compare_abs_to_one(x: FieldElement, conjugate_index: int) -> int:
    """Exact sign of |sigma_i(x)| - 1: -1, 0 or +1.

    The zero case is decided algebraically (a real field element has
    modulus one exactly when it is +-1, and sigma_i(x) is rational exactly
    when x is), so refinement on the root's path decides the remaining
    cases on the enclosure's numerators; a complex datum uses its fixture
    moduli.
    """
    datum = x.datum
    _require_verified(datum)
    _check_index(datum, conjugate_index)
    if x.is_rational:
        v = abs(x.rational_value())
        return (v > 1) - (v < 1)
    if not datum.totally_real:
        iv = conjugate_modulus_interval(x, conjugate_index, Fraction(1, 4))
        sign = sign_against_one(*iv.numerators())
        if sign is None:
            raise PrecisionUnreachable("fixture modulus enclosure contains 1")
        return sign
    enclose = conjugate_numerators(x, conjugate_index)
    return refine_until(lambda k: sign_against_one(*abs_enclosure(*enclose(k))))
