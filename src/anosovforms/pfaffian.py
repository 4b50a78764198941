"""Pfaffian forms of 2-step algebras, the type-(4,2) classification,
Pell-equation automorphisms of binary quadratic forms, Scheuneman duality.

The Pfaffian is expanded along the first row, normalized so the standard
symplectic block matrix has Pfaffian +1, and refuses a matrix larger than
PFAFFIAN_SIZE_BUDGET.  The Pfaffian form of a 2-step algebra with adapted
basis is Pf of the generic skew pencil sum_i Y_i J_{Z_i}, a homogeneous
polynomial in the center coordinates; in type (4,2) its discriminant
modulo rational squares classifies the algebra completely.

The duality layer reads W = J(center) in one form, the k x C(n1, 2)
coordinate matrix of w_space_coords on the basis E_ij (i < j): the dual's
center W~ is its nullspace, and alpha^T J_Z alpha is a row of coords times
the second exterior power of alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import _fieldlinalg as fl
from .errors import (
    BadDiscriminant,
    BasisNotAdapted,
    DegeneratePfaffian,
    DimensionBudgetExceeded,
    DoesNotPreserveW,
    JNotInjective,
    NotTwoStep,
    OddDimension,
    PellBudgetExceeded,
    SolutionMismatch,
)
from .exactmath import (
    Polynomial,
    RationalMatrix,
    nullspace,
    rat,
    rat_to_str,
    squarefree_part_of_rational,
)
from .liealg import LieAlgebra, is_automorphism


# ---------------------------------------------------------------------------
# small multivariate polynomials (exponent-tuple dict)
# ---------------------------------------------------------------------------


class MultiPoly:
    """Polynomial in k variables over Q, as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for e, c in (terms or {}).items():
            c = rat(c)
            if c != 0:
                clean[tuple(e)] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def variable(nvars: int, i: int) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): Fraction(1)})

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.nvars,
                             {e: c * rat(other) for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms \
            and self.nvars == other.nvars

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

    def __repr__(self):
        if self.is_zero:
            return "MultiPoly(0)"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"Y{i+1}^{p}" if p > 1 else f"Y{i+1}"
                            for i, p in enumerate(e) if p)
            bits.append(f"{rat_to_str(c)}" + (f"*{mono}" if mono else ""))
        return "MultiPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# binary quadratic forms and Pell automorphisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BinaryQuadraticForm:
    """h(X, Y) = a X^2 + b XY + c Y^2 over Q."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        object.__setattr__(self, "c", rat(self.c))

    @property
    def discriminant(self) -> Fraction:
        return self.b * self.b - 4 * self.a * self.c

    def is_integer(self) -> bool:
        return all(v.denominator == 1 for v in (self.a, self.b, self.c))


@dataclass(frozen=True)
class PellSolution:
    x: int
    y: int


# steps of the continued fraction before solve_pell gives up; the period
# grows like sqrt(d), and d = 10^8 + 3 needs 5,314 steps (a 2,783-digit y)
PELL_STEP_BUDGET = 10_000


def solve_pell(d: int) -> PellSolution:
    """Fundamental solution of x^2 - d y^2 = 4 with smallest y >= 1.

    Walks the continued fraction of (1 + sqrt d)/2 when d = 1 mod 4, else
    of sqrt(d/4) or sqrt d (x is then even, and so is y unless 4 | d).  The
    first convergent h/k whose (x, y) has x^2 - d y^2 = +-4 gives the
    fundamental unit (x + y sqrt d)/2; for norm -1 its square is returned.
    """
    if d <= 0 or math.isqrt(d) ** 2 == d:
        raise BadDiscriminant("need a positive nonsquare discriminant")
    if d % 4 == 1:
        p, q, n, to_xy = 1, 2, d, lambda h, k: (2 * h - k, k)
    elif d % 4 == 0:
        p, q, n, to_xy = 0, 1, d // 4, lambda h, k: (2 * h, k)
    else:
        p, q, n, to_xy = 0, 1, d, lambda h, k: (2 * h, 2 * k)
    r = math.isqrt(n)
    h0, h, k0, k = 0, 1, 1, 0
    for _ in range(PELL_STEP_BUDGET):
        # complete quotient (p + sqrt n)/q, with q > 0 dividing n - p^2
        a = (p + r) // q
        h0, h = h, a * h + h0
        k0, k = k, a * k + k0
        x, y = to_xy(h, k)
        norm = x * x - d * y * y
        if norm == 4:
            return PellSolution(x, y)
        if norm == -4:
            return PellSolution((x * x + d * y * y) // 2, x * y)
        p = a * q - p
        q = (n - p * p) // q
    raise PellBudgetExceeded(
        f"no solution within {PELL_STEP_BUDGET} continued-fraction steps")


def pell_automorphism(h: BinaryQuadraticForm, sol: PellSolution) -> RationalMatrix:
    """U(x, y) = [[(x - y b)/2, -c y], [a y, (x + y b)/2]], certified to
    have determinant one and to preserve h as a polynomial identity."""
    if not h.is_integer():
        raise BadDiscriminant("Pell automorphisms need integer coefficients")
    d = h.discriminant
    if sol.x * sol.x - d * sol.y * sol.y != 4:
        raise SolutionMismatch(
            f"({sol.x},{sol.y}) does not solve x^2 - {d} y^2 = 4"
        )
    x, y = Fraction(sol.x), Fraction(sol.y)
    u = RationalMatrix([
        [(x - y * h.b) / 2, -h.c * y],
        [h.a * y, (x + y * h.b) / 2],
    ])
    if u.det() != 1:
        raise SolutionMismatch("automorphism determinant is not one")
    if not form_preserved_by(h, u):
        raise SolutionMismatch("matrix does not preserve the form")
    if u.charpoly() != Polynomial([1, -sol.x, 1]):
        raise SolutionMismatch("characteristic polynomial is not X^2 - xX + 1")
    return u


def form_preserved_by(h: BinaryQuadraticForm, u: RationalMatrix) -> bool:
    """h(U v) = h(v) as a polynomial identity in the two coordinates."""
    p, q, r, s = u[0, 0], u[0, 1], u[1, 0], u[1, 1]
    # coefficients of h(p X + q Y, r X + s Y)
    a2 = h.a * p * p + h.b * p * r + h.c * r * r
    b2 = 2 * h.a * p * q + h.b * (p * s + q * r) + 2 * h.c * r * s
    c2 = h.a * q * q + h.b * q * s + h.c * s * s
    return (a2, b2, c2) == (h.a, h.b, h.c)


# ---------------------------------------------------------------------------
# J maps and Pfaffians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SkewMap:
    """Skew-symmetric matrix over the base field of its algebra."""

    matrix: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        for i in range(n):
            if len(self.matrix[i]) != n:
                raise ValueError("skew map must be square")
            for j in range(n):
                if not self.matrix[i][j] == -self.matrix[j][i]:
                    raise ValueError("matrix is not skew-symmetric")

    @property
    def size(self) -> int:
        return len(self.matrix)


def adapted_split(a: LieAlgebra) -> tuple[int, int]:
    """(n1, k) for a 2-step algebra whose basis is adapted: the first n1
    vectors span a complement of the center part gamma_2, the rest span
    gamma_2.  Abelian algebras count as the degenerate case k = 0.
    Raises NotTwoStep/BasisNotAdapted otherwise."""
    series, type_tuple, nclass = a.central_series()
    if nclass > 2:
        raise NotTwoStep(f"nilpotency class is {nclass}")
    if nclass < 2:
        return a.dim, 0
    n1, k = type_tuple
    # gamma_2 is in canonical echelon form, so it is spanned by the trailing
    # basis vectors exactly when it lists them in order
    if series[1] != tuple(tuple(int(s == t) for s in range(a.dim)) for t in range(n1, a.dim)):
        raise BasisNotAdapted("gamma_2 is not spanned by the trailing basis vectors")
    for (i, j, t, _c) in a.brackets:
        if j >= n1:
            raise BasisNotAdapted("bracket involves a center vector")
        if t < n1:
            raise BasisNotAdapted("bracket lands outside the center part")
    return n1, k


def j_map(a: LieAlgebra, z: list) -> SkewMap:
    """J_Z with <J_Z X, Y> = <[X, Y], Z> in the adapted basis coordinates;
    the zero map when the algebra is abelian."""
    n1, k = adapted_split(a)
    if len(z) != k:
        raise ValueError("center coordinates must have length k")
    rows = [[Fraction(0)] * n1 for _ in range(n1)]
    for (i, j, t, c) in a.brackets:
        pairing = c * z[t - n1]
        rows[i][j] = rows[i][j] + pairing
        rows[j][i] = rows[j][i] - pairing
    return SkewMap(tuple(tuple(r) for r in rows))


# largest skew matrix pfaffian expands: the memoised expansion reaches at
# most 2^(n - 1) index subsets, 2,048 at n = 12, not (n - 1)!! = 10,395
# matchings
PFAFFIAN_SIZE_BUDGET = 12


def pfaffian(s: SkewMap):
    """Pfaffian by expansion along the first row, Pf(A) = sum_{j>0}
    (-1)^(j+1) a_0j Pf(A without rows and columns 0 and j); this is the
    signed sum over perfect matchings grouped by the partner of 0, so
    diag([[0,1],[-1,0]], ...) has Pfaffian +1.  A matrix larger than
    PFAFFIAN_SIZE_BUDGET raises DimensionBudgetExceeded."""
    n = s.size
    if n % 2 != 0:
        raise OddDimension("Pfaffian needs an even-size skew matrix")
    if n > PFAFFIAN_SIZE_BUDGET:
        raise DimensionBudgetExceeded(
            f"skew matrix of size {n} exceeds the Pfaffian budget of {PFAFFIAN_SIZE_BUDGET}")
    if n == 0:
        return Fraction(1)
    return _pfaffian_rows(s.matrix, tuple(range(n)))


def _pfaffian_rows(a, idx: tuple[int, ...]):
    """Pf of a's principal submatrix on the indices idx (even, nonempty),
    each index subset expanded once: at most 2^(len(idx) - 1) subsets, not
    every matching."""
    @cache
    def pf(idx):
        first, rest = idx[0], idx[1:]
        if len(rest) == 1:
            return a[first][rest[0]]
        acc = a[first][rest[0]] * pf(rest[1:])
        for pos in range(1, len(rest)):
            term = a[first][rest[pos]] * pf(rest[:pos] + rest[pos + 1:])
            acc = acc - term if pos % 2 else acc + term
        return acc
    return pf(idx)


def pfaffian_form(a: LieAlgebra) -> MultiPoly:
    """h(Y_1..Y_k) = Pf(sum_i Y_i J_{Z_i}), expanded exactly.  Homogeneous
    of degree n1/2 in the k center coordinates."""
    return _pfaffian_form(a, *adapted_split(a))


def _pfaffian_form(a: LieAlgebra, n1: int, k: int) -> MultiPoly:
    if n1 % 2 != 0:
        raise OddDimension("Pfaffian form needs an even degree-1 block")
    zero = MultiPoly(k)
    rows = [[zero for _ in range(n1)] for _ in range(n1)]
    for (i, j, t, c) in a.brackets:
        term = MultiPoly.variable(k, t - n1) * c
        rows[i][j] = rows[i][j] + term
        rows[j][i] = rows[j][i] - term
    return pfaffian(SkewMap(tuple(tuple(r) for r in rows)))


def binary_form_of(a: LieAlgebra) -> BinaryQuadraticForm:
    """The Pfaffian form specialized to type (4,2)."""
    n1, k = adapted_split(a)
    if (n1, k) != (4, 2):
        raise NotTwoStep(f"binary Pfaffian form needs type (4,2), got ({n1},{k})")
    h = _pfaffian_form(a, n1, k)
    return BinaryQuadraticForm(
        h.coefficient((2, 0)), h.coefficient((1, 1)), h.coefficient((0, 2))
    )


def classify_type42(a: LieAlgebra) -> tuple[int, bool]:
    """The squarefree integer s with a isomorphic to the standard algebra
    of parameter s, plus whether s is compatible with being Anosov (s > 1).
    Two type-(4,2) algebras are isomorphic exactly when their Pfaffian form
    discriminants agree up to a rational square."""
    h = binary_form_of(a)
    delta = h.discriminant
    if delta == 0:
        raise DegeneratePfaffian("Pfaffian form has zero discriminant")
    s = squarefree_part_of_rational(delta)
    return s, s > 1


def nk_algebra(k: int) -> LieAlgebra:
    """The standard type-(4,2) algebra of parameter k:
    [X1,X3] = Z1, [X1,X4] = Z2, [X2,X3] = k Z2, [X2,X4] = Z1."""
    return LieAlgebra(6, (
        (0, 2, 4, Fraction(1)),
        (0, 3, 5, Fraction(1)),
        (1, 2, 5, Fraction(k)),
        (1, 3, 4, Fraction(1)),
    ))


def hk_algebra(k: int) -> LieAlgebra:
    """The type-(4,4) dual of nk_algebra(k): [X1,X2] = Z1, [X1,X3] = Z2,
    [X1,X4] = k Z3, [X2,X3] = -Z3, [X2,X4] = -Z2, [X3,X4] = Z4."""
    return LieAlgebra(8, (
        (0, 1, 4, Fraction(1)),
        (0, 2, 5, Fraction(1)),
        (0, 3, 6, Fraction(k)),
        (1, 2, 6, Fraction(-1)),
        (1, 3, 5, Fraction(-1)),
        (2, 3, 7, Fraction(1)),
    ))


# ---------------------------------------------------------------------------
# Scheuneman duality
# ---------------------------------------------------------------------------


def _skew_basis_index(n1: int) -> list[tuple[int, int]]:
    return list(combinations(range(n1), 2))


def w_space_coords(a: LieAlgebra) -> tuple[list[list[Fraction]], list[tuple[int, int]], int, int]:
    """Coordinates of W = span{J_Z} inside the skew matrices, in the basis
    E_ij (i < j).  Raises JNotInjective when J kills part of the center."""
    n1, k = adapted_split(a)
    pairs = _skew_basis_index(n1)
    index = {pair: p for p, pair in enumerate(pairs)}
    coords = [[Fraction(0)] * len(pairs) for _ in range(k)]
    for (i, j, t, c) in a.brackets:
        coords[t - n1][index[(i, j)]] = c
    if fl.rank(coords) != k:
        raise JNotInjective("center maps to a degenerate family of skew matrices")
    return coords, pairs, n1, k


def scheuneman_dual(a: LieAlgebra) -> LieAlgebra:
    """The 2-step algebra on V + W~ where W~ is the orthogonal complement
    of W = J(center) inside the skew matrices under B(Z1, Z2) =
    trace(Z1^T Z2), with bracket defined by B([X,Y], Z) = <Z(X), Y> for
    Z ranging over W~.

    B(E_ij, E_kl) = 2 delta on the basis E_ij (i < j), so W~ is the
    nullspace of W's coordinate rows: kd independent rows C (all of the
    skew matrices when k = 0).  In the basis C the bracket vector of
    [X_i, X_j] is column ij of -G^-1 C, with G = 2 C C^T the Gram matrix
    of B on W~, which is invertible.  That matrix is row-equivalent to C,
    so both have the same nonzero columns and the same RREF, of rank kd:
    the canonical center basis below is read off C, with no Gram solve.

    The center basis is canonicalized: new basis vectors are introduced in
    the order brackets appear (lexicographic pairs), rescaled so each
    coefficient vector is a primitive integer vector with positive leading
    entry.  This reproduces the standard presentation of the duals of the
    classified type-(4,2) algebras exactly.
    """
    coords, pairs, n1, k = w_space_coords(a)
    comp = nullspace(coords or [[0] * len(pairs)])[0]
    # the RREF of C on its nonzero columns, the bracketing pairs in order:
    # pivot columns are the directions in the order brackets introduce
    # them, and row t, primitive with a positive pivot, holds t's coordinates
    cols = [c for c in range(len(pairs)) if any(v[c] for v in comp)]
    scaled = fl.span_rref([[v[c] for c in cols] for v in comp])
    entries = [(*pairs[c], n1 + t, Fraction(row[r]))
               for r, c in enumerate(cols) for t, row in enumerate(scaled) if row[r]]
    return LieAlgebra(n1 + len(comp), tuple(entries))


def dual_automorphism(alpha: RationalMatrix, a: LieAlgebra,
                      dual: LieAlgebra) -> tuple[RationalMatrix, RationalMatrix]:
    """Extend alpha on the degree-1 block to automorphisms of a and of its
    dual (alpha^T on the dual side), by bracket equivariance.

    Requires alpha^T Z alpha in W for every Z in W (checked; raises
    DoesNotPreserveW).
    """
    ext_a = extend_degree_one(a, alpha)
    ext_dual = extend_degree_one(dual, alpha.transpose())
    return ext_a, ext_dual


def extend_degree_one(a: LieAlgebra, alpha: RationalMatrix) -> RationalMatrix:
    """Block automorphism of a 2-step algebra from its degree-1 action: the
    center block is solved from alpha^T J_Z alpha = J_{alpha^T Z}.

    In E_ij coordinates alpha^T J_Z alpha is coords(Z) * wedge_square(alpha):
    entry ij is the sum over p < q of c_pq (alpha_pi alpha_qj - alpha_qi
    alpha_pj), read off the nonzero coordinates c_pq of Z."""
    coords, pairs, n1, k = w_space_coords(a)
    if (alpha.rows, alpha.cols) != (n1, n1):
        raise ValueError("degree-1 block has the wrong size")
    m = alpha.entries
    images = []
    for row in coords:
        terms = [(c, m[p], m[q]) for c, (p, q) in zip(row, pairs) if c]
        images.append([sum(c * (mp[i] * mq[j] - mq[i] * mp[j]) for c, mp, mq in terms)
                       for i, j in pairs])
    # one solve over the k images: column t of the solution holds the
    # coordinates of alpha^T(Z_t), row t of the extension's center block
    try:
        solution, e = fl.solve([list(col) for col in zip(*coords)], images)
    except fl.Inconsistent:
        raise DoesNotPreserveW("alpha^T J_Z alpha leaves the image of J") from None
    n = a.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n1):
        rows[i][:n1] = m[i]
    for t, col in enumerate(zip(*solution)):
        rows[n1 + t][n1:n1 + k] = [Fraction(x, e) for x in col]
    # out itself, so the charpoly is_automorphism computes is kept for certify
    out = RationalMatrix(rows)
    if not is_automorphism(a, out):
        raise DoesNotPreserveW("extension is not an automorphism")
    return out


def wedge_square(alpha: RationalMatrix) -> RationalMatrix:
    """Second exterior power on the basis e_i ^ e_j, pairs ordered
    lexicographically."""
    n = alpha.rows
    pairs = _skew_basis_index(n)
    rows = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            row.append(alpha[i, k] * alpha[j, l] - alpha[i, l] * alpha[j, k])
        rows.append(row)
    return RationalMatrix(rows)


def center_block(a: LieAlgebra, m: RationalMatrix) -> RationalMatrix:
    """Restriction of an automorphism to the center part of the adapted
    basis (the induced map on gamma_2)."""
    n1, k = adapted_split(a)
    idx = list(range(n1, n1 + k))
    return m.submatrix(idx, idx)
