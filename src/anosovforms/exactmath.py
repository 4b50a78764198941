"""Exact rational arithmetic: polynomials, matrices, certified root counting.

Everything here works over Q with `fractions.Fraction` (always in lowest
terms, positive denominator) and never touches floating point.  The
charpoly is _fieldlinalg's integer Berkowitz kernel on cleared numerators.
The root counting routines decide unit-circle and unit-disk membership
exactly:

* real roots in an interval      -> Sturm sequences
* roots of modulus exactly one   -> the Cayley map z = (1 + it)/(1 - it)
  and inside the unit disk          turns p on the circle into A(t) + i B(t)
                                    of degree deg p; one signed remainder
                                    chain of A and B ends in gcd(A, B),
                                    whose real roots are the circle roots
                                    other than -1, and its leading signs
                                    give the Cauchy index that counts the
                                    roots inside by the argument principle
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Iterable, Sequence

from . import _fieldlinalg as fl
from .errors import (
    EndpointIsRoot,
    NonSquare,
    OddWindingIndex,
    RootOnCircle,
    SquarefreeBudgetExceeded,
    ZeroPolynomial,
)

Rational = Fraction


def rat(x) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def binary_power(x, e: int, one):
    """x^e for e >= 0: square-and-multiply from one, lowest bit first."""
    r, b = one, x
    while e:
        if e & 1:
            r = r * b
        b = b * b
        e >>= 1
    return r


def rat_to_str(x: Fraction) -> str:
    """Serialize as 'p/q', or 'p' when the denominator is one."""
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# trial divisors of one squarefree_part_of_rational, enough for r < 10^18
SQUAREFREE_DIVISOR_BUDGET = 10 ** 6


def squarefree_part_of_rational(x) -> int:
    """The unique squarefree integer s with x / s a nonzero rational square
    (sign preserved).  Trial division of r = |numerator * denominator|
    stops once d^3 > r: with every prime below d divided out, r has at
    most two prime factors and is squarefree unless it is a square.
    SquarefreeBudgetExceeded past SQUAREFREE_DIVISOR_BUDGET divisors."""
    x = rat(x)
    if x == 0:
        raise ValueError("zero has no squarefree part")
    r, s, d = abs(x.numerator * x.denominator), 1, 2
    while d * d * d <= r:
        if d > SQUAREFREE_DIVISOR_BUDGET:
            raise SquarefreeBudgetExceeded(
                f"trial division past the budget of {SQUAREFREE_DIVISOR_BUDGET} divisors")
        e = 0
        while r % d == 0:
            r, e = r // d, e + 1
        s, d = s * d ** (e % 2), d + 1
    s *= 1 if isqrt(r) ** 2 == r else r
    return s if x > 0 else -s


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Univariate polynomial over Q, coefficients stored ascending.

    The zero polynomial has degree -1 and an empty coefficient tuple.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self[0]

    # -- constructors

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    # -- ring operations

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self.coeffs)

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        """The convolution on each factor's cleared numerators, divided once
        by the product of the two denominators (the common-denominator
        rule of _fieldlinalg)."""
        if isinstance(other, (int, Fraction)):
            return Polynomial(rat(other) * c for c in self.coeffs)
        other = _as_poly(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero()
        (a,), da = fl.clear_denominators([self.coeffs])
        (b,), db = fl.clear_denominators([other.coeffs])
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        den = da * db
        return Polynomial(Fraction(c, den) for c in out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        return binary_power(self, e, Polynomial.one())

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        den = _as_poly(other)
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(den.coeffs) + 1, 1)
        rem = list(self.coeffs)
        dd, dl = den.degree, den.leading
        while len(rem) - 1 >= dd:
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - 1 - dd
            c = rem[-1] / dl
            q[shift] += c
            for i, dc in enumerate(den.coeffs):
                rem[shift + i] -= c * dc
            rem.pop()
        return Polynomial(q), Polynomial(rem)

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial((other,))
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(rat_to_str(c))
            else:
                mono = "X" if i == 1 else f"X^{i}"
                terms.append(mono if c == 1 else f"{rat_to_str(c)}*{mono}")
        return "Polynomial(" + " + ".join(terms) + ")"

    # -- calculus and evaluation

    def derivative(self) -> "Polynomial":
        return Polynomial(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def eval(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, iv: "Interval") -> "Interval":
        """interval_horner on the cleared coefficients, as an Interval."""
        (nums,), e = fl.clear_denominators([self.coeffs])
        return Interval.from_numerators(*interval_horner(nums, e, iv.numerators()))

    # -- normal forms

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.leading
        return self if lead == 1 else Polynomial(c / lead for c in self.coeffs)

    def reciprocal(self) -> "Polynomial":
        """X^deg * p(1/X): the coefficient list reversed."""
        if self.is_zero:
            raise ZeroPolynomial("reciprocal of the zero polynomial")
        return Polynomial(reversed(self.coeffs))

    def squarefree_part(self) -> "Polynomial":
        if self.degree <= 0:
            return self.monic()
        return (self // poly_gcd(self, self.derivative())).monic()

    @property
    def is_integer(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    raise TypeError(f"cannot coerce {x!r} to Polynomial")


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd over Q, the chain's last term; zero when both vanish."""
    return _remainder_chain(p, q)[-1].monic()


def interval_horner(nums: Sequence[int], e: int,
                    level: tuple[int, int, int]) -> tuple[int, int, int]:
    """(lo, hi, E) with p([a/q, b/q]) inside [lo/E, hi/E], for p = sum_i
    nums[i] X^i / e (e > 0) and level = (a, b, q), q > 0, by interval
    Horner: acc <- acc * [a, b] + c, the endpoints of each product the min
    and max of the four endpoint products.  Runs on integer numerators over
    one positive common denominator (e * q^k after k steps), which orders
    them as the rationals they stand for, so the endpoints are exact."""
    a, b, q = level
    if not nums:
        return 0, 0, 1
    lo = hi = nums[-1]
    scale = 1
    for c in nums[-2::-1]:
        scale *= q
        prods = (lo * a, lo * b, hi * a, hi * b)
        shift = c * scale
        lo, hi = min(prods) + shift, max(prods) + shift
    return lo, hi, e * scale


# ---------------------------------------------------------------------------
# intervals with rational endpoints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", rat(self.lo))
        object.__setattr__(self, "hi", rat(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "Interval":
        x = rat(x)
        return Interval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @staticmethod
    def from_numerators(a: int, b: int, q: int) -> "Interval":
        """[a/q, b/q] for q > 0."""
        return Interval(Fraction(a, q), Fraction(b, q))

    def numerators(self) -> tuple[int, int, int]:
        """(a, b, q): [a/q, b/q] over the least common denominator q."""
        lo, hi = self.lo, self.hi
        q = lcm(lo.denominator, hi.denominator)
        return lo.numerator * (q // lo.denominator), hi.numerator * (q // hi.denominator), q

    def contains(self, x) -> bool:
        return self.lo <= rat(x) <= self.hi

    def disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def add(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def neg(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        prods = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(prods), max(prods))


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------


class RationalMatrix:
    """Dense matrix over Q.  Immutable; rows of equal length; keeps its
    charpoly once computed."""

    __slots__ = ("entries", "_charpoly")

    def __init__(self, rows: Iterable[Iterable]):
        ent = tuple(tuple(rat(x) for x in row) for row in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise ValueError("ragged rows")
        object.__setattr__(self, "entries", ent)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.entries[ij[0]][ij[1]]

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix([[Fraction(i == j) for j in range(n)] for i in range(n)])

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch in matrix sum")
        return RationalMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "RationalMatrix") -> "RationalMatrix":
        return self + -other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return RationalMatrix([[c * x for x in row] for row in self.entries])
        if isinstance(other, RationalMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch in matrix product")
            return RationalMatrix(fl.mat_mul(self.entries, other.entries))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __neg__(self) -> "RationalMatrix":
        return self * Fraction(-1)

    def __pow__(self, e: int) -> "RationalMatrix":
        if not self.is_square:
            raise NonSquare("matrix power needs a square matrix")
        if e < 0:
            return self.inverse() ** (-e)
        return binary_power(self, e, RationalMatrix.identity(self.rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(rat_to_str(x) for x in row) for row in self.entries)
        return f"RationalMatrix[{body}]"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.entries)) if self.entries else [])

    def trace(self) -> Fraction:
        if not self.is_square:
            raise NonSquare("trace needs a square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def det(self) -> Fraction:
        if not self.is_square:
            raise NonSquare("determinant needs a square matrix")
        return fl.det(self.entries)

    def inverse(self) -> "RationalMatrix":
        if not self.is_square:
            raise NonSquare("inverse needs a square matrix")
        n = self.rows
        unit_cols = [[Fraction(i == j) for i in range(n)] for j in range(n)]
        return RationalMatrix(fl.solve(self.entries, unit_cols))

    def rref(self) -> tuple["RationalMatrix", list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        m, pivots = fl.rref(self.entries)
        return RationalMatrix(m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def charpoly(self) -> Polynomial:
        if not hasattr(self, "_charpoly"):
            object.__setattr__(self, "_charpoly", charpoly(self))
        return self._charpoly

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "RationalMatrix":
        return RationalMatrix([[self.entries[i][j] for j in col_idx] for i in row_idx])


# ---------------------------------------------------------------------------
# characteristic polynomial via the integer Berkowitz kernel
# ---------------------------------------------------------------------------


def charpoly(m: RationalMatrix) -> Polynomial:
    """det(X*I - m), monic: with m = M / D over the common denominator D,
    coefficient k is c_k / D^(n-k), c_k that of the integer kernel on M."""
    if not m.is_square:
        raise NonSquare(f"charpoly of a {m.rows}x{m.cols} matrix")
    rows, d = fl.clear_denominators(m.entries)
    n = m.rows
    return Polynomial(Fraction(c, d ** (n - k)) for k, c in enumerate(fl.int_charpoly(rows)))


def nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the right kernel over Q of rational rows.

    Basis vectors come from the reduced row echelon form of the row space:
    one vector per free column, with entry 1 at the free column.  Comparing
    kernels is therefore a bit-exact comparison of these lists.
    """
    r, pivots = fl.rref(rows)
    ncols = len(rows[0]) if rows else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            if r[i][f]:
                v[p] = -r[i][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# certified root counting
# ---------------------------------------------------------------------------


def _remainder_chain(a: Polynomial, b: Polynomial) -> list[Polynomial]:
    """The signed remainder sequence a, b, -(a mod b), ... up to its last
    nonzero term: the Sturm chain when b = a'."""
    chain = [a, b]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_changes(vals: Iterable[Fraction]) -> int:
    signs = [v > 0 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(p: Polynomial, interval: tuple) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    p should be squarefree (divide by gcd(p, p') first); with repeated
    factors the count is still of distinct roots.  Raises EndpointIsRoot
    when p vanishes at an endpoint.
    """
    a, b = rat(interval[0]), rat(interval[1])
    if a > b:
        raise ValueError("empty interval")
    if p.is_zero:
        raise ZeroPolynomial("sturm_count of the zero polynomial")
    if p.eval(a) == 0 or p.eval(b) == 0:
        raise EndpointIsRoot(f"polynomial vanishes at an endpoint of ({a}, {b})")
    chain = _remainder_chain(p, p.derivative())
    va = _sign_changes(q.eval(a) for q in chain)
    vb = _sign_changes(q.eval(b) for q in chain)
    return va - vb


def _chain_index(chain: list[Polynomial]) -> int:
    """The Cauchy index of chain[1]/chain[0] over the whole real line, read
    off the leading signs of their signed remainder chain: jumps from -inf
    to +inf count +1."""
    at_pos = _sign_changes(q.leading for q in chain if not q.is_zero)
    at_neg = _sign_changes(
        q.leading * (-1) ** q.degree for q in chain if not q.is_zero
    )
    return at_neg - at_pos


def _boundary_chain(p: Polynomial) -> list[Polynomial]:
    """The remainder chain of p restricted to the unit circle.

    The Cayley map z = (1 + it)/(1 - it) takes the real line onto the
    circle without -1, and (1 - it)^n p(z) = A(t) + i B(t) with real A, B
    of degree at most n = deg p.  Writing F(t) = (1 - t)^n p((1 + t)/(1 - t))
    (a homogeneous Horner loop), A + iB = F(it): A holds the even and B
    the odd powers of t.  The chain starts with the part whose degree is n
    when p(-1) != 0, A for even n and B for odd n; its last term is
    gcd(A, B).
    """
    f = [p.leading]
    w = [1]
    for a in reversed(p.coeffs[:-1]):
        w = [x - y for x, y in zip(w + [0], [0] + w)]
        f = [x + y + a * z for x, y, z in zip(f + [0], [0] + f, w)]
    sign = (1, 1, -1, -1)
    re = Polynomial(sign[j % 4] * c if j % 2 == 0 else 0 for j, c in enumerate(f))
    im = Polynomial(sign[j % 4] * c if j % 2 else 0 for j, c in enumerate(f))
    return _remainder_chain(re, im) if p.degree % 2 == 0 else _remainder_chain(im, re)


def _inside_count(n: int, chain: list[Polynomial]) -> int:
    """Roots inside the unit disk, with multiplicity, of a degree-n
    polynomial without roots on the circle, from its boundary chain.

    The argument principle: the winding number of p along the circle is
    n/2 + (change of arg(A + iB))/(2 pi), and that change is -pi times the
    Cauchy index of B/A for even n, and pi times that of A/B for odd n.
    """
    index = _chain_index(chain)
    twice = n - index if n % 2 == 0 else n + index
    if twice % 2:
        raise OddWindingIndex("odd winding index over a closed curve")
    return twice // 2


def _circle_split(p: Polynomial) -> tuple[int, int | None]:
    """(distinct roots on the unit circle, roots inside the unit disk with
    multiplicity), the second None when the first is not zero.

    The roots on the circle are z = -1 when p(-1) = 0 and the images of
    the real roots of gcd(A, B); both counts come from one boundary chain.
    """
    chain = _boundary_chain(p)
    on = int(p.eval(-1) == 0)
    if chain[-1].degree > 0:
        on += count_real_roots(chain[-1])
    if on:
        return on, None
    return 0, _inside_count(p.degree, chain)


def count_roots_on_unit_circle(p: Polynomial) -> int:
    """Distinct complex roots of p with modulus exactly 1."""
    if p.is_zero:
        raise ZeroPolynomial("count_roots_on_unit_circle of the zero polynomial")
    return _circle_split(p)[0]


def count_roots_inside_unit_disk(p: Polynomial) -> int:
    """Complex roots with modulus < 1, counted with multiplicity.

    Requires that no root lies on the unit circle (checked; RootOnCircle
    otherwise).
    """
    if p.is_zero:
        raise ZeroPolynomial("count_roots_inside_unit_disk of the zero polynomial")
    _, inside = _circle_split(p)
    if inside is None:
        raise RootOnCircle("polynomial has a root of modulus one")
    return inside


def count_real_roots(p: Polynomial) -> int:
    """Distinct real roots of p over the real line, the Cauchy index of
    p'/p for any multiplicities (Basu, Pollack, Roy, Thm 2.50)."""
    if p.is_zero:
        raise ZeroPolynomial("count_real_roots of the zero polynomial")
    return _chain_index(_remainder_chain(p, p.derivative()))
