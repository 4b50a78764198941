"""Exact rational arithmetic: polynomials, matrices, certified root counting.

Nothing here touches floating point.  A Polynomial is kept as integer
numerators over one positive denominator, the form of a FieldElement and
a RationalFormBasis, and its products, its one division loop (integer
pseudo-division) and its remainder chain run on those ints; its Fraction
coefficients are a view.  Matrix entries are `fractions.Fraction` (lowest
terms, positive denominator).  The charpoly is _fieldlinalg's integer
Berkowitz kernel on cleared numerators.  The root counting routines decide
unit-circle and unit-disk membership exactly:

* real roots in an interval      -> Sturm sequences
* roots of modulus exactly one   -> the Cayley map z = (1 + it)/(1 - it)
  and inside the unit disk          turns p on the circle into A(t) + i B(t)
                                    of degree deg p; one primitive signed
                                    remainder chain of A and B on ints ends
                                    in gcd(A, B), whose real roots are the
                                    circle roots other than -1, and its
                                    leading signs give the Cauchy index
                                    that counts the roots inside by the
                                    argument principle
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
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
    if isinstance(x, (int, str)):
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
    """Univariate polynomial over Q, kept as integer numerators over one
    denominator: p = sum_i nums[i] X^i / den, den > 0, nums ascending with
    no trailing zero and gcd(den, *nums) = 1.  That is what
    fl.clear_denominators returns on the reduced coefficients, so the form
    is canonical; every operation runs on it.  coeffs, the ascending
    Fraction coefficients, is the view built on first read and kept.

    The zero polynomial has degree -1 and nums = ().  Instances are
    immutable and hashable.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = _trimmed(rat(c) for c in coeffs)
        (nums,), den = fl.clear_denominators([cs])
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_coeffs", tuple(cs))

    @staticmethod
    def from_numerators(nums: Iterable[int], den: int = 1) -> "Polynomial":
        """sum_i nums[i] X^i / den for integers nums and den != 0."""
        p = object.__new__(Polynomial)
        nums, den = fl.reduced(_trimmed(nums), den)
        object.__setattr__(p, "nums", nums)
        object.__setattr__(p, "den", den)
        return p

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # __getitem__ answers 0 past the degree, so iterating would never stop
    __iter__ = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = getattr(self, "_coeffs", None)
        if cs is None:
            cs = tuple(Fraction(u, self.den) for u in self.nums)
            object.__setattr__(self, "_coeffs", cs)
        return cs

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self[self.degree]

    @property
    def constant(self) -> Fraction:
        return self[0]

    # -- constructors

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial.from_numerators(())

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial.from_numerators((1,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial.from_numerators((0, 1))

    # -- ring operations, on the numerators

    def __add__(self, other) -> "Polynomial":
        other = _as_poly(other)
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return Polynomial.from_numerators(
            (a * x + b * y for x, y in zip_longest(self.nums, other.nums, fillvalue=0)), den)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_numerators((-c for c in self.nums), self.den)

    def __sub__(self, other) -> "Polynomial":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Polynomial":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Polynomial":
        """The convolution of the numerators over the product of the
        denominators."""
        other = _as_poly(other)
        a, b = self.nums, other.nums
        out = [0] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial.from_numerators(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Polynomial":
        if e < 0:
            raise ValueError("negative polynomial power")
        return binary_power(self, e, Polynomial.one())

    def __divmod__(self, other) -> tuple["Polynomial", "Polynomial"]:
        """Quotient and remainder over Q from the pseudo-division s A = q B
        + r of the numerators of self = A / a and other = B / b: self = (q
        b / (s a)) other + r / (s a)."""
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pseudo_divmod(self.nums, other.nums)
        den = s * self.den
        return (Polynomial.from_numerators((other.den * c for c in q), den),
                Polynomial.from_numerators(r, den))

    def __mod__(self, other) -> "Polynomial":
        return divmod(self, other)[1]

    def __floordiv__(self, other) -> "Polynomial":
        return divmod(self, other)[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = _as_poly(other)
        return isinstance(other, Polynomial) and self.nums == other.nums and self.den == other.den

    def __hash__(self):
        # a polynomial of degree <= 0 equals its value, so hashes like it
        return hash(self.constant) if self.degree <= 0 else hash((self.nums, self.den))

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
        return Polynomial.from_numerators([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def eval(self, x) -> Fraction:
        """p(a / q) = horner(nums, a, q) / (den q^deg p)."""
        x = rat(x)
        if self.is_zero:
            return Fraction(0)
        q = x.denominator
        return Fraction(horner(self.nums, x.numerator, q), self.den * q ** self.degree)

    def eval_interval(self, iv: "Interval") -> "Interval":
        """interval_horner on the numerators, as an Interval."""
        return Interval.from_numerators(*interval_horner(self.nums, self.den, iv.numerators()))

    # -- normal forms

    def monic(self) -> "Polynomial":
        return Polynomial.from_numerators(self.nums, self.nums[-1]) if self.nums else self

    def reciprocal(self) -> "Polynomial":
        """X^deg * p(1/X): the coefficient list reversed."""
        if self.is_zero:
            raise ZeroPolynomial("reciprocal of the zero polynomial")
        return Polynomial.from_numerators(self.nums[::-1], self.den)

    def squarefree_part(self) -> "Polynomial":
        """p / gcd(p, p'), monic: the numerators divided by the last term of
        their remainder chain with p'."""
        if self.degree <= 0:
            return self.monic()
        g = _remainder_chain(self.nums, self.derivative().nums)[-1]
        q = _pseudo_divmod(self.nums, g)[0]
        return Polynomial.from_numerators(q, q[-1])

    @property
    def is_integer(self) -> bool:
        return self.den == 1


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial((x,))
    raise TypeError(f"cannot coerce {x!r} to Polynomial")


def _trimmed(nums: Iterable) -> list:
    """The coefficient list without its trailing zeros."""
    nums = list(nums)
    while nums and not nums[-1]:
        nums.pop()
    return nums


def horner(nums: Sequence[int], a: int, q: int = 1) -> int:
    """q^n p(a / q) for p = sum_i nums[i] X^i of degree n and q > 0: the
    integer sum sum_i nums[i] a^i q^(n-i) by Horner, whose sign is p(a/q)'s."""
    acc, scale = 0, 1
    for c in reversed(nums):
        acc = acc * a + c * scale
        scale *= q
    return acc


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s a = q b + r, deg r < deg b and s > 0 a power of
    |lc(b)|, for integer lists a and b (b nonzero, trimmed): the one
    polynomial division.  A nonzero top coefficient c of r scales q and r
    by |lc(b)| and is cancelled by sign(lc(b)) c X^k b."""
    n, lead = len(b) - 1, b[-1]
    sb, sign = abs(lead), (1 if lead > 0 else -1)
    r, q, s = list(a), [0] * max(len(a) - n, 0), 1
    for k in range(len(a) - 1 - n, -1, -1):
        c = r.pop() * sign
        if c:
            if sb != 1:
                r, q, s = [sb * x for x in r], [sb * x for x in q], s * sb
            q[k] = c
            for i, y in enumerate(b[:-1]):
                r[k + i] -= c * y
    return q, _trimmed(r), s


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic gcd over Q, the chain's last term; zero when both vanish."""
    return Polynomial.from_numerators(_remainder_chain(p.nums, q.nums)[-1]).monic()


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
        x, e = fl.solve(self.entries, RationalMatrix.identity(self.rows).entries)
        return RationalMatrix([[Fraction(v, e) for v in row] for row in x])

    def rref(self) -> tuple["RationalMatrix", list[int]]:
        """Reduced row echelon form (zero rows last) and the pivot columns."""
        m, pivots = fl.rref(self.entries)
        return RationalMatrix([[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
                              + [[0] * self.cols] * (self.rows - len(m))), pivots

    def rank(self) -> int:
        return fl.rank(self.entries)

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
    """det(X*I - m), monic: scaled_charpoly of m = M / D over the common
    denominator D."""
    if not m.is_square:
        raise NonSquare(f"charpoly of a {m.rows}x{m.cols} matrix")
    return scaled_charpoly(*fl.clear_denominators(m.entries))


def scaled_charpoly(rows, d: int) -> Polynomial:
    """det(X*I - M / d) for a square integer matrix M and d > 0: coefficient
    k of fl.int_charpoly(M) is d^(n-k) times the rational one."""
    cs = fl.int_charpoly(rows)
    return Polynomial.from_numerators((c * d ** k for k, c in enumerate(cs)), d ** len(rows))


def nullspace(rows) -> tuple[list[list[int]], int]:
    """Canonical basis of the right kernel over Q of rational rows, from
    the reduced row echelon form of the row space: one vector per free
    column, with entry 1 at the free column.  Returns (V, D), the basis
    as integer vectors V over D, the lcm of the pivots, which is its least
    common denominator; comparing kernels is a bit-exact comparison."""
    r, pivots = fl.rref(rows)
    ncols = len(rows[0]) if rows else 0
    d = lcm(*(row[p] for row, p in zip(r, pivots)))
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        v = [0] * ncols
        v[f] = d
        for row, p in zip(r, pivots):
            if row[f]:
                v[p] = -(d // row[p]) * row[f]
        basis.append(v)
    return basis, d


# ---------------------------------------------------------------------------
# certified root counting
# ---------------------------------------------------------------------------


def _remainder_chain(a: Sequence[int], b: Sequence[int]) -> list[list[int]]:
    """The primitive signed remainder chain of the integer lists a, b up to
    its last nonzero term: each next term is -r / content(r), r the
    pseudo-remainder of the two before it (Collins 1967; Brown and Traub
    1971).  By induction each term is a positive multiple of the signed
    remainder sequence a, b, -(a mod b), ... over Q, so the degrees, the
    signs, the Cauchy index and the gcd up to a scalar are that sequence's;
    the Sturm chain when b = a'."""
    chain = [list(a), list(b)]
    while chain[-1]:
        chain.append(fl.content_free([-x for x in _pseudo_divmod(chain[-2], chain[-1])[1]]))
    chain.pop()
    return chain


def _sign_changes(vals: Iterable) -> int:
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
    chain = _remainder_chain(p.nums, p.derivative().nums)
    va, vb = ([horner(t, x.numerator, x.denominator) for t in chain] for x in (a, b))
    if not (va[0] and vb[0]):
        raise EndpointIsRoot(f"polynomial vanishes at an endpoint of ({a}, {b})")
    return _sign_changes(va) - _sign_changes(vb)


def _chain_index(chain: list[list[int]]) -> int:
    """The Cauchy index of chain[1]/chain[0] over the whole real line, read
    off the leading signs of their remainder chain: jumps from -inf to +inf
    count +1."""
    at_pos = _sign_changes(t[-1] for t in chain if t)
    at_neg = _sign_changes(t[-1] if len(t) % 2 else -t[-1] for t in chain if t)
    return at_neg - at_pos


def _boundary_chain(p: Polynomial) -> list[list[int]]:
    """The remainder chain of p restricted to the unit circle.

    The Cayley map z = (1 + it)/(1 - it) takes the real line onto the
    circle without -1, and (1 - it)^n p(z) = A(t) + i B(t) with real A, B
    of degree at most n = deg p.  Writing F(t) = (1 - t)^n p((1 + t)/(1 - t))
    (a homogeneous Horner loop, here on p's numerators, so F is den F),
    A + iB = F(it): A holds the even and B the odd powers of t.  The chain
    starts with the part whose degree is n when p(-1) != 0, A for even n
    and B for odd n; its last term is gcd(A, B) up to a scalar.
    """
    f = [p.nums[-1]]
    w = [1]
    for a in reversed(p.nums[:-1]):
        w = [x - y for x, y in zip(w + [0], [0] + w)]
        f = [x + y + a * z for x, y, z in zip(f + [0], [0] + f, w)]
    sign = (1, 1, -1, -1)
    re, im = (_trimmed(sign[j % 4] * c if j % 2 == odd else 0 for j, c in enumerate(f))
              for odd in (0, 1))
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
    if p.is_zero:
        raise ZeroPolynomial("root count of the zero polynomial")
    chain = _boundary_chain(p)
    on = int(horner(p.nums, -1) == 0)
    if len(chain[-1]) > 1:
        on += count_real_roots(Polynomial.from_numerators(chain[-1]))
    if on:
        return on, None
    return 0, _inside_count(p.degree, chain)


def count_roots_on_unit_circle(p: Polynomial) -> int:
    """Distinct complex roots of p with modulus exactly 1."""
    return _circle_split(p)[0]


def count_roots_inside_unit_disk(p: Polynomial) -> int:
    """Complex roots with modulus < 1, counted with multiplicity.

    Requires that no root lies on the unit circle (checked; RootOnCircle
    otherwise).
    """
    _, inside = _circle_split(p)
    if inside is None:
        raise RootOnCircle("polynomial has a root of modulus one")
    return inside


def count_real_roots(p: Polynomial) -> int:
    """Distinct real roots of p over the real line, the Cauchy index of
    p'/p for any multiplicities (Basu, Pollack, Roy, Thm 2.50)."""
    if p.is_zero:
        raise ZeroPolynomial("count_real_roots of the zero polynomial")
    return _chain_index(_remainder_chain(p.nums, p.derivative().nums))
