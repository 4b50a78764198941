"""The exact linear-algebra kernel over Q.

Matrices are plain nested lists (or tuples) of int or Fraction entries.
Elimination (rref, det, solve, span_rref) takes rational rows only,
and every solve and product of the Galois descent runs on the cleared
power-basis coordinates of its vectors.  mat_vec still takes vectors over
a number field (entries with +, - and *, false exactly when zero) for one
caller, the test oracle _satisfies_defining_relation, which applies rho
to field vectors.  Exact arithmetic needs no pivoting heuristic: the
first nonzero entry of a column is the pivot.

The zero rule: a term with an exact zero factor is never formed, and an
entry the pivot row would change by zero times a factor is left as it
is.  Over an exact field x * 0 = 0 and x + 0 = x, so no value changes;
and since the entries of one matrix (or vector) share one type, every
term of a sum has the same type, so neither does any result's type.  A
sum with no term left is v[0] * row[0], a zero of that type.  Dense
inputs run the same loops; sparse ones skip most of the work.  The
images of a Galois representation never come here: galoisform
multiplies them as sparse integer columns.

The common-denominator rule: a kernel may clear denominators once
(clear_denominators: rational rows in, integer rows and their lcm D out)
and run on Python ints, so no product pays for a Fraction's gcd.  It
does so only where the scale provably cancels: a zero test, a span, or
an identity whose two sides scale alike.  rref, the one Gauss-Jordan
loop, works this way: fraction-free on primitive integer rows, which it
returns, each reduced row cleared (the reduced form is unique); primitive
clears an input row only when it holds a Fraction, which math.gcd
refuses, so integer rows pay no clear; a rank is len(rref(rows)[1]).
solve, span_rref and exactmath's nullspace read them and build no
Fraction, solve and nullspace returning integer rows over the lcm of
their pivots, their least common denominator.  det works this way too:
it clears denominators once (D) and runs int_det, Bareiss's fraction-free
elimination on the integer rows (dense, since an int product costs
little), each division by the previous pivot exact, so det = det(integer
rows) / D^n, always a Fraction.  int_charpoly, the one characteristic
polynomial, runs on cleared integer rows (M, D): its c_k is D^(n-k)
times the rational coefficient.  A caller whose data are integer
numerators over one denominator calls the integer kernels directly and
clears nothing: a field element is its pair (X, D) and keeps (M, D), a
polynomial and a RationalMatrix are their numerators over one
denominator, each in the canonical form `reduced` returns, and a Lie
algebra is its integer bracket map over C.  A reader of exact text
(serialize) parses each number into a pair (p, q) and clear_ratios
clears the pairs as clear_denominators clears Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch


def mat_vec(a, v):
    """a * v, each term formed as v_k * a_ik, so v may hold elements of an
    extension of a's field; zero terms are skipped (see the zero rule)."""
    nz = [(k, x) for k, x in enumerate(v) if x]
    out = []
    for row in a:
        if len(row) != len(v):
            raise DimensionMismatch("matrix row length must equal the vector length")
        acc = None
        for k, x in nz:
            y = row[k]
            if y:
                acc = x * y if acc is None else acc + x * y
        out.append(v[0] * row[0] if acc is None else acc)
    return out


def mat_mul(a, b):
    """a * b: every row of a times the transposed columns of b."""
    if any(len(r) != len(b) for r in a):
        raise DimensionMismatch("matrix product needs cols(a) == rows(b)")
    if any(len(r) != len(b[0]) for r in b):
        raise DimensionMismatch("matrix rows must have equal length")
    cols = list(zip(*b))
    return [mat_vec(cols, row) for row in a]


def rref(rows):
    """Reduced row echelon form of rational rows of equal length (else
    DimensionMismatch), on integers: (R, pivot_cols), R the nonzero rows,
    each its reduced row times that row's least common denominator, so
    primitive and positive at the pivot: the reduced row is row / row[pivot]."""
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise DimensionMismatch("matrix rows must have equal length")
    m = [r for r in map(primitive, rows) if any(r)]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        nz = [(k, y) for k, y in enumerate(m[r]) if y]
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                g = gcd(p, f)
                s, f = p // g, f // g
                if s != 1:
                    row = [s * x for x in row]
                for k, y in nz:
                    row[k] -= f * y
                m[i] = content_free(row)
        pivots.append(c)
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(m, pivots)], pivots


def det(rows):
    """Determinant of rational rows, a Fraction: the Bareiss path on the
    rows over their common denominator."""
    ints, d = clear_denominators(rows)
    return Fraction(int_det(ints), d ** len(rows))


def int_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    on a copy: after step c every entry below row c is a (c+1)-minor of
    the input, so each division by the previous pivot is exact (Bareiss
    1968)."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for c in range(n - 1):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        top, p = m[c], m[c][c]
        for row in m[c + 1:]:
            f = row[c]
            row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], top[c + 1:])]
        prev = p
    return sign * m[n - 1][n - 1]


def int_charpoly(m):
    """det(X I - m) of a square integer matrix, lowest coefficient first:
    Berkowitz's division-free recurrence (IPL 18, 1984), O(n^4).  With the
    trailing block from row r split as [[a, R], [C, A]], its charpoly
    (highest first) is A's times the Toeplitz matrix of 1, -a, -R C,
    -R A C, ..., -R A^(n-r-2) C, i.e. the product of the two coefficient
    lists cut to n - r + 1 terms; A^k C is formed under the zero rule."""
    n = len(m)
    v = [1]
    for r in range(n - 1, -1, -1):
        rest = m[r + 1:]
        cols = [[(i, row[j]) for i, row in enumerate(rest) if row[j]] for j in range(r + 1, n)]
        top = [(j, x) for j, x in enumerate(m[r][r + 1:]) if x]
        w = [row[r] for row in rest]
        t = [1, -m[r][r]]
        for k in range(n - r - 1):
            if k:
                nw = [0] * len(w)
                for j, y in enumerate(w):
                    if y:
                        for i, x in cols[j]:
                            nw[i] += x * y
                w = nw
            t.append(-sum(x * w[j] for j, x in top))
        out = [0] * len(t)
        for j, y in enumerate(v):
            if y:
                for i, x in enumerate(t[:len(t) - j]):
                    if x:
                        out[i + j] += x * y
        v = out
    return v[::-1]


class Inconsistent(ArithmeticError):
    """A solve whose right-hand side column `column` lies outside the
    column span of the matrix."""

    def __init__(self, column: int):
        super().__init__(f"right-hand side column {column} is inconsistent")
        self.column = column


def solve(a, rhs_cols):
    """Solve a * X = B for X, where a is square or tall with n columns and
    B is given as a list of columns, by reducing [a | B], as X / e: X
    integer rows over e, the lcm of the first n pivots.  Raises
    ZeroDivisionError('singular matrix') unless the first n pivots are
    exactly the columns of a, and else Inconsistent on the first column of
    B outside a's column span: that column holds the first pivot past a,
    since every earlier column of B lies in a's span and adds none."""
    n = len(a[0]) if a else 0
    m, pivots = rref([list(row) + [col[i] for col in rhs_cols] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    if len(pivots) > n:
        raise Inconsistent(pivots[n] - n)
    e = lcm(*(row[i] for i, row in enumerate(m)))
    return [[x * (e // row[i]) for x in row[n:]] for i, row in enumerate(m)], e


def clear_denominators(rows):
    """Rational rows (int or Fraction entries) over one common denominator:
    returns (integer rows, D), D the lcm of the entries' denominators, so
    that rows[i][j] == integer_rows[i][j] / D."""
    d = 1
    for row in rows:
        for x in row:
            if x.denominator != 1:
                d = lcm(d, x.denominator)
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def clear_ratios(rows):
    """clear_denominators for rows of pairs (p, q), each the rational
    p / q with q > 0: (integer rows, D), D the lcm of the q."""
    d = lcm(1, *(q for row in rows for _p, q in row))
    return [[p * (d // q) for p, q in row] for row in rows], d


def primitive(row):
    """The integer row spanning the same line as a rational row, a new list
    with the gcd of its entries divided out.  math.gcd takes only ints, so
    only a row holding a Fraction has its denominators cleared."""
    try:
        return content_free(list(row))
    except TypeError:
        return content_free(clear_denominators([row])[0][0])


def reduced(nums, den: int) -> tuple[tuple[int, ...], int]:
    """The canonical form of nums / den (den != 0): nums and den divided by
    g = gcd(den, *nums), signed so that the denominator is positive, which
    is what clear_denominators returns on the reduced quotients."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return tuple(u // g for u in nums), den // g


def content_free(ints):
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def span_rref(vectors):
    """Canonical basis of the span of the given rational row vectors:
    rref's rows, as integer tuples."""
    return [tuple(row) for row in rref(vectors)[0]]
