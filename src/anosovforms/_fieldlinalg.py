"""The exact linear-algebra kernel, over Q or a number field.

Matrices are plain nested lists (or tuples) whose entries support +, -, *,
/ and are false exactly when zero; Fraction and FieldElement both qualify.
rref is the one Gauss-Jordan loop and det the one forward-elimination
loop; solve, rank, span bases and RationalMatrix's det, inverse, rref and
product all go through them.  Exact arithmetic needs no pivoting
heuristic: the first nonzero entry of a column is the pivot.

The zero rule: a term with an exact zero factor is never formed, and an
entry the pivot row would change by zero times a factor is left as it
is.  Over an exact field x * 0 = 0 and x + 0 = x, so no value changes;
and since the entries of one matrix (or vector) share one type, every
term of a sum has the same type, so neither does any result's type.  A
sum with no term left is v[0] * row[0], a zero of that type.  Dense
inputs run the same loops; sparse ones, such as the monomial images of
a Galois representation, skip most of the work.
"""

from __future__ import annotations

from fractions import Fraction

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
    cols = list(zip(*b))
    return [mat_vec(cols, row) for row in a]


def rref(rows):
    """Reduced row echelon form of a copy; returns (rows, pivot_cols)."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _inv(m[r][c])
        m[r] = [x * inv if x else x for x in m[r]]
        nz = [(k, y) for k, y in enumerate(m[r]) if y]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                row = m[i]
                for k, y in nz:
                    row[k] = row[k] - f * y
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def _inv(x):
    if isinstance(x, Fraction):
        return 1 / x
    return x.inverse()


def rank(rows) -> int:
    return len(rref(rows)[1])


def det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return Fraction(1)
    d = None
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            zero = m[0][0] - m[0][0]
            return zero
        if piv != c:
            # swap then negate one row: determinant unchanged
            m[c], m[piv] = m[piv], m[c]
            m[c] = [-x for x in m[c]]
        d = m[c][c] if d is None else d * m[c][c]
        inv = _inv(m[c][c])
        nz = [(k, m[c][k]) for k in range(c, n) if m[c][k]]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] * inv
                row = m[r]
                for k, y in nz:
                    row[k] = row[k] - f * y
    return d


def solve(a, rhs_cols):
    """Solve a * X = B for X, where a is square and B is given as a list of
    columns, by reducing [a | B].  Raises ZeroDivisionError('singular
    matrix') unless the pivots are exactly the columns of a."""
    n = len(a)
    m, pivots = rref([list(a[i]) + [col[i] for col in rhs_cols] for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in m]


def span_rref(vectors):
    """Canonical (RREF) basis of the span of the given row vectors."""
    m, pivots = rref(vectors)
    return [tuple(m[i]) for i in range(len(pivots))]
