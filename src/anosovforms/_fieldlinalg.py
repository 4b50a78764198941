"""The exact linear-algebra kernel, over Q or a number field.

Matrices are plain nested lists (or tuples) whose entries support +, -, *,
/ and compare equal to 0; Fraction and FieldElement both qualify.  rref is
the one Gauss-Jordan loop and det the one forward-elimination loop; solve,
rank, span bases and RationalMatrix's det, inverse, rref and product all go
through them.  Exact arithmetic needs no pivoting heuristic: the first
nonzero entry of a column is the pivot.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch


def mat_vec(a, v):
    """a * v, each term formed as v_k * a_ik, so v may hold elements of an
    extension of a's field."""
    out = []
    for row in a:
        acc = None
        for x, y in zip(v, row):
            t = x * y
            acc = t if acc is None else acc + t
        out.append(acc)
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
        piv = next((i for i in range(r, nrows) if not m[i][c] == 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = _inv(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c] == 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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
        piv = next((r for r in range(c, n) if not m[r][c] == 0), None)
        if piv is None:
            zero = m[0][0] - m[0][0]
            return zero
        if piv != c:
            # swap then negate one row: determinant unchanged
            m[c], m[piv] = m[piv], m[c]
            m[c] = [-x for x in m[c]]
        d = m[c][c] if d is None else d * m[c][c]
        inv = _inv(m[c][c])
        for r in range(c + 1, n):
            if not m[r][c] == 0:
                f = m[r][c] * inv
                for k in range(c, n):
                    m[r][k] = m[r][k] - f * m[c][k]
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


def in_span(basis_rref, vector):
    """Membership test against an RREF basis (list of rows with unit pivots)."""
    v = list(vector)
    for row in basis_rref:
        piv = next((i for i, x in enumerate(row) if not x == 0), None)
        if piv is None:
            continue
        if not v[piv] == 0:
            f = v[piv]
            v = [x - f * y for x, y in zip(v, row)]
    return all(x == 0 for x in v)
