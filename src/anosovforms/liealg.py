"""Finite-dimensional Lie algebras over Q, presented by sparse structure
constants.

Brackets are stored for i < j only; antisymmetry is implicit.  Subspaces
(lower central series terms, spans) are always kept as canonical reduced
echelon bases so equality of subspaces is bit-exact list comparison.
bracket also takes vectors over a number field, but the brackets of a
rational form's vectors run on ints (galoisform.restricted_bracket_map).

The kernels follow _fieldlinalg's common-denominator rule: an algebra
keeps one bracket map, its structure constants as ints scaled by their
lcm C (integer_bracket_map).  check_jacobi, preserves_brackets and
lower_central_series run the one bracket kernel on it, where every
identity they test scales by a nonzero constant on both sides; bracket
divides C [x, y] by C.  preserves_brackets forms each column's ad-images
once and combines them by bilinearity; the series reads gamma_2 off the
bracket map's rows and brackets span_rref's integer rows, each a basis
row over its pivot.  An algebra keeps its series and its Jacobi verdict
(require_jacobi).
is_automorphism reads invertibility off a matrix's kept charpoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import _fieldlinalg as fl
from .errors import JacobiViolation, NotNilpotent
from .exactmath import RationalMatrix, rat


@dataclass(frozen=True)
class LieAlgebra:
    """Structure-constant presentation: brackets is a tuple of entries
    (i, j, k, c) with i < j meaning [b_i, b_j] contains c * b_k, c
    rational."""

    dim: int
    brackets: tuple[tuple[int, int, int, object], ...]
    basis_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dim}")
        norm: dict[tuple[int, int], dict[int, object]] = {}
        for (i, j, k, c) in self.brackets:
            if not (0 <= i < j < self.dim and 0 <= k < self.dim):
                raise ValueError(f"bad bracket indices ({i},{j},{k})")
            row, c = norm.setdefault((i, j), {}), rat(c)
            row[k] = row[k] + c if k in row else c
        flat = []
        for (i, j) in sorted(norm):
            for k in sorted(norm[(i, j)]):
                c = norm[(i, j)][k]
                if not c == 0:
                    flat.append((i, j, k, c))
        object.__setattr__(self, "brackets", tuple(flat))

    # -- access

    def integer_bracket_map(self) -> tuple[Mapping[tuple[int, int], dict[int, int]], int]:
        """(The bracket map with every constant times C, C), C the lcm of
        the constants' denominators; computed once per algebra."""
        cached = getattr(self, "_ibmap", None)
        if cached is None:
            (ints,), scale = fl.clear_denominators([[c for (_i, _j, _k, c) in self.brackets]])
            imap: dict[tuple[int, int], dict[int, int]] = {}
            for (i, j, k, _c), x in zip(self.brackets, ints):
                imap.setdefault((i, j), {})[k] = x
            cached = (imap, scale)
            object.__setattr__(self, "_ibmap", cached)
        return cached

    def central_series(self) -> tuple[tuple[tuple, ...], tuple[int, ...], int]:
        """lower_central_series(self), computed once per algebra and kept
        as tuples, so no caller can change what the next one reads."""
        cached = getattr(self, "_lcs", None)
        if cached is None:
            series, type_tuple, nclass = lower_central_series(self)
            cached = (tuple(tuple(basis) for basis in series), type_tuple, nclass)
            object.__setattr__(self, "_lcs", cached)
        return cached

    def bracket(self, x: Sequence, y: Sequence) -> list:
        """Bilinear extension of the structure constants to vectors over Q
        or a number field, C [x, y] / C; other slots keep the vectors' zero."""
        bmap, c = self.integer_bracket_map()
        out, scale = _bracket(bmap, _support(x), _support(y)), Fraction(c)
        return [out[k] / scale if k in out else x[k] - x[k] for k in range(self.dim)]


def _support(v: Sequence) -> dict:
    """The nonzero entries of a coordinate vector, as {index: value}."""
    return {i: x for i, x in enumerate(v) if x}


def _bracket(bmap, x: Mapping, y: Mapping, out: dict | None = None) -> dict:
    """The bracket kernel: [x, y] of vectors given by their nonzero entries,
    one structure-constant lookup per pair of entries, added into out."""
    out = {} if out is None else out
    for i, xi in x.items():
        for j, yj in y.items():
            row = bmap.get((i, j) if i < j else (j, i))
            if not row:
                continue
            t = xi * yj if i < j else -(xi * yj)
            for k, c in row.items():
                v = t * c
                out[k] = out[k] + v if k in out else v
    return out


@dataclass(frozen=True)
class Grading:
    """Partition of the basis in order: the first dims[0] vectors span the
    degree-1 piece, the next dims[1] the degree-2 piece, and so on."""

    subspace_dims: tuple[int, ...]

    def degree_of(self, index: int) -> int:
        acc = 0
        for deg, n in enumerate(self.subspace_dims, start=1):
            acc += n
            if index < acc:
                return deg
        raise IndexError(index)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def check_jacobi(a: LieAlgebra) -> bool:
    """Verify sum over cyclic permutations of [[b_i, b_j], b_k] = 0 for all
    i < j < k, exactly."""
    n = a.dim
    # constants times C: each Jacobi sum is C^2 times the rational one
    bmap = a.integer_bracket_map()[0]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total: dict = {}
                for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
                    pq = _bracket(bmap, {p: 1}, {q: 1})
                    _bracket(bmap, pq, {r: 1}, total)
                if any(not v == 0 for v in total.values()):
                    return False
    return True


def require_jacobi(a: LieAlgebra) -> LieAlgebra:
    """a, or JacobiViolation; check_jacobi runs once per algebra."""
    if not hasattr(a, "_jacobi"):
        object.__setattr__(a, "_jacobi", check_jacobi(a))
    if not a._jacobi:
        raise JacobiViolation("structure constants violate the Jacobi identity")
    return a


def lower_central_series(a: LieAlgebra) -> tuple[list[list[tuple]], tuple[int, ...], int]:
    """Canonical bases of gamma_1 > gamma_2 > ..., the type tuple, and the
    nilpotency class.  Raises NotNilpotent when the series stabilizes at a
    nonzero subspace.  Recomputed on every call: library code reads the
    cached LieAlgebra.central_series() instead.  gamma_2 = [g, g] is
    spanned by the [b_i, b_j], i < j: the rows of the integer bracket map."""
    n = a.dim
    series = [[tuple(Fraction(int(j == i)) for j in range(n)) for i in range(n)]]
    # integer constants on primitive integer rows: each generator is a
    # nonzero multiple of the rational one, so every span is the same
    bmap = a.integer_bracket_map()[0]
    gens = [[row.get(k, 0) for k in range(n)] for row in bmap.values()]
    while True:
        nxt = fl.span_rref(gens) if gens else []
        if len(nxt) == len(series[-1]):
            raise NotNilpotent("lower central series stabilizes at a nonzero subspace")
        if not nxt:
            break
        leads = [next(filter(None, v)) for v in nxt]
        series.append([tuple(Fraction(x, p) for x in v) for v, p in zip(nxt, leads)])
        prev = [_support(v) for v in nxt]
        gens = []
        for i in range(n):
            for v in prev:
                out = _bracket(bmap, {i: 1}, v)
                if out:
                    gens.append([out.get(k, 0) for k in range(n)])
    dims = [len(b) for b in series]
    dims.append(0)
    type_tuple = tuple(dims[i] - dims[i + 1] for i in range(len(series)))
    return series, type_tuple, len(series)


def algebra_type(a: LieAlgebra) -> tuple[int, ...]:
    return a.central_series()[1]


def nilpotency_class(a: LieAlgebra) -> int:
    return a.central_series()[2]


def is_automorphism(a: LieAlgebra, m: RationalMatrix) -> bool:
    """m (b_j maps to sum_i m[i, j] b_i) preserves brackets on all basis
    pairs and is invertible.  The bracket check runs first, so a failing
    map costs no elimination; invertibility is read off the constant term
    of the charpoly m keeps, which certify reads next."""
    if m.rows != a.dim or m.cols != a.dim:
        raise ValueError("matrix shape must match the algebra dimension")
    rows, d = fl.clear_denominators(m.entries)
    return preserves_brackets(a, [_support(col) for col in zip(*rows)], d) \
        and m.charpoly().constant != 0


def preserves_brackets(a: LieAlgebra, cols: Sequence[Mapping], d: int) -> bool:
    """f[b_i, b_j] = [f b_i, f b_j] on all basis pairs, for f = F / d given
    by the nonzero entries of F's integer columns; invertibility is not
    checked.  [F b_i, F b_j] and d sum_k C c F b_k, constants times C, are
    both d^2 C times the rational sides.

    The pairs run column by column: by bilinearity [F b_i, F b_j] =
    sum_p F_pi a_p with a_p = [b_p, F b_j], and each a_p is formed once
    per column j, when some F b_i with i < j first needs it.  On dense
    columns that is O(n^4) work, not the O(n^5) of one bracket per pair."""
    bmap = a.integer_bracket_map()[0]
    image = {key: {k: d * c for k, c in row.items()} for key, row in bmap.items()}
    for j in range(1, a.dim):
        ad: dict[int, dict] = {}
        for i in range(j):
            diff: dict = {}
            for p, x in cols[i].items():
                if p not in ad:
                    ad[p] = _bracket(bmap, {p: 1}, cols[j])
                for m, y in ad[p].items():
                    v = x * y
                    diff[m] = diff[m] + v if m in diff else v
            for k, c in image.get((i, j), {}).items():
                for m, x in cols[k].items():
                    v = c * x
                    diff[m] = diff[m] - v if m in diff else -v
            if any(not v == 0 for v in diff.values()):
                return False
    return True


def direct_sum(algebras: Sequence[LieAlgebra]) -> LieAlgebra:
    if not algebras:
        raise ValueError("empty direct sum")
    brackets = []
    offset = 0
    for alg in algebras:
        for (i, j, k, c) in alg.brackets:
            brackets.append((i + offset, j + offset, k + offset, c))
        offset += alg.dim
    return LieAlgebra(offset, tuple(brackets))


def check_grading(a: LieAlgebra, g: Grading) -> bool:
    """[n_i, n_j] inside n_{i+j}; pieces beyond the last are zero."""
    if sum(g.subspace_dims) != a.dim:
        raise ValueError("grading dimensions must sum to the algebra dimension")
    ncomponents = len(g.subspace_dims)
    for (i, j, k, c) in a.brackets:
        di, dj, dk = g.degree_of(i), g.degree_of(j), g.degree_of(k)
        if di + dj > ncomponents or dk != di + dj:
            return False
    return True


def heisenberg() -> LieAlgebra:
    """The 3-dimensional Heisenberg algebra [b1, b2] = b3 over Q."""
    return LieAlgebra(3, ((0, 1, 2, Fraction(1)),))


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, ())
