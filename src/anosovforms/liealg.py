"""Finite-dimensional Lie algebras over Q, presented by sparse structure
constants.

Brackets are stored for i < j only; antisymmetry is implicit.  Subspaces
(lower central series terms, spans) are always kept as canonical echelon
bases, span_rref's primitive integer rows, each positive at its pivot, so
equality of subspaces is bit-exact list comparison.
bracket also takes vectors over a number field, but the brackets of a
rational form's vectors run on ints (galoisform.restricted_bracket_map).

The kernels follow _fieldlinalg's common-denominator rule: an algebra
is one bracket map, its structure constants as ints scaled by their lcm
C (integer_bracket_map); its Fraction constants (brackets) are a view.
check_jacobi, preserves_brackets and lower_central_series run the one
bracket kernel on it, where every identity they test scales by a nonzero
constant on both sides; bracket divides C [x, y] by C.  check_jacobi
brackets only the map's nonzero rows.  preserves_brackets forms each
column's ad-images once and combines them by bilinearity; the series
reads gamma_2 off the bracket map's rows, and keeps and brackets
span_rref's integer rows.  An algebra keeps its series and its Jacobi
verdict (require_jacobi).  is_automorphism reads a matrix's
integer pair (M, D), and invertibility off its kept charpoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from . import _fieldlinalg as fl
from .errors import JacobiViolation, NotNilpotent
from .exactmath import RationalMatrix, rat


class LieAlgebra:
    """Structure-constant presentation over Q, kept as its integer bracket
    map: key (i, j), i < j, maps k to C c for each constant c != 0 of b_k
    in [b_i, b_j], keys and k ascending, C > 0 the constants' least common
    denominator, so equal algebras have equal maps.  brackets, the tuple of
    (i, j, k, c) with c a Fraction, is the view built on first read and
    kept.  The constructor clears its constants (int, Fraction, or a
    string Fraction reads) once; those of one (i, j, k) add up, and zeros
    are dropped."""

    __slots__ = ("dim", "basis_labels", "_ibmap", "_brackets", "_lcs", "_jacobi")

    def __new__(cls, dim: int, brackets, basis_labels: tuple[str, ...] | None = None):
        cs = [(i, j, k, c if isinstance(c, (int, Fraction)) else rat(c))
              for (i, j, k, c) in brackets]
        (ints,), scale = fl.clear_denominators([[c for *_, c in cs]])
        return LieAlgebra.from_numerators(
            dim, [(i, j, k, x) for (i, j, k, _c), x in zip(cs, ints)], scale, basis_labels)

    @staticmethod
    def from_numerators(dim: int, entries, den: int = 1,
                        basis_labels: tuple[str, ...] | None = None) -> "LieAlgebra":
        """Constants x / den for entries (i, j, k, x), x an int and den != 0;
        ValueError on a dimension below 1, a zero den or an index out of
        range.  The map and C are fl.reduced's canonical form."""
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        if den == 0:
            raise ValueError("zero denominator")
        norm: dict[tuple[int, int], dict[int, int]] = {}
        for (i, j, k, x) in entries:
            if not (0 <= i < j < dim and 0 <= k < dim):
                raise ValueError(f"bad bracket indices ({i},{j},{k})")
            row = norm.setdefault((i, j), {})
            row[k] = row[k] + x if k in row else x
        rows = [(key, sorted(r.items())) for key, r in sorted(norm.items())]
        xs, c = fl.reduced([x for _key, r in rows for _k, x in r], den)
        it, bmap = iter(xs), {}
        for key, r in rows:
            if row := {k: x for (k, _x), x in zip(r, it) if x}:
                bmap[key] = row
        a = object.__new__(LieAlgebra)
        for name, value in (("dim", dim), ("basis_labels", basis_labels), ("_ibmap", (bmap, c))):
            object.__setattr__(a, name, value)
        return a

    def __setattr__(self, *a):
        raise AttributeError("LieAlgebra is immutable")

    @property
    def brackets(self) -> tuple[tuple[int, int, int, Fraction], ...]:
        b = getattr(self, "_brackets", None)
        if b is None:
            bmap, c = self._ibmap
            b = tuple((i, j, k, Fraction(x, c)) for (i, j), row in bmap.items()
                      for k, x in row.items())
            object.__setattr__(self, "_brackets", b)
        return b

    def __eq__(self, other) -> bool:
        return isinstance(other, LieAlgebra) and (self.dim, self._ibmap, self.basis_labels) \
            == (other.dim, other._ibmap, other.basis_labels)

    def __hash__(self):
        return hash((self.dim, self.brackets, self.basis_labels))

    def __repr__(self):
        return (f"LieAlgebra(dim={self.dim!r}, brackets={self.brackets!r}, "
                f"basis_labels={self.basis_labels!r})")

    # -- access

    def integer_bracket_map(self) -> tuple[Mapping[tuple[int, int], dict[int, int]], int]:
        """(The bracket map, C): the algebra's own state, not a copy."""
        return self._ibmap

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
    i < j < k, exactly.  [[b_p, b_q], b_t] is zero unless the row [b_p, b_q]
    is, so each nonzero row is bracketed with every b_t, t not in {p, q},
    into the sum of the sorted triple: - when p < t < q (the term there is
    [[b_q, b_p], b_t]), + otherwise.  r rows cost r (n - 2) brackets, never
    more than the 3 C(n, 3) of a loop over the triples."""
    n = a.dim
    # constants times C: each Jacobi sum is C^2 times the rational one
    bmap = a.integer_bracket_map()[0]
    sums: dict[tuple[int, int, int], dict] = {}
    for (p, q), row in bmap.items():
        for t in range(n):
            if t != p and t != q:
                key = (t, p, q) if t < p else (p, t, q) if t < q else (p, q, t)
                _bracket(bmap, row, {t: -1 if key[1] == t else 1}, sums.setdefault(key, {}))
    return not any(any(total.values()) for total in sums.values())


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
    spanned by the [b_i, b_j], i < j: the rows of the integer bracket map.

    Each basis is span_rref's list of primitive integer tuples, each
    positive at its pivot (gamma_1: the integer unit rows): the reduced
    row echelon row times its least common denominator, which is its
    pivot's.  So the pivots, the spans, the type and the class are those
    of the reduced rational bases."""
    n = a.dim
    series = [[tuple(int(j == i) for j in range(n)) for i in range(n)]]
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
        series.append(nxt)
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
    return preserves_brackets(a, [_support(col) for col in zip(*m.nums)], m.den) \
        and m.charpoly().nums[0] != 0


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
    for (i, j), row in a.integer_bracket_map()[0].items():
        d = g.degree_of(i) + g.degree_of(j)
        if d > ncomponents or any(g.degree_of(k) != d for k in row):
            return False
    return True


def heisenberg() -> LieAlgebra:
    """The 3-dimensional Heisenberg algebra [b1, b2] = b3 over Q."""
    return LieAlgebra(3, ((0, 1, 2, Fraction(1)),))


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra(n, ())
