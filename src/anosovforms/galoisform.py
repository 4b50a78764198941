"""Rational forms from Galois-compatible representations.

The right action of the Galois group on E^m is componentwise
x^sigma = sigma^{-1}(x).  Given a representation rho of the group by
rational matrices, the vectors fixed in the twisted sense
rho_sigma(v) = v^sigma form a rational subspace; for rational
representations its dimension is exactly m, so its basis is a rational
form of E^m.  When rho lands in automorphisms of a rational Lie algebra,
the form is a subalgebra, and any E-automorphism commuting with the action
in the twisted sense transports to a rational matrix on the form.  That
transported matrix is where the Anosov certificates downstream come from.

Every elimination of the descent runs over Q, on the m*d power-basis
coordinates of vectors in E^m (coordinate t of component k at k*d + t):
the defining relation is a rational system on them, the form basis is
kept as the md x m rational matrix P whose column j flattens vector j,
and structure constants and transported maps are read off one solve of
the tall system P X = W, W the flattened brackets or F B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _fieldlinalg as fl
from .errors import (
    CommutationViolation,
    DatumMismatch,
    DimensionMismatch,
    EigenvalueMismatch,
    ExtensionInconsistent,
    IrrationalEntry,
    IrrationalStructureConstant,
    LabelMismatch,
    NonUnitLabel,
    NotGenerating,
    NotHomomorphism,
)
from .exactmath import Polynomial, RationalMatrix, nullspace
from .liealg import LieAlgebra, LinearMap, is_automorphism, require_jacobi
from .numfield import (
    FieldElement,
    GaloisDatum,
    apply_automorphism,
    automorphism_matrix,
    is_algebraic_unit,
)

EVector = tuple[FieldElement, ...]
EMatrix = tuple[tuple[FieldElement, ...], ...]


# ---------------------------------------------------------------------------
# the right action
# ---------------------------------------------------------------------------


def right_action(datum: GaloisDatum, sigma_index: int, v: Sequence[FieldElement]) -> EVector:
    """v^sigma: apply sigma^{-1} to every component."""
    inv = datum.inverse_index(sigma_index)
    out = []
    for x in v:
        if x.datum.fingerprint() != datum.fingerprint():
            raise DatumMismatch("vector component from a different field")
        out.append(apply_automorphism(datum, inv, x))
    return tuple(out)


def group_generators(datum: GaloisDatum) -> list[int]:
    """A generating set of the Galois group, greedily built from the table."""
    d = datum.degree
    gens: list[int] = []
    closure = {datum.identity_index}
    for g in range(d):
        if g in closure:
            continue
        gens.append(g)
        frontier = [g]
        closure.add(g)
        while frontier:
            a = frontier.pop()
            for b in list(closure):
                for c in (datum.table[a][b], datum.table[b][a]):
                    if c not in closure:
                        closure.add(c)
                        frontier.append(c)
        if len(closure) == d:
            break
    return gens


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Representation:
    """Homomorphism from the Galois group into GL_m(Q), optionally into the
    automorphisms of a rational Lie algebra; images indexed like the
    datum's automorphisms."""

    datum: GaloisDatum
    images: tuple[RationalMatrix, ...]
    algebra: LieAlgebra | None = None
    verified: bool = field(default=False, compare=False)

    @property
    def size(self) -> int:
        return self.images[0].rows


def verify_representation(rho: Representation) -> Representation:
    datum = rho.datum
    d = datum.degree
    if len(rho.images) != d:
        raise NotHomomorphism("need one image per group element")
    m = rho.images[0].rows
    for im in rho.images:
        if im.rows != m or im.cols != m:
            raise NotHomomorphism("images must be square of equal size")
    if rho.images[datum.identity_index] != RationalMatrix.identity(m):
        raise NotHomomorphism("identity must map to the identity matrix")
    for i in range(d):
        for j in range(d):
            if rho.images[datum.table[i][j]] != rho.images[i] * rho.images[j]:
                raise NotHomomorphism(f"homomorphism fails at ({i},{j})")
    if rho.algebra is not None:
        if rho.algebra.dim != m:
            raise DimensionMismatch("algebra dimension must match image size")
        for i, im in enumerate(rho.images):
            if not is_automorphism(rho.algebra, LinearMap(rho.algebra, im.entries)):
                raise NotHomomorphism(f"image {i} is not a Lie algebra automorphism")
    object.__setattr__(rho, "verified", True)
    return rho


# ---------------------------------------------------------------------------
# rational forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFormBasis:
    """m vectors in E^m spanning the rational form of the representation;
    each satisfies rho_sigma(v) = v^sigma for every group element."""

    representation: Representation
    vectors: tuple[EVector, ...]

    @property
    def size(self) -> int:
        return len(self.vectors)

    def basis_matrix(self) -> list[list[FieldElement]]:
        """Columns are the basis vectors."""
        m = self.size
        return [[self.vectors[j][i] for j in range(m)] for i in range(m)]

    def flat_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """P, md x m over Q: column j holds the power-basis coordinates of
        vector j (computed once per basis)."""
        cached = getattr(self, "_flat", None)
        if cached is None:
            cached = tuple(zip(*(_flatten(v) for v in self.vectors)))
            object.__setattr__(self, "_flat", cached)
        return cached


def _flatten(v: Sequence[FieldElement]) -> list[Fraction]:
    """The m*d power-basis coordinates of a vector in E^m."""
    return [c for x in v for c in x.coeffs]


def _satisfies_defining_relation(rho: Representation, v: EVector) -> bool:
    datum = rho.datum
    for s in range(datum.degree):
        lhs = rho.images[s].apply(list(v))
        rhs = right_action(datum, s, v)
        if any(not a == b for a, b in zip(lhs, rhs)):
            return False
    return True


def _relation_rows(rho: Representation, elements: Iterable[int]) -> list[list[Fraction]]:
    """rho_sigma(v) = v^sigma for each sigma in elements, as rational rows
    on the m*d coordinates of v: coordinate t of component r reads
    sum_k rho_sigma[r, k] v_k,t - sum_u A[t, u] v_r,u = 0, A the matrix of
    sigma^{-1} in the power basis."""
    datum = rho.datum
    m, d = rho.size, datum.degree
    rows: list[list[Fraction]] = []
    for g in elements:
        a_inv = automorphism_matrix(datum, datum.inverse_index(g))
        img = rho.images[g]
        for r in range(m):
            for t in range(d):
                row = [Fraction(0)] * (m * d)
                for k in range(m):
                    c = img[r, k]
                    if c:
                        row[k * d + t] += c
                for u in range(d):
                    c = a_inv[t, u]
                    if c:
                        row[r * d + u] -= c
                rows.append(row)
    return rows


def rational_form(rho: Representation) -> RationalFormBasis:
    """Solve rho_sigma(v) = v^sigma as a Q-linear system on the m*d
    coordinates of v in E^m.

    The conditions are imposed for a generating set only, then re-verified
    for the whole group.  The solution space must have dimension exactly m;
    anything else means the representation is invalid.
    """
    if not rho.verified:
        raise NotHomomorphism("rational_form requires a verified representation")
    datum = rho.datum
    m, d = rho.size, datum.degree
    rows = _relation_rows(rho, group_generators(datum) or [datum.identity_index])
    basis_flat = nullspace(RationalMatrix(rows)) if rows else []
    if len(basis_flat) != m:
        raise DimensionMismatch(
            f"fixed space has dimension {len(basis_flat)}, expected {m}"
        )
    vectors = tuple(
        tuple(datum.element(flat[j * d:(j + 1) * d]) for j in range(m))
        for flat in basis_flat
    )
    return rational_form_from_vectors(rho, vectors)


def rational_form_from_vectors(rho: Representation,
                               vectors: Sequence[Sequence[FieldElement]]) -> RationalFormBasis:
    """Wrap explicitly given vectors as a rational form basis, verifying the
    defining relation for every group element and E-linear independence.

    Both checks run over Q on the flat matrix P.  The relation holds for
    all sigma at once when the rows of _relation_rows annihilate P.
    Independence is rank(P) = m, i.e. Q-independence, and that suffices
    (Speiser's lemma, Serre, Local Fields, Ch. X, section 1): take a shortest
    E-relation sum c_j v_j = 0 among fixed vectors with c_1 = 1.  Since
    (sigma(c) v)^sigma = c v^sigma, applying rho_sigma to it gives
    (sum sigma(c_j) v_j)^sigma = 0, so sum (sigma(c_j) - c_j) v_j = 0 is a
    shorter relation and must vanish: every c_j is fixed by the group,
    hence rational, and the relation is a Q-relation.
    """
    if not rho.verified:
        raise NotHomomorphism("requires a verified representation")
    datum = rho.datum
    m = rho.size
    if len(vectors) != m or any(len(v) != m for v in vectors):
        raise DimensionMismatch("need m vectors of length m")
    vecs = tuple(tuple(v) for v in vectors)
    fp = datum.fingerprint()
    if any(not isinstance(x, FieldElement) or x.datum.fingerprint() != fp
           for v in vecs for x in v):
        raise DatumMismatch("vector component from a different field")
    basis = RationalFormBasis(rho, vecs)
    flat, _ = fl.clear_denominators([_flatten(v) for v in vecs])
    rows, _ = fl.clear_denominators(_relation_rows(rho, range(datum.degree)))
    for row in rows:
        terms = [(k, x) for k, x in enumerate(row) if x]
        if any(sum(x * v[k] for k, x in terms) for v in flat):
            raise DimensionMismatch("vector violates rho_sigma(v) = v^sigma")
    if fl.rank(flat) != m:
        raise DimensionMismatch("vectors are not linearly independent over E")
    return basis


def structure_constants_on_form(basis: RationalFormBasis,
                                algebra: LieAlgebra | None = None) -> LieAlgebra:
    """Brackets of the basis vectors, re-expressed in the basis itself; all
    coordinates must come out rational, giving a Lie algebra over Q.

    Over E the coordinates of a bracket are unique, and they are rational
    exactly when its flattened column lies in the Q-span of P's columns,
    so one solve over Q gives them or names the first irrational bracket.
    """
    rho = basis.representation
    alg = algebra if algebra is not None else rho.algebra
    if alg is None:
        raise DimensionMismatch("no algebra attached to the representation")
    m = basis.size
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rhs = [_flatten(alg.bracket(list(basis.vectors[i]), list(basis.vectors[j])))
           for i, j in pairs]
    try:
        coords = fl.solve(basis.flat_matrix(), rhs) if pairs else []
    except fl.Inconsistent as e:
        i, j = pairs[e.column]
        raise IrrationalStructureConstant(
            f"bracket [{i},{j}] has an irrational coordinate") from None
    entries = []
    for col, (i, j) in enumerate(pairs):
        for k in range(m):
            x = coords[k][col]
            if x:
                entries.append((i, j, k, x))
    out = LieAlgebra(m, tuple(entries))
    return require_jacobi(out)


def conjugate_map(datum: GaloisDatum, sigma_index: int, mat: EMatrix) -> EMatrix:
    """f^sigma: apply sigma^{-1} entrywise to the matrix of f."""
    inv = datum.inverse_index(sigma_index)
    return tuple(
        tuple(apply_automorphism(datum, inv, x) for x in row) for row in mat
    )


def transport(basis: RationalFormBasis, f: EMatrix) -> RationalMatrix:
    """Rational matrix of f in the rational-form basis.

    First certifies the commutation relation f^sigma =
    rho_sigma f rho_{sigma^{-1}} for every group element, then solves
    B M = F B as the flat rational system P M = W, W the flattened F B.

    Once the commutation check passes, IrrationalEntry cannot fire for a
    basis from rational_form_from_vectors: for a fixed v, (f v)^sigma =
    f^sigma v^sigma = rho_sigma f v, so f maps the fixed space V into
    itself, and the basis spans V over Q (dim_Q V = m by descent), so
    every column of F B has rational coordinates.  The check stays because
    it costs nothing beyond the solve, and a RationalFormBasis built
    directly skips from_vectors' checks.
    """
    rho = basis.representation
    datum = rho.datum
    m = basis.size
    if len(f) != m or any(len(row) != m for row in f):
        raise DimensionMismatch("map size must match the form")
    flist = [list(row) for row in f]
    for s in range(datum.degree):
        lhs = conjugate_map(datum, s, f)
        rs = [list(r) for r in rho.images[s].entries]
        rsi = [list(r) for r in rho.images[datum.inverse_index(s)].entries]
        rhs = fl.mat_mul(fl.mat_mul(rs, flist), rsi)
        for i in range(m):
            for j in range(m):
                if not lhs[i][j] == rhs[i][j]:
                    raise CommutationViolation(
                        f"f^sigma != rho f rho^-1 for group element {s}"
                    )
    fb = fl.mat_mul(flist, basis.basis_matrix())
    try:
        sol = fl.solve(basis.flat_matrix(), [_flatten(col) for col in zip(*fb)])
    except fl.Inconsistent as e:
        raise IrrationalEntry(
            f"transported column {e.column} has an irrational entry") from None
    return RationalMatrix(sol)


# ---------------------------------------------------------------------------
# labeled algebras (eigenvalue-indexed bases)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LabeledAlgebra:
    """A rational Lie algebra whose basis vectors carry field-element
    labels multiplying along brackets: [V_a, V_b] in V_{ab} (checked)."""

    algebra: LieAlgebra
    labels: tuple[FieldElement, ...]
    generators: tuple[int, ...]

    def __post_init__(self):
        check_label_compatibility(self)

    @property
    def datum(self) -> GaloisDatum:
        return self.labels[0].datum

    @property
    def dim(self) -> int:
        return self.algebra.dim


def build_labeled_algebra(labels: Sequence[FieldElement],
                          bracket_spec: Iterable[tuple[int, int, object, int]],
                          generators: Sequence[int]) -> LabeledAlgebra:
    """Build the Q-algebra from (i, j, coefficient, k) bracket entries and
    certify label compatibility and the Jacobi identity."""
    labels = tuple(labels)
    entries = tuple((i, j, k, c) for (i, j, c, k) in bracket_spec)
    la = LabeledAlgebra(LieAlgebra(len(labels), entries), labels, tuple(generators))
    require_jacobi(la.algebra)
    return la


def check_label_compatibility(la: LabeledAlgebra) -> None:
    """Every stored bracket coefficient c b_k in [b_i, b_j] must satisfy
    label(k) = label(i) label(j) exactly."""
    for (i, j, k, _c) in la.algebra.brackets:
        if not la.labels[k] == la.labels[i] * la.labels[j]:
            raise LabelMismatch(f"label({k}) != label({i})*label({j})")


def check_label_equivariance(la: LabeledAlgebra, rho: Representation) -> None:
    """rho_sigma(V_lambda) = V_{sigma(lambda)} for every group element.
    On success rho keeps la as _equivariant_labels, so a later caller
    with the same frozen pair can skip the check."""
    datum = la.datum
    for s in range(datum.degree):
        img = rho.images[s]
        for t in range(la.dim):
            target = apply_automorphism(datum, s, la.labels[t])
            for i in range(la.dim):
                if img[i, t] != 0 and not la.labels[i] == target:
                    raise LabelMismatch(
                        f"group element {s} maps slot {t} outside V_sigma(label)"
                    )
    object.__setattr__(rho, "_equivariant_labels", la)


def extend_representation(la: LabeledAlgebra,
                          generator_maps: Mapping[int, Mapping[int, tuple[int, int]]],
                          ) -> Representation:
    """Extend signed permutations of the degree-1 generators to the whole
    basis by bracket equivariance, then certify the result.

    generator_maps: group element index -> {generator slot: (sign, slot)}.
    Signs on non-generator slots are derived from the brackets, which is
    where the minus signs of the cyclic constructions come from.
    """
    datum = la.datum
    alg = la.algebra
    dim = la.dim
    gen_set = set(la.generators)

    single_target = []
    for (i, j), row in alg.bracket_map().items():
        if len(row) == 1:
            ((k, c),) = row.items()
            single_target.append((i, j, k, c))

    images: dict[int, RationalMatrix] = {
        datum.identity_index: RationalMatrix.identity(dim)
    }
    for g, mapping in generator_maps.items():
        cols: list[list[Fraction] | None] = [None] * dim
        for gen, (sign, slot) in mapping.items():
            if gen not in gen_set:
                raise NotGenerating(f"slot {gen} is not a declared generator")
            col = [Fraction(0)] * dim
            col[slot] = Fraction(sign)
            cols[gen] = col
        progress = True
        while progress:
            progress = False
            for (i, j, k, c) in single_target:
                if cols[i] is None or cols[j] is None:
                    continue
                derived = alg.bracket(cols[i], cols[j])
                derived = [x / c for x in derived]
                if cols[k] is None:
                    cols[k] = derived
                    progress = True
                elif any(not a == b for a, b in zip(cols[k], derived)):
                    raise ExtensionInconsistent(
                        f"slot {k} receives conflicting images under element {g}"
                    )
        if any(c is None for c in cols):
            missing = [i for i, c in enumerate(cols) if c is None]
            raise NotGenerating(f"brackets do not determine slots {missing}")
        images[g] = RationalMatrix(
            [[cols[j][i] for j in range(dim)] for i in range(dim)]
        )

    # generate the remaining group elements as words in the given ones
    frontier = list(images)
    while frontier:
        a = frontier.pop()
        for b in list(images):
            for (x, y) in ((a, b), (b, a)):
                idx = datum.table[x][y]
                prod = images[x] * images[y]
                if idx in images:
                    if images[idx] != prod:
                        raise ExtensionInconsistent(
                            f"two words for group element {idx} disagree"
                        )
                else:
                    images[idx] = prod
                    frontier.append(idx)
    if len(images) != datum.degree:
        raise NotGenerating("given group elements do not generate the group")

    rho = Representation(
        datum=datum,
        images=tuple(images[i] for i in range(datum.degree)),
        algebra=alg,
    )
    rho = verify_representation(rho)
    check_label_equivariance(la, rho)
    return rho


def labels_charpoly(la: LabeledAlgebra) -> Polynomial:
    """prod over slots of (X - label), expanded in E[X] and certified to
    collapse to a rational polynomial."""
    datum = la.datum
    coeffs = [datum.one()]
    for lam in la.labels:
        nxt = [datum.zero() for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - lam * c
        coeffs = nxt
    out = []
    for c in coeffs:
        if not c.is_rational:
            raise IrrationalEntry("label product polynomial is not rational")
        out.append(c.rational_value())
    return Polynomial(out)


def main2_construct(la: LabeledAlgebra, rho: Representation,
                    explicit_basis: Sequence[Sequence[FieldElement]] | None = None,
                    ) -> tuple[LieAlgebra, RationalMatrix, RationalFormBasis]:
    """The eigenvalue-labeled construction: diagonal map f(X) = label * X on
    each slot, rational form, structure constants, transported matrix.

    All labels must be algebraic units.  An explicit basis (for pinning a
    published presentation) replaces the canonical nullspace basis after
    passing the same defining-relation checks.
    """
    datum = la.datum
    for idx, lam in enumerate(la.labels):
        if not is_algebraic_unit(lam):
            raise NonUnitLabel(f"label {idx} is not an algebraic unit")
    if not rho.verified:
        rho = verify_representation(rho)
    if getattr(rho, "_equivariant_labels", None) is not la:
        check_label_equivariance(la, rho)
    if explicit_basis is not None:
        basis = rational_form_from_vectors(rho, explicit_basis)
    else:
        basis = rational_form(rho)
    algebra_q = structure_constants_on_form(basis, la.algebra)
    zero = datum.zero()
    f = tuple(
        tuple(la.labels[i] if i == j else zero for j in range(la.dim))
        for i in range(la.dim)
    )
    matrix = transport(basis, f)
    # restriction to a rational form preserves the eigenvalue multiset
    if matrix.charpoly() != labels_charpoly(la):
        raise EigenvalueMismatch("transported matrix lost the label eigenvalues")
    return algebra_q, matrix, basis
