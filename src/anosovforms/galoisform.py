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

Every elimination and product of the descent runs over Q, on the m*d
power-basis coordinates of vectors in E^m (coordinate t of component k
at k*d + t), cleared to ints: the defining relation is a system on them,
the form basis is the md x m matrix P whose column j flattens vector j,
and structure constants and transported maps are read off one solve of
P X = W, W the brackets (restriction of scalars of L (x) E) or F B.
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
from .liealg import LieAlgebra, LinearMap, _bracket, _support, is_automorphism, require_jacobi
from .numfield import (
    FieldElement,
    GaloisDatum,
    _require_verified,
    apply_automorphism,
    automorphism_matrix,
    is_algebraic_unit,
)

EVector = tuple[FieldElement, ...]


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

    def flat_matrix(self) -> tuple[list[tuple[int, ...]], int]:
        """(P, D), P / D md x m over Q: column j holds the power-basis
        coordinates of vector j (cleared once per basis)."""
        if not hasattr(self, "_flat"):
            _set_flat(self, [_flatten(v) for v in self.vectors])
        return self._flat


def _set_flat(basis: RationalFormBasis, flat_vectors: list[list[Fraction]]) -> None:
    ints, den = fl.clear_denominators(flat_vectors)
    object.__setattr__(basis, "_flat", (list(zip(*ints)), den))


def _flatten(v: Sequence[FieldElement]) -> list[Fraction]:
    """The m*d power-basis coordinates of a vector in E^m."""
    return [c for x in v for c in x.coeffs]


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

    The conditions are imposed for a generating set only; rho is a
    rational homomorphism, so rho_{sigma tau} v = rho_sigma(v^tau) =
    (rho_sigma v)^tau = v^{sigma tau} extends them to the group.  The
    solution space must have dimension exactly m; anything else means the
    representation is invalid.  A nullspace basis is Q-independent, hence
    E-independent (see rational_form_from_vectors): nothing is re-checked.
    """
    if not rho.verified:
        raise NotHomomorphism("rational_form requires a verified representation")
    datum = rho.datum
    m, d = rho.size, datum.degree
    rows = _relation_rows(rho, group_generators(datum) or [datum.identity_index])
    basis_flat = nullspace(RationalMatrix(rows)) if rows else []
    if len(basis_flat) != m:
        raise DimensionMismatch(f"fixed space has dimension {len(basis_flat)}, expected {m}")
    basis = RationalFormBasis(rho, tuple(
        tuple(datum.element(flat[j * d:(j + 1) * d]) for j in range(m)) for flat in basis_flat))
    _set_flat(basis, basis_flat)
    return basis


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
    flat = basis.flat_matrix()[0]
    rows, _ = fl.clear_denominators(_relation_rows(rho, range(datum.degree)))
    if any(any(row) for row in fl.mat_mul(rows, flat)):
        raise DimensionMismatch("vector violates rho_sigma(v) = v^sigma")
    if fl.rank(flat) != m:
        raise DimensionMismatch("vectors are not linearly independent over E")
    return basis


def restricted_bracket_map(alg: LieAlgebra, datum: GaloisDatum) -> tuple[dict, int]:
    """(Integer bracket map, scale C D_T) of L (x) E viewed over Q, on the md
    flat coordinates: [b_a theta^s, b_b theta^t] = sum_k c_ab^k theta^s
    theta^t b_k, so key (a*d + s, b*d + t) maps k*d + u to C c_ab^k
    T[s*d + t][u], C from integer_bracket_map and T / D_T the products
    theta^s theta^t off theta^s's cleared multiplication rows."""
    (bmap, c), d = alg.integer_bracket_map(), datum.degree
    tensor, dt = fl.clear_denominators([col for s in range(d) for col in zip(
        *datum.element([0] * s + [1])._scaled_multiplication_rows()[0])])
    return ({(a * d + s, b * d + t): {k * d + u: x * y for k, x in row.items()
                                     for u, y in enumerate(tensor[s * d + t]) if y}
             for (a, b), row in bmap.items() for s in range(d) for t in range(d)}, c * dt)


def structure_constants_on_form(basis: RationalFormBasis,
                                algebra: LieAlgebra | None = None) -> LieAlgebra:
    """Brackets of the basis vectors, re-expressed in the basis itself; all
    coordinates must come out rational, giving a Lie algebra over Q.

    Over E the coordinates of a bracket are unique, and they are rational
    exactly when its flattened column lies in the Q-span of P's columns,
    so one solve over Q gives them or names the first irrational bracket;
    restricted_bracket_map on P's integer columns gives S D^2 W.
    """
    rho = basis.representation
    alg = algebra if algebra is not None else rho.algebra
    if alg is None:
        raise DimensionMismatch("no algebra attached to the representation")
    m = basis.size
    if alg.dim != m:
        raise DimensionMismatch("algebra dimension must match the form")
    flat, den = basis.flat_matrix()
    bmap, scale = restricted_bracket_map(alg, rho.datum)
    cols = [_support(col) for col in zip(*flat)]
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    brackets = (_bracket(bmap, cols[i], cols[j]) for i, j in pairs)
    rhs = [[w.get(r, 0) for r in range(len(flat))] for w in brackets]
    try:
        coords = fl.solve(flat, rhs) if pairs else []
    except fl.Inconsistent as e:
        i, j = pairs[e.column]
        raise IrrationalStructureConstant(
            f"bracket [{i},{j}] has an irrational coordinate") from None
    entries = [(i, j, k, Fraction(coords[k][col]) / (scale * den))
               for col, (i, j) in enumerate(pairs) for k in range(m) if coords[k][col]]
    return require_jacobi(LieAlgebra(m, tuple(entries)))


def transport(basis: RationalFormBasis, f: Sequence[Sequence]) -> RationalMatrix:
    """Rational matrix of f in the rational-form basis; int and Fraction
    entries of f are read as elements of the datum's field.

    First certifies the commutation relation f^sigma =
    rho_sigma f rho_{sigma^{-1}} for every group element, then solves
    B M = F B as P M = W, both on ints.  With f's nonzero entries cleared
    to d-vectors over D_F, the relation reads D_R D_R' A f_ij = D_A (R f
    R')_ij, A / D_A the matrix of sigma^{-1} and R / D_R, R' / D_R' the
    images of sigma and sigma^{-1} (a basis built directly may carry an
    unverified rho), and (D P) M = M_F (D P) / D_F, M_F's (i, k) block the
    multiplication matrix of D_F f_ik.

    Once the commutation check passes, IrrationalEntry cannot fire for a
    basis from rational_form_from_vectors: for a fixed v, (f v)^sigma =
    f^sigma v^sigma = rho_sigma f v, so f maps the fixed space V, which
    the basis spans over Q, into itself.  The check costs nothing beyond
    the solve and guards a RationalFormBasis built directly.
    """
    rho = basis.representation
    datum = rho.datum
    m, d = basis.size, datum.degree
    if len(f) != m or any(len(row) != m for row in f):
        raise DimensionMismatch("map size must match the form")
    _require_verified(datum)
    if any(isinstance(x, FieldElement) and x.datum.fingerprint() != datum.fingerprint()
           for row in f for x in row):
        raise DatumMismatch("map entry from a different field")
    nz = {(i, k): x if isinstance(x, FieldElement) else datum.element((x,))
          for i, row in enumerate(f) for k, x in enumerate(row) if x}
    vecs, df = fl.clear_denominators([x.coeffs for x in nz.values()])
    fz = dict(zip(nz, vecs))
    images = [fl.clear_denominators(im.entries) for im in rho.images]
    zero = [0] * d
    for s in range(d):
        inv = datum.inverse_index(s)
        a, da = fl.clear_denominators(automorphism_matrix(datum, inv).entries)
        (r, dr), (ri, dri) = images[s], images[inv]
        lhs = {key: [dr * dri * x for x in fl.mat_vec(a, v)] for key, v in fz.items()}
        rf, rhs = {}, {}
        for (k, j), v in fz.items():
            for i, c in ((i, row[k]) for i, row in enumerate(r) if row[k]):
                rf[i, j] = [x + c * y for x, y in zip(rf.get((i, j), zero), v)]
        for (i, k), v in rf.items():
            for j, c in ((j, da * c) for j, c in enumerate(ri[k]) if c):
                rhs[i, j] = [x + c * y for x, y in zip(rhs.get((i, j), zero), v)]
        if any(lhs.get(key, zero) != rhs.get(key, zero) for key in lhs.keys() | rhs.keys()):
            raise CommutationViolation(f"f^sigma != rho f rho^-1 for group element {s}")
    flat, _den = basis.flat_matrix()
    mf = [[0] * (m * d) for _ in range(m * d)]
    for (i, k), v in fz.items():
        for u, row in enumerate(datum.element(v)._scaled_multiplication_rows()[0]):
            mf[i * d + u][k * d:(k + 1) * d] = row
    try:
        sol = fl.solve(flat, list(zip(*fl.mat_mul(mf, flat))))
    except fl.Inconsistent as e:
        raise IrrationalEntry(
            f"transported column {e.column} has an irrational entry") from None
    return RationalMatrix([[Fraction(x) / df for x in row] for row in sol])


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
    f = [[lam if i == j else 0 for j in range(la.dim)] for i, lam in enumerate(la.labels)]
    matrix = transport(basis, f)
    # restriction to a rational form preserves the eigenvalue multiset
    if matrix.charpoly() != labels_charpoly(la):
        raise EigenvalueMismatch("transported matrix lost the label eigenvalues")
    return algebra_q, matrix, basis
