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
and a form basis is kept only as P / D, P the md x m integer matrix whose
column j flattens vector j; its vectors in E^m are derived on read.
Structure constants and transported maps are read off P's left inverse,
c = Q w_I / e for each integer column w of W (the brackets of L (x) E
over Q, or F B); the check P c = w decides consistency exactly,
and for transport it is the commutation check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from . import _fieldlinalg as fl
from .errors import (
    BadParameters,
    CommutationViolation,
    DatumMismatch,
    DimensionMismatch,
    EigenvalueMismatch,
    ExtensionInconsistent,
    IrrationalStructureConstant,
    LabelMismatch,
    NonUnitLabel,
    NotGenerating,
    NotHomomorphism,
)
from .exactmath import Polynomial, RationalMatrix, nullspace
from .liealg import LieAlgebra, _bracket, _support, preserves_brackets, require_jacobi
from .numfield import (
    FieldElement,
    GaloisDatum,
    _act,
    _multiplication_rows,
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
    """v^sigma: apply sigma^{-1} to every component (DatumMismatch for a
    component of another field, from apply_automorphism)."""
    inv = datum.inverse_index(sigma_index)
    return tuple(apply_automorphism(datum, inv, x) for x in v)


def group_generators(datum: GaloisDatum) -> list[int]:
    """A generating set of the Galois group, greedily built from the table.
    The bracket, label and relation checks of a homomorphism rho run on it:
    each holds for rho_(st) = rho_s rho_t once it holds for rho_s and rho_t."""
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
    # set by verify_representation only: a replace() copy is unverified
    verified: bool = field(default=False, init=False, compare=False)

    @property
    def size(self) -> int:
        return self.images[0].rows

    def columns(self) -> tuple[list[list[dict[int, int]]], int]:
        """(R, D), R[g][j] = {row: int} the nonzero entries of column j of D
        times image g, D the images' common denominator; computed once."""
        if not hasattr(self, "_columns"):
            cols = [[{i: x for i, row in enumerate(im.entries) if (x := row[j])}
                     for j in range(im.cols)] for im in self.images]
            den = lcm(1, *(x.denominator for im in cols for col in im for x in col.values()))
            object.__setattr__(self, "_columns", ([[
                {i: x.numerator * (den // x.denominator) for i, x in col.items()}
                for col in im] for im in cols], den))
        return self._columns


def _compose(a: Sequence[Mapping], b: Sequence[Mapping]) -> list[dict]:
    """The sparse columns of A B: column j is sum_k B[k, j] A[:, k]."""
    out = []
    for col in b:
        acc: dict = {}
        for k, x in col.items():
            for i, y in a[k].items():
                acc[i] = acc[i] + x * y if i in acc else x * y
        out.append({i: v for i, v in acc.items() if v})
    return out


def verify_representation(rho: Representation) -> Representation:
    """rho(e) = I and D R_sj = R_s R_j on rho's columns for every generator
    s and every j; with an algebra attached, each generator's image
    preserves brackets.  The datum must be verified (BadParameters).

    Those products give rho(gh) = rho(g) rho(h) for all g, h by induction
    on the length of g as a word in the generators: rho(e h) = I rho(h),
    and rho(s g h) = rho(s) rho(g h) = rho(s) rho(g) rho(h) = rho(s g)
    rho(h).  Then rho(g) rho(g^-1) = rho(e) = I, so every image is
    invertible and hence an automorphism (see group_generators)."""
    datum = rho.datum
    _require_verified(datum)
    d = datum.degree
    if len(rho.images) != d:
        raise NotHomomorphism("need one image per group element")
    m = rho.images[0].rows
    for im in rho.images:
        if im.rows != m or im.cols != m:
            raise NotHomomorphism("images must be square of equal size")
    cols, den = rho.columns()
    e = datum.identity_index
    if cols[e] != [{j: den} for j in range(m)]:
        raise NotHomomorphism("identity must map to the identity matrix")
    scaled = [[{i: den * x for i, x in col.items()} for col in im] for im in cols]
    gens = group_generators(datum)
    for i in gens:
        for j in range(d):
            if scaled[datum.table[i][j]] != _compose(cols[i], cols[j]):
                raise NotHomomorphism(f"homomorphism fails at ({i},{j})")
    if rho.algebra is not None:
        if rho.algebra.dim != m:
            raise DimensionMismatch("algebra dimension must match image size")
        for g in gens:
            if not preserves_brackets(rho.algebra, cols[g], den):
                raise NotHomomorphism(f"image {g} is not a Lie algebra automorphism")
    object.__setattr__(rho, "verified", True)
    return rho


# ---------------------------------------------------------------------------
# rational forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalFormBasis:
    """The rational form of the representation as P / D: P the md x m
    integer matrix whose column j holds the power-basis coordinates of
    basis vector j, as a tuple of rows, and D their least common
    denominator.  Each vector satisfies rho_sigma(v) = v^sigma for every
    group element."""

    representation: Representation
    flat: tuple[tuple[int, ...], ...]
    den: int
    # set by rational_form(_from_vectors) only, with rows I; the descent refuses others
    verified: bool = field(default=False, init=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.flat[0])

    @property
    def vectors(self) -> tuple[EVector, ...]:
        """The basis vectors in E^m, derived from P / D on each read."""
        datum, den = self.representation.datum, self.den
        d = datum.degree
        return tuple(tuple(FieldElement(datum, col[k * d:(k + 1) * d], den)
                           for k in range(self.size)) for col in zip(*self.flat))

    def left_inverse(self) -> tuple[list[dict[int, int]], int, list[dict[int, int]]]:
        """(Q, e, C), built on first use: Q P_I = e 1 on the m rows I of P the
        constructor kept (BadParameters on an unverified basis), Q's column k
        at row I_k, and C P's columns, all sparse.  On a nullspace basis I is
        the free columns, so Q = 1 and e = D; else Q / e = P_I^-1 by a solve."""
        if not hasattr(self, "_inverse"):
            if not self.verified:
                raise BadParameters("needs a basis from a rational_form constructor")
            block, den = [self.flat[r] for r in self._rows], self.den
            eye = [[int(i == j) for j in range(self.size)] for i in range(self.size)]
            q, e = ((eye, den) if block == [tuple(den * x for x in r) for r in eye]
                    else fl.solve(block, eye))
            q = dict(zip(self._rows, map(_support, zip(*q))))
            object.__setattr__(self, "_inverse", ([q.get(r, {}) for r in range(len(self.flat))],
                                                  e, [_support(c) for c in zip(*self.flat)]))
        return self._inverse


def _relation_rows(rho: Representation) -> list[list[int]]:
    """rho_sigma(v) = v^sigma for each generator sigma (the identity when
    d = 1), as integer rows on the m*d coordinates of v: coordinate t of
    component r reads D_A sum_k R[r, k] v_k,t - D_R sum_u A[t, u] v_r,u = 0,
    R / D_R the image of sigma on rho's cleared columns and A / D_A the
    matrix of sigma^{-1} in the power basis."""
    datum = rho.datum
    m, d = rho.size, datum.degree
    cols, den = rho.columns()
    rows: list[list[int]] = []
    for g in group_generators(datum) or [datum.identity_index]:
        a, da = automorphism_matrix(datum, datum.inverse_index(g))
        block = [[0] * (m * d) for _ in range(m * d)]
        for r in range(m):
            for t, arow in enumerate(a):
                block[r * d + t][r * d:(r + 1) * d] = [-den * c for c in arow]
        for k, col in enumerate(cols[g]):
            for r, c in col.items():
                for t in range(d):
                    block[r * d + t][k * d + t] += da * c
        rows += block
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
    ints, den = nullspace(_relation_rows(rho))
    if len(ints) != rho.size:
        raise DimensionMismatch(
            f"fixed space has dimension {len(ints)}, expected {rho.size}")
    basis = RationalFormBasis(rho, tuple(zip(*ints)), den)
    object.__setattr__(basis, "verified", True)
    # I: each vector's free column, its last nonzero entry, which is D
    object.__setattr__(basis, "_rows", [len(v) - 1 - v[::-1].index(den) for v in ints])
    return basis


def rational_form_from_vectors(rho: Representation,
                               vectors: Sequence[Sequence[FieldElement]]) -> RationalFormBasis:
    """Wrap explicitly given vectors as a rational form basis, verifying the
    defining relation for every group element and E-linear independence.

    Both checks run over Q on the flat matrix P.  The relation holds for
    all sigma once the generators' rows of _relation_rows annihilate P.
    Independence over Q is rank(P^T) = m (its rref's pivots are I), and that suffices
    (Speiser's lemma, Serre, Local Fields, Ch. X, section 1): take a shortest
    E-relation sum c_j v_j = 0 among fixed vectors with c_1 = 1.  Since
    (sigma(c) v)^sigma = c v^sigma, applying rho_sigma to it gives
    (sum sigma(c_j) v_j)^sigma = 0, so sum (sigma(c_j) - c_j) v_j = 0 is a
    shorter relation and must vanish: every c_j is fixed by the group,
    hence rational, and the relation is a Q-relation.
    """
    if not rho.verified:
        raise NotHomomorphism("requires a verified representation")
    m = rho.size
    if len(vectors) != m or any(len(v) != m for v in vectors):
        raise DimensionMismatch("need m vectors of length m")
    fp = rho.datum.fingerprint()
    if any(not isinstance(x, FieldElement) or x.datum.fingerprint() != fp
           for v in vectors for x in v):
        raise DatumMismatch("vector component from a different field")
    den = lcm(*(x.den for v in vectors for x in v))
    flat = [[u * (den // x.den) for x in v for u in x.nums] for v in vectors]
    basis = RationalFormBasis(rho, tuple(zip(*flat)), den)
    if any(any(row) for row in fl.mat_mul(_relation_rows(rho), basis.flat)):
        raise DimensionMismatch("vector violates rho_sigma(v) = v^sigma")
    if len(rows := fl.rref(flat)[1]) != m:
        raise DimensionMismatch("vectors are not linearly independent over E")
    object.__setattr__(basis, "verified", True)
    object.__setattr__(basis, "_rows", rows)
    return basis


def restricted_bracket_map(alg: LieAlgebra, datum: GaloisDatum) -> tuple[dict, int]:
    """(Integer bracket map, scale C) of L (x) E viewed over Q, on the md
    flat coordinates: [b_a theta^s, b_b theta^t] = sum_k c_ab^k theta^s
    theta^t b_k, so key (a*d + s, b*d + t) maps k*d + u to C c_ab^k
    T[s*d + t][u], C from integer_bracket_map and T the integer products
    theta^s theta^t off theta^s's multiplication rows (verified datum)."""
    (bmap, c), d = alg.integer_bracket_map(), datum.degree
    tensor = [col for s in range(d)
              for col in zip(*_multiplication_rows(datum, [int(t == s) for t in range(d)]))]
    return ({(a * d + s, b * d + t): {k * d + u: x * y for k, x in row.items()
                                     for u, y in enumerate(tensor[s * d + t]) if y}
             for (a, b), row in bmap.items() for s in range(d) for t in range(d)}, c)


def _coordinates(basis: RationalFormBasis, cols: list[dict], scale: int) -> list[dict]:
    """Q w_I / (e scale) for each sparse integer column w.  P has full
    column rank, so that solves P c = w / scale if P Q w_I = e w, and
    nothing does otherwise: fl.Inconsistent names the first such column."""
    q, e, pcols = basis.left_inverse()
    xs = _compose(q, cols)
    for n, (w, pw) in enumerate(zip(cols, _compose(pcols, xs))):
        if pw != {r: e * y for r, y in w.items() if y}:
            raise fl.Inconsistent(n)
    return [{k: Fraction(x, e * scale) for k, x in sorted(x.items())} for x in xs]


def structure_constants_on_form(basis: RationalFormBasis,
                                algebra: LieAlgebra | None = None) -> LieAlgebra:
    """Brackets of the basis vectors, re-expressed in the basis itself; all
    coordinates must come out rational, giving a Lie algebra over Q.

    Over E the coordinates of a bracket are unique, and they are rational
    exactly when its flattened column lies in the Q-span of P's columns,
    so the read-off gives them or names the first irrational bracket;
    restricted_bracket_map on P's integer columns gives S D^2 W.  The
    basis must come from a rational_form constructor (BadParameters).

    Jacobi is required of the input L, after the read-off: the output's
    constants are those of L (x) E in the basis b_1, ..., b_m, so the
    output satisfies Jacobi exactly when L does, and L's kept verdict is
    read (require_jacobi), not recomputed.
    """
    rho = basis.representation
    alg = algebra if algebra is not None else rho.algebra
    if alg is None:
        raise DimensionMismatch("no algebra attached to the representation")
    m = basis.size
    if alg.dim != m:
        raise DimensionMismatch("algebra dimension must match the form")
    cols = basis.left_inverse()[2]
    bmap, scale = restricted_bracket_map(alg, rho.datum)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    brackets = [_bracket(bmap, cols[i], cols[j]) for i, j in pairs]
    try:
        coords = _coordinates(basis, brackets, scale * basis.den)
    except fl.Inconsistent as e:
        i, j = pairs[e.column]
        raise IrrationalStructureConstant(
            f"bracket [{i},{j}] has an irrational coordinate") from None
    entries = [(i, j, k, x) for (i, j), col in zip(pairs, coords) for k, x in col.items()]
    require_jacobi(alg)
    return LieAlgebra(m, tuple(entries))


def transport(basis: RationalFormBasis, f: Sequence[Sequence]) -> RationalMatrix:
    """Rational matrix M of f in the rational-form basis B, f B = B M; int
    and Fraction entries of f are read as elements of the datum's field.

    B must come from rational_form or rational_form_from_vectors
    (BadParameters otherwise), so it spans the fixed space V over Q and E^m
    over E.  Reading M off the left inverse, from M_F P on ints, works exactly
    when f(V) lies in V; M_F's (i, k) block is the multiplication matrix of
    D_F x for x = f_ik, (D_F / D_x) M_x on x's kept rows (M_x, D_x), D_F the
    lcm of the D_x.  f(V) in V is the commutation relation f^sigma =
    rho_sigma f rho_sigma^-1 for every sigma: if it holds, (f v)^sigma =
    f^sigma v^sigma = rho_sigma f v for fixed v; conversely, if each f b is
    fixed, rho_sigma f b = (f b)^sigma = f^sigma rho_sigma b on the E-basis
    B.  The first inconsistent column raises CommutationViolation.
    """
    rho = basis.representation
    datum = rho.datum
    m, d = basis.size, datum.degree
    if len(f) != m or any(len(row) != m for row in f):
        raise DimensionMismatch("map size must match the form")
    _require_verified(datum)
    pcols = basis.left_inverse()[2]
    if any(isinstance(x, FieldElement) and x.datum.fingerprint() != datum.fingerprint()
           for row in f for x in row):
        raise DatumMismatch("map entry from a different field")
    nz = {(i, k): x if isinstance(x, FieldElement) else datum.element((x,))
          for i, row in enumerate(f) for k, x in enumerate(row) if x}
    kept = {key: x._scaled_multiplication_rows() for key, x in nz.items()}
    df = lcm(1, *(dx for _rows, dx in kept.values()))
    mf: list[dict] = [{} for _ in range(m * d)]  # M_F's sparse columns
    for (i, k), (rows, dx) in kept.items():
        for t, col in enumerate(zip(*rows)):
            mf[k * d + t].update({i * d + u: df // dx * y for u, y in enumerate(col) if y})
    try:
        sol = _coordinates(basis, _compose(mf, pcols), df)
    except fl.Inconsistent as e:
        raise CommutationViolation(
            f"f^sigma != rho f rho^-1: f moves basis vector {e.column} "
            "out of the rational form") from None
    zero = Fraction(0)  # one shared zero: RationalMatrix keeps Fractions as they are
    return RationalMatrix([[col.get(i, zero) for col in sol] for i in range(m)])


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
    """rho_sigma(V_lambda) = V_{sigma(lambda)} for each generator sigma of
    a verified rho (verified here if it is not), on rho's nonzero column
    entries: sigma(L_t) = L_i on the labels' integer pairs, the image
    formed by numfield._act from the matrix of sigma.  On success rho
    keeps la as _equivariant_labels, so a later caller with the same pair
    skips it."""
    datum = la.datum
    if rho.datum.fingerprint() != datum.fingerprint():
        raise DatumMismatch("representation and labels over different fields")
    if rho.size != la.dim:
        raise DimensionMismatch("representation size must match the labeled algebra")
    if not rho.verified:
        verify_representation(rho)
    cols = rho.columns()[0]
    labels = [(x.nums, x.den) for x in la.labels]
    for s in group_generators(datum):
        aut = automorphism_matrix(datum, s)
        for t, col in enumerate(cols[s]):
            image = _act(aut, labels[t])
            if any(labels[i] != image for i in col):
                raise LabelMismatch(f"group element {s} maps slot {t} outside V_sigma(label)")
    object.__setattr__(rho, "_equivariant_labels", la)


def extend_representation(la: LabeledAlgebra,
                          generator_maps: Mapping[int, Mapping[int, tuple[int, int]]],
                          ) -> Representation:
    """Extend signed permutations of the degree-1 generators to the whole
    basis by bracket equivariance, then certify the result.

    generator_maps: group element index -> {generator slot: (sign, slot)}.
    Signs on non-generator slots are derived from the brackets, which is
    where the minus signs of the cyclic constructions come from.  Each
    missing image is formed once, on sparse columns, from the first word
    that reaches it; verify_representation then checks each generator
    against every element.
    """
    datum = la.datum
    alg = la.algebra
    dim = la.dim
    gen_set = set(la.generators)
    # constants times C: [x, y] and c both scale by C, so x / c does not
    bmap = alg.integer_bracket_map()[0]
    single_target = [(i, j, k, c) for (i, j), row in bmap.items() if len(row) == 1
                     for k, c in row.items()]

    images = {datum.identity_index: [{j: Fraction(1)} for j in range(dim)]}
    for g, mapping in generator_maps.items():
        if not 0 <= g < datum.degree:
            raise BadParameters(f"group element {g} is out of range")
        cols: list[dict | None] = [None] * dim
        for gen, (sign, slot) in mapping.items():
            if gen not in gen_set:
                raise NotGenerating(f"slot {gen} is not a declared generator")
            if not 0 <= slot < dim:
                raise BadParameters(f"target slot {slot} is out of range")
            cols[gen] = {slot: Fraction(sign)} if sign else {}
        progress = True
        while progress:
            progress = False
            for (i, j, k, c) in single_target:
                if cols[i] is None or cols[j] is None:
                    continue
                derived = {r: x / c for r, x in _bracket(bmap, cols[i], cols[j]).items() if x}
                if cols[k] is None:
                    cols[k] = derived
                    progress = True
                elif cols[k] != derived:
                    raise ExtensionInconsistent(
                        f"slot {k} receives conflicting images under element {g}"
                    )
        if any(c is None for c in cols):
            missing = [i for i, c in enumerate(cols) if c is None]
            raise NotGenerating(f"brackets do not determine slots {missing}")
        images[g] = cols

    given, frontier = list(images), list(images)
    while frontier:
        a = frontier.pop()
        for b in given:
            idx = datum.table[a][b]
            if idx not in images:
                images[idx] = _compose(images[a], images[b])
                frontier.append(idx)
    if len(images) != datum.degree:
        raise NotGenerating("given group elements do not generate the group")

    zero = Fraction(0)  # one shared zero: RationalMatrix keeps Fractions as they are
    rho = verify_representation(Representation(datum, tuple(
        RationalMatrix([[col.get(i, zero) for col in images[g]] for i in range(dim)])
        for g in range(datum.degree)), alg))
    check_label_equivariance(la, rho)
    return rho


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
    if getattr(rho, "_equivariant_labels", None) is not la:
        check_label_equivariance(la, rho)
    if explicit_basis is not None:
        basis = rational_form_from_vectors(rho, explicit_basis)
    else:
        basis = rational_form(rho)
    algebra_q = structure_constants_on_form(basis, la.algebra)
    f = [[lam if i == j else 0 for j in range(la.dim)] for i, lam in enumerate(la.labels)]
    matrix = transport(basis, f)
    # restriction to a rational form keeps the label multiset, so the
    # charpoly is L = prod over slots of (X - label).  Each rho_sigma is
    # invertible and maps V_lambda into V_sigma(lambda), so the multiset is
    # Galois stable and the labels' own charpolys multiply to L^d; monic
    # d-th roots in Q[X] are unique, so the power check is charpoly = L
    labels_power = prod((lam.charpoly() for lam in la.labels), start=Polynomial.one())
    if matrix.charpoly() ** la.datum.degree != labels_power:
        raise EigenvalueMismatch("transported matrix lost the label eigenvalues")
    return algebra_q, matrix, basis
