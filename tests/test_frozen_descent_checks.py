"""rational_form, transport, verify_representation and is_automorphism
against the code they replaced.

rational_form stored its basis as E-vectors, built from the nullspace
rows as field elements, and cleared P / D from them; a basis is now P / D
alone, and its vectors are derived on read.  transport cleared the map's
nonzero entries to a common D_F and rebuilt a field element from each
cleared vector for its multiplication rows; it now scales each entry's
kept rows (M_x, D_x) by D_F / D_x.

transport used to certify f^sigma = rho_sigma f rho_sigma^-1 by an
integer loop over every group element before its solve; on a basis from
rational_form or rational_form_from_vectors the solve decides the same
relation, so the loop went and a basis built directly is refused.
verify_representation compared all d^2 image products; each generator
against every element suffices.  is_automorphism eliminated for a
determinant before its bracket check; it now runs the bracket check first
and reads invertibility off the charpoly the matrix keeps.  The frozen
copies below are those versions: the new code must give the same matrix
repr, or the same error type.

structure_constants_on_form and transport each solved [P | W] by
elimination, transport after a dense M_F P product; both now read the
coordinates off the basis's kept left inverse (Q, e), Q P_I = e 1, and
check P X = e W on P's sparse columns.  The solve-based versions are
frozen below too: the new code must give the same repr, or the same error
type with the same message, so the same first failing column.

The frozen copies eliminate over Fractions (test_fieldlinalg's ref_solve
and ref_nullspace), as solve and nullspace ran before they returned
integer rows over one denominator.
"""

import importlib.util
import json
import random
from dataclasses import fields, replace
from fractions import Fraction as F
from functools import partial
from math import lcm
from pathlib import Path

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms import exactmath, galoisform, recipes, serialize
from anosovforms.anosov import certify
from anosovforms.catalog import cubic_pisot_unit, cyclic_cubic_datum, sqrt2_datum
from anosovforms.errors import (
    BadParameters,
    CommutationViolation,
    DatumMismatch,
    DimensionMismatch,
    IrrationalStructureConstant,
    NotHomomorphism,
)
from anosovforms.exactmath import RationalMatrix
from anosovforms.galoisform import (
    RationalFormBasis,
    Representation,
    _compose,
    group_generators,
    rational_form,
    rational_form_from_vectors,
    restricted_bracket_map,
    structure_constants_on_form,
    transport,
    verify_representation,
)
from anosovforms.liealg import (
    Grading,
    LieAlgebra,
    _bracket,
    _support,
    heisenberg,
    is_automorphism,
    preserves_brackets,
    require_jacobi,
)
from anosovforms.numfield import FieldElement, _require_verified, automorphism_matrix
from anosovforms.pfaffian import dual_automorphism, scheuneman_dual
from test_acceptance import _z4_labeled
from test_fieldlinalg import ref_nullspace, ref_solve
from test_galoisform import (
    IrrationalEntry,
    _direct_basis,
    _flatten,
    _frozen_descent_cases,
    _outcome,
    _recipe_representations,
    block_sum,
    conjugated,
    random_invertible,
    regular_rep,
    trivial_rep,
)

# ---------------------------------------------------------------------------
# the frozen code
# ---------------------------------------------------------------------------


def commutation_loop_transport(basis, f):
    """transport with its integer commutation loop over every group
    element, then the solve; IrrationalEntry on an inconsistent column."""
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
    cols, den = rho.columns()
    zero = [0] * d
    for s in range(d):
        inv = datum.inverse_index(s)
        a, da = automorphism_matrix(datum, inv)
        lhs = {key: [den * den * x for x in fl.mat_vec(a, v)] for key, v in fz.items()}
        rf, rhs = {}, {}  # rf[j]: column j of R f as {i: d-vector}
        for (k, j), v in fz.items():
            col = rf.setdefault(j, {})
            for i, c in cols[s][k].items():
                col[i] = [x + c * y for x, y in zip(col.get(i, zero), v)]
        for j, col in enumerate(cols[inv]):
            for k, c in col.items():
                for i, v in rf.get(k, {}).items():
                    rhs[i, j] = [x + da * c * y for x, y in zip(rhs.get((i, j), zero), v)]
        if any(lhs.get(key, zero) != rhs.get(key, zero) for key in lhs.keys() | rhs.keys()):
            raise CommutationViolation(f"f^sigma != rho f rho^-1 for group element {s}")
    flat = basis.flat
    mf = [[0] * (m * d) for _ in range(m * d)]
    for (i, k), v in fz.items():
        for u, row in enumerate(datum.element(v)._scaled_multiplication_rows()[0]):
            mf[i * d + u][k * d:(k + 1) * d] = row
    try:
        sol = ref_solve(flat, list(zip(*fl.mat_mul(mf, flat))))
    except fl.Inconsistent as e:
        raise IrrationalEntry(
            f"transported column {e.column} has an irrational entry") from None
    return RationalMatrix([[x / df for x in row] for row in sol])


def cleared_rebuild_transport(basis, f):
    """transport as it built M_F: the nonzero entries cleared to a common
    D_F, and a field element rebuilt from each cleared vector for its
    multiplication rows."""
    rho = basis.representation
    datum = rho.datum
    m, d = basis.size, datum.degree
    if len(f) != m or any(len(row) != m for row in f):
        raise DimensionMismatch("map size must match the form")
    _require_verified(datum)
    if not basis.verified:
        raise BadParameters("transport needs a basis from a rational_form constructor")
    if any(isinstance(x, FieldElement) and x.datum.fingerprint() != datum.fingerprint()
           for row in f for x in row):
        raise DatumMismatch("map entry from a different field")
    nz = {(i, k): x if isinstance(x, FieldElement) else datum.element((x,))
          for i, row in enumerate(f) for k, x in enumerate(row) if x}
    vecs, df = fl.clear_denominators([x.coeffs for x in nz.values()])
    flat = basis.flat
    mf = [[0] * (m * d) for _ in range(m * d)]
    for (i, k), v in zip(nz, vecs):
        for u, row in enumerate(datum.element(v)._scaled_multiplication_rows()[0]):
            mf[i * d + u][k * d:(k + 1) * d] = row
    try:
        sol = ref_solve(flat, list(zip(*fl.mat_mul(mf, flat))))
    except fl.Inconsistent as e:
        raise CommutationViolation(
            f"f^sigma != rho f rho^-1: f moves basis vector {e.column} "
            "out of the rational form") from None
    return RationalMatrix([[x / df for x in row] for row in sol])


def solve_restricted_bracket_map(alg, datum):
    """restricted_bracket_map as it cleared the products theta^s theta^t
    to T / D_T and scaled by C D_T."""
    (bmap, c), d = alg.integer_bracket_map(), datum.degree
    tensor, dt = fl.clear_denominators([col for s in range(d) for col in zip(
        *datum.element([0] * s + [1])._scaled_multiplication_rows()[0])])
    return ({(a * d + s, b * d + t): {k * d + u: x * y for k, x in row.items()
                                     for u, y in enumerate(tensor[s * d + t]) if y}
             for (a, b), row in bmap.items() for s in range(d) for t in range(d)}, c * dt)


def solve_structure_constants_on_form(basis, algebra=None):
    """structure_constants_on_form as it solved [P | W] by elimination, on
    any basis (a rank-deficient one raised ZeroDivisionError)."""
    rho = basis.representation
    alg = algebra if algebra is not None else rho.algebra
    if alg is None:
        raise DimensionMismatch("no algebra attached to the representation")
    m = basis.size
    if alg.dim != m:
        raise DimensionMismatch("algebra dimension must match the form")
    bmap, scale = solve_restricted_bracket_map(alg, rho.datum)
    cols = [_support(col) for col in zip(*basis.flat)]
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    brackets = (_bracket(bmap, cols[i], cols[j]) for i, j in pairs)
    rhs = [[w.get(r, 0) for r in range(len(basis.flat))] for w in brackets]
    try:
        coords = ref_solve(basis.flat, rhs) if pairs else []
    except fl.Inconsistent as e:
        i, j = pairs[e.column]
        raise IrrationalStructureConstant(
            f"bracket [{i},{j}] has an irrational coordinate") from None
    entries = [(i, j, k, coords[k][col] / (scale * basis.den))
               for col, (i, j) in enumerate(pairs) for k in range(m) if coords[k][col]]
    require_jacobi(alg)
    return LieAlgebra(m, tuple(entries))


def solve_transport(basis, f):
    """transport as it formed the dense md x md M_F from the kept rows,
    multiplied it by P and solved [P | M_F P]."""
    rho = basis.representation
    datum = rho.datum
    m, d = basis.size, datum.degree
    if len(f) != m or any(len(row) != m for row in f):
        raise DimensionMismatch("map size must match the form")
    _require_verified(datum)
    if not basis.verified:
        raise BadParameters("transport needs a basis from a rational_form constructor")
    if any(isinstance(x, FieldElement) and x.datum.fingerprint() != datum.fingerprint()
           for row in f for x in row):
        raise DatumMismatch("map entry from a different field")
    nz = {(i, k): x if isinstance(x, FieldElement) else datum.element((x,))
          for i, row in enumerate(f) for k, x in enumerate(row) if x}
    kept = {key: x._scaled_multiplication_rows() for key, x in nz.items()}
    df = lcm(1, *(dx for _rows, dx in kept.values()))
    mf = [[0] * (m * d) for _ in range(m * d)]
    for (i, k), (rows, dx) in kept.items():
        for u, row in enumerate(rows):
            mf[i * d + u][k * d:(k + 1) * d] = [df // dx * y for y in row]
    try:
        sol = ref_solve(basis.flat, list(zip(*fl.mat_mul(mf, basis.flat))))
    except fl.Inconsistent as e:
        raise CommutationViolation(
            f"f^sigma != rho f rho^-1: f moves basis vector {e.column} "
            "out of the rational form") from None
    return RationalMatrix([[x / df for x in row] for row in sol])


def stored_vector_rational_form(rho):
    """rational_form as it stored E-vectors: (vectors, P, D), each
    nullspace row built into m field elements and P / D cleared from the
    rows."""
    if not rho.verified:
        raise NotHomomorphism("rational_form requires a verified representation")
    datum = rho.datum
    m, d = rho.size, datum.degree
    basis_flat = ref_nullspace(galoisform._relation_rows(rho))
    if len(basis_flat) != m:
        raise DimensionMismatch(f"fixed space has dimension {len(basis_flat)}, expected {m}")
    vectors = tuple(tuple(datum.element(flat[j * d:(j + 1) * d]) for j in range(m))
                    for flat in basis_flat)
    ints, den = fl.clear_denominators(basis_flat)
    return vectors, list(zip(*ints)), den


def all_pairs_verify_representation(rho):
    """verify_representation with D R_ij = R_i R_j on all d^2 pairs."""
    datum = rho.datum
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
    for i in range(d):
        for j in range(d):
            if scaled[datum.table[i][j]] != _compose(cols[i], cols[j]):
                raise NotHomomorphism(f"homomorphism fails at ({i},{j})")
    if rho.algebra is not None:
        for g in group_generators(datum):
            if not preserves_brackets(rho.algebra, cols[g], den):
                raise NotHomomorphism(f"image {g} is not a Lie algebra automorphism")
    object.__setattr__(rho, "verified", True)
    return rho


def determinant_first_is_automorphism(a, m):
    """is_automorphism as it ran on a LinearMap: the shape check, a
    determinant, then the bracket check."""
    if m.rows != a.dim or m.cols != a.dim:
        raise ValueError("matrix shape must match the algebra dimension")
    if fl.det([list(r) for r in m.entries]) == 0:
        return False
    rows, d = fl.clear_denominators(m.entries)
    return preserves_brackets(a, [_support(col) for col in zip(*rows)], d)


# ---------------------------------------------------------------------------
# transport
# ---------------------------------------------------------------------------


def _verdict(fn, *args):
    """repr of an accept, (error type, message) of a reject."""
    try:
        return repr(fn(*args))
    except Exception as e:  # noqa: BLE001 - the type and message are the verdict
        return type(e), str(e)


def _same_transport(basis, f):
    new = _outcome(transport, basis, f)
    assert new == _outcome(cleared_rebuild_transport, basis, f)
    assert new == _outcome(commutation_loop_transport, basis, f)
    assert _verdict(transport, basis, f) == _verdict(solve_transport, basis, f)
    return new


def _same_structure(basis, alg):
    new = _verdict(structure_constants_on_form, basis, alg)
    assert new == _verdict(solve_structure_constants_on_form, basis, alg)
    return new if isinstance(new, str) else new[0]


def _diagonal(la):
    zero = la.datum.zero()
    return tuple(tuple(la.labels[i] if i == j else zero for j in range(la.dim))
                 for i in range(la.dim))


def _perturbed(rng, f, theta, one):
    """f with one entry moved by theta or by 1."""
    i, j = rng.randrange(len(f)), rng.randrange(len(f))
    rows = [list(r) for r in f]
    rows[i][j] = rows[i][j] + (theta if rng.random() < 0.5 else one)
    return tuple(map(tuple, rows))


def _construction(run):
    """(la, rho, explicit basis, output) of the one construction run makes."""
    seen = []
    real = recipes.main2_construct

    def spy(la, rho, explicit_basis=None):
        seen.append((la, rho, explicit_basis))
        return real(la, rho, explicit_basis)

    recipes.main2_construct = spy
    try:
        out = run()
    finally:
        recipes.main2_construct = real
    ((la, rho, explicit),) = seen
    return la, rho, explicit, out


def _last(c):
    datum = cyclic_cubic_datum()
    return recipes.recipe_last(datum, cubic_pisot_unit(datum), c)


# the deep_class workload's recipes
DEEP_CLASS = {**{f"last{c}": partial(_last, c) for c in (4, 5, 6)},
              **{f"csig{c}": partial(recipes.recipe_csig_default, c) for c in (3, 4)}}


class TestTransport:
    @pytest.mark.parametrize("group", ["z2", "klein", "z4"])
    def test_verified_bases_of_random_representations(self, group, sqrt2, biquad52, quartic):
        datum = {"z2": sqrt2, "klein": biquad52, "z4": quartic}[group]
        verdicts = set()
        for basis, _algebras, mat, f, moved, scaled in _frozen_descent_cases(datum, group):
            assert basis.verified
            assert _same_transport(basis, f) == repr(mat)
            for g in (moved, scaled):
                verdicts.add(_same_transport(basis, g))
        for basis in (rational_form(trivial_rep(datum, 3)), rational_form(regular_rep(datum))):
            theta, one = datum.generator(), datum.one()
            m = basis.size
            eye = tuple(tuple(one if i == j else 0 for j in range(m)) for i in range(m))
            rng = random.Random(4100 + m)
            verdicts.add(_same_transport(basis, eye))
            for _ in range(8):
                verdicts.add(_same_transport(basis, _perturbed(rng, eye, theta, one)))
        assert CommutationViolation in verdicts

    def test_acceptance_perturbations(self):
        datum, la, rho = _z4_labeled()
        basis = rational_form(rho)
        f = _diagonal(la)
        assert isinstance(_same_transport(basis, f), str)
        rng = random.Random(77)
        theta, one = datum.generator(), datum.one()
        for _ in range(50):
            assert _same_transport(basis, _perturbed(rng, f, theta, one)) is CommutationViolation

    @pytest.mark.parametrize("name", sorted(DEEP_CLASS))
    def test_deep_class_diagonal_maps(self, name):
        la, rho, explicit, out = _construction(DEEP_CLASS[name])
        basis = (rational_form_from_vectors(rho, explicit) if explicit is not None
                 else rational_form(rho))
        f = _diagonal(la)
        assert _same_transport(basis, f) == repr(out.matrix)
        rng = random.Random(name)
        theta, one = la.datum.generator(), la.datum.one()
        verdicts = [_same_transport(basis, _perturbed(rng, f, theta, one)) for _ in range(6)]
        assert CommutationViolation in verdicts
        # the same vectors wrapped directly: the frozen code accepted them
        direct = _direct_basis(rho, basis.vectors)
        assert _outcome(commutation_loop_transport, direct, f) == repr(out.matrix)
        assert _outcome(cleared_rebuild_transport, direct, f) is BadParameters
        with pytest.raises(BadParameters):
            transport(direct, f)

    def test_directly_built_basis_is_refused(self, sqrt2):
        basis = rational_form(regular_rep(sqrt2))
        abelian = LieAlgebra(2, ())
        for direct in (_direct_basis(basis.representation, basis.vectors),
                       RationalFormBasis(basis.representation, basis.flat, basis.den),
                       replace(basis)):
            assert direct == basis and not direct.verified
            assert _outcome(transport, direct, ((1, 0), (0, 1))) is BadParameters
            # the solve-based code accepted an unverified basis here
            assert _outcome(structure_constants_on_form, direct, abelian) is BadParameters
            assert _outcome(solve_structure_constants_on_form, direct, abelian) == repr(abelian)
            with pytest.raises(BadParameters):
                direct.left_inverse()
        assert transport(basis, ((1, 0), (0, 1))) == RationalMatrix.identity(2)
        assert structure_constants_on_form(basis, abelian) == abelian

    def test_rank_deficient_basis_is_refused(self, sqrt2):
        # the solve-based code raised a bare ZeroDivisionError on it
        rho = regular_rep(sqrt2)
        zero = RationalFormBasis(rho, ((0, 0),) * 4, 1)
        abelian = LieAlgebra(2, ())
        assert _outcome(solve_structure_constants_on_form, zero, abelian) is ZeroDivisionError
        assert _outcome(structure_constants_on_form, zero, abelian) is BadParameters
        assert _outcome(transport, zero, ((1, 0), (0, 1))) is BadParameters


# ---------------------------------------------------------------------------
# rational_form
# ---------------------------------------------------------------------------


def _laur():
    datum = sqrt2_datum()
    return recipes.recipe_laur(heisenberg(), Grading((2, 1)), datum, datum.element([1, 1]))


# the paper_examples workload's recipes; the pairs are its (4,2) sweep
PAPER_EXAMPLES = {
    "z4": recipes.recipe_z4_example,
    **{f"count{k},{l}": partial(recipes.recipe_count, k, l)
       for k, l in ((2, 3), (3, 2), (5, 2), (6, 5), (7, 2), (10, 3), (11, 2))},
    **{f"csig{c}": partial(recipes.recipe_csig_default, c) for c in (2, 3)},
    **{f"last{c}": partial(_last, c) for c in (2, 3)},
    "laur": _laur,
}


def _same_form(rho, explicit=None):
    """The basis against the stored-vector code: the derived vectors repr
    for repr, and the same P / D."""
    if explicit is None:
        new = rational_form(rho)
        vectors, flat, den = stored_vector_rational_form(rho)
    else:
        new = rational_form_from_vectors(rho, explicit)
        vectors = tuple(tuple(v) for v in explicit)
        ints, den = fl.clear_denominators([_flatten(v) for v in vectors])
        flat = list(zip(*ints))
    assert repr(new.vectors) == repr(vectors)
    assert new.flat == tuple(flat) and new.den == den
    return new


class TestRationalForm:
    @pytest.mark.parametrize("name", sorted({**PAPER_EXAMPLES, **DEEP_CLASS}))
    def test_recipe_bases(self, name):
        la, rho, explicit, out = _construction({**PAPER_EXAMPLES, **DEEP_CLASS}[name])
        basis = _same_form(rho)
        if explicit is not None:
            basis = _same_form(rho, explicit)
        assert _same_form(rho, basis.vectors) == basis
        assert repr(transport(basis, _diagonal(la))) == repr(out.matrix)

    @pytest.mark.parametrize("group", ["z2", "klein", "z4"])
    def test_conjugated_representations(self, group, sqrt2, biquad52, quartic):
        datum = {"z2": sqrt2, "klein": biquad52, "z4": quartic}[group]
        dens = set()
        for basis, *_ in _frozen_descent_cases(datum, group):
            rho = basis.representation
            assert _same_form(rho) == basis
            assert _same_form(rho, basis.vectors) == basis
            dens.add(basis.den)
        assert len(dens) > 1
        unverified = Representation(datum, rho.images)
        assert _outcome(rational_form, unverified) is NotHomomorphism
        assert _outcome(stored_vector_rational_form, unverified) is NotHomomorphism

    def test_vectors_are_derived_on_read(self, sqrt2):
        basis = rational_form(regular_rep(sqrt2))
        assert [f.name for f in fields(basis) if f.init] == ["representation", "flat", "den"]
        assert basis.vectors == basis.vectors and basis.vectors is not basis.vectors
        with pytest.raises(AttributeError):
            basis.vectors = ()
        assert hash(basis) == hash(RationalFormBasis(basis.representation, basis.flat, basis.den))


# ---------------------------------------------------------------------------
# the left inverse and the read-off
# ---------------------------------------------------------------------------


CONSTRUCTIONS = {**PAPER_EXAMPLES, **DEEP_CLASS}


def _check_left_inverse(basis):
    """Q P_I = e 1 on the kept (Q, e, C), Q as one sparse column per row of
    P, empty off I, and C P's sparse columns; on a nullspace basis I is the
    last nonzero row of each column, Q = 1 and e = D.  Returns e."""
    q, e, cols = basis.left_inverse()
    rows, m = [r for r, col in enumerate(q) if col], basis.size
    assert len(q) == len(basis.flat) and len(rows) == m and e > 0
    product = [[sum(q[r].get(j, 0) * basis.flat[r][k] for r in rows) for k in range(m)]
               for j in range(m)]
    assert product == [[e if j == k else 0 for k in range(m)] for j in range(m)]
    assert cols == [_support(col) for col in zip(*basis.flat)]
    assert basis.left_inverse() is basis.left_inverse()
    return e


def _check_nullspace_left_inverse(basis):
    q, e, _cols = basis.left_inverse()
    assert e == basis.den
    free = {max(r for r, x in enumerate(col) if x): j for j, col in enumerate(zip(*basis.flat))}
    assert q == [{free[r]: 1} if r in free else {} for r in range(len(basis.flat))]
    return _check_left_inverse(basis)


def _moved_target(rng, alg):
    """alg with one bracket's target slot moved to another slot."""
    entries = list(alg.brackets)
    n = rng.randrange(len(entries))
    i, j, k, c = entries[n]
    entries[n] = (i, j, rng.choice([x for x in range(alg.dim) if x != k]), c)
    return LieAlgebra(alg.dim, tuple(entries))


class TestReadOff:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_recipe_constructions(self, name):
        la, rho, explicit, out = _construction(CONSTRUCTIONS[name])
        bases = [rational_form(rho)]
        _check_nullspace_left_inverse(bases[0])
        if explicit is not None:
            bases.append(rational_form_from_vectors(rho, explicit))
            _check_left_inverse(bases[-1])
        rng = random.Random(f"read-off/{name}")
        theta, one = la.datum.generator(), la.datum.one()
        f = _diagonal(la)
        verdicts = set()
        for basis in bases:
            algebra_q, matrix = _same_structure(basis, la.algebra), _same_transport(basis, f)
            if basis is bases[-1]:
                assert (algebra_q, matrix) == (repr(out.algebra), repr(out.matrix))
            for _ in range(6):
                verdicts.add(_same_transport(basis, _perturbed(rng, f, theta, one)))
            if la.algebra.brackets:
                for _ in range(3):
                    verdicts.add(_same_structure(basis, _moved_target(rng, la.algebra)))
        assert CommutationViolation in verdicts

    @pytest.mark.parametrize("group", ["z2", "klein", "z4"])
    def test_conjugated_representations(self, group, sqrt2, biquad52, quartic):
        datum = {"z2": sqrt2, "klein": biquad52, "z4": quartic}[group]
        verdicts, dens, moved_rows = set(), set(), set()
        for basis, algebras, mat, f, moved, scaled in _frozen_descent_cases(datum, group):
            dens.add(_check_nullspace_left_inverse(basis))
            # the same vectors wrapped: I is the pivot rows of rref(P^T), which
            # need not be the free columns, and then Q / e comes from a solve
            wrapped = rational_form_from_vectors(basis.representation, basis.vectors)
            dens.add(_check_left_inverse(wrapped))
            moved_rows.add(wrapped.left_inverse()[0] != basis.left_inverse()[0])
            for b in (basis, wrapped):
                for alg in algebras:
                    verdicts.add(_same_structure(b, alg))
                assert _same_transport(b, f) == repr(mat)
                for g in (moved, scaled):
                    verdicts.add(_same_transport(b, g))
        assert {IrrationalStructureConstant, CommutationViolation} <= verdicts
        assert len(dens) > 2 and True in moved_rows

    def test_irrational_structure_constant(self, sqrt2):
        # [v1, v2] = -2 sqrt2 b_1 has coordinates sqrt2 * (1, 0) in the
        # form (1, 1), (sqrt2, -sqrt2)
        basis = rational_form(regular_rep(sqrt2))
        alg = LieAlgebra(2, ((0, 1, 1, 1),))
        expected = (IrrationalStructureConstant, "bracket [0,1] has an irrational coordinate")
        assert _verdict(structure_constants_on_form, basis, alg) == expected
        assert _verdict(solve_structure_constants_on_form, basis, alg) == expected

    def test_restricted_bracket_map_clears_nothing(self, sqrt2, biquad52, quartic, monkeypatch):
        algebras = [heisenberg(), LieAlgebra(3, ((0, 1, 2, F(3, 2)),)),
                    LieAlgebra(4, ((0, 1, 2, F(1, 3)), (0, 2, 3, F(-5, 2))))]
        for datum in (sqrt2, biquad52, quartic):
            for alg in algebras:
                frozen = solve_restricted_bracket_map(alg, datum)
                calls = []
                monkeypatch.setattr(fl, "clear_denominators",
                                    lambda rows, real=fl.clear_denominators:
                                    calls.append(1) or real(rows))
                assert restricted_bracket_map(alg, datum) == frozen and not calls
                monkeypatch.undo()


# ---------------------------------------------------------------------------
# verify_representation
# ---------------------------------------------------------------------------


FIELDS = ["sqrt2", "cubic", "quartic", "biquad52"]


def _base_representations(datum, rng):
    yield regular_rep(datum)
    yield conjugated(regular_rep(datum), random_invertible(rng, datum.degree))
    yield block_sum(regular_rep(datum), trivial_rep(datum, 1))


def _corrupted(rho, rng):
    """(kind, images): one entry changed, two images swapped, and a
    non-generator image (the identity's when every other element is a
    generator) replaced by another image or by a random matrix."""
    datum, images = rho.datum, list(rho.images)
    d, m = datum.degree, rho.size
    g = rng.randrange(d)
    i, j = rng.randrange(m), rng.randrange(m)
    rows = [list(r) for r in images[g].entries]
    rows[i][j] += F(rng.choice((-1, 1)), rng.randint(1, 3))
    yield "entry", images[:g] + [RationalMatrix(rows)] + images[g + 1:]
    a, b = rng.sample(range(d), 2)
    swapped = list(images)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    yield "swap", swapped
    gens = group_generators(datum)
    others = [h for h in range(d) if h not in gens]
    h = rng.choice([x for x in others if x != datum.identity_index] or others)
    for new in (images[rng.choice([x for x in range(d) if x != h])],
                random_invertible(rng, m)):
        yield "non-generator", images[:h] + [new] + images[h + 1:]


class TestVerifyRepresentation:
    @pytest.mark.parametrize("name", FIELDS)
    def test_corrupted_representations(self, name, sqrt2, cubic, quartic, biquad52):
        datum = {"sqrt2": sqrt2, "cubic": cubic, "quartic": quartic, "biquad52": biquad52}[name]
        rng = random.Random(f"verify/{name}")
        kinds = set()
        for rho in _base_representations(datum, rng):
            cases = [("intact", list(rho.images))] + list(_corrupted(rho, rng))
            for kind, images in cases:
                new = _outcome(verify_representation, Representation(datum, tuple(images)))
                old = _outcome(all_pairs_verify_representation,
                               Representation(datum, tuple(images)))
                assert new == old, (kind, new, old)
                kinds.add((kind, new if isinstance(new, type) else "accept"))
        assert {("intact", "accept"), ("entry", NotHomomorphism), ("swap", NotHomomorphism),
                ("non-generator", NotHomomorphism)} <= kinds

    @pytest.mark.parametrize("index", range(5))
    def test_recipe_representations_with_algebras(self, index):
        name, _la, _maps, rho = _recipe_representations()[index]
        rng = random.Random(f"recipe/{name}")
        cases = [list(rho.images)] + [images for _kind, images in _corrupted(rho, rng)]
        for images in cases:
            assert _outcome(verify_representation,
                            Representation(rho.datum, tuple(images), rho.algebra)) == \
                _outcome(all_pairs_verify_representation,
                         Representation(rho.datum, tuple(images), rho.algebra))

    @pytest.mark.parametrize("name", FIELDS)
    def test_compose_runs_once_per_generator_and_element(self, name, monkeypatch, sqrt2,
                                                        cubic, quartic, biquad52):
        datum = {"sqrt2": sqrt2, "cubic": cubic, "quartic": quartic, "biquad52": biquad52}[name]
        calls = []
        monkeypatch.setattr(galoisform, "_compose", lambda *a: calls.append(1) or _compose(*a))
        rho = regular_rep(datum)
        fresh = Representation(datum, rho.images)
        calls.clear()
        verify_representation(fresh)
        assert fresh.verified
        assert len(calls) == len(group_generators(datum)) * datum.degree
        assert len(calls) == (2 * 4 if name == "biquad52" else datum.degree)


# ---------------------------------------------------------------------------
# is_automorphism and certify
# ---------------------------------------------------------------------------


def _bench_generate():
    """bench/generate.py, which builds the certify_dense inputs without the
    library."""
    path = Path(__file__).resolve().parents[1] / "bench" / "generate.py"
    spec = importlib.util.spec_from_file_location("bench_generate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _dense_cases(seed):
    """(kind, algebra, map) for the certify_dense certify inputs."""
    for item in _bench_generate().dense_inputs(seed):
        if item["map"] is not None:
            yield (item["kind"], serialize.algebra_from_json(json.loads(item["algebra"])),
                   serialize.map_from_json(json.loads(item["map"])))


def _same_verdict(a, m):
    new = is_automorphism(a, RationalMatrix(m.entries))
    assert new == determinant_first_is_automorphism(a, RationalMatrix(m.entries))
    return new


class _Counter:
    """Counts the calls of fl.det, fl.solve, fl.mat_mul and
    exactmath.charpoly."""

    def __init__(self, monkeypatch):
        self.det = self.solve = self.mat_mul = self.charpoly = 0
        for module, name in ((fl, "det"), (fl, "solve"), (fl, "mat_mul"),
                             (exactmath, "charpoly")):
            monkeypatch.setattr(module, name, self._counted(name, getattr(module, name)))

    def _counted(self, name, real):
        def counted(*a):
            setattr(self, name, getattr(self, name) + 1)
            return real(*a)
        return counted


class TestIsAutomorphism:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certify_dense_inputs(self, seed):
        rng = random.Random(4300 + seed)
        expected = {"accept": True, "perturbed": False, "nonhyperbolic": True}
        for kind, a, m in _dense_cases(seed):
            assert _same_verdict(a, m) is expected[kind]
            n = a.dim
            for _ in range(3):
                rows = [list(r) for r in m.entries]
                rows[rng.randrange(n)][rng.randrange(n)] += F(rng.choice((-1, 1)), 3)
                _same_verdict(a, RationalMatrix(rows))
            zero = RationalMatrix([[0] * n for _ in range(n)])
            # the zero map preserves every bracket but is singular
            assert preserves_brackets(a, [{} for _ in range(n)], 1)
            assert _same_verdict(a, zero) is False

    def test_shape_mismatch(self):
        a, m = next((a, m) for _kind, a, m in _dense_cases(1))
        bigger = RationalMatrix.identity(a.dim + 1)
        for check in (is_automorphism, determinant_first_is_automorphism):
            with pytest.raises(ValueError, match="shape"):
                check(a, bigger)

    def test_bracket_failure_costs_no_elimination(self, monkeypatch):
        cases = {kind: (a, m) for kind, a, m in _dense_cases(1)}
        count = _Counter(monkeypatch)
        a, m = cases["perturbed"]
        assert not is_automorphism(a, RationalMatrix(m.entries))
        assert (count.det, count.charpoly) == (0, 0)
        a, m = cases["accept"]
        fresh = RationalMatrix(m.entries)
        assert is_automorphism(a, fresh)
        assert (count.det, count.charpoly) == (0, 1)
        # certify reads the charpoly is_automorphism kept
        cert = certify(a, fresh)
        assert (count.det, count.charpoly) == (0, 1) and cert.charpoly == fresh.charpoly()

    def test_recipe_last_construct_takes_no_determinant(self, monkeypatch):
        count = _Counter(monkeypatch)
        out = _last(4)
        assert out.certificate.hyperbolic
        # one charpoly for the eigenvalue check, which certify reads again;
        # the structure constants and the map are read off the nullspace
        # basis's left inverse, with no solve and no matrix product
        assert (count.det, count.charpoly) == (0, 1)
        assert (count.solve, count.mat_mul) == (0, 0)

    def test_dual_map_keeps_its_charpoly_for_certify(self, monkeypatch):
        out = recipes.recipe_count(5, 2)
        alpha = out.matrix.submatrix(range(4), range(4))
        dual = scheuneman_dual(out.algebra)
        _ext, dual_map = dual_automorphism(alpha, out.algebra, dual)
        count = _Counter(monkeypatch)
        cert = certify(dual, dual_map)
        assert (count.det, count.charpoly) == (0, 0)
        assert cert.charpoly == dual_map.charpoly()
