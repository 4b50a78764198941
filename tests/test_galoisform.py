import functools
import math
import random
from collections import Counter, namedtuple
from dataclasses import replace
from fractions import Fraction as F

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms import galoisform as galoisform_module
from anosovforms import recipes
from anosovforms.catalog import cubic_pisot_unit, cyclic_cubic_datum
from anosovforms.errors import (
    BadParameters,
    CommutationViolation,
    DatumMismatch,
    DimensionMismatch,
    EigenvalueMismatch,
    ExtensionInconsistent,
    IrrationalStructureConstant,
    JacobiViolation,
    LabelMismatch,
    NonUnitLabel,
    NotGenerating,
    NotHomomorphism,
)
from anosovforms.exactmath import Polynomial, RationalMatrix
from anosovforms.galoisform import (
    LabeledAlgebra,
    RationalFormBasis,
    Representation,
    automorphism_matrix,
    build_labeled_algebra,
    check_label_eigenvalues,
    check_label_equivariance,
    extend_representation,
    group_generators,
    main2_construct,
    rational_form,
    rational_form_from_vectors,
    restricted_bracket_map,
    right_action,
    structure_constants_on_form,
    transport,
    verify_representation,
)
from anosovforms.liealg import (
    LieAlgebra,
    _bracket,
    Grading,
    _support,
    heisenberg,
    is_automorphism,
    require_jacobi,
)
from anosovforms.numfield import GaloisDatum, apply_automorphism, minimal_polynomial
from test_exactmath import diagonal
from test_fieldlinalg import _dense_det, _dense_rref
from test_liealg import frozen_bracket_map


def _flatten(v):
    """The m*d power-basis coordinates of a vector in E^m."""
    return [c for x in v for c in x.coeffs]


def _direct_basis(rho, vectors):
    """An unverified basis built directly from E-vectors: their flat
    coordinates cleared to P / D."""
    ints, den = fl.clear_denominators([_flatten(v) for v in vectors])
    return RationalFormBasis(rho, tuple(zip(*ints)), den)


def _basis_matrix(basis):
    """The m x m matrix over E whose columns are the basis vectors."""
    vecs = basis.vectors
    return [[v[i] for v in vecs] for i in range(len(vecs))]


class IrrationalEntry(Exception):
    """Stand-in for the error the frozen references raise on an irrational
    entry; the library's transport decides the same case by its solve."""


def frozen_labels_charpoly(la):
    """prod over slots of (X - label), expanded in E[X] and certified to
    collapse to a rational polynomial: the eigenvalue check's reference."""
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


def _satisfies_defining_relation(rho, v):
    """rho_sigma(v) = v^sigma for every group element, over the field."""
    datum = rho.datum
    for s in range(datum.degree):
        lhs = fl.mat_vec(rho.images[s].entries, list(v))
        rhs = right_action(datum, s, v)
        if any(not a == b for a, b in zip(lhs, rhs)):
            return False
    return True


def trivial_rep(datum, m):
    eye = RationalMatrix.identity(m)
    return verify_representation(
        Representation(datum, tuple(eye for _ in range(datum.degree)))
    )


def regular_rep(datum):
    d = datum.degree
    images = []
    for g in range(d):
        mat = [[F(0)] * d for _ in range(d)]
        for h in range(d):
            mat[datum.table[g][h]][h] = F(1)
        images.append(RationalMatrix(mat))
    return verify_representation(Representation(datum, tuple(images)))


def conjugated(rep, t: RationalMatrix):
    tinv = t.inverse()
    return verify_representation(Representation(
        rep.datum, tuple(t * im * tinv for im in rep.images), rep.algebra
    ))


def block_sum(rep1, rep2):
    assert rep1.datum is rep2.datum
    m1, m2 = rep1.size, rep2.size
    images = []
    for a, b in zip(rep1.images, rep2.images):
        mat = [[F(0)] * (m1 + m2) for _ in range(m1 + m2)]
        for i in range(m1):
            for j in range(m1):
                mat[i][j] = a[i, j]
        for i in range(m2):
            for j in range(m2):
                mat[m1 + i][m1 + j] = b[i, j]
        images.append(RationalMatrix(mat))
    return verify_representation(Representation(rep1.datum, tuple(images)))


def random_invertible(rng, m):
    while True:
        t = RationalMatrix(
            [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(m)]
             for _ in range(m)]
        )
        if t.det() != 0:
            return t


class TestRightAction:
    def test_identity(self, sqrt2):
        v = (sqrt2.element([1, 2]), sqrt2.element([0, 1]))
        assert right_action(sqrt2, 0, v) == v

    def test_involution(self, sqrt2):
        v = (sqrt2.element([0, 1]), sqrt2.one())
        out = right_action(sqrt2, 1, v)
        assert out == (sqrt2.element([0, -1]), sqrt2.one())

    def test_composition_rule(self, quartic):
        rng = random.Random(3)
        v = tuple(
            quartic.element([rng.randint(-3, 3) for _ in range(4)])
            for _ in range(2)
        )
        for s in range(4):
            for t in range(4):
                once = right_action(quartic, t, right_action(quartic, s, v))
                combined = right_action(quartic, quartic.table[s][t], v)
                assert once == combined

    def test_twisted_linearity(self, sqrt2):
        # (sigma(c) x)^sigma = c x^sigma
        c = sqrt2.element([1, 1])
        x = (sqrt2.element([2, 3]),)
        lhs = right_action(sqrt2, 1, (apply_automorphism(sqrt2, 1, c) * x[0],))
        rhs = (c * right_action(sqrt2, 1, x)[0],)
        assert lhs == rhs

    def test_out_of_range_index(self, sqrt2):
        # -1 used to act as the last automorphism, 2 to raise IndexError
        v = (sqrt2.element([1, 1]),)
        for index in (-1, 2):
            with pytest.raises(BadParameters, match="out of range"):
                right_action(sqrt2, index, v)

    def test_unverified_datum_without_table(self, sqrt2):
        # a datum built with table=None used to raise a bare TypeError here
        raw = GaloisDatum(sqrt2.min_poly, sqrt2.automorphisms, 0, None,
                          sqrt2.root_enclosures)
        with pytest.raises(BadParameters, match="verified"):
            right_action(raw, 1, (raw.element([1, 1]),))


class TestRationalForm:
    def test_trivial_rep(self, sqrt2):
        rho = trivial_rep(sqrt2, 3)
        basis = rational_form(rho)
        assert basis.size == 3
        for i, v in enumerate(basis.vectors):
            for j, x in enumerate(v):
                assert x == (1 if i == j else 0)

    def test_regular_rep_z2(self, sqrt2):
        rho = regular_rep(sqrt2)
        basis = rational_form(rho)
        assert basis.size == 2
        # the fixed space is spanned by (sigma(x) on each slot): for x = 1
        # that is (1,1); for x = sqrt2 it is (sqrt2, -sqrt2)
        v1 = (sqrt2.one(), sqrt2.one())
        v2 = (sqrt2.element([0, 1]), sqrt2.element([0, -1]))
        rational_form_from_vectors(rho, [v1, v2])  # must verify cleanly

    def test_regular_rep_z4(self, quartic):
        rho = regular_rep(quartic)
        assert rational_form(rho).size == 4

    def test_wrong_dimension_detected(self, sqrt2):
        # a homomorphism that is NOT Galois-compatible cannot be rational;
        # build a rational rep then break it by scaling one image
        bad = Representation(
            sqrt2,
            (RationalMatrix.identity(1), RationalMatrix([[F(-1)]])),
        )
        bad = verify_representation(bad)
        # v^sigma = sigma^{-1}(v), rho_sigma(v) = -v: only v = a + b sqrt2
        # with conjugate = -v: v in sqrt2 * Q: dimension 1 = m, still fine!
        basis = rational_form(bad)
        assert basis.size == 1
        assert basis.vectors[0][0] == sqrt2.element([0, 1])

    def test_replaced_representation_is_unverified(self, sqrt2):
        # a copy with other images used to keep verified=True and got past
        # rational_form's gate, failing later with DimensionMismatch
        rho = regular_rep(sqrt2)
        two = RationalMatrix.identity(2) * 2
        copy = replace(rho, images=(RationalMatrix.identity(2), two))
        assert rho.verified and not copy.verified
        with pytest.raises(NotHomomorphism):
            rational_form(copy)
        with pytest.raises(NotHomomorphism):
            verify_representation(copy)

    def test_verify_needs_a_verified_datum(self, sqrt2):
        # table=None used to raise a bare TypeError, and a replace() copy
        # of the datum used to come back as a verified representation
        eye = RationalMatrix.identity(2)
        swap = RationalMatrix([[0, 1], [1, 0]])
        for raw in (GaloisDatum(sqrt2.min_poly, sqrt2.automorphisms, 0, None,
                                sqrt2.root_enclosures), replace(sqrt2)):
            rho = Representation(raw, (eye, swap))
            with pytest.raises(BadParameters, match="verified"):
                verify_representation(rho)
            assert not rho.verified
        assert verify_representation(Representation(sqrt2, (eye, swap))).verified

    def test_explicit_basis_rejected_if_not_fixed(self, sqrt2):
        rho = regular_rep(sqrt2)
        bad = (sqrt2.one(), sqrt2.element([0, 1]))
        with pytest.raises(DimensionMismatch):
            rational_form_from_vectors(rho, [bad, bad])


class TestPropGC:
    """Every rational representation is Galois compatible."""

    @pytest.mark.parametrize("group", ["z2", "klein", "z4"])
    def test_random_conjugates(self, group, sqrt2, biquad52, quartic):
        datum = {"z2": sqrt2, "klein": biquad52, "z4": quartic}[group]
        rng = random.Random(hash(group) % 10 ** 6)
        base = regular_rep(datum)
        for _ in range(8):
            rep = base
            if rng.random() < 0.5 and 2 * base.size <= 6:
                rep = block_sum(base, trivial_rep(datum, 1))
            t = random_invertible(rng, rep.size)
            rep = conjugated(rep, t)
            basis = rational_form(rep)
            assert basis.size == rep.size


class TestLemmaSom:
    def test_direct_sum_form(self, sqrt2):
        r1 = regular_rep(sqrt2)
        r2 = trivial_rep(sqrt2, 2)
        s = block_sum(r1, r2)
        b1 = rational_form(r1)
        b2 = rational_form(r2)
        bs = rational_form(s)
        assert bs.size == b1.size + b2.size
        # block vectors from the component forms satisfy the sum's relation
        zero2 = (sqrt2.zero(), sqrt2.zero())
        padded = [tuple(v) + zero2 for v in b1.vectors]
        padded += [zero2 + tuple(v) for v in b2.vectors]
        rational_form_from_vectors(s, padded)
        # and span the same rational subspace: identical canonical bases of
        # the flattened coordinate model
        from anosovforms import _fieldlinalg as fl

        def flat(vectors):
            return [[c for x in v for c in x.coeffs] for v in vectors]

        assert fl.span_rref(flat(padded)) == fl.span_rref(flat(bs.vectors))


class TestStructureConstants:
    def test_trivial_rep_heisenberg(self, sqrt2):
        h = heisenberg()
        rho = verify_representation(Representation(
            sqrt2, tuple(RationalMatrix.identity(3) for _ in range(2)), h
        ))
        basis = rational_form(rho)
        out = structure_constants_on_form(basis)
        assert out.brackets == h.brackets

    def test_form_vectors_with_denominators(self, sqrt2):
        # the flat brackets of P's cleared columns carry the scale S D^2
        h = heisenberg()
        rho = verify_representation(Representation(
            sqrt2, tuple(RationalMatrix.identity(3) for _ in range(2)), h
        ))
        one, zero = sqrt2.one(), sqrt2.zero()
        basis = rational_form_from_vectors(
            rho, [(one * F(1, 2), zero, zero), (zero, one * F(1, 3), zero), (zero, zero, one)])
        out = structure_constants_on_form(basis)
        assert out.brackets == ((0, 1, 2, F(1, 6)),)
        assert repr(out) == _outcome(frozen_structure_constants_on_form, basis)

    def test_non_jacobi_input_is_rejected(self, sqrt2):
        # [b0, b1] = b2, [b0, b2] = b0: the Jacobi sum on (0, 1, 2) is -b2;
        # the trivial form reproduces the constants, so only the check on
        # the input algebra stands between them and a returned algebra
        bad = LieAlgebra(3, ((0, 1, 2, 1), (0, 2, 0, 1)))
        basis = rational_form(trivial_rep(sqrt2, 3))
        with pytest.raises(JacobiViolation):
            structure_constants_on_form(basis, bad)
        assert _outcome(frozen_structure_constants_on_form, basis, bad) is JacobiViolation

    def test_algebra_dimension_must_match_the_form(self, sqrt2):
        # a larger algebra must not come out abelian on the form, nor a
        # smaller one index past its end
        basis = rational_form(trivial_rep(sqrt2, 2))
        for alg in (LieAlgebra(3, ((0, 1, 2, 1),)), LieAlgebra(1, ())):
            with pytest.raises(DimensionMismatch, match="algebra dimension must match the form"):
                structure_constants_on_form(basis, alg)


class TestRestrictedBracket:
    @pytest.mark.parametrize("name", ["sqrt2", "biquad52", "quartic"])
    def test_flat_bracket_matches_the_field_bracket(self, name, request):
        datum = request.getfixturevalue(name)
        d = datum.degree
        rng = random.Random(7 + d)

        def element():
            if rng.random() < 0.3:
                return datum.zero()
            return datum.element([F(rng.randint(-3, 3), rng.randint(1, 3))
                                  if rng.random() < 0.7 else 0 for _ in range(d)])

        for m in (2, 3, 5):
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            alg = LieAlgebra(m, tuple(
                (i, j, rng.randrange(m), rng.choice([F(3, 2), F(-1), F(2, 3), F(5)]))
                for i, j in rng.sample(pairs, min(4, len(pairs)))))
            bmap, scale = restricted_bracket_map(alg, datum)
            for _ in range(8):
                x, y = (tuple(element() for _ in range(m)) for _ in range(2))
                (xi, yi), den = fl.clear_denominators([_flatten(x), _flatten(y)])
                out = _bracket(bmap, _support(xi), _support(yi))
                flat = [F(out.get(r, 0), scale * den ** 2) for r in range(m * d)]
                assert flat == _flatten(alg.bracket(list(x), list(y)))


class TestTransport:
    def test_identity_map(self, sqrt2):
        rho = regular_rep(sqrt2)
        basis = rational_form(rho)
        one, zero = sqrt2.one(), sqrt2.zero()
        eye = ((one, zero), (zero, one))
        assert transport(basis, eye) == RationalMatrix.identity(2)

    def test_diagonal_conjugate_pair(self, sqrt2):
        # f = diag(lambda, sigma(lambda)) with the swap representation
        rho = regular_rep(sqrt2)
        basis = rational_form(rho)
        lam = sqrt2.element([1, 1])
        zero = sqrt2.zero()
        f = ((lam, zero), (zero, apply_automorphism(sqrt2, 1, lam)))
        m = transport(basis, f)
        assert m.charpoly() == RationalMatrix([[1, 2], [1, 1]]).charpoly()

    def test_commutation_violation(self, sqrt2):
        rho = regular_rep(sqrt2)
        basis = rational_form(rho)
        lam = sqrt2.element([1, 1])
        zero = sqrt2.zero()
        # diag(lambda, lambda) does not commute with the swap action
        f = ((lam, zero), (zero, lam))
        with pytest.raises(CommutationViolation):
            transport(basis, f)

    def test_soundness_b_m_equals_f_b(self, sqrt2):
        rho = regular_rep(sqrt2)
        basis = rational_form(rho)
        lam = sqrt2.element([1, 1])
        zero = sqrt2.zero()
        f = ((lam, zero), (zero, apply_automorphism(sqrt2, 1, lam)))
        m = transport(basis, f)
        bmat = _basis_matrix(basis)
        from anosovforms import _fieldlinalg as fl

        fb = fl.mat_mul([list(r) for r in f], bmat)
        mm = [[sqrt2.element([m[i, j]]) for j in range(2)] for i in range(2)]
        bm = fl.mat_mul(bmat, mm)
        assert all(fb[i][j] == bm[i][j] for i in range(2) for j in range(2))

    def test_rational_entries(self, sqrt2):
        # int and Fraction entries are read as elements of the field
        basis = rational_form(trivial_rep(sqrt2, 2))
        assert transport(basis, ((1, 0), (0, 1))) == RationalMatrix.identity(2)
        mat = RationalMatrix([[F(1, 2), 3], [0, -1]])
        assert transport(basis, tuple(map(tuple, mat.entries))) == mat
        # a diagonal written with a plain 0
        basis = rational_form(regular_rep(sqrt2))
        lam = sqrt2.element([1, 1])
        conj, zero = apply_automorphism(sqrt2, 1, lam), sqrt2.zero()
        assert transport(basis, ((lam, 0), (0, conj))) == \
            transport(basis, ((lam, zero), (zero, conj)))

    def test_entry_from_another_field(self, sqrt2, biquad52):
        basis = rational_form(trivial_rep(sqrt2, 2))
        for other in (biquad52.one(), biquad52.zero()):
            with pytest.raises(DatumMismatch):
                transport(basis, ((1, other), (0, 1)))

    def test_unverified_datum(self, sqrt2):
        raw = replace(sqrt2)  # a copy starts unverified
        one = raw.one()
        rho = Representation(raw, tuple(RationalMatrix.identity(1) for _ in range(2)))
        basis = _direct_basis(rho, ((one,),))
        with pytest.raises(BadParameters):
            transport(basis, ((one,),))
        assert _outcome(frozen_transport, basis, ((one,),)) is BadParameters

    def test_replaced_datum_is_unverified(self, sqrt2):
        # a copy used to keep verified=True and root_map, though not the
        # matrices verification builds, so it passed every gate unchecked
        for raw in (replace(sqrt2), replace(sqrt2, min_poly=Polynomial([-3, 0, 1]))):
            assert not raw.verified and raw.root_map is None
            with pytest.raises(BadParameters):
                apply_automorphism(raw, 1, raw.generator())
        with pytest.raises(TypeError):
            type(sqrt2)(sqrt2.min_poly, sqrt2.automorphisms, 0, sqrt2.table, verified=True)

    def test_commutation_uses_the_image_of_the_inverse(self, sqrt2):
        # an unverified rho with rho_sigma = 2 I, no involution: f = I
        # satisfies f^sigma rho_sigma = rho_sigma f, but not the relation
        # f^sigma = rho_sigma f rho_(sigma^-1) = 4 f.  The frozen check
        # caught it on a basis built directly; transport now refuses such a
        # basis, since only a verified one makes its solve decide the relation
        two = RationalMatrix([[2, 0], [0, 2]])
        rho = Representation(sqrt2, tuple(
            RationalMatrix.identity(2) if g == sqrt2.identity_index else two
            for g in range(2)))
        one, zero = sqrt2.one(), sqrt2.zero()
        basis = _direct_basis(rho, ((one, zero), (zero, one)))
        f = ((one, zero), (zero, one))
        assert not basis.verified
        with pytest.raises(BadParameters, match="rational_form"):
            transport(basis, f)
        assert _outcome(frozen_transport, basis, f) is CommutationViolation
        with pytest.raises(NotHomomorphism):
            verify_representation(rho)


class TestLabeledAlgebra:
    def test_build_two_heisenbergs(self, quartic):
        th = quartic.generator()
        lams = [th]
        for _ in range(3):
            lams.append(apply_automorphism(quartic, 1, lams[-1]))
        labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
        la = build_labeled_algebra(
            labels, [(0, 2, 1, 4), (1, 3, 1, 5)], generators=(0, 1, 2, 3)
        )
        assert la.algebra.dim == 6

    def test_label_mismatch(self, quartic):
        th = quartic.generator()
        lams = [th]
        for _ in range(3):
            lams.append(apply_automorphism(quartic, 1, lams[-1]))
        labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
        with pytest.raises(LabelMismatch):
            build_labeled_algebra(
                labels, [(0, 2, 1, 5)], generators=(0, 1, 2, 3)
            )

    def test_label_mismatch_before_jacobi(self, sqrt2):
        # [b0,b1] = b2 with [b0,b2] = b0 breaks Jacobi and every label rule
        one, s = sqrt2.one(), sqrt2.element([0, 1])
        with pytest.raises(LabelMismatch):
            build_labeled_algebra((s, s, one), [(0, 1, 1, 2), (0, 2, 1, 0)],
                                  generators=(0, 1))

    def test_cancelling_spec_entries_are_not_brackets(self, sqrt2):
        one = sqrt2.one()
        la = build_labeled_algebra((one, one), [(0, 1, 1, 0), (0, 1, -1, 0)],
                                   generators=(0, 1))
        assert la.algebra.brackets == ()

    def test_direct_construction_checks_labels(self, sqrt2):
        s = sqrt2.element([0, 1])
        with pytest.raises(LabelMismatch):
            LabeledAlgebra(heisenberg(), (s, s, s), generators=(0, 1))

    def test_labels_charpoly(self, sqrt2):
        lam = sqrt2.element([1, 1])
        conj = apply_automorphism(sqrt2, 1, lam)
        la = LabeledAlgebra(
            LieAlgebra(2, ()), (lam, conj), generators=(0, 1)
        )
        l = frozen_labels_charpoly(la)
        assert l == RationalMatrix([[1, 2], [1, 1]]).charpoly()
        # the labels {lam, sigma(lam)} are one orbit: chi_lam * chi_conj = L^2
        assert lam.charpoly() == conj.charpoly() == l
        assert lam.charpoly() * conj.charpoly() == l ** 2


class TestExtendRepresentation:
    def test_z4_cycle_signs(self, quartic):
        th = quartic.generator()
        lams = [th]
        for _ in range(3):
            lams.append(apply_automorphism(quartic, 1, lams[-1]))
        labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
        la = build_labeled_algebra(
            labels, [(0, 2, 1, 4), (1, 3, 1, 5)], generators=(0, 1, 2, 3)
        )
        rho = extend_representation(
            la, {1: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}}
        )
        img = rho.images[1]
        # the derived sign: Y2 = [X2, X4] maps to [X3, X1] = -Y1
        assert img[4, 5] == -1 and img[5, 4] == 1

    def test_inconsistent_permutation(self, quartic):
        th = quartic.generator()
        lams = [th]
        for _ in range(3):
            lams.append(apply_automorphism(quartic, 1, lams[-1]))
        labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
        la = build_labeled_algebra(
            labels, [(0, 2, 1, 4), (1, 3, 1, 5)], generators=(0, 1, 2, 3)
        )
        with pytest.raises((NotHomomorphism, LabelMismatch,
                            ExtensionInconsistent)):
            extend_representation(
                la, {1: {0: (1, 2), 1: (1, 1), 2: (1, 3), 3: (1, 0)}}
            )


    @pytest.mark.parametrize("maps", [
        {7: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}},
        {-1: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}},
        {1: {0: (1, 6), 1: (1, 2), 2: (1, 3), 3: (1, 0)}},
        {1: {0: (1, -1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}},
    ])
    def test_out_of_range_indices(self, maps):
        # a group element index >= d or a target slot >= dim (or negative)
        # used to raise IndexError or wrap around
        la = _recipe_representations()[0][1]
        with pytest.raises(BadParameters):
            extend_representation(la, maps)

    def test_target_slot_out_of_range_on_a_smaller_algebra(self, sqrt2):
        with pytest.raises(BadParameters):
            extend_representation(_central_pair_algebra(sqrt2),
                                  {1: {0: (1, 5), 1: (1, 0), 2: (1, 3), 3: (1, 2)}})


class TestMain2:
    def test_nonunit_label(self, sqrt2):
        s = sqrt2.element([0, 1])  # norm -2, not a unit
        la = LabeledAlgebra(LieAlgebra(2, ()), (s, -s), generators=(0, 1))
        rho = regular_rep(sqrt2)
        with pytest.raises(NonUnitLabel):
            main2_construct(la, rho)

    def test_unit_labels_equal_one_construct_but_not_hyperbolic(self, sqrt2):
        one = sqrt2.one()
        la = LabeledAlgebra(LieAlgebra(2, ()), (one, one), generators=(0, 1))
        rho = trivial_rep(sqrt2, 2)
        algebra, matrix, _ = main2_construct(la, rho)
        from anosovforms.anosov import certify

        cert = certify(algebra, matrix)
        assert cert.integer_like and not cert.hyperbolic

    def test_eigenvalues_are_labels(self, quartic):
        th = quartic.generator()
        lams = [th]
        for _ in range(3):
            lams.append(apply_automorphism(quartic, 1, lams[-1]))
        labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
        la = build_labeled_algebra(
            labels, [(0, 2, 1, 4), (1, 3, 1, 5)], generators=(0, 1, 2, 3)
        )
        rho = extend_representation(
            la, {1: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}}
        )
        algebra, matrix, _ = main2_construct(la, rho)
        assert matrix.charpoly() == frozen_labels_charpoly(la)
        assert is_automorphism(algebra, matrix)

    def test_equivariance_checked_once_per_pair(self, quartic, monkeypatch):
        import anosovforms.galoisform as gf

        calls = []
        check = gf.check_label_equivariance
        monkeypatch.setattr(gf, "check_label_equivariance",
                            lambda la, rho: calls.append(la) or check(la, rho))
        th = quartic.generator()
        lams = [th]
        for _ in range(3):
            lams.append(apply_automorphism(quartic, 1, lams[-1]))
        labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
        la = build_labeled_algebra(
            labels, [(0, 2, 1, 4), (1, 3, 1, 5)], generators=(0, 1, 2, 3)
        )
        rho = extend_representation(
            la, {1: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}}
        )
        main2_construct(la, rho)
        assert calls == [la]

    def test_equivariance_verdict_is_per_labeled_algebra(self, sqrt2):
        # the trivial representation fixes every slot: equivariant for the
        # labels (1, 1), not for (lambda, sigma(lambda))
        rho = trivial_rep(sqrt2, 2)
        one = sqrt2.one()
        main2_construct(LabeledAlgebra(LieAlgebra(2, ()), (one, one), (0, 1)), rho)
        lam = sqrt2.element([1, 1])
        conj = apply_automorphism(sqrt2, 1, lam)
        with pytest.raises(LabelMismatch):
            main2_construct(LabeledAlgebra(LieAlgebra(2, ()), (lam, conj), (0, 1)), rho)

    def test_each_check_runs_once_per_construction(self, cubic, cubic_unit, monkeypatch):
        # build_labeled_algebra checks L, structure_constants_on_form reads
        # that verdict; main2_construct and certify read one charpoly
        from anosovforms import exactmath, liealg

        calls = []
        for module, name in ((liealg, "check_jacobi"), (exactmath, "charpoly")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda x, real=real, name=name:
                                calls.append(name) or real(x))
        out = recipes.recipe_last(cubic, cubic_unit, 4)
        assert sorted(calls) == ["charpoly", "check_jacobi"]
        assert out.certificate.hyperbolic


    def test_representation_over_another_field(self, sqrt2, quartic):
        # used to raise a bare IndexError from the label check
        la = LabeledAlgebra(LieAlgebra(2, ()), (quartic.one(),) * 2, generators=(0, 1))
        rho = trivial_rep(sqrt2, 2)
        with pytest.raises(DatumMismatch):
            main2_construct(la, rho)
        with pytest.raises(DatumMismatch):
            check_label_equivariance(la, rho)

    def test_representation_of_another_size(self, sqrt2):
        la = LabeledAlgebra(LieAlgebra(2, ()), (sqrt2.one(),) * 2, generators=(0, 1))
        with pytest.raises(DimensionMismatch):
            check_label_equivariance(la, trivial_rep(sqrt2, 3))


# ---------------------------------------------------------------------------
# the label eigenvalue check: the labels' own charpolys against the E[X]
# expansion it replaced
# ---------------------------------------------------------------------------


def _z4_pair(quartic):
    """The 6-dimensional z4 labeled algebra of test_eigenvalues_are_labels
    and its cyclic representation."""
    th = quartic.generator()
    lams = [th]
    for _ in range(3):
        lams.append(apply_automorphism(quartic, 1, lams[-1]))
    labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
    la = build_labeled_algebra(labels, [(0, 2, 1, 4), (1, 3, 1, 5)], generators=(0, 1, 2, 3))
    return la, extend_representation(la, {1: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}})


def _perturbations(n, rng):
    """Maps m -> m' that keep the charpoly (similarity, transpose) and maps
    that change it (scaling, negation, squaring, single-entry changes)."""
    def similar(m):
        while True:
            t = RationalMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            if t.det():
                return t * m * t.inverse()

    def entry(m):
        i, j = rng.randrange(n), rng.randrange(n)
        rows = [list(r) for r in m.entries]
        rows[i][j] += rng.choice([-2, -1, F(1, 3), 1])
        return RationalMatrix(rows)

    return [lambda m: m, similar, similar, RationalMatrix.transpose, lambda m: m * 2,
            lambda m: -m, lambda m: m * m, entry, entry, entry, entry]


def _recorded_constructions(monkeypatch, runs):
    """(labeled algebra, representation, matrix) of every main2_construct
    call the recipe runs make."""
    seen = []
    real = recipes.main2_construct

    def main2(la, rho, *args, **kwargs):
        out = real(la, rho, *args, **kwargs)
        seen.append((la, rho, out[1]))
        return out
    monkeypatch.setattr(recipes, "main2_construct", main2)
    for run in runs:
        run()
    monkeypatch.undo()
    return seen


class TestLabelEigenvalueCheck:
    def test_labels_power_is_frozen_power_on_every_recipe(self, sqrt2, cubic, cubic_unit,
                                                          csig_pair, monkeypatch):
        seen = _recorded_constructions(monkeypatch, [
            recipes.recipe_z4_example,
            lambda: recipes.recipe_count(5, 2),
            lambda: recipes.recipe_count(2, 3),
            lambda: recipes.recipe_laur(heisenberg(), Grading((2, 1)), sqrt2,
                                        sqrt2.element([1, 1])),
            lambda: recipes.recipe_csig(*csig_pair, 3),
            lambda: recipes.recipe_last(cubic, cubic_unit, 2),
            lambda: recipes.recipe_last(cubic, cubic_unit, 4),
        ])
        assert len(seen) == 7
        for la, _rho, matrix in seen:
            frozen = frozen_labels_charpoly(la)
            power = math.prod((lam.charpoly() for lam in la.labels), start=Polynomial.one())
            assert frozen ** la.datum.degree == power
            assert matrix.charpoly() == frozen

    @pytest.mark.parametrize("c, dim", [(4, 12), (6, 18)])
    def test_eigenvalue_check_forms_no_field_product(self, cubic, cubic_unit, monkeypatch,
                                                     c, dim):
        # the E[X] expansion formed dim (dim + 1) / 2 FieldElement products
        # (78 and 171 here); each label's charpoly is the one kernel run of
        # its unit test, and the matrix adds one more
        from anosovforms.numfield import FieldElement

        counts = {"products": 0, "int_charpoly": 0}
        inside = []

        def counting(key, real):
            def wrapper(*args):
                if inside:
                    counts[key] += 1
                return real(*args)
            return wrapper

        real_main2 = recipes.main2_construct

        def main2(*args, **kwargs):
            inside.append(True)
            try:
                return real_main2(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(FieldElement, "__mul__", counting("products", FieldElement.__mul__))
        monkeypatch.setattr(fl, "int_charpoly", counting("int_charpoly", fl.int_charpoly))
        monkeypatch.setattr(recipes, "main2_construct", main2)
        out = recipes.recipe_last(cubic, cubic_unit, c)
        assert out.algebra.dim == dim
        assert counts == {"products": 0, "int_charpoly": dim + 1}

    def test_mismatch_fires_exactly_when_the_frozen_check_does(self, sqrt2, quartic, cubic,
                                                                cubic_unit, monkeypatch):
        rng = random.Random(18)
        [(la_last, rho_last, _)] = _recorded_constructions(
            monkeypatch, [lambda: recipes.recipe_last(cubic, cubic_unit, 2)])
        one = sqrt2.one()
        trivial = LabeledAlgebra(LieAlgebra(2, ()), (one, one), generators=(0, 1))
        lam = sqrt2.element([1, 1])
        orbit = LabeledAlgebra(LieAlgebra(2, ()), (lam, apply_automorphism(sqrt2, 1, lam)),
                               generators=(0, 1))
        pairs = [(trivial, trivial_rep(sqrt2, 2)), (orbit, regular_rep(sqrt2)),
                 _z4_pair(quartic), (la_last, rho_last)]
        real = transport
        verdicts = set()
        for la, rho in pairs:
            frozen = frozen_labels_charpoly(la)
            for perturb in _perturbations(la.dim, rng):
                perturbed = []

                def perturbed_transport(basis, f):
                    perturbed.append(perturb(real(basis, f)))
                    return perturbed[-1]
                monkeypatch.setattr(galoisform_module, "transport", perturbed_transport)
                try:
                    main2_construct(la, rho)
                    raised = False
                except EigenvalueMismatch:
                    raised = True
                assert raised == (perturbed[-1].charpoly() != frozen)
                verdicts.add(raised)
                monkeypatch.undo()
        assert verdicts == {True, False}


    def test_factor_check_is_the_power_check_on_unstable_labels(self, sqrt2, quartic, cubic,
                                                                cubic_unit):
        # label lists that need not be Galois stable, so deg M need not
        # divide the number n of labels with that charpoly; main2_construct's
        # equivariance check stops those first, so the helper is called
        # directly, against the frozen power check charpoly^d = prod chi
        orbit = [quartic.generator()]
        for _ in range(3):
            orbit.append(apply_automorphism(quartic, 1, orbit[-1]))
        eta = orbit[0] * orbit[2]
        pools = [
            (sqrt2, [sqrt2.element([1, 1]), sqrt2.element([1, -1]), sqrt2.one(),
                     sqrt2.element([3])]),
            (quartic, orbit + [eta, apply_automorphism(quartic, 1, eta), -quartic.one()]),
            (cubic, [apply_automorphism(cubic, s, cubic_unit) for s in range(3)] + [cubic.one()]),
        ]
        rng = random.Random(32)
        verdicts, undivided = set(), 0
        for datum, pool in pools:
            for _ in range(40):
                labels = [rng.choice(pool) for _ in range(rng.randint(1, 7))]
                power = math.prod((lam.charpoly() for lam in labels), start=Polynomial.one())
                counts = Counter(minimal_polynomial(lam) for lam in labels)
                undivided += any(n % mp.degree for mp, n in counts.items())
                floor = math.prod((mp ** (n // mp.degree) for mp, n in counts.items()),
                                  start=Polynomial.one())
                extra = minimal_polynomial(rng.choice(pool))
                for p in (floor, floor * extra, floor * Polynomial([-1, 1]), extra):
                    try:
                        check_label_eigenvalues(labels, p)
                        raised = False
                    except EigenvalueMismatch:
                        raised = True
                    assert raised == (p ** datum.degree != power), (labels, p)
                    verdicts.add(raised)
        assert verdicts == {True, False} and undivided > 10


def test_group_generators(sqrt2, biquad52, quartic):
    assert group_generators(sqrt2) == [1]
    assert len(group_generators(biquad52)) == 2
    gens = group_generators(quartic)
    assert len(gens) == 1


def test_automorphism_matrix(sqrt2):
    assert automorphism_matrix(sqrt2, 1) == (((1, 0), (0, -1)), 1)


class TestDescentRejects:
    def test_irrational_structure_constant(self, sqrt2):
        # [v1, v2] = -2 sqrt2 b_1 has coordinates sqrt2 * (1, 0) in the
        # form (1, 1), (sqrt2, -sqrt2)
        basis = rational_form(regular_rep(sqrt2))
        with pytest.raises(IrrationalStructureConstant, match=r"bracket \[0,1\]"):
            structure_constants_on_form(basis, LieAlgebra(2, ((0, 1, 1, 1),)))

    def test_dependent_fixed_vectors(self, sqrt2):
        rho = regular_rep(sqrt2)
        v = (sqrt2.one(), sqrt2.one())
        assert _satisfies_defining_relation(rho, v)
        with pytest.raises(DimensionMismatch, match="not linearly independent"):
            rational_form_from_vectors(rho, [v, tuple(2 * x for x in v)])

    def test_irrational_entry_on_a_basis_built_directly(self, sqrt2):
        # (1, 0), (0, sqrt2) is no rational form of the trivial action, so
        # a rational f that commutes with it still has an irrational matrix.
        # The frozen code named the irrational entry; transport refuses the
        # basis, and the verified constructors refuse its vectors
        one, zero, s = sqrt2.one(), sqrt2.zero(), sqrt2.element([0, 1])
        rho = trivial_rep(sqrt2, 2)
        basis = _direct_basis(rho, ((one, zero), (zero, s)))
        f = ((one, one), (zero, one))
        with pytest.raises(BadParameters):
            transport(basis, f)
        assert _outcome(frozen_transport, basis, f) is IrrationalEntry
        with pytest.raises(DimensionMismatch, match="violates"):
            rational_form_from_vectors(rho, basis.vectors)
        # a verified basis, or a replace() copy of it, which starts unverified
        good = rational_form(rho)
        assert good.verified and transport(good, f) == RationalMatrix([[1, 1], [0, 1]])
        with pytest.raises(BadParameters):
            transport(replace(good), f)


# ---------------------------------------------------------------------------
# the flat rational descent against the E-path it replaced
# ---------------------------------------------------------------------------


def _frozen_solve(a, rhs_cols):
    """fl.solve as it ran on field elements: Gauss-Jordan on [a | B]."""
    n = len(a)
    m, pivots = _dense_rref([list(a[i]) + [col[i] for col in rhs_cols] for i in range(n)])
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return [row[n:] for row in m]


def frozen_rational_form_from_vectors(rho, vectors):
    if not rho.verified:
        raise NotHomomorphism("requires a verified representation")
    m = rho.size
    if len(vectors) != m or any(len(v) != m for v in vectors):
        raise DimensionMismatch("need m vectors of length m")
    vecs = tuple(tuple(v) for v in vectors)
    for v in vecs:
        if not _satisfies_defining_relation(rho, v):
            raise DimensionMismatch("vector violates rho_sigma(v) = v^sigma")
    basis = _direct_basis(rho, vecs)
    if _dense_det(_basis_matrix(basis)) == 0:
        raise DimensionMismatch("vectors are not linearly independent over E")
    # the accepted basis is a verified one, whose flag shows in its repr
    object.__setattr__(basis, "verified", True)
    return basis


def frozen_structure_constants_on_form(basis, algebra=None):
    rho = basis.representation
    alg = algebra if algebra is not None else rho.algebra
    if alg is None:
        raise DimensionMismatch("no algebra attached to the representation")
    m = basis.size
    bmat = _basis_matrix(basis)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    rhs = [alg.bracket(list(basis.vectors[i]), list(basis.vectors[j])) for i, j in pairs]
    coords = _frozen_solve(bmat, rhs) if pairs else []
    entries = []
    for col, (i, j) in enumerate(pairs):
        for k in range(m):
            x = coords[k][col]
            if x.is_zero:
                continue
            if not x.is_rational:
                raise IrrationalStructureConstant(
                    f"bracket [{i},{j}] has an irrational coordinate on slot {k}")
            entries.append((i, j, k, x.rational_value()))
    return require_jacobi(LieAlgebra(m, tuple(entries)))


def conjugate_map(datum, sigma_index, mat):
    """f^sigma: apply sigma^{-1} entrywise to the matrix of f."""
    inv = datum.inverse_index(sigma_index)
    return tuple(
        tuple(apply_automorphism(datum, inv, x) for x in row) for row in mat
    )


def frozen_transport(basis, f):
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
                        f"f^sigma != rho f rho^-1 for group element {s}")
    bmat = _basis_matrix(basis)
    fb = fl.mat_mul(flist, bmat)
    cols = [[fb[i][j] for i in range(m)] for j in range(m)]
    sol = _frozen_solve(bmat, cols)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            x = sol[i][j]
            if not x.is_rational:
                raise IrrationalEntry(f"transported entry ({i},{j}) is irrational")
            row.append(x.rational_value())
        out.append(row)
    return RationalMatrix(out)


def _outcome(fn, *args):
    """repr of an accept, the error type of a reject."""
    try:
        return repr(fn(*args))
    except Exception as e:  # noqa: BLE001 - the type is the verdict
        return type(e)


def assert_same_descent(basis, algebras=(), maps=()):
    """New and frozen code agree on the basis vectors, on a dependent and
    a non-fixed variant of them, and on the given algebras and maps."""
    rho, vecs = basis.representation, basis.vectors
    theta = rho.datum.generator()
    variants = [vecs, (vecs[0], tuple(3 * x for x in vecs[0])) + vecs[2:],
                (tuple(theta * x for x in vecs[0]),) + vecs[1:]]
    if len(vecs) > 2:
        variants.append(vecs[:2] + (tuple(a - b for a, b in zip(vecs[0], vecs[1])),) + vecs[3:])
    for v in variants:
        out = _outcome(rational_form_from_vectors, rho, v)
        assert out == _outcome(frozen_rational_form_from_vectors, rho, v)
        assert (v is vecs) == isinstance(out, str)
    for alg in algebras:
        assert _outcome(structure_constants_on_form, basis, alg) == \
            _outcome(frozen_structure_constants_on_form, basis, alg)
    for f in maps:
        assert _outcome(transport, basis, f) == _outcome(frozen_transport, basis, f)


def _with_rational_matrix(basis, mat):
    """f = B M B^-1 over the field: the map whose matrix on the form is M."""
    bmat = _basis_matrix(basis)
    m = len(bmat)
    binv = _frozen_solve(bmat, [[F(int(i == j)) for i in range(m)] for j in range(m)])
    return tuple(map(tuple, fl.mat_mul(fl.mat_mul(bmat, [list(r) for r in mat.entries]), binv)))


def _frozen_descent_cases(datum, group):
    """Random conjugated representations with their rational forms, and
    the algebras, rational matrix and maps each case checks."""
    rng = random.Random(2024 + len(group))
    theta = datum.generator()
    for _ in range(4):
        rep = regular_rep(datum)
        extra = rng.randint(0, max(0, 6 - rep.size))
        if extra:
            rep = block_sum(rep, trivial_rep(datum, extra))
        rep = conjugated(rep, random_invertible(rng, rep.size))
        basis = rational_form(rep)
        m = basis.size
        pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        algebras = [LieAlgebra(m, ()), heisenberg_on(m),
                    LieAlgebra(m, tuple((i, j, rng.randrange(m), F(rng.randint(1, 3), 2))
                                        for i, j in rng.sample(pairs, min(2, len(pairs)))))]
        mat = random_invertible(rng, m)
        f = _with_rational_matrix(basis, mat)
        moved = tuple(tuple(x + 1 if (i, j) == (0, 0) else x for j, x in enumerate(row))
                      for i, row in enumerate(f))
        scaled = tuple(tuple(theta * x for x in row) for row in f)
        yield basis, algebras, mat, f, moved, scaled


class TestFrozenDescent:
    @pytest.mark.parametrize("group", ["z2", "klein", "z4"])
    def test_random_conjugated_representations(self, group, sqrt2, biquad52, quartic):
        datum = {"z2": sqrt2, "klein": biquad52, "z4": quartic}[group]
        for basis, algebras, mat, f, moved, scaled in _frozen_descent_cases(datum, group):
            assert transport(basis, f) == mat
            assert_same_descent(basis, algebras, [f, moved, scaled])

    @pytest.mark.parametrize("group", ["z2", "klein", "z4"])
    def test_rational_form_passes_the_checks_it_skips(self, group, sqrt2, biquad52, quartic):
        # rational_form checks the relation for generators only and does
        # not re-wrap its nullspace basis through rational_form_from_vectors
        datum = {"z2": sqrt2, "klein": biquad52, "z4": quartic}[group]
        for basis, *_ in _frozen_descent_cases(datum, group):
            rho = basis.representation
            assert rational_form_from_vectors(rho, basis.vectors) == basis
            assert all(_satisfies_defining_relation(rho, v) for v in basis.vectors)

    @pytest.mark.parametrize("recipe", ["z4", "last4"])
    def test_recipe_pipelines(self, recipe, monkeypatch):
        seen = []
        real = recipes.main2_construct

        def spy(la, rho, explicit_basis=None):
            seen.append((la, rho, explicit_basis))
            return real(la, rho, explicit_basis)

        monkeypatch.setattr(recipes, "main2_construct", spy)
        if recipe == "z4":
            recipes.recipe_z4_example()
        else:
            datum = cyclic_cubic_datum()
            recipes.recipe_last(datum, cubic_pisot_unit(datum), 4)
        ((la, rho, explicit),) = seen
        basis = (rational_form_from_vectors(rho, explicit) if explicit is not None
                 else rational_form(rho))
        zero = la.datum.zero()
        f = tuple(tuple(la.labels[i] if i == j else zero for j in range(la.dim))
                  for i in range(la.dim))
        assert_same_descent(basis, [la.algebra, heisenberg_on(la.dim)], [f, f[::-1]])


def heisenberg_on(n):
    """[b_0, b_1] = b_(n-1): usually not preserved by a representation."""
    return LieAlgebra(n, ((0, 1, n - 1, 1),))


# ---------------------------------------------------------------------------
# representations on sparse columns against the dense code they replaced
# ---------------------------------------------------------------------------


def frozen_verify_representation(rho):
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
            if not is_automorphism(rho.algebra, im):
                raise NotHomomorphism(f"image {i} is not a Lie algebra automorphism")
    object.__setattr__(rho, "verified", True)
    return rho


def frozen_check_label_equivariance(la, rho):
    datum = la.datum
    for s in range(datum.degree):
        img = rho.images[s]
        for t in range(la.dim):
            target = apply_automorphism(datum, s, la.labels[t])
            for i in range(la.dim):
                if img[i, t] != 0 and not la.labels[i] == target:
                    raise LabelMismatch(
                        f"group element {s} maps slot {t} outside V_sigma(label)")


def frozen_extend_representation(la, generator_maps):
    datum = la.datum
    alg = la.algebra
    dim = la.dim
    gen_set = set(la.generators)
    single_target = []
    for (i, j), row in frozen_bracket_map(alg).items():
        if len(row) == 1:
            ((k, c),) = row.items()
            single_target.append((i, j, k, c))
    images = {datum.identity_index: RationalMatrix.identity(dim)}
    for g, mapping in generator_maps.items():
        cols = [None] * dim
        for gen, (sign, slot) in mapping.items():
            if gen not in gen_set:
                raise NotGenerating(f"slot {gen} is not a declared generator")
            col = [F(0)] * dim
            col[slot] = F(sign)
            cols[gen] = col
        progress = True
        while progress:
            progress = False
            for (i, j, k, c) in single_target:
                if cols[i] is None or cols[j] is None:
                    continue
                derived = [x / c for x in alg.bracket(cols[i], cols[j])]
                if cols[k] is None:
                    cols[k] = derived
                    progress = True
                elif any(not a == b for a, b in zip(cols[k], derived)):
                    raise ExtensionInconsistent(
                        f"slot {k} receives conflicting images under element {g}")
        if any(c is None for c in cols):
            missing = [i for i, c in enumerate(cols) if c is None]
            raise NotGenerating(f"brackets do not determine slots {missing}")
        images[g] = RationalMatrix([[cols[j][i] for j in range(dim)] for i in range(dim)])
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
                            f"two words for group element {idx} disagree")
                else:
                    images[idx] = prod
                    frontier.append(idx)
    if len(images) != datum.degree:
        raise NotGenerating("given group elements do not generate the group")
    rho = Representation(datum, tuple(images[i] for i in range(datum.degree)), alg)
    frozen_verify_representation(rho)
    frozen_check_label_equivariance(la, rho)
    return rho


def fraction_map_extend_representation(la, generator_maps):
    """extend_representation as it derived slot images on the Fraction
    bracket map: x / c with both on the rational constants."""
    datum = la.datum
    alg = la.algebra
    dim = la.dim
    gen_set = set(la.generators)
    bmap = frozen_bracket_map(alg)
    single_target = [(i, j, k, c) for (i, j), row in bmap.items() if len(row) == 1
                     for k, c in row.items()]

    images = {datum.identity_index: [{j: F(1)} for j in range(dim)]}
    for g, mapping in generator_maps.items():
        if not 0 <= g < datum.degree:
            raise BadParameters(f"group element {g} is out of range")
        cols = [None] * dim
        for gen, (sign, slot) in mapping.items():
            if gen not in gen_set:
                raise NotGenerating(f"slot {gen} is not a declared generator")
            if not 0 <= slot < dim:
                raise BadParameters(f"target slot {slot} is out of range")
            cols[gen] = {slot: F(sign)} if sign else {}
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
                        f"slot {k} receives conflicting images under element {g}")
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
                images[idx] = galoisform_module._compose(images[a], images[b])
                frontier.append(idx)
    if len(images) != datum.degree:
        raise NotGenerating("given group elements do not generate the group")

    zero = F(0)
    rho = verify_representation(Representation(datum, tuple(
        RationalMatrix([[col.get(i, zero) for col in images[g]] for i in range(dim)])
        for g in range(datum.degree)), alg))
    check_label_equivariance(la, rho)
    return rho


def _generates(datum, elements):
    closure = {datum.identity_index, *elements}
    while True:
        new = {datum.table[a][b] for a in closure for b in closure} - closure
        if not new:
            return len(closure) == datum.degree
        closure |= new


def _extension_verdicts(la, maps):
    """(new, frozen) outcomes of extending maps: repr of the images on an
    accept, the error type on a reject.  Two words that disagree are now
    caught by the pair check, so the frozen ExtensionInconsistent for
    them reads as NotHomomorphism, or NotGenerating when the given
    elements generate a proper subgroup only (no pair check runs then)."""
    try:
        new = repr(extend_representation(la, maps).images)
    except Exception as e:  # noqa: BLE001 - the type is the verdict
        new = type(e)
    try:
        old = repr(frozen_extend_representation(la, maps).images)
    except ExtensionInconsistent as e:
        old = ExtensionInconsistent
        if "two words" in str(e):
            old = NotHomomorphism if _generates(la.datum, maps) else NotGenerating
    except Exception as e:  # noqa: BLE001
        old = type(e)
    return new, old


@functools.lru_cache(maxsize=None)
def _recipe_representations():
    """(name, labeled algebra, generator maps or None, representation) as
    the z4, count(5,2), csig c=3, last c=4 and laur recipes build them."""
    from anosovforms.catalog import sqrt2_datum
    from anosovforms.liealg import Grading

    out, maps = [], []
    real_extend, real_main2 = recipes.extend_representation, recipes.main2_construct

    def spy_extend(la, generator_maps):
        maps.append(generator_maps)
        return real_extend(la, generator_maps)

    def spy_main2(la, rho, explicit_basis=None):
        out.append((la, maps.pop() if maps else None, rho))
        return real_main2(la, rho, explicit_basis)

    recipes.extend_representation, recipes.main2_construct = spy_extend, spy_main2
    try:
        recipes.recipe_z4_example()
        recipes.recipe_count(5, 2)
        recipes.recipe_csig_default(3)
        cubic = cyclic_cubic_datum()
        recipes.recipe_last(cubic, cubic_pisot_unit(cubic), 4)
        sqrt2 = sqrt2_datum()
        recipes.recipe_laur(heisenberg(), Grading((2, 1)), sqrt2, sqrt2.element([1, 1]))
    finally:
        recipes.extend_representation, recipes.main2_construct = real_extend, real_main2
    names = ("z4", "count52", "csig3", "last4", "laur")
    return tuple((name, *case) for name, case in zip(names, out))


def _random_maps(rng, la, maps):
    """The same group elements, each sent to a seeded random signed
    permutation of the generators, or to its own map with random signs."""
    gens = list(la.generators)
    out = {}
    for g, mapping in maps.items():
        if rng.random() < 0.5:
            out[g] = {gen: (rng.choice((1, -1)), slot) for gen, (_s, slot) in mapping.items()}
        else:
            out[g] = {gen: (rng.choice((1, -1)), slot)
                      for gen, slot in zip(gens, rng.sample(gens, len(gens)))}
    return out


def _central_pair_algebra(sqrt2):
    """[b0, b1] = [b2, b3] = b4 over Q(sqrt 2), every label one."""
    return build_labeled_algebra((sqrt2.one(),) * 5, [(0, 1, 1, 4), (2, 3, 1, 4)],
                                 generators=(0, 1, 2, 3))


@pytest.mark.parametrize("name", ["csig3", "last4"])
def test_rational_form_builds_no_fraction(name, monkeypatch):
    # the relation rows are integers and nullspace returns integer rows
    # over their least common denominator, which are P and D as they are
    rho = next(rho for n, _la, _maps, rho in _recipe_representations() if n == name)
    first = rational_form(rho)
    built = []
    real = F.__new__
    monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
    basis = rational_form(rho)
    assert built == []
    assert (basis.flat, basis.den, basis._rows) == (first.flat, first.den, first._rows)


class TestFrozenRepresentation:
    @pytest.mark.parametrize("index", range(5))
    def test_recipe_representations(self, index):
        name, la, maps, rho = _recipe_representations()[index]
        fresh = Representation(rho.datum, rho.images, rho.algebra)
        assert repr(verify_representation(fresh).images) == \
            repr(frozen_verify_representation(fresh).images)
        assert check_label_equivariance(la, fresh) is None
        assert frozen_check_label_equivariance(la, fresh) is None
        if maps is None:
            return
        new, old = _extension_verdicts(la, maps)
        assert new == old == repr(rho.images)

    @pytest.mark.parametrize("index", range(5))
    def test_group_wide_checks_run_on_generators(self, index, monkeypatch):
        # the bracket check runs once per generator (last c=4: 1, not 2),
        # and the label check applies no automorphism to a label
        from anosovforms import numfield

        name, la, _maps, rho = _recipe_representations()[index]
        calls = []
        real = galoisform_module.preserves_brackets
        monkeypatch.setattr(galoisform_module, "preserves_brackets",
                            lambda *a: calls.append("brackets") or real(*a))
        for module in (galoisform_module, numfield):
            real_apply = module.apply_automorphism
            monkeypatch.setattr(module, "apply_automorphism", lambda *a, real=real_apply:
                                calls.append("apply") or real(*a))
        fresh = Representation(rho.datum, rho.images, rho.algebra)
        verify_representation(fresh)
        n_gens = len(group_generators(rho.datum))
        assert calls == ["brackets"] * n_gens
        assert n_gens == (2 if name == "count52" else 1)
        check_label_equivariance(la, fresh)
        assert calls == ["brackets"] * n_gens

    def test_label_check_verifies_an_unverified_representation(self, sqrt2):
        # rho_sigma = 2 I satisfies every label condition but is no
        # homomorphism: the frozen check accepts it, the new one verifies
        # rho first
        one = sqrt2.one()
        la = _Labels(sqrt2, (one, one), 2)
        two = RationalMatrix([[2, 0], [0, 2]])
        bad = Representation(sqrt2, (RationalMatrix.identity(2), two))
        assert frozen_check_label_equivariance(la, bad) is None
        with pytest.raises(NotHomomorphism):
            check_label_equivariance(la, bad)
        good = Representation(sqrt2, (RationalMatrix.identity(2),) * 2)
        check_label_equivariance(la, good)
        assert good.verified and good._equivariant_labels is la

    @pytest.mark.parametrize("index", range(4))
    def test_random_signed_permutations(self, index):
        name, la, maps, _rho = _recipe_representations()[index]
        rng = random.Random(1300 + index)
        verdicts = set()
        for _ in range(20):
            new, old = _extension_verdicts(la, _random_maps(rng, la, maps))
            assert new == old, name
            verdicts.add(new if isinstance(new, type) else "accept")
        assert {"accept", NotHomomorphism} <= verdicts, name

    def test_rejects(self, sqrt2, quartic):
        la = _central_pair_algebra(sqrt2)
        z4 = _recipe_representations()[0][1]
        e = quartic.identity_index
        cycle = {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}
        cases = [
            # accepted: both brackets send b4 to -b4
            (la, {1: {0: (1, 1), 1: (1, 0), 2: (1, 3), 3: (1, 2)}}, str),
            # conflicting slot images: b4 from [b1, b0] and from [b2, b3]
            (la, {1: {0: (1, 1), 1: (1, 0), 2: (1, 2), 3: (1, 3)}}, ExtensionInconsistent),
            # disagreeing words: a 3-cycle for an element of order 4
            (z4, {1: {0: (1, 1), 1: (1, 2), 2: (1, 0), 3: (1, 3)}}, NotHomomorphism),
            # disagreeing words from two given elements
            (z4, {1: cycle, 2: cycle}, NotHomomorphism),
            # non-generating: the element of order 2 alone
            (z4, {2: {0: (1, 2), 1: (1, 3), 2: (1, 0), 3: (1, 1)}}, NotGenerating),
            (z4, {1: {0: (1, 1)}}, NotGenerating),
            (z4, {1: {4: (1, 0)}}, NotGenerating),
            # a non-identity image for the identity
            (z4, {e: {0: (1, 1), 1: (1, 0), 2: (1, 2), 3: (1, 3)}, 1: cycle}, NotHomomorphism),
            # singular images: no automorphism
            (z4, {1: {0: (1, 0), 1: (1, 2), 2: (1, 1), 3: (1, 3)}}, NotHomomorphism),
            # an automorphism that moves the labels the wrong way round
            (z4, {1: {0: (1, 3), 1: (1, 0), 2: (1, 1), 3: (1, 2)}}, LabelMismatch),
        ]
        for la_, maps, expected in cases:
            new, old = _extension_verdicts(la_, maps)
            assert new == old
            assert isinstance(new, str) if expected is str else new is expected

    def test_verify_rejects(self, sqrt2):
        h = heisenberg()
        eye = RationalMatrix.identity(3)
        flip = diagonal([1, -1, 1])
        swap = RationalMatrix([[0, 1, 0], [1, 0, 0], [0, 0, -1]])
        cases = [
            (Representation(sqrt2, (eye, swap), h), str),
            (Representation(sqrt2, (eye, flip), h), NotHomomorphism),  # no automorphism
            (Representation(sqrt2, (eye, flip)), str),
            (Representation(sqrt2, (swap, eye), h), NotHomomorphism),  # rho(e) != I
            # an idempotent everywhere passes every pair, not rho(e) = I
            (Representation(sqrt2, (diagonal([1, 0, 0]),) * 2), NotHomomorphism),
            (Representation(sqrt2, (eye, swap * 2)), NotHomomorphism),
            (Representation(sqrt2, (eye, eye, eye)), NotHomomorphism),
            (Representation(sqrt2, (eye, RationalMatrix.identity(2))), NotHomomorphism),
        ]
        for rho, expected in cases:
            new = _outcome(verify_representation, replace(rho))
            assert new == _outcome(frozen_verify_representation, replace(rho))
            assert isinstance(new, str) if expected is str else new is expected

    @pytest.mark.parametrize("group", ["z2", "klein", "z4"])
    def test_dense_conjugated_representations(self, group, sqrt2, biquad52, quartic):
        datum = {"z2": sqrt2, "klein": biquad52, "z4": quartic}[group]
        rng = random.Random(1313 + len(group))
        for _ in range(3):
            rep = conjugated(regular_rep(datum), random_invertible(rng, datum.degree))
            assert rep.columns()[1] > 1
            images = list(rep.images)
            g = rng.randrange(datum.degree)
            i, j = rng.randrange(rep.size), rng.randrange(rep.size)
            moved = [[x + F(1, 3) if (r, c) == (i, j) else x for c, x in enumerate(row)]
                     for r, row in enumerate(images[g].entries)]
            images[g] = RationalMatrix(moved)
            for rho in (rep, Representation(datum, tuple(images))):
                assert _outcome(verify_representation, replace(rho)) == \
                    _outcome(frozen_verify_representation, replace(rho))

    def test_label_equivariance_on_swapped_labels(self):
        # two labels swapped usually break bracket compatibility, so the
        # labels go in through a bare (datum, labels, dim) record
        for name, la, _maps, rho in _recipe_representations():
            rng = random.Random(name)
            verdicts = []
            for _ in range(4):
                labels = list(la.labels)
                a, b = rng.sample(range(la.dim), 2)
                labels[a], labels[b] = labels[b], labels[a]
                swapped = _Labels(la.datum, tuple(labels), la.dim)
                fresh = Representation(rho.datum, rho.images, rho.algebra)
                verdicts.append(_outcome(check_label_equivariance, swapped, fresh))
                assert verdicts[-1] == _outcome(frozen_check_label_equivariance, swapped, fresh)
            assert LabelMismatch in verdicts, name


_Labels = namedtuple("_Labels", "datum labels dim")


def _scaled(la, s):
    """la with every structure constant times s: the same signed
    permutations extend, and the constants' lcm C is s's denominator."""
    return LabeledAlgebra(LieAlgebra(la.dim, tuple((i, j, k, c * s) for (i, j, k, c)
                                                   in la.algebra.brackets)),
                          la.labels, la.generators)


class TestFractionMapExtension:
    """extend_representation derives slot images on the integer map, as
    integer columns over one denominator per image; the Fraction-map code
    gives the same images or the same error type."""

    @pytest.mark.parametrize("index", range(4))
    def test_recipe_representations(self, index):
        # the four recipes that extend generator maps (laur gives its rho)
        name, la, maps, rho = _recipe_representations()[index]
        assert _outcome(extend_representation, la, maps) == \
            _outcome(fraction_map_extend_representation, la, maps) == repr(rho)
        scaled = _scaled(la, F(2, 3))
        assert scaled.algebra.integer_bracket_map()[1] == 3
        new = _outcome(extend_representation, scaled, maps)
        assert isinstance(new, str)
        assert new == _outcome(fraction_map_extend_representation, scaled, maps)
        rng = random.Random(f"fraction-map/{name}")
        for _ in range(10):
            random_maps = _random_maps(rng, la, maps)
            for alg in (la, scaled):
                assert _outcome(extend_representation, alg, random_maps) == \
                    _outcome(fraction_map_extend_representation, alg, random_maps)

    @pytest.mark.parametrize("index", range(4))
    def test_builds_no_fraction(self, index, monkeypatch):
        _name, la, maps, rho = _recipe_representations()[index]
        built = []
        real = F.__new__
        monkeypatch.setattr(F, "__new__", lambda cls, *a, **k: built.append(a) or real(cls, *a, **k))
        images = extend_representation(la, maps).images
        monkeypatch.undo()
        assert built == [] and images == rho.images

    def test_derived_images_with_denominators(self, sqrt2):
        # [b0, b1] = c b2 and [b3, b4] = b5, sigma swapping the pairs: b2
        # goes to b5 / c and b5 to c b2, so an image gets a denominator, and
        # the columns derived before it are scaled
        lam, mu = sqrt2.element([1, 1]), sqrt2.element([3, 2])
        lam_, mu_ = (apply_automorphism(sqrt2, 1, x) for x in (lam, mu))
        labels = (lam, mu, lam * mu, lam_, mu_, lam_ * mu_)
        swap = {1: {0: (1, 3), 1: (1, 4), 3: (1, 0), 4: (1, 1)}}
        flip = {1: {0: (-1, 3), 1: (1, 4), 3: (-1, 0), 4: (1, 1)}}
        for c in (2, F(1, 3), -3, F(-5, 2)):
            la = build_labeled_algebra(labels, [(0, 1, c, 2), (3, 4, 1, 5)],
                                       generators=(0, 1, 3, 4))
            for maps in (swap, flip):
                new = _outcome(extend_representation, la, maps)
                assert isinstance(new, str)
                assert new == _outcome(fraction_map_extend_representation, la, maps)
            image = extend_representation(la, swap).images[1]
            assert (image[5, 2], image[2, 5]) == (1 / F(c), c)

    def test_composed_images_with_denominators(self, quartic):
        # [x_t, y_t] = c_t z_t over the 4-cycle sigma, c_0 = c and the rest
        # 1: sigma z_0 = z_1 / c, so sigma^2 and sigma^3 are products of
        # images with a denominator
        (s,) = group_generators(quartic)
        xs, ys = [quartic.generator()], [quartic.generator() + 2 * quartic.one()]
        for _ in range(3):
            xs.append(apply_automorphism(quartic, s, xs[-1]))
            ys.append(apply_automorphism(quartic, s, ys[-1]))
        labels = (*xs, *ys, *(x * y for x, y in zip(xs, ys)))
        maps = {s: {t + h: (1, (t + 1) % 4 + h) for t in range(4) for h in (0, 4)}}
        for c in (2, F(1, 3), F(-5, 2)):
            la = build_labeled_algebra(labels, [(t, t + 4, c if t == 0 else 1, t + 8)
                                                for t in range(4)], generators=tuple(range(8)))
            new = _outcome(extend_representation, la, maps)
            assert isinstance(new, str)
            assert new == _outcome(fraction_map_extend_representation, la, maps)
            image = extend_representation(la, maps).images[quartic.table[s][s]]
            assert image[10, 8] == 1 / F(c)

    def test_conflicting_images_with_scaled_constants(self, sqrt2):
        # [b0, b1] = [b2, b3] = b4 / 2: both brackets send b4 to -b4, or
        # give b4 two images
        la = _scaled(_central_pair_algebra(sqrt2), F(1, 2))
        accept = {1: {0: (1, 1), 1: (1, 0), 2: (1, 3), 3: (1, 2)}}
        conflict = {1: {0: (1, 1), 1: (1, 0), 2: (1, 2), 3: (1, 3)}}
        rho = extend_representation(la, accept)
        assert rho.images[1][4, 4] == -1
        assert _outcome(extend_representation, la, accept) == \
            _outcome(fraction_map_extend_representation, la, accept)
        assert _outcome(extend_representation, la, conflict) is ExtensionInconsistent
        assert _outcome(fraction_map_extend_representation, la, conflict) is \
            ExtensionInconsistent
