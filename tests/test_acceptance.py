"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass line each (run with -s or -v to see them)."""

import math
import random
import time
from fractions import Fraction as F

import mpmath as mp
import pytest

from anosovforms.anosov import certify, check_type_constraints
from anosovforms.catalog import CSIG_N2_UNIT_COORDS, quartic_z4_datum
from anosovforms.errors import CommutationViolation, NotAutomorphism
from anosovforms.exactmath import (
    Polynomial,
    RationalMatrix,
    count_roots_inside_unit_disk,
    count_roots_on_unit_circle,
    poly_gcd,
)
from anosovforms.galoisform import (
    Representation,
    build_labeled_algebra,
    extend_representation,
    rational_form,
    transport,
    verify_representation,
)
from anosovforms.numfield import apply_automorphism
from anosovforms.pfaffian import (
    BinaryQuadraticForm,
    SkewMap,
    binary_form_of,
    center_block,
    dual_automorphism,
    form_preserved_by,
    hk_algebra,
    nk_algebra,
    pell_automorphism,
    pfaffian,
    scheuneman_dual,
    solve_pell,
    squarefree_part_of_rational,
    wedge_square,
)
from anosovforms.pisot import (
    ConeConstraint,
    brute_force_full_rank,
    search_unit_pisot,
)
from anosovforms.recipes import recipe_count, recipe_csig, recipe_z4_example

GOLD_MATRIX = RationalMatrix([
    [0, 0, 0, -1, 0, 0],
    [1, 0, 0, -1, 0, 0],
    [0, 1, 0, 4, 0, 0],
    [0, 0, 1, 4, 0, 0],
    [0, 0, 0, 0, F(-1, 2), F(-1, 2)],
    [0, 0, 0, 0, F(-1, 2), F(-5, 2)],
])

GOLD_BRACKETS = (
    (0, 1, 4, F(1)),
    (0, 2, 5, F(1)),
    (0, 3, 4, F(3, 2)),
    (0, 3, 5, F(9, 2)),
    (1, 2, 4, F(-1, 2)),
    (1, 2, 5, F(-1, 2)),
    (1, 3, 4, F(-1, 2)),
    (1, 3, 5, F(-5, 2)),
    (2, 3, 4, F(1, 2)),
    (2, 3, 5, F(3, 2)),
)


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS: {text}")


def test_criterion_1_gold_reproduction():
    t0 = time.monotonic()
    out = recipe_z4_example()
    assert out.matrix == GOLD_MATRIX                                 # (a)
    assert out.algebra.brackets == GOLD_BRACKETS                     # (b)
    assert binary_form_of(out.algebra).discriminant == F(5, 4)       # (c)
    center = out.matrix.submatrix([4, 5], [4, 5])
    assert center.charpoly() == Polynomial([1, 3, 1])                # (d)
    assert out.matrix.charpoly() == \
        Polynomial([1, 1, -4, -4, 1]) * Polynomial([1, 3, 1])        # (e)
    cert = out.certificate                                           # (f)
    assert cert.signature == (2, 4) and cert.algebra_type == (4, 2)
    assert cert.integer_like and cert.hyperbolic
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"worked example reproduced bit-exactly in {elapsed:.2f}s")


def test_criterion_2_count_sweep():
    t0 = time.monotonic()
    partners = {2: 3, 3: 2, 5: 2, 6: 5, 7: 2}
    for k, l in partners.items():
        out = recipe_count(k, l)
        assert out.certificate.signature == (2, 4), k
        assert out.provenance["classified"] == k
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(2, f"signature {{2,4}} and classification for k in {sorted(partners)} "
              f"in {elapsed:.1f}s")


def _regular_rep(datum):
    d = datum.degree
    images = []
    for g in range(d):
        mat = [[F(0)] * d for _ in range(d)]
        for h in range(d):
            mat[datum.table[g][h]][h] = F(1)
        images.append(RationalMatrix(mat))
    return verify_representation(Representation(datum, tuple(images)))


def _trivial_rep(datum, m):
    eye = RationalMatrix.identity(m)
    return verify_representation(
        Representation(datum, tuple(eye for _ in range(datum.degree))))


def _block_sum(r1, r2):
    m1, m2 = r1.size, r2.size
    images = []
    for a, b in zip(r1.images, r2.images):
        mat = [[F(0)] * (m1 + m2) for _ in range(m1 + m2)]
        for i in range(m1):
            for j in range(m1):
                mat[i][j] = a[i, j]
        for i in range(m2):
            for j in range(m2):
                mat[m1 + i][m1 + j] = b[i, j]
        images.append(RationalMatrix(mat))
    return verify_representation(Representation(r1.datum, tuple(images)))


def test_criterion_3_prop_gc(sqrt2, biquad52, quartic):
    from test_galoisform import _basis_matrix, _satisfies_defining_relation
    # the frozen dense determinant over the field: the E-path oracle
    from test_fieldlinalg import _dense_det

    rng = random.Random(2024)
    data = [sqrt2, biquad52, quartic]
    checked = 0
    while checked < 200:
        datum = data[checked % 3]
        rep = _regular_rep(datum)
        extra = rng.randint(0, max(0, 6 - rep.size))
        if extra:
            rep = _block_sum(rep, _trivial_rep(datum, extra))
        m = rep.size
        while True:
            t = RationalMatrix([[F(rng.randint(-3, 3), rng.randint(1, 2))
                                 for _ in range(m)] for _ in range(m)])
            if t.det() != 0:
                break
        rep = verify_representation(Representation(
            datum, tuple(t * im * t.inverse() for im in rep.images)))
        basis = rational_form(rep)
        assert basis.size == m
        for v in basis.vectors:
            assert _satisfies_defining_relation(rep, v)
        assert not _dense_det(_basis_matrix(basis)) == 0
        checked += 1
    report(3, f"{checked} random rational representations all Galois compatible")


def _z4_labeled():
    datum = quartic_z4_datum()
    th = datum.generator()
    lams = [th]
    for _ in range(3):
        lams.append(apply_automorphism(datum, 1, lams[-1]))
    labels = tuple(lams) + (lams[0] * lams[2], lams[1] * lams[3])
    la = build_labeled_algebra(
        labels, [(0, 2, 1, 4), (1, 3, 1, 5)], generators=(0, 1, 2, 3))
    rho = extend_representation(
        la, {1: {0: (1, 1), 1: (1, 2), 2: (1, 3), 3: (1, 0)}})
    return datum, la, rho


def test_criterion_4_lemma_auto_both_directions():
    datum, la, rho = _z4_labeled()
    basis = rational_form(rho)
    zero = datum.zero()
    f = tuple(tuple(la.labels[i] if i == j else zero for j in range(6))
              for i in range(6))
    m = transport(basis, f)  # direction (i): commutation holds, matrix rational
    assert all(x.denominator >= 1 for row in m.entries for x in row)

    out = recipe_z4_example()
    rng = random.Random(77)
    rejected = 0
    attempts = 0
    theta = datum.generator()
    while rejected < 50 and attempts < 200:
        attempts += 1
        i, j = rng.randrange(6), rng.randrange(6)
        delta = theta if rng.random() < 0.5 else datum.one()
        rows = [list(r) for r in f]
        rows[i][j] = rows[i][j] + delta
        try:
            transport(basis, tuple(tuple(r) for r in rows))
        except CommutationViolation:
            rejected += 1
            continue
        pytest.fail(f"perturbed map at ({i},{j}) was accepted by transport")
    assert rejected >= 50

    # rational-side perturbations must fail the automorphism check
    rejected_q = 0
    for _ in range(25):
        i, j = rng.randrange(6), rng.randrange(6)
        rows = [list(r) for r in out.matrix.entries]
        rows[i][j] += F(1, 3)
        try:
            cert = certify(out.algebra, RationalMatrix(rows))
        except NotAutomorphism:
            rejected_q += 1
            continue
        # a surviving map must genuinely be an automorphism; only the
        # central unipotent directions allow that, and they keep the
        # certificate intact
        assert cert.charpoly == out.certificate.charpoly
    report(4, f"{rejected} perturbed maps rejected by commutation, "
              f"{rejected_q}/25 rational perturbations rejected as automorphisms")


# -- criterion 5 helpers ----------------------------------------------------


def _random_integer_like(rng, n):
    m = RationalMatrix.identity(n)
    ops = rng.randint(3, 7)
    for _ in range(ops):
        kind = rng.random()
        rows = [list(r) for r in m.entries]
        if kind < 0.7:
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-3, 3)
            for t in range(n):
                rows[i][t] += c * rows[j][t]
        elif kind < 0.85:
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i], rows[j] = rows[j], rows[i]
        else:
            i = rng.randrange(n)
            rows[i] = [-x for x in rows[i]]
        m = RationalMatrix(rows)
    return m


def _yun_squarefree_decomposition(p):
    """p = prod q_i^i with q_i squarefree and pairwise coprime."""
    out = []
    g = poly_gcd(p, p.derivative())
    b = (p // g).monic()
    c = (p.derivative() // g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((i, a))
        b = (b // a).monic()
        c = d // a
        d = c - b.derivative()
        i += 1
    return out


def _oracle_counts(p):
    """(distinct roots on |z| = 1, roots inside with multiplicity) from a
    high-precision numerical root finder on the squarefree factors."""
    on = 0
    inside = 0
    with mp.workdps(60):
        for mult, q in _yun_squarefree_decomposition(p):
            coeffs = [mp.mpf(c.numerator) / mp.mpf(c.denominator)
                      for c in reversed(q.coeffs)]
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
            for r in roots:
                dist = abs(abs(r) - 1)
                if dist < mp.mpf(10) ** -30:
                    on += 1
                elif abs(r) < 1:
                    inside += mult
    return on, inside


def test_criterion_5_hyperbolicity_oracle():
    rng = random.Random(5150)
    special = [
        Polynomial([1, -3, 1]), Polynomial([1, 3, 1]), Polynomial([-1, 0, 1]),
        Polynomial([1, 1, 1]), Polynomial([1, 0, 0, 1]),
        Polynomial([1, -1, -1, 1]),
    ]
    def companion(p):
        n = p.degree
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = F(1)
        for i in range(n):
            rows[i][n - 1] = -p[i]
        return RationalMatrix(rows)

    matrices = [companion(p) for p in special]
    while len(matrices) < 500:
        matrices.append(_random_integer_like(rng, rng.randint(2, 6)))
    checked = 0
    for m in matrices:
        p = m.charpoly()
        assert p.is_integer and abs(p.constant) == 1
        on_exact = count_roots_on_unit_circle(p)
        on_oracle, inside_oracle = _oracle_counts(p)
        assert on_exact == on_oracle, f"circle count mismatch for {p!r}"
        if on_exact == 0:
            inside_exact = count_roots_inside_unit_disk(p)
            assert inside_exact == inside_oracle, f"disk count mismatch for {p!r}"
        checked += 1
    assert checked >= 500
    report(5, f"{checked} integer-like matrices agree with the numerical oracle")


def test_criterion_6_pfaffian_identities():
    rng = random.Random(66)

    def random_skew(n):
        rows = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                v = F(rng.randint(-6, 6), rng.randint(1, 3))
                rows[i][j], rows[j][i] = v, -v
        return rows

    checked = 0
    for n in (4, 6):
        for _ in range(100):
            s = random_skew(n)
            sk = SkewMap(tuple(tuple(r) for r in s))
            assert pfaffian(sk) ** 2 == RationalMatrix(s).det()
            a = RationalMatrix([[F(rng.randint(-3, 3)) for _ in range(n)]
                                for _ in range(n)])
            cong = a.transpose() * RationalMatrix(s) * a
            assert pfaffian(SkewMap(cong.entries)) == a.det() * pfaffian(sk)
            checked += 1
    for k in range(1, 11):
        bf = binary_form_of(nk_algebra(k))
        assert squarefree_part_of_rational(bf.discriminant) == \
            squarefree_part_of_rational(F(4 * k))
    report(6, f"{checked} random skew matrices pass both Pfaffian identities; "
              f"discriminants match 4k mod squares for k <= 10")


def test_criterion_7_pell():
    def brute(d, ymax=10 ** 4):
        for y in range(1, ymax):
            t = 4 + d * y * y
            r = math.isqrt(t)
            if r * r == t:
                return (r, y)
        return None

    for d in (5, 8, 12, 13, 20, 21, 24):
        sol = solve_pell(d)
        assert (sol.x, sol.y) == brute(d)
        b = d % 2
        h = BinaryQuadraticForm(1, b, F(b * b - d, 4))
        assert h.discriminant == d and h.is_integer()
        u = pell_automorphism(h, sol)
        assert u.det() == 1
        assert form_preserved_by(h, u)
        assert u.charpoly() == Polynomial([1, -sol.x, 1])
    report(7, "fundamental Pell solutions match brute force; U(x,y) verified")


def test_criterion_8_duality():
    for k in (2, 3, 5):
        assert scheuneman_dual(nk_algebra(k)).brackets == hk_algebra(k).brackets
        assert scheuneman_dual(scheuneman_dual(nk_algebra(k))).brackets == \
            nk_algebra(k).brackets
    partners = {2: 3, 5: 2, 7: 2}
    for k, l in partners.items():
        out = recipe_count(k, l)
        alpha = out.matrix.submatrix(range(4), range(4))
        a = out.algebra
        dual = scheuneman_dual(a)
        ma, md = dual_automorphism(alpha, a, dual)
        assert ma == out.matrix
        ca = center_block(a, ma).charpoly()
        cd = center_block(dual, md).charpoly()
        assert ca * cd == wedge_square(alpha).charpoly()
        cert = certify(dual, md)
        assert cert.integer_like and cert.hyperbolic
        assert cert.signature == (3, 5)
    report(8, "dual tables, double duality, combined eigenvalues and {3,5} "
              "dual signatures all verified")


def test_criterion_9_minimal_signature():
    t0 = time.monotonic()
    datum = quartic_z4_datum()
    extra = ConeConstraint((1, 0, 2, 0), "<1")
    found = search_unit_pisot(datum, 2, extra_constraints=[extra])
    assert found, "search found no constrained unit"
    frozen = datum.element(CSIG_N2_UNIT_COORDS)
    assert any(u == frozen for u in found)
    for c, expected_type in ((2, (4, 2)), (3, (4, 2, 4))):
        out = recipe_csig(datum, frozen, c)
        assert out.certificate.minimal_signature
        assert out.certificate.algebra_type == expected_type
        assert min(out.certificate.signature) == c
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(9, f"minimal signature at c in {{2,3}} from the searched fixture "
              f"in {elapsed:.1f}s")


def test_criterion_10_type_nnn(cubic, cubic_unit):
    from anosovforms.recipes import recipe_last

    for c in (2, 3):
        out = recipe_last(cubic, cubic_unit, c)
        assert out.certificate.algebra_type == (3,) * c
        assert check_type_constraints(out.certificate.algebra_type) == "case_iii"
        assert out.certificate.integer_like and out.certificate.hyperbolic
    report(10, "types (3,3) and (3,3,3) certified Anosov in case_iii")


def test_criterion_11_appendix(sqrt2):
    lam = sqrt2.element([1, 1])
    found = search_unit_pisot(sqrt2, 2)
    assert lam in found
    constraint = ConeConstraint((1, 2), "<1")
    assert constraint.holds_for(lam)
    mu = lam * apply_automorphism(sqrt2, 1, lam) ** 2
    assert mu == sqrt2.element([-1, 1])  # exactly sqrt2 - 1
    assert brute_force_full_rank(lam, 5)
    report(11, "appendix search, existence constraint (value sqrt2 - 1) and "
               "full-rank brute force verified")
