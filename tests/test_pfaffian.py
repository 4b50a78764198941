import importlib
import math
import random
from fractions import Fraction as F

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms.anosov import certify
from anosovforms.errors import (
    AnosovError,
    BadDiscriminant,
    DegeneratePfaffian,
    DimensionBudgetExceeded,
    DoesNotPreserveW,
    NotTwoStep,
    OddDimension,
    PellBudgetExceeded,
    SolutionMismatch,
)
from anosovforms.exactmath import Polynomial, RationalMatrix
from anosovforms.liealg import LieAlgebra, abelian, heisenberg, is_automorphism
from anosovforms.pfaffian import (
    BinaryQuadraticForm,
    MultiPoly,
    PFAFFIAN_SIZE_BUDGET,
    PellSolution,
    SkewMap,
    adapted_split,
    binary_form_of,
    center_block,
    classify_type42,
    dual_automorphism,
    extend_degree_one,
    form_preserved_by,
    hk_algebra,
    j_map,
    nk_algebra,
    pell_automorphism,
    pfaffian,
    pfaffian_form,
    scheuneman_dual,
    solve_pell,
    squarefree_part_of_rational,
    w_space_coords,
    wedge_square,
)
from anosovforms.recipes import recipe_count
from test_fieldlinalg import ref_nullspace, ref_solve
from test_liealg import frozen_bracket_map


def _pell_search(d, limit):
    """The smallest y < limit with 4 + d y^2 a square, as (x, y), or None:
    the ascending search, visiting only the y whose residue modulo
    16*9*5*7*11 leaves 4 + d y^2 a square modulo each factor."""
    residues, modulus = [0], 1
    for m in (16, 9, 5, 7, 11):
        squares = {s * s % m for s in range(m)}
        ok = [r for r in range(m) if (4 + d * r * r) % m in squares]
        inv = pow(modulus, -1, m)
        residues = [c + modulus * ((r - c) * inv % m) for c in residues for r in ok]
        modulus *= m
    best = limit
    for c in residues:
        for y in range(c or modulus, best, modulus):
            t = 4 + d * y * y
            if math.isqrt(t) ** 2 == t:
                best = y
                break
    return (math.isqrt(4 + d * best * best), best) if best < limit else None


def random_skew(rng, n):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.randint(-5, 5), rng.randint(1, 3))
            rows[i][j] = v
            rows[j][i] = -v
    return SkewMap(tuple(tuple(r) for r in rows))


class TestJMap:
    def test_nk_z1(self):
        jz = j_map(nk_algebra(5), [F(1), F(0)])
        m = jz.matrix
        assert m[0][2] == 1 and m[1][3] == 1
        assert m[0][1] == 0 and m[0][3] == 0 and m[1][2] == 0 and m[2][3] == 0

    def test_nk_z2(self):
        jz = j_map(nk_algebra(5), [F(0), F(1)])
        m = jz.matrix
        assert m[0][3] == 1 and m[1][2] == 5

    def test_abelian_zero_map(self):
        jz = j_map(abelian(4), [])
        assert all(x == 0 for row in jz.matrix for x in row)
        with pytest.raises(ValueError):
            j_map(abelian(4), [F(1)])  # abelian center part is empty

    def test_three_step_rejected(self):
        f4 = LieAlgebra(4, ((0, 1, 2, F(1)), (0, 2, 3, F(1))))
        with pytest.raises(NotTwoStep):
            j_map(f4, [F(1), F(1)])

    def test_heisenberg_adapted(self):
        jz = j_map(heisenberg(), [F(1)])
        assert jz.matrix[0][1] == 1


class TestPfaffian:
    def test_2x2(self):
        s = SkewMap(((F(0), F(7)), (F(-7), F(0))))
        assert pfaffian(s) == 7

    def test_standard_block(self):
        rows = [[F(0)] * 4 for _ in range(4)]
        rows[0][1], rows[1][0] = F(1), F(-1)
        rows[2][3], rows[3][2] = F(1), F(-1)
        assert pfaffian(SkewMap(tuple(tuple(r) for r in rows))) == 1

    def test_4x4_formula(self):
        rng = random.Random(2)
        for _ in range(30):
            s = random_skew(rng, 4)
            m = s.matrix
            expect = m[0][1] * m[2][3] - m[0][2] * m[1][3] + m[0][3] * m[1][2]
            assert pfaffian(s) == expect

    def test_square_is_det(self):
        rng = random.Random(3)
        for n in (4, 6):
            for _ in range(10):
                s = random_skew(rng, n)
                assert pfaffian(s) ** 2 == RationalMatrix(s.matrix).det()

    def test_congruence_scaling(self):
        rng = random.Random(4)
        for _ in range(10):
            s = random_skew(rng, 4)
            a = RationalMatrix(
                [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            )
            ats_a = a.transpose() * RationalMatrix(s.matrix) * a
            skew = SkewMap(ats_a.entries)
            assert pfaffian(skew) == a.det() * pfaffian(s)

    def test_odd_dimension(self):
        with pytest.raises(OddDimension):
            pfaffian(SkewMap(((F(0),),)))

    def test_size_budget(self):
        def standard(n):
            rows = [[F(0)] * n for _ in range(n)]
            for i in range(0, n, 2):
                rows[i][i + 1], rows[i + 1][i] = F(1), F(-1)
            return SkewMap(tuple(map(tuple, rows)))

        assert pfaffian(standard(PFAFFIAN_SIZE_BUDGET)) == 1
        with pytest.raises(DimensionBudgetExceeded):
            pfaffian(standard(PFAFFIAN_SIZE_BUDGET + 2))


def frozen_pfaffian(s):
    """The signed sum over perfect matchings that pfaffian replaced."""
    n = s.size
    if n % 2 != 0:
        raise OddDimension("Pfaffian needs an even-size skew matrix")
    if n == 0:
        return F(1)
    acc = None
    for pairs in _frozen_matchings(tuple(range(n))):
        term = None
        for (i, j) in pairs:
            e = s.matrix[i][j]
            term = e if term is None else term * e
        if _frozen_matching_sign(pairs) < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def _frozen_matchings(indices):
    if not indices:
        yield ()
        return
    first, rest = indices[0], indices[1:]
    for idx, second in enumerate(rest):
        remaining = rest[:idx] + rest[idx + 1:]
        for sub in _frozen_matchings(remaining):
            yield ((first, second),) + sub


def _frozen_matching_sign(pairs):
    """The sign of the permutation listing the pairs, by its cycle lengths."""
    perm = [x for pair in pairs for x in pair]
    sign = 1
    seen = [False] * len(perm)
    pos = {v: i for i, v in enumerate(sorted(perm))}
    arr = [pos[v] for v in perm]
    for start in range(len(arr)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = arr[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _pencil(a):
    """sum_i Y_i J_(Z_i) as a SkewMap of MultiPolys, as pfaffian_form builds it."""
    n1, k = adapted_split(a)
    zero = MultiPoly(k)
    rows = [[zero] * n1 for _ in range(n1)]
    for (i, j, t, c) in a.brackets:
        term = MultiPoly.variable(k, t - n1) * c
        rows[i][j] = rows[i][j] + term
        rows[j][i] = rows[j][i] - term
    return SkewMap(tuple(tuple(r) for r in rows))


def _random_two_step(rng, n1, k):
    """A two-step algebra on an adapted basis with seeded brackets into
    the k center vectors (each center vector hit at least once)."""
    pairs = [(i, j) for i in range(n1) for j in range(i + 1, n1)]
    entries = [(i, j, n1 + t, F(rng.randint(-3, 3) or 1, rng.randint(1, 2)))
               for t, (i, j) in enumerate(rng.sample(pairs, k))]
    entries += [(i, j, n1 + rng.randrange(k), F(rng.randint(-3, 3), rng.randint(1, 3)))
                for i, j in rng.sample(pairs, rng.randint(0, len(pairs)))]
    return LieAlgebra(n1 + k, tuple(entries))


class TestFrozenPfaffian:
    def test_nk_and_hk_forms(self):
        for a in [nk_algebra(k) for k in range(-4, 7)] + [hk_algebra(k) for k in (0, 2, 5)]:
            n1, k = adapted_split(a)
            pencil = _pencil(a)
            assert repr(pfaffian(pencil)) == repr(frozen_pfaffian(pencil))
            assert repr(pfaffian_form(a)) == repr(frozen_pfaffian(pencil))
            rng = random.Random(a.dim * 100 + len(a.brackets))
            for _ in range(5):
                z = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]
                jz = j_map(a, z)
                assert repr(pfaffian(jz)) == repr(frozen_pfaffian(jz))

    @pytest.mark.parametrize("n", range(9))
    def test_seeded_skew_matrices(self, n):
        rng = random.Random(3100 + n)
        for _ in range(12 if n <= 6 else 4):
            s = random_skew(rng, n)
            got = _outcome(pfaffian, s)
            assert got == _outcome(frozen_pfaffian, s)
            assert (got is OddDimension) == (n % 2 == 1)
        ints = SkewMap(tuple(tuple(int(j - i) for j in range(n)) for i in range(n)))
        assert _outcome(pfaffian, ints) == _outcome(frozen_pfaffian, ints)

    def test_multipoly_pencils(self):
        rng = random.Random(3200)
        cases = [recipe_count(5, 2).algebra, recipe_count(2, 3).algebra]
        cases += [_random_two_step(rng, n1, k) for n1 in (2, 4, 6) for k in (1, 2, 3)
                  for _ in range(2) if k <= n1 * (n1 - 1) // 2]
        for a in cases:
            pencil = _pencil(a)
            assert repr(pfaffian(pencil)) == repr(frozen_pfaffian(pencil))


class _CountingRows(tuple):
    """A matrix's rows that count how often a row is read."""

    reads = 0

    def __getitem__(self, i):
        type(self).reads += 1
        return tuple.__getitem__(self, i)


def test_pfaffian_expands_each_index_subset_once():
    """At the budget's size the memoised expansion reads a row fewer than
    2^(n-1) times (every expansion of an index subset reads one), against
    (n-1)!! = 10,395 matchings, and keeps the matchings' value."""
    module = importlib.import_module("anosovforms.pfaffian")
    n = PFAFFIAN_SIZE_BUDGET
    s = random_skew(random.Random(1200), n)
    rows = _CountingRows(s.matrix)
    assert repr(module._pfaffian_rows(rows, tuple(range(n)))) == repr(frozen_pfaffian(s))
    assert 0 < _CountingRows.reads < 2 ** (n - 1)


def _outcome(fn, *args):
    """repr of a value, the error type of a reject."""
    try:
        return repr(fn(*args))
    except Exception as e:  # noqa: BLE001 - the type is the verdict
        return type(e)


class TestPfaffianForm:
    def test_nk_form(self):
        for k in (2, 5, 7):
            h = pfaffian_form(nk_algebra(k))
            assert h.coefficient((2, 0)) == -1
            assert h.coefficient((0, 2)) == k
            assert h.coefficient((1, 1)) == 0

    def test_nk_discriminant(self):
        for k in range(1, 11):
            bf = binary_form_of(nk_algebra(k))
            assert squarefree_part_of_rational(bf.discriminant) == \
                squarefree_part_of_rational(F(4 * k))

    def test_heisenberg_padded_rejected(self):
        padded = LieAlgebra(4, ((0, 1, 3, F(1)),))
        with pytest.raises((NotTwoStep, Exception)):
            binary_form_of(padded)  # type (2,1)-ish, not (4,2)


class TestClassify:
    def test_nk(self):
        assert classify_type42(nk_algebra(5)) == (5, True)
        assert classify_type42(nk_algebra(1)) == (1, False)
        assert classify_type42(nk_algebra(12)) == (3, True)

    def test_invariant_under_adapted_change_of_basis(self):
        rng = random.Random(9)
        a = nk_algebra(5)
        for _ in range(5):
            # block change of basis: degree-1 block T, center block S
            while True:
                t = RationalMatrix([[F(rng.randint(-2, 2)) for _ in range(4)]
                                    for _ in range(4)])
                if t.det() != 0:
                    break
            while True:
                s = RationalMatrix([[F(rng.randint(-2, 2)) for _ in range(2)]
                                    for _ in range(2)])
                if s.det() != 0:
                    break
            # transform structure constants: new basis vectors are columns
            cols_t = [[t[i, j] for i in range(4)] for j in range(4)]
            sinv = s.inverse()
            new_brackets = []
            for p in range(4):
                for q in range(p + 1, 4):
                    w = a.bracket(cols_t[p] + [F(0)] * 2, cols_t[q] + [F(0)] * 2)
                    z = [w[4], w[5]]
                    zz = [sinv[0, 0] * z[0] + sinv[0, 1] * z[1],
                          sinv[1, 0] * z[0] + sinv[1, 1] * z[1]]
                    # [b_p', b_q'] = sum_r zz[r] c_r' requires expressing in
                    # the new center basis: z = S zz
                    for r, c in enumerate(zz):
                        if c != 0:
                            new_brackets.append((p, q, 4 + r, c))
            changed = LieAlgebra(6, tuple(new_brackets))
            assert classify_type42(changed)[0] == 5

    def test_degenerate(self):
        degen = LieAlgebra(6, ((0, 1, 4, F(1)),))
        with pytest.raises((DegeneratePfaffian, Exception)):
            classify_type42(degen)


class TestPell:
    def test_examples(self):
        assert solve_pell(5) == PellSolution(3, 1)
        assert solve_pell(20) == PellSolution(18, 4)

    def test_square_rejected(self):
        with pytest.raises(BadDiscriminant):
            solve_pell(4)
        with pytest.raises(BadDiscriminant):
            solve_pell(-3)

    def test_brute_force_agreement(self):
        import math

        def brute(d, ymax=10 ** 4):
            for y in range(1, ymax):
                t = 4 + d * y * y
                r = int(math.isqrt(t))
                if r * r == t:
                    return (r, y)
            return None

        for d in (5, 8, 12, 13, 20, 21, 24):
            sol = solve_pell(d)
            assert (sol.x, sol.y) == brute(d)

    def test_ascending_search_oracle(self):
        # every nonsquare d <= 1000 whose smallest y is below 10^6; a
        # solution with y below solve_pell's would make the oracle stop there
        for d in range(2, 1001):
            if math.isqrt(d) ** 2 == d:
                continue
            sol = solve_pell(d)
            assert sol.x * sol.x - d * sol.y * sol.y == 4 and sol.y >= 1
            limit = min(sol.y + 1, 10 ** 6)
            assert _pell_search(d, limit) == ((sol.x, sol.y) if sol.y < limit else None)

    def test_oracle_sieve_is_the_plain_search(self):
        def plain(d, limit):
            for y in range(1, limit):
                t = 4 + d * y * y
                r = math.isqrt(t)
                if r * r == t:
                    return (r, y)
            return None

        for d in range(2, 200):
            if math.isqrt(d) ** 2 != d:
                assert _pell_search(d, 3000) == plain(d, 3000)

    def test_large_fundamental_solution(self):
        # y has 29 digits here, out of reach of the ascending search
        sol = solve_pell(991)
        assert sol.x * sol.x - 991 * sol.y * sol.y == 4
        assert len(str(sol.y)) == 29

    def test_step_budget(self):
        # 5,314 steps give a 2,783-digit y; 10^10 + 3 runs past the budget
        sol = solve_pell(10 ** 8 + 3)
        assert sol.x * sol.x - (10 ** 8 + 3) * sol.y * sol.y == 4
        assert len(str(sol.y)) == 2783
        with pytest.raises(PellBudgetExceeded):
            solve_pell(10 ** 10 + 3)

    def test_u_matrix(self):
        h = BinaryQuadraticForm(1, 1, -1)
        u = pell_automorphism(h, PellSolution(3, 1))
        assert u == RationalMatrix([[1, 1], [1, 2]])
        assert u.charpoly() == Polynomial([1, -3, 1])

    def test_u_identity(self):
        h = BinaryQuadraticForm(1, 0, -5)
        u = pell_automorphism(h, PellSolution(2, 0))
        assert u == RationalMatrix.identity(2)

    def test_solution_mismatch(self):
        h = BinaryQuadraticForm(1, 0, -5)
        with pytest.raises(SolutionMismatch):
            pell_automorphism(h, PellSolution(3, 1))

    def test_all_small_solutions_preserve_form(self):
        import math

        for d in (5, 8, 12, 13, 20):
            h = BinaryQuadraticForm(1, 0, F(-d, 4)) if d % 4 == 0 else \
                BinaryQuadraticForm(1, d % 2, F((d % 2) ** 2 - d, 4))
            assert h.discriminant == d
            assert h.is_integer()
            for y in range(1, 51):
                t = 4 + d * y * y
                r = int(math.isqrt(t))
                if r * r != t:
                    continue
                u = pell_automorphism(h, PellSolution(r, y))
                assert form_preserved_by(h, u)
                assert u.det() == 1


class TestScheuneman:
    def test_nk_dual_is_hk(self):
        for k in (2, 3, 5):
            assert scheuneman_dual(nk_algebra(k)).brackets == hk_algebra(k).brackets

    def test_double_dual(self):
        for k in (2, 3, 5):
            assert scheuneman_dual(scheuneman_dual(nk_algebra(k))).brackets == \
                nk_algebra(k).brackets

    def test_free_two_step_dual_is_abelian(self):
        free3 = LieAlgebra(6, ((0, 1, 3, F(1)), (0, 2, 4, F(1)),
                                    (1, 2, 5, F(1))))
        d = scheuneman_dual(free3)
        assert d.dim == 3 and d.brackets == ()

    def test_abelian_dual_is_free_two_step(self):
        free3 = LieAlgebra(6, ((0, 1, 3, F(1)), (0, 2, 4, F(1)),
                                    (1, 2, 5, F(1))))
        d = scheuneman_dual(abelian(3))
        assert d.dim == 6 and d.brackets == free3.brackets
        assert scheuneman_dual(d).brackets == ()

    def test_hk_type(self):
        assert adapted_split(hk_algebra(5)) == (4, 4)


def _express_in(basis, vec):
    """Coordinates of vec in the given (independent) list, or None."""
    if not basis:
        return None
    try:
        sol = ref_solve([list(col) for col in zip(*basis)], [vec])
    except fl.Inconsistent:
        return None  # vec not in span
    return [row[0] for row in sol]


def _coords_to_skew(v, pairs, n1):
    rows = [[F(0)] * n1 for _ in range(n1)]
    for x, (i, j) in zip(v, pairs):
        rows[i][j] = x
        rows[j][i] = -x
    return rows


def _skew_b(x, y):
    """B(Z1, Z2) = trace(Z1^T Z2)."""
    n = len(x)
    return sum(x[i][j] * y[i][j] for i in range(n) for j in range(n))


def frozen_w_space_coords(a):
    """w_space_coords on the Fraction constants: row t holds J_{Z_t}'s
    coordinates on the E_ij, i < j."""
    n1, k = adapted_split(a)
    pairs = [(i, j) for i in range(n1) for j in range(i + 1, n1)]
    coords = [[F(0)] * len(pairs) for _ in range(k)]
    for (i, j, t, c) in a.brackets:
        coords[t - n1][pairs.index((i, j))] = c
    assert len(fl.rref(coords)[1]) == k
    return coords, pairs, n1, k


def frozen_scheuneman_dual(a):
    """scheuneman_dual with the Gram solve on full skew matrices and its
    greedy center canonicalization: each bracket vector expressed in the
    directions met so far, or a new direction."""
    coords, pairs, n1, k = frozen_w_space_coords(a)
    if k == 0:
        nskew = len(pairs)
        comp = [tuple(F(i == j) for j in range(nskew)) for i in range(nskew)]
    else:
        comp = ref_nullspace(coords)
    kd = len(comp)
    wt_basis = [_coords_to_skew(v, pairs, n1) for v in comp]
    gram = [[_skew_b(x, y) for y in wt_basis] for x in wt_basis]
    raw_brackets = {}
    if kd:
        ij_pairs = [(i, j) for i in range(n1) for j in range(i + 1, n1)]
        sol = ref_solve(gram, [[z[j][i] for z in wt_basis] for i, j in ij_pairs])
        for col, key in enumerate(ij_pairs):
            vec = [sol[t][col] for t in range(kd)]
            if any(x != 0 for x in vec):
                raw_brackets[key] = vec
    greedy, coords_out = [], {}
    for key in sorted(raw_brackets):
        vec = raw_brackets[key]
        co = _express_in(greedy, vec)
        if co is None:
            greedy.append(vec)
            co = [F(0)] * len(greedy)
            co[-1] = F(1)
        coords_out[key] = co
    width = len(greedy)
    for key, co in coords_out.items():
        coords_out[key] = co + [F(0)] * (width - len(co))
    keys = sorted(coords_out)
    scaled = [fl.primitive([coords_out[key][t] for key in keys]) for t in range(width)]
    entries = [(i, j, n1 + t, F(scaled[t][r])) for r, (i, j) in enumerate(keys)
               for t in range(width) if scaled[t][r]]
    return LieAlgebra(n1 + kd, tuple(entries))


def _dual_outcome(dual, a):
    try:
        out = dual(a)
    except Exception as e:  # noqa: BLE001 - the type is the verdict
        return type(e)
    return out.dim, out.brackets


def _mixed_degree_one(a, rng):
    """a with its degree-1 basis replaced by random integer combinations,
    the center basis kept: still adapted, with dense bracket vectors."""
    n1, _k = adapted_split(a)
    while True:
        t = [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(n1)]
        if fl.det(t):
            break
    bmap = frozen_bracket_map(a)
    entries = []
    for p in range(n1):
        for q in range(p + 1, n1):
            for i in range(n1):
                for j in range(i + 1, n1):
                    c = t[i][p] * t[j][q] - t[j][p] * t[i][q]
                    for z, x in bmap.get((i, j), {}).items():
                        entries.append((p, q, z, c * x))
    return LieAlgebra(a.dim, tuple(entries))


class TestFrozenDualCanonicalization:
    def test_nk_hk_and_abelian(self):
        free3 = LieAlgebra(6, ((0, 1, 3, F(1)), (0, 2, 4, F(1)), (1, 2, 5, F(1))))
        cases = [nk_algebra(k) for k in range(-4, 7)] + [hk_algebra(k) for k in (0, 2, 5)]
        cases += [abelian(n) for n in (1, 2, 3, 4)] + [free3, heisenberg()]
        for a in cases:
            assert _dual_outcome(scheuneman_dual, a) == _dual_outcome(frozen_scheuneman_dual, a)

    def test_recipe_outputs_and_mixed_bases(self):
        rng = random.Random(16)
        cases = [recipe_count(k, l).algebra for k, l in ((5, 2), (2, 3))]
        cases += [_mixed_degree_one(a, rng) for a in cases + [nk_algebra(3), hk_algebra(2)]
                  for _ in range(8)]
        for a in cases:
            out = _dual_outcome(scheuneman_dual, a)
            assert out == _dual_outcome(frozen_scheuneman_dual, a)
            assert isinstance(out, tuple)

    def test_seeded_random_algebras(self):
        rng = random.Random(2400)
        for a in _random_adapted_algebras(rng):
            out = _dual_outcome(scheuneman_dual, a)
            assert out == _dual_outcome(frozen_scheuneman_dual, a)
            assert isinstance(out, tuple)


def _random_adapted_algebras(rng, per_type=4):
    """Seeded adapted 2-step algebras of every type (n1, k) with n1 <= 6
    and k <= 4, with rational constants."""
    return [_random_two_step(rng, n1, k) for n1 in range(2, 7)
            for k in range(1, min(4, n1 * (n1 - 1) // 2) + 1) for _ in range(per_type)]


def frozen_extend_degree_one(a, alpha):
    """extend_degree_one with one _express_in solve per center vector."""
    coords, pairs, n1, k = frozen_w_space_coords(a)
    if alpha.rows != n1:
        raise ValueError("degree-1 block has the wrong size")
    at = alpha.transpose()
    center_cols = []
    for t in range(k):
        m = at * RationalMatrix(_coords_to_skew(coords[t], pairs, n1)) * alpha
        co = _express_in(coords, [m[i, j] for (i, j) in pairs])
        if co is None:
            raise DoesNotPreserveW("alpha^T J_Z alpha leaves the image of J")
        center_cols.append(co)
    n = a.dim
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n1):
        for j in range(n1):
            rows[i][j] = alpha[i, j]
    for i in range(k):
        for j in range(k):
            rows[n1 + i][n1 + j] = center_cols[i][j]
    out = RationalMatrix(rows)
    if not is_automorphism(a, out):
        raise DoesNotPreserveW("extension is not an automorphism")
    return out


def _extension_outcome(extend, a, alpha):
    """repr of an extension, the error type and message of a reject; an
    accepted extension's center block C also satisfies C * coords =
    coords * wedge_square(alpha), the images alpha^T J_Z alpha."""
    try:
        out = extend(a, alpha)
    except (AnosovError, ValueError) as e:
        return f"{type(e).__name__}: {e}"
    coords = w_space_coords(a)[0]
    if coords:  # abelian: no center block, no images
        w = RationalMatrix(coords)
        assert center_block(a, out) * w == w * wedge_square(alpha)
    return repr(out)


class TestFrozenExtension:
    def test_one_solve_matches_per_vector_solves(self):
        # the degree-1 blocks of recipe maps and Pell automorphisms extend;
        # random integer blocks mostly leave W, and a few are automorphisms
        rng = random.Random(18)
        cases = []
        for k, l in ((5, 2), (2, 3)):
            out = recipe_count(k, l)
            alpha = out.matrix.submatrix(range(4), range(4))
            cases += [(out.algebra, alpha), (scheuneman_dual(out.algebra), alpha.transpose())]
        for a in (nk_algebra(5), hk_algebra(2), abelian(4), heisenberg()):
            n1, _k = adapted_split(a)
            cases += [(a, RationalMatrix.identity(n1) * F(2))]
            for _ in range(12):
                cases.append((a, RationalMatrix(
                    [[rng.choice([0, 0, 1, -1, 2]) for _ in range(n1)] for _ in range(n1)])))
        verdicts = set()
        for a, alpha in cases:
            out = _extension_outcome(extend_degree_one, a, alpha)
            assert out == _extension_outcome(frozen_extend_degree_one, a, alpha)
            verdicts.add(out.startswith("RationalMatrix"))
        assert verdicts == {True, False}

    def test_seeded_random_algebras_and_blocks(self):
        # scalar blocks always extend; a random block extends when W is all
        # of the skew matrices (types (2,1) and (3,3)) and it is invertible
        rng = random.Random(2401)
        verdicts = set()
        for a in _random_adapted_algebras(rng, per_type=2):
            n1, _k = adapted_split(a)
            blocks = [RationalMatrix.identity(n1) * F(rng.randint(-3, 3) or 1, rng.randint(1, 3))]
            blocks += [RationalMatrix([[F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n1)]
                                       for _ in range(n1)]) for _ in range(3)]
            for alpha in blocks:
                out = _extension_outcome(extend_degree_one, a, alpha)
                assert out == _extension_outcome(frozen_extend_degree_one, a, alpha)
                verdicts.add(out.startswith("RationalMatrix"))
        assert verdicts == {True, False}


class TestIntegerDualityLayer:
    """w_space_coords holds the integer bracket numerators, and the series,
    the dual, the extension and the unit test run on integer pairs."""

    def _cases(self):
        out = recipe_count(2, 3)
        cases = [out.algebra, scheuneman_dual(out.algebra), abelian(3), heisenberg()]
        cases += [nk_algebra(k) for k in (-3, 2, 5)] + [hk_algebra(k) for k in (0, 2)]
        return cases + _random_adapted_algebras(random.Random(2402), per_type=1)

    def test_w_space_coords_are_the_scaled_coordinates(self):
        for a in self._cases():
            coords, pairs, n1, k = w_space_coords(a)
            old, *rest = frozen_w_space_coords(a)
            c = a.integer_bracket_map()[1]
            assert [pairs, n1, k] == rest
            assert coords == [[c * x for x in row] for row in old]
            assert all(type(x) is int for row in coords for x in row)

    def test_builds_no_fraction(self, monkeypatch):
        from anosovforms.liealg import lower_central_series
        from anosovforms.numfield import apply_automorphism, biquadratic_datum, is_algebraic_unit
        from anosovforms.recipes import biquadratic_pisot_unit

        out = recipe_count(2, 3)
        a, alpha = out.algebra, out.matrix.submatrix(range(4), range(4))
        fresh = LieAlgebra.from_numerators(a.dim, [
            (i, j, k, x) for (i, j), row in a.integer_bracket_map()[0].items()
            for k, x in row.items()], a.integer_bracket_map()[1])
        datum = biquadratic_datum(2, 3)
        lam = biquadratic_pisot_unit(datum, 2, 3)
        elements = [apply_automorphism(datum, g, lam) for g in range(4)]
        elements += [lam * elements[1], datum.element((2, 0, 0, 0)), datum.element((F(1, 2), 0, 0, 0))]
        expected = [True] * 5 + [False, False]
        at = alpha.transpose()
        built = []
        real = F.__new__
        monkeypatch.setattr(F, "__new__", lambda cls, *x, **k: built.append(x) or real(cls, *x, **k))
        series = lower_central_series(fresh)
        coords = w_space_coords(fresh)[0]
        dual = scheuneman_dual(fresh)
        ext, ext_dual = extend_degree_one(fresh, alpha), extend_degree_one(dual, at)
        dual_series = lower_central_series(dual)
        units = [is_algebraic_unit(x) for x in elements]
        monkeypatch.undo()
        assert built == []
        assert series[1:] == ((4, 2), 2) and dual_series[1:] == ((4, 4), 2) and len(coords) == 2
        assert ext == out.matrix and ext_dual == dual_automorphism(alpha, a, dual)[1]
        assert units == expected


class TestDualAutomorphism:
    def test_identity(self):
        a = nk_algebra(5)
        d = scheuneman_dual(a)
        ma, md = dual_automorphism(RationalMatrix.identity(4), a, d)
        assert ma == RationalMatrix.identity(6)
        assert md == RationalMatrix.identity(8)

    def test_scaling_extends(self):
        a = nk_algebra(5)
        d = scheuneman_dual(a)
        ma, md = dual_automorphism(RationalMatrix.identity(4) * F(2), a, d)
        cert = certify(a, ma)
        assert not cert.integer_like  # scaling is an automorphism, not Anosov

    def test_count_output_dualizes_to_35(self):
        out = recipe_count(5, 2)
        alpha = out.matrix.submatrix(range(4), range(4))
        a = out.algebra
        d = scheuneman_dual(a)
        ma, md = dual_automorphism(alpha, a, d)
        assert ma == out.matrix
        cert = certify(d, md)
        assert cert.integer_like and cert.hyperbolic
        assert cert.signature == (3, 5)
        assert cert.algebra_type == (4, 4)

    def test_combined_eigenvalues(self):
        out = recipe_count(5, 2)
        alpha = out.matrix.submatrix(range(4), range(4))
        a = out.algebra
        d = scheuneman_dual(a)
        ma, md = dual_automorphism(alpha, a, d)
        ca = center_block(a, ma).charpoly()
        cd = center_block(d, md).charpoly()
        assert ca * cd == wedge_square(alpha).charpoly()

    @pytest.mark.parametrize("cols", [3, 5])
    def test_block_shape_checked(self, cols):
        # a 4 x 5 block used to extend from its first four columns, and a
        # 4 x 3 block to raise IndexError
        a = nk_algebra(5)
        alpha = RationalMatrix([[F(i == j) for j in range(cols)] for i in range(4)])
        with pytest.raises(ValueError, match="degree-1 block has the wrong size"):
            extend_degree_one(a, alpha)
        with pytest.raises(ValueError, match="degree-1 block has the wrong size"):
            dual_automorphism(alpha, a, scheuneman_dual(a))

    def test_does_not_preserve(self):
        a = nk_algebra(5)
        bad = RationalMatrix([[1, 1, 0, 0], [0, 1, 0, 0],
                              [0, 0, 1, 0], [0, 0, 1, 1]])
        with pytest.raises(DoesNotPreserveW):
            extend_degree_one(a, bad)


def test_squarefree_part():
    assert squarefree_part_of_rational(F(4 * 5)) == 5
    assert squarefree_part_of_rational(F(5, 4)) == 5
    assert squarefree_part_of_rational(F(-18)) == -2
    assert squarefree_part_of_rational(F(1)) == 1
