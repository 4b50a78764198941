"""preserves_brackets and lower_central_series against the code they
replaced.

preserves_brackets formed [F b_i, F b_j] as a fresh double sum for every
pair i < j; it now runs column by column and forms the pair's bracket from
the column's ad-images [b_p, F b_j].  lower_central_series built gamma_2
from the brackets of the basis with the identity basis; it now seeds
gamma_2 with the rows of the integer bracket map.  The frozen copies below
are those versions: the new code must give the same verdict, and the same
series repr or the same error type.  The frozen series reduces its spans
over Fractions (test_fieldlinalg's ref_span_rref), as span_rref ran
before it returned primitive integer rows.
"""

import functools
import json
import random
from fractions import Fraction as F

import pytest

from anosovforms import _fieldlinalg as fl
from anosovforms import recipes, serialize
from anosovforms.catalog import sqrt2_datum
from anosovforms.errors import NotNilpotent
from anosovforms.galoisform import group_generators
from anosovforms.liealg import (
    Grading,
    LieAlgebra,
    _bracket,
    _support,
    abelian,
    heisenberg,
    lower_central_series,
    preserves_brackets,
)
from test_fieldlinalg import ref_span_rref
from test_frozen_descent_checks import _bench_generate, _dense_cases, _last
from test_galoisform import _recipe_representations

# ---------------------------------------------------------------------------
# the frozen code
# ---------------------------------------------------------------------------


def pairwise_preserves_brackets(a, cols, d):
    """preserves_brackets with one double-sum bracket per pair i < j."""
    bmap = a.integer_bracket_map()[0]
    image = {key: {k: d * c for k, c in row.items()} for key, row in bmap.items()}
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            diff = _bracket(bmap, cols[i], cols[j])
            for k, c in image.get((i, j), {}).items():
                for m, x in cols[k].items():
                    v = c * x
                    diff[m] = diff[m] - v if m in diff else -v
            if any(not v == 0 for v in diff.values()):
                return False
    return True


def identity_seeded_lower_central_series(a):
    """lower_central_series with gamma_2 built from the brackets of the
    basis with the identity basis."""
    n = a.dim
    series = [[tuple(F(int(j == i)) for j in range(n)) for i in range(n)]]
    bmap = a.integer_bracket_map()[0]
    while True:
        prev = [_support(fl.primitive(v)) for v in series[-1]]
        gens = []
        for i in range(n):
            for v in prev:
                out = _bracket(bmap, {i: 1}, v)
                if out:
                    gens.append([out.get(k, 0) for k in range(n)])
        nxt = ref_span_rref(gens) if gens else []
        if len(nxt) == len(prev):
            raise NotNilpotent("lower central series stabilizes at a nonzero subspace")
        series.append(nxt)
        if not nxt:
            series.pop()
            break
    dims = [len(b) for b in series]
    dims.append(0)
    type_tuple = tuple(dims[i] - dims[i + 1] for i in range(len(series)))
    return series, type_tuple, len(series)


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _same_verdict(a, cols, d):
    new = preserves_brackets(a, cols, d)
    assert new == pairwise_preserves_brackets(a, cols, d)
    return new


def _series_outcome(lcs, a):
    try:
        return repr(lcs(a))
    except NotNilpotent:
        return "NotNilpotent"


def _same_series(a):
    new = _series_outcome(lower_central_series, a)
    assert new == _series_outcome(identity_seeded_lower_central_series, a)
    return new


def _columns(m):
    """(F's integer columns by their nonzero entries, d) for f = F / d."""
    rows, d = fl.clear_denominators(m.entries)
    return [_support(col) for col in zip(*rows)], d


def _perturbed(rng, cols, n):
    """The columns with one seeded entry moved by +-1."""
    out = [dict(col) for col in cols]
    i, j = rng.randrange(n), rng.randrange(n)
    v = out[j].get(i, 0) + rng.choice((-1, 1))
    if v:
        out[j][i] = v
    else:
        del out[j][i]
    return out


# the recipes of the paper_examples and deep_class workloads
RECIPES = {
    "z4": recipes.recipe_z4_example,
    **{f"sweep{k},{l}": functools.partial(recipes.recipe_count, k, l)
       for k, l in ((2, 3), (3, 2), (5, 2), (6, 5), (7, 2), (10, 3), (11, 2))},
    **{f"csig{c}": functools.partial(recipes.recipe_csig_default, c) for c in (2, 3, 4)},
    **{f"last{c}": functools.partial(_last, c) for c in (2, 3, 4, 5, 6)},
    "laur": lambda: recipes.recipe_laur(heisenberg(), Grading((2, 1)), sqrt2_datum(),
                                        sqrt2_datum().element([1, 1])),
}


@functools.lru_cache(maxsize=None)
def _recipe_output(name):
    return RECIPES[name]()


def _sl2():
    # [h, e] = 2e, [h, f] = -2f, [e, f] = h
    return LieAlgebra(3, ((0, 1, 1, F(2)), (0, 2, 2, F(-2)), (1, 2, 0, F(1))))


def _non_jacobi(rng, a):
    """a with one seeded constant added: Jacobi usually fails,
    and the series may stop descending."""
    n = a.dim
    i = rng.randrange(n - 1)
    j = rng.randrange(i + 1, n)
    extra = (i, j, rng.randrange(n), F(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))))
    return LieAlgebra(n, a.brackets + (extra,))


# ---------------------------------------------------------------------------
# preserves_brackets
# ---------------------------------------------------------------------------


class TestPreservesBrackets:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certify_dense_inputs(self, seed):
        rng = random.Random(4400 + seed)
        expected = {"accept": True, "perturbed": False, "nonhyperbolic": True}
        verdicts = []
        for kind, a, m in _dense_cases(seed):
            n = a.dim
            cols, d = _columns(m)
            assert _same_verdict(a, cols, d) is expected[kind]
            if kind == "accept":
                for _ in range(4):
                    verdicts.append(_same_verdict(a, _perturbed(rng, cols, n), d))
            # the zero map preserves every bracket
            assert _same_verdict(a, [{} for _ in range(n)], d)
        # one-entry perturbations of a dense automorphism are rejected
        assert verdicts and not any(verdicts)

    @pytest.mark.parametrize("name", sorted(RECIPES))
    def test_recipe_maps(self, name):
        out = _recipe_output(name)
        a, n = out.algebra, out.algebra.dim
        cols, d = _columns(out.matrix)
        assert _same_verdict(a, cols, d)
        # the same map over a larger common denominator
        assert _same_verdict(a, [{i: 3 * x for i, x in col.items()} for col in cols], 3 * d)
        rng = random.Random(sum(map(ord, name)))
        for _ in range(4):
            _same_verdict(a, _perturbed(rng, cols, n), d)

    def test_representation_columns(self):
        verdicts = set()
        for name, la, _maps, rho in _recipe_representations():
            cols, den = rho.columns()
            gens = group_generators(la.datum)
            rng = random.Random(sum(map(ord, name)))
            for g in range(la.datum.degree):
                # every image is an automorphism, generators or not
                assert _same_verdict(rho.algebra, cols[g], den), (name, g)
            for g in gens:
                verdicts.add(_same_verdict(rho.algebra, _perturbed(rng, cols[g], la.dim), den))
        assert False in verdicts


# ---------------------------------------------------------------------------
# lower_central_series
# ---------------------------------------------------------------------------


class TestLowerCentralSeries:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_certify_dense_algebras(self, seed):
        rng = random.Random(4500 + seed)
        seen = set()
        for item in _bench_generate().dense_inputs(seed):
            if item["algebra"] in seen:
                continue
            seen.add(item["algebra"])
            a = serialize.algebra_from_json(json.loads(item["algebra"]))
            assert _same_series(a) != "NotNilpotent"
            for _ in range(3):
                _same_series(_non_jacobi(rng, a))

    @pytest.mark.parametrize("name", sorted(RECIPES))
    def test_recipe_algebras(self, name):
        a = _recipe_output(name).algebra
        assert _same_series(a) != "NotNilpotent"
        rng = random.Random(sum(map(ord, name)))
        for _ in range(3):
            _same_series(_non_jacobi(rng, a))

    def test_representation_algebras(self):
        for _name, _la, _maps, rho in _recipe_representations():
            assert _same_series(rho.algebra) != "NotNilpotent"

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_abelian(self, n):
        _same_series(abelian(n))
        assert lower_central_series(abelian(n))[1:] == ((n,), 1)

    @pytest.mark.parametrize("a", [_sl2(), LieAlgebra(2, ((0, 1, 1, F(1)),))],
                             ids=["sl2", "affine-line"])
    def test_not_nilpotent(self, a):
        assert _same_series(a) == "NotNilpotent"

    def test_seeded_non_jacobi_tables(self):
        rng = random.Random(4600)
        outcomes = set()
        for _ in range(60):
            n = rng.randint(2, 7)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            entries = tuple((i, j, rng.randrange(n), F(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
                            for i, j in rng.sample(pairs, rng.randint(1, len(pairs))))
            outcomes.add(_same_series(LieAlgebra(n, entries)) == "NotNilpotent")
        # both a series and NotNilpotent occur
        assert outcomes == {True, False}
