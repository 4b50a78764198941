"""Seeded inputs for the certify_dense workload, built without the library.

Each base bundle (a recipe output stored under fixtures/) is moved into a
dense integer unimodular basis, which makes its structure constants dense:
a fixed dense basis per base (transvections drawn from the base's name)
whose vectors the seed permutes and negates.  So every seed gives other
inputs while the size of their numbers, and with it the work per op,
stays the same; with a fresh dense basis per seed the small certify ops
took 15-27% longer or shorter from seed to seed (2-vCPU Xeon VM).

Three maps are derived per base:

* accept: the recipe's own map, conjugated into the dense basis;
* perturbed: the map composed with diag(1, .., 2, .., 1) in the base basis,
  scaling a vector whose brackets have a component off itself, so it is
  never an automorphism and certify must raise NotAutomorphism;
* nonhyperbolic: exp(ad x) with x in {-1, 1}^n drawn from the base's name,
  an automorphism whose eigenvalues are all 1, so certify must return a
  negative verdict.

The type-(4,2) bases also feed classify42 and dualize.  Those tools need an
adapted basis, so their inputs only mix the centre (a unimodular change of
the centre basis plus central shifts of the degree-1 vectors).  That keeps
the span of the J-maps, hence every output, independent of the seed.

Every certificate is a basis invariant, so each op's canonical output is
the same for every seed and one gold digest per op id checks it.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent / "fixtures"

# base bundle name -> whether it is of type (4,2)
BASES = {
    "z4": True,
    "count_5_2": True,
    "last_3": False,
    "last_4": False,
    "csig_3": False,
}

# scale factor of the perturbed map; any value other than 1 works
PERTURB = 2


def q(x) -> str:
    """Rational as the library's exact string format."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@functools.cache
def load_base(name: str) -> tuple[int, tuple, tuple]:
    """(dim, brackets as (i, j, k, Fraction), matrix rows as Fractions),
    read once per process."""
    data = json.loads((FIXTURES / f"{name}.json").read_text(encoding="utf-8"))
    alg = data["algebra"]
    brackets = tuple((i, j, k, Fraction(c)) for (i, j, k, c) in alg["brackets"])
    matrix = tuple(tuple(Fraction(x) for x in row) for row in data["matrix"])
    return alg["dim"], brackets, matrix


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transvection(rng: random.Random, n: int):
    """(T, T^-1) for T = I + u v^T with u, v in {-1, 0, 1}^n and v.u = 0,
    so T^-1 = I - u v^T.  u has no zero entry and v at most one, so T is
    dense while the entries of both stay small."""
    u = [rng.choice((-1, 1)) for _ in range(n)]
    signs = [1] * (n // 2) + [-1] * (n // 2)
    if n % 2:
        signs.append(0)
    rng.shuffle(signs)
    v = [s * x for s, x in zip(signs, u)]
    t = [[int(i == j) + u[i] * v[j] for j in range(n)] for i in range(n)]
    tinv = [[int(i == j) - u[i] * v[j] for j in range(n)] for i in range(n)]
    return t, tinv


def unimodular(rng: random.Random, n: int):
    """(P, P^-1) for P = T1 T2 T3, three dense transvections: enough to
    fill every structure constant."""
    p, pinv = identity(n), identity(n)
    for _ in range(3):
        t, tinv = transvection(rng, n)
        p, pinv = mat_mul(p, t), mat_mul(tinv, pinv)
    return p, pinv


def signed_permutation(rng: random.Random, n: int):
    """(Q, Q^-1) for a random signed permutation matrix Q."""
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    q = [[signs[j] if i == perm[j] else 0 for j in range(n)] for i in range(n)]
    return q, [list(col) for col in zip(*q)]


def centre_mixing(rng: random.Random, n1: int, k: int):
    """(P, P^-1) = ([[I, 0], [C, B]], its inverse) with B unimodular on
    the k centre vectors and C a random integer shift of the degree-1
    vectors by central ones."""
    b, binv = unimodular(rng, k)
    c = [[rng.randint(-2, 2) for _ in range(n1)] for _ in range(k)]
    minus_binv_c = [[-x for x in row] for row in mat_mul(binv, c)]
    n = n1 + k
    p, pinv = identity(n), identity(n)
    for t in range(k):
        p[n1 + t][:n1] = c[t]
        p[n1 + t][n1:] = b[t]
        pinv[n1 + t][:n1] = minus_binv_c[t]
        pinv[n1 + t][n1:] = binv[t]
    return p, pinv


def change_basis(n: int, brackets, p, pinv):
    """Structure constants in the basis b'_a = sum_i P[i][a] b_i."""
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            w = [Fraction(0)] * n
            for (i, j, k, c) in brackets:
                coef = p[i][a] * p[j][b] - p[j][a] * p[i][b]
                if coef:
                    w[k] += c * coef
            if not any(w):
                continue
            for r in range(n):
                v = sum(pinv[r][s] * w[s] for s in range(n))
                if v:
                    out.append((a, b, r, v))
    return out


def conjugate(m, p, pinv):
    return mat_mul(mat_mul(pinv, m), p)


def ad(n: int, brackets, x):
    """Matrix of ad x (columns are images of the basis vectors)."""
    out = [[Fraction(0)] * n for _ in range(n)]
    for (i, j, k, c) in brackets:
        # [x, b_j] gets x_i c b_k and [x, b_i] gets -x_j c b_k
        out[k][j] += x[i] * c
        out[k][i] -= x[j] * c
    return out


def exp_nilpotent(a):
    n = len(a)
    total = [[Fraction(v) for v in row] for row in identity(n)]
    term = total
    for d in range(1, n + 1):
        term = [[v / d for v in row] for row in mat_mul(term, a)]
        if not any(any(row) for row in term):
            break
        total = [[x + y for x, y in zip(r, s)] for r, s in zip(total, term)]
    return total


def perturb_index(rng: random.Random, brackets) -> int:
    """A basis index s such that scaling b_s by PERTURB breaks the bracket
    relations: s takes part in a bracket with a component off b_s."""
    choices = sorted({s for (i, j, k, _c) in brackets for s in (i, j) if k != s})
    return rng.choice(choices)


def algebra_json(n: int, brackets) -> str:
    return canonical({
        "field": "Q",
        "dim": n,
        "brackets": [[i, j, k, q(c)] for (i, j, k, c) in brackets],
    })


def map_json(m) -> str:
    return canonical({"matrix": [[q(x) for x in row] for row in m]})


def bits(values) -> int:
    """Largest bit length of a numerator or denominator."""
    return max((max(abs(Fraction(v).numerator).bit_length(),
                    Fraction(v).denominator.bit_length()) for v in values), default=0)


def coeff_bits(brackets, m=()) -> int:
    return bits([c for (_i, _j, _k, c) in brackets] + [x for row in m for x in row])


def dense_inputs(seed: int) -> list[dict]:
    """The certify_dense op inputs for a seed, in a fixed base order.

    Each item: id, kind, base, algebra (JSON text), map (JSON text or
    None), and size (dim, brackets, coeff_bits) of the input.
    """
    rng = random.Random(seed)
    items = []
    for name, is_42 in BASES.items():
        n, brackets, m = load_base(name)
        p0, p0inv = unimodular(random.Random(name), n)
        q, qinv = signed_permutation(rng, n)
        p, pinv = mat_mul(p0, q), mat_mul(qinv, p0inv)
        dense = change_basis(n, brackets, p, pinv)
        dense_alg = algebra_json(n, dense)

        s = perturb_index(rng, brackets)
        scaled = [[x * (PERTURB if j == s else 1) for j, x in enumerate(row)]
                  for row in m]
        x, x_rng = [0] * n, random.Random(name)
        while not any(any(row) for row in ad(n, brackets, x)):
            x = [x_rng.choice((-1, 1)) for _ in range(n)]
        maps = {
            "accept": m,
            "perturbed": scaled,
            "nonhyperbolic": exp_nilpotent(ad(n, brackets, x)),
        }
        for kind, base_map in maps.items():
            dense_map = conjugate(base_map, p, pinv)
            items.append({
                "id": f"certify/{name}/{kind}",
                "kind": kind,
                "base": name,
                "algebra": dense_alg,
                "map": map_json(dense_map),
                "size": {"dim": n, "brackets": len(dense),
                         "coeff_bits": coeff_bits(dense, dense_map)},
            })
        if is_42:
            cp, cpinv = centre_mixing(rng, 4, n - 4)
            mixed = change_basis(n, brackets, cp, cpinv)
            for tool in ("classify42", "dualize"):
                items.append({
                    "id": f"{tool}/{name}",
                    "kind": tool,
                    "base": name,
                    "algebra": algebra_json(n, mixed),
                    "map": None,
                    "size": {"dim": n, "brackets": len(mixed),
                             "coeff_bits": coeff_bits(mixed)},
                })
    return items
