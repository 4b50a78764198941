"""The benchmark's three workloads as fixed op lists.

An op is one user-visible request: `run` makes the library calls and is
timed; `emit` turns its result into canonical JSON for the output gate and
`size` reports the problem size, both outside the timed region.  Library
functions are looked up on their modules at call time, so the tracer's
patched attributes are the ones called.

Why these workloads:

* paper_examples: the traffic of the repository's scripts and README (the
  worked example, the type-(4,2) signature sweep, the unit searches, the
  small recipes and Pell equations).  Most ops build a different field,
  so the field layer (verification, enclosures) and the unit search
  dominate and ops share little work.
* deep_class: recipe_last at classes 4-6 and recipe_csig at classes 3-4,
  dimensions 10-18, all over one field and unit.  The Lie kernels and the
  rational-form solves dominate and grow with the nilpotency class.
* certify_dense: the certify/classify42/dualize path on recipe outputs in a
  random dense basis, with perturbed maps that must be rejected early and
  non-hyperbolic maps that must get a negative verdict.  Only the Lie and
  certification layers work here, on dense structure constants.

The seed permutes the op order in every workload and draws the dense bases
of certify_dense.
"""

from __future__ import annotations

import importlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import anosovforms.anosov as anosov
import anosovforms.catalog as catalog
import anosovforms.errors as errors
import anosovforms.liealg as liealg
import anosovforms.numfield as numfield
import anosovforms.pisot as pisot
import anosovforms.recipes as recipes
import anosovforms.serialize as ser

import generate

# the package re-exports the function pfaffian under the submodule's name
pfaffian = importlib.import_module("anosovforms.pfaffian")

WORKLOADS = ("paper_examples", "deep_class", "certify_dense")

SWEEP_PAIRS = ((2, 3), (3, 2), (5, 2), (6, 5), (7, 2), (10, 3), (11, 2))
PELL_DISCS = (5, 8, 12, 13, 20, 21, 24, 94, 181)


@dataclass(frozen=True)
class Op:
    id: str
    kind: str
    run: Callable[[], object]
    emit: Callable[[object], str]
    size: Callable[[object], dict]


def _algebra_size(algebra, matrix=None) -> dict:
    values = [c for (_i, _j, _k, c) in algebra.brackets]
    if matrix is not None:
        values += [x for row in matrix.entries for x in row]
    return {"dim": algebra.dim, "brackets": len(algebra.brackets),
            "coeff_bits": generate.bits(values)}


def _emit_bundle(out) -> str:
    return ser.canonical_dumps(ser.recipe_output_to_json(out))


def _recipe_size(out) -> dict:
    return _algebra_size(out.algebra, out.matrix)


# -- paper_examples -----------------------------------------------------------


def _z4():
    out = recipes.recipe_z4_example()
    form = pfaffian.binary_form_of(out.algebra)
    return out, form, pfaffian.classify_type42(out.algebra)


def _emit_z4(res) -> str:
    out, form, (k, compatible) = res
    return ser.canonical_dumps({
        "bundle": ser.recipe_output_to_json(out),
        "binary": ser.form_to_json(form),
        "classified": [k, compatible],
    })


def _sweep(k: int, l: int):
    def run():
        out = recipes.recipe_count(k, l)
        alpha = out.matrix.submatrix(range(4), range(4))
        dual = pfaffian.scheuneman_dual(out.algebra)
        _, dual_map = pfaffian.dual_automorphism(alpha, out.algebra, dual)
        return out, dual, dual_map, anosov.certify(dual, dual_map)
    return run


def _emit_sweep(res) -> str:
    out, dual, dual_map, cert = res
    return ser.canonical_dumps({
        "bundle": ser.recipe_output_to_json(out),
        "dual": ser.algebra_to_json(dual),
        "dual_map": ser.matrix_to_json(dual_map),
        "dual_certificate": ser.certificate_to_json(cert),
    })


def _pisot(datum_name: str, height: int, cone=None):
    def run():
        datum = getattr(catalog, datum_name)()
        extra = [pisot.ConeConstraint(cone, "<1")] if cone else []
        found = pisot.search_unit_pisot(datum, height, extra_constraints=extra)
        precision = Fraction(1, 10 ** 6)
        return [(u, [numfield.conjugate_modulus_interval(u, i, precision)
                     for i in range(datum.degree)]) for u in found]
    return run


def _emit_pisot(res) -> str:
    return ser.canonical_dumps([
        {"coeffs": ser.element_to_json(u),
         "moduli": [ser.interval_to_json(iv) for iv in moduli]}
        for u, moduli in res
    ])


def _pisot_size(res) -> dict:
    coords = [c for u, _m in res for c in u.coeffs]
    degree = len(res[0][0].coeffs) if res else 0
    return {"dim": degree, "brackets": 0, "coeff_bits": generate.bits(coords)}


def _csig(c: int):
    return lambda: recipes.recipe_csig_default(c)


def _last(c: int):
    def run():
        datum = catalog.cyclic_cubic_datum()
        return recipes.recipe_last(datum, catalog.cubic_pisot_unit(datum), c)
    return run


def _laur():
    datum = catalog.sqrt2_datum()
    return recipes.recipe_laur(liealg.heisenberg(), liealg.Grading((2, 1)),
                               datum, datum.element((1, 1)))


def _pell():
    return [pfaffian.solve_pell(d) for d in PELL_DISCS]


def _emit_pell(res) -> str:
    return ser.canonical_dumps([[d, s.x, s.y] for d, s in zip(PELL_DISCS, res)])


def _pell_size(res) -> dict:
    return {"dim": 2, "brackets": 0,
            "coeff_bits": generate.bits(v for s in res for v in (s.x, s.y))}


def _paper_examples() -> list[Op]:
    ops = [Op("z4", "worked_example", _z4, _emit_z4,
              lambda res: _recipe_size(res[0]))]
    for k, l in SWEEP_PAIRS:
        ops.append(Op(f"sweep/{k},{l}", "sweep", _sweep(k, l), _emit_sweep,
                      lambda res: _recipe_size(res[0])))
    for op_id, datum_name, height, cone in (
        ("pisot/sqrt2/h2", "sqrt2_datum", 2, None),
        ("pisot/cubic/h2", "cyclic_cubic_datum", 2, None),
        ("pisot/quartic/h1", "quartic_z4_datum", 1, None),
        ("pisot/quartic/h2+cone", "quartic_z4_datum", 2, (1, 0, 2, 0)),
    ):
        ops.append(Op(op_id, "pisot", _pisot(datum_name, height, cone),
                      _emit_pisot, _pisot_size))
    for c in (2, 3):
        ops.append(Op(f"csig/c{c}", "recipe", _csig(c), _emit_bundle, _recipe_size))
    for c in (2, 3):
        ops.append(Op(f"last/c{c}", "recipe", _last(c), _emit_bundle, _recipe_size))
    ops.append(Op("laur", "recipe", _laur, _emit_bundle, _recipe_size))
    ops.append(Op("pell", "pell", _pell, _emit_pell, _pell_size))
    return ops


# -- deep_class ---------------------------------------------------------------


def _deep_class() -> list[Op]:
    ops = [Op(f"last/c{c}", "recipe", _last(c), _emit_bundle, _recipe_size)
           for c in (4, 5, 6)]
    ops += [Op(f"csig/c{c}", "recipe", _csig(c), _emit_bundle, _recipe_size)
            for c in (3, 4)]
    return ops


# -- certify_dense ------------------------------------------------------------


def _certify(item: dict):
    """The `certify` subcommand without the files: parse, certify, emit.
    NotAutomorphism is emitted as the CLI's error object."""
    def run():
        algebra = ser.algebra_from_json(json.loads(item["algebra"]))
        matrix = ser.map_from_json(json.loads(item["map"]))
        try:
            cert = anosov.certify(algebra, matrix)
        except errors.NotAutomorphism as e:
            return ser.canonical_dumps({"error": type(e).__name__, "detail": str(e)})
        return ser.canonical_dumps(ser.certificate_to_json(cert))
    return run


def _classify42(item: dict):
    def run():
        algebra = ser.algebra_from_json(json.loads(item["algebra"]))
        k, compatible = pfaffian.classify_type42(algebra)
        return ser.canonical_dumps({"k": k, "anosov_compatible": compatible})
    return run


def _dualize(item: dict):
    def run():
        algebra = ser.algebra_from_json(json.loads(item["algebra"]))
        return ser.canonical_dumps(ser.algebra_to_json(pfaffian.scheuneman_dual(algebra)))
    return run


def _certify_dense(seed: int) -> list[Op]:
    ops = []
    for item in generate.dense_inputs(seed):
        run = {"classify42": _classify42, "dualize": _dualize}.get(item["kind"], _certify)
        size = item["size"]
        ops.append(Op(item["id"], item["kind"], run(item), lambda text: text,
                      lambda _res, size=size: size))
    return ops


def load(workload: str) -> None:
    """Read the workload's stored inputs: certify_dense's base bundles,
    from which build() derives the seeded inputs."""
    if workload == "certify_dense":
        for name in generate.BASES:
            generate.load_base(name)


def build(workload: str, seed: int) -> list[Op]:
    """The workload's fixed op list in the seed's order."""
    if workload == "paper_examples":
        ops = _paper_examples()
    elif workload == "deep_class":
        ops = _deep_class()
    elif workload == "certify_dense":
        ops = _certify_dense(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return ops
