"""Record the benchmark's fixtures and gold output digests.

    python3 bench/record.py

writes fixtures/<base>.json (the recipe outputs that certify_dense moves
into dense bases) and gold.json (the sha256 of every op's canonical JSON
output).  The library's outputs are byte-stable by contract, so both files
change only together with a change that says why its outputs moved.

certify_dense outputs are basis invariants; recording checks that two seeds
give the same digests and that each accepted certificate equals the one
of its sparse base.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import anosovforms.anosov as anosov  # noqa: E402
import anosovforms.catalog as catalog  # noqa: E402
import anosovforms.recipes as recipes  # noqa: E402
import anosovforms.serialize as ser  # noqa: E402

import generate  # noqa: E402
import workloads  # noqa: E402


def _base_outputs() -> dict:
    """The recipe outputs named in generate.BASES, in that order."""
    cubic = catalog.cyclic_cubic_datum()
    unit = catalog.cubic_pisot_unit(cubic)
    return {
        "z4": recipes.recipe_z4_example(),
        "count_5_2": recipes.recipe_count(5, 2),
        "last_3": recipes.recipe_last(cubic, unit, 3),
        "last_4": recipes.recipe_last(cubic, unit, 4),
        "csig_3": recipes.recipe_csig_default(3),
    }


def write_fixtures() -> None:
    generate.FIXTURES.mkdir(exist_ok=True)
    outputs = _base_outputs()
    for name, out in outputs.items():
        text = ser.canonical_dumps({"algebra": ser.algebra_to_json(out.algebra),
                                    "matrix": ser.matrix_to_json(out.matrix)})
        (generate.FIXTURES / f"{name}.json").write_text(text, encoding="utf-8")


def digests(workload: str, seed: int) -> dict[str, str]:
    out = {}
    for op in workloads.build(workload, seed):
        text = op.emit(op.run())
        out[f"{workload}/{op.id}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def check_invariance() -> None:
    first, second = digests("certify_dense", 0), digests("certify_dense", 1)
    if first != second:
        raise SystemExit("certify_dense outputs depend on the seed")
    for name in generate.BASES:
        data = json.loads((generate.FIXTURES / f"{name}.json").read_text())
        cert = anosov.certify(ser.algebra_from_json(data["algebra"]),
                              ser.map_from_json({"matrix": data["matrix"]}))
        text = ser.canonical_dumps(ser.certificate_to_json(cert))
        if hashlib.sha256(text.encode()).hexdigest() != \
                first[f"certify_dense/certify/{name}/accept"]:
            raise SystemExit(f"dense certificate of {name} differs from its base")


def main() -> None:
    write_fixtures()
    check_invariance()
    gold = {}
    for workload in workloads.WORKLOADS:
        gold.update(digests(workload, 0))
    (HERE / "gold.json").write_text(
        json.dumps(gold, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(gold)} digests")


if __name__ == "__main__":
    main()
