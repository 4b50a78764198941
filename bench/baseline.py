#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise it.

    python3 bench/baseline.py --runs 10 [--workload NAME ...] [--write bench/baseline.json]

For each workload: untraced runs on seeds 1 to --runs, then (with
--write) one traced run.  Prints each end-to-end metric's median and its
spread, the distance between the first and third quartile as a share of
the median.  --write also stores every run's result line, the median
latency of every op (at the reference speed, and as measured), the ROADMAP
item 1 rows the matrix covers, the per-op check counts and sizes of the
traced run, and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
sys.path.insert(0, str(HERE))

from run import OUT, environment  # noqa: E402


# ROADMAP item 1 baseline rows that an op of this matrix reproduces
ROADMAP_ROWS = {
    "recipe_z4_example (+ binary form, classify)": ("paper_examples", "z4"),
    "recipe_csig c=3": ("deep_class", "csig/c3"),
    "recipe_csig c=4": ("deep_class", "csig/c4"),
    "recipe_last c=3": ("paper_examples", "last/c3"),
    "recipe_last c=5": ("deep_class", "last/c5"),
    "search_unit_pisot quartic h=2 + csig cone": ("paper_examples", "pisot/quartic/h2+cone"),
}


def machine() -> dict:
    """run.environment() plus the CPU model."""
    out = environment()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        out["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                           if line.startswith("model name")), platform.processor())
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ops_file(workload: str, seed: int, trace: int) -> dict:
    path = OUT / f"{workload}-seed{seed}-trace{trace}.ops.json"
    return json.loads(path.read_text(encoding="utf-8"))


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def summarise(workload: str, seeds: list[int], seconds: int, traced: bool) -> dict:
    runs = []
    for seed in seeds:
        result = run_once(workload, seed, seconds, 0)
        runs.append(result)
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"{workload} seed {seed}: {values}", flush=True)
    names = list(runs[0]["metrics"])
    table = {name: [r["metrics"][name]["value"] for r in runs] for name in names}
    summary = {
        "seeds": seeds,
        "runs": runs,
        "median": {n: statistics.median(v) for n, v in table.items()},
        "spread": {n: spread(v) for n, v in table.items()},
    }
    for key in ("latency_s", "measured_s"):
        samples: dict[str, list[float]] = {}
        for seed in seeds:
            for rec in ops_file(workload, seed, 0)["ops"]:
                samples.setdefault(rec["id"], []).append(rec[key])
        summary[f"op_{key}"] = {op: statistics.median(v) for op, v in sorted(samples.items())}
    if traced:
        summary["traced"] = run_once(workload, seeds[0], seconds, 1)
        recs = ops_file(workload, seeds[0], 1)["ops"]
        summary["checks_per_op"] = {r["id"]: r["checks"] for r in recs if r["traced"]}
        summary["size_per_op"] = {r["id"]: r.get("size") for r in recs if r["traced"]}
    for name in names:
        print(f"  {name:16s} median {summary['median'][name]:.5g}  "
              f"spread {summary['spread'][name]:.4f}", flush=True)
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    ap.add_argument("--workload", action="append", choices=workloads)
    ap.add_argument("--write", type=Path)
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    seeds = list(range(1, args.runs + 1))
    record = {"environment": machine(), "run_seconds": seconds, "workloads": {}}
    for workload in args.workload or workloads:
        record["workloads"][workload] = summarise(workload, seeds, seconds,
                                                  args.write is not None)
    record["roadmap_rows"] = {
        row: {"workload": w, "op": op,
              "latency_s": record["workloads"][w]["op_latency_s"][op],
              "measured_s": record["workloads"][w]["op_measured_s"][op]}
        for row, (w, op) in ROADMAP_ROWS.items() if w in record["workloads"]}
    if args.write:
        args.write.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
