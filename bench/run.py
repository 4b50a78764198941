#!/usr/bin/env python3
"""The anosovforms benchmark: one workload in one single-threaded process.

    python3 bench/run.py --workload paper_examples --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py for why each was chosen): paper_examples,
deep_class, certify_dense.  The loop is closed with one client: each op
starts when the previous one has finished.  The run makes one whole pass
over the workload's fixed op list, then goes on through the list in order
while the next op, at its last latency, still ends within --seconds.
Every op's canonical JSON output is checked against gold.json; a wrong
output, an unexpected exception or an op over its time budget counts as
failed.

--trace 0 reports the end-to-end metrics (tracing off).  Times are in
seconds at a reference machine speed (see Calibration), and each op's
latency is its median over the run; both damp the swings in speed of a
shared machine:
  setup_s        median time from interpreter start until the library is
                 imported and the stored inputs are read, over fresh
                 interpreters started by this run (each calibrated with a
                 compile kernel it runs right after)
  wall_s         time to finish the op list: the sum of the op latencies
  latency_p50_s  median of the op latencies
  latency_max_s  latency of the slowest op
  peak_rss_mb    peak resident memory of the process
  ok_ratio       op runs with the gold output over op runs attempted
--trace 1 runs one untraced pass and one traced pass and reports the
per-layer metrics: self time and call counts of the library functions,
unit-search counters, problem sizes, trace coverage and overhead.

Per-op records (and the spans of a traced run) are written to bench/out/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PROBES = 10
# an op over this budget fails, so a regression that hangs cannot stall
# the run; after RUN_DEADLINE_S no op starts and the rest count as failed
OP_BUDGET_S = 60.0
RUN_DEADLINE_S = 150.0
PROBE_TIMEOUT_S = 60.0

# calls per op recorded as the baseline of "each check runs once"
CHECKS = ("liealg.check_jacobi", "liealg.is_automorphism",
          "liealg.lower_central_series", "galoisform.verify_representation",
          "galoisform.check_label_equivariance",
          "galoisform.check_label_compatibility")


# The speed of a shared machine swings by tens of percent within seconds.  A
# calibration kernel of exact rational arithmetic, the kind of work the
# library does, is timed before, during (every CAL_INTERVAL_S of CPU time)
# and after each op; the op's latency is scaled by CAL_REF_S over the
# kernel's mean time, which gives seconds at a fixed machine speed (about
# the kernel's time on the 2-vCPU Xeon VM the baseline was recorded on).
# Time spent in the kernel during an op is not counted in its latency.
# Over ten seeds on that VM, the quartile spreads of wall_s, latency_p50_s
# and latency_max_s were 0.08-0.39 of their medians uncalibrated, over the
# largest bound the benchmark may set (0.25), and at most 0.06 calibrated.
CAL_INTERVAL_S = 0.02
CAL_REF_S = 0.0006
# Set-up probes are scaled likewise by SETUP_REF_S over the median of
# SETUP_KERNEL_RUNS times of setup_kernel(), timed in the probe itself.
SETUP_KERNEL_RUNS = 5
SETUP_REF_S = 0.003


def _kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 100):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return acc


class Calibration:
    """Times the calibration kernel around and during one op.  `kernel`
    is _kernel, or in a traced run its wrapper, so that the kernel's time
    is a child span and not the self time of the span it interrupts."""

    def __init__(self, kernel=_kernel):
        self.kernel = kernel
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self) -> None:
        # a collection of the op's garbage is not the machine's speed
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self.kernel()
            self.samples.append(perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def _sample_inside(self, *_signal) -> None:
        self.sample()
        self.spent += self.samples[-1]

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return CAL_REF_S / statistics.fmean(self.samples)

    def start(self) -> None:
        self.samples.clear()
        self.spent = 0.0
        self.sample()
        self.sample()
        signal.signal(signal.SIGVTALRM, self._sample_inside)
        signal.setitimer(signal.ITIMER_VIRTUAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self, seconds: float) -> tuple[float, float]:
        """(latency at the reference speed, scale) of an op that measured
        `seconds`."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        self.sample()
        self.sample()
        scale = self.scale()
        return (seconds - self.spent) * scale, scale


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that ran over budget."""


def _on_alarm(_signum, _frame):
    raise OpTimeout


def setup(workload: str) -> dict:
    """Import the library from this checkout and read the workload's stored
    inputs and the gold digests: the set-up that setup_s measures.  The
    seeded inputs are derived afterwards, by the benchmark's own code, and
    are not part of it.  Returns the gold digests."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import anosovforms

    if Path(anosovforms.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"anosovforms imported from {anosovforms.__file__}, not {src}")
    import workloads

    workloads.load(workload)
    return json.loads((HERE / "gold.json").read_text(encoding="utf-8"))


def setup_kernel() -> float:
    """Median time of compiling generate.py: the calibration kernel of
    set-up, which is mostly compiling and running the library's modules
    (the Fraction kernel tracks it badly: on a slow stretch of the machine
    it slows down by about 1.8x, set-up and compiling by about 1.55x)."""
    source = (HERE / "generate.py").read_text(encoding="utf-8")
    times = []
    for _ in range(SETUP_KERNEL_RUNS):
        start = perf_counter()
        compile(source, "generate.py", "exec", dont_inherit=True)
        times.append(perf_counter() - start)
    return statistics.median(times)


def setup_times(args, deadline: float) -> list[float]:
    """Start-to-ready times of fresh interpreters doing this run's set-up,
    at the reference speed.  Each child prints the monotonic clock when
    ready and then the time of the set-up kernel, run right away in the
    same process; the first child, which may write bytecode caches, is not
    counted."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--probe"]
    times = []
    for _ in range(SETUP_PROBES + 1):
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=min(PROBE_TIMEOUT_S, deadline - start))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        ready, kernel = map(float, out.decode().split()[-2:])
        times.append((ready - start) * SETUP_REF_S / kernel)
    return times[1:]


def _timed(op, budget: float):
    """(seconds, result, error) of one op under the interval timer."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            result = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return perf_counter() - start, None, f"over the {budget:.1f} s budget"
    except Exception as e:  # an unexpected exception fails the op, not the run
        return perf_counter() - start, None, f"{type(e).__name__}: {e}"
    return perf_counter() - start, result, None


def run_op(op, workload: str, gold: dict, deadline: float, pass_no: int,
           calibration: Calibration, tracer=None) -> dict:
    """Run one op under its budget and check its output against gold."""
    gc.collect()
    rec = {"id": op.id, "kind": op.kind, "pass": pass_no, "traced": tracer is not None}
    budget = min(OP_BUDGET_S, deadline - time.monotonic())
    if budget <= 0:
        return rec | {"latency_s": 0.0, "measured_s": 0.0, "scale": 1.0, "ok": False,
                      "error": "not started: run deadline passed"}
    calibration.start()
    if tracer is not None:
        tracer.begin_op(op.id)
    seconds, result, error = _timed(op, budget)
    if tracer is not None:
        tracer.end_op()
    rec["latency_s"], rec["scale"] = calibration.stop(seconds)
    rec["measured_s"] = seconds
    if error is None:
        try:
            digest = hashlib.sha256(op.emit(result).encode()).hexdigest()
            rec["size"] = op.size(result)
        except Exception as e:
            error = f"output: {type(e).__name__}: {e}"
        else:
            if digest != gold.get(f"{workload}/{op.id}"):
                error = f"output digest {digest} differs from gold"
    rec["ok"] = error is None
    if error is not None:
        rec["error"] = error
    if tracer is not None:
        calls = tracer.calls(op.id)
        rec["checks"] = {name: calls.get(name, 0) for name in CHECKS}
    return rec


def run_pass(ops, workload: str, gold: dict, deadline: float, pass_no: int,
             tracer=None) -> list[dict]:
    calibration = Calibration(_kernel if tracer is None
                              else tracer.wrap("bench.calibration", _kernel))
    return [run_op(op, workload, gold, deadline, pass_no, calibration, tracer)
            for op in ops]


def run_for(ops, workload: str, gold: dict, deadline: float, seconds: float) -> list[dict]:
    """One whole pass, then the op list again in order for as long as the
    next op, at its last latency, still ends within `seconds`."""
    start = perf_counter()
    calibration = Calibration()
    records, latest = [], {}
    for n, op in enumerate(itertools.cycle(ops)):
        if n >= len(ops) and (perf_counter() - start + latest[op.id] > seconds
                              or time.monotonic() >= deadline):
            break
        rec = run_op(op, workload, gold, deadline, n // len(ops), calibration)
        latest[op.id] = rec["measured_s"]
        records.append(rec)
    return records


def op_medians(records: list[dict]) -> dict[str, float]:
    samples: dict[str, list[float]] = {}
    for r in records:
        samples.setdefault(r["id"], []).append(r["latency_s"])
    return {op: statistics.median(v) for op, v in samples.items()}


def end_to_end(records, setup_s: list[float]) -> dict:
    lat = op_medians(records).values()
    ok = sum(r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(lat), "s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_max_s": (max(lat), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": (ok / len(records), "ratio"),
    }


def per_layer(tracer, traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics of a traced pass; times are scaled to the
    reference speed with each op's calibration."""
    from tracer import EMIT, LAYERS, PARSE

    self_s = tracer.self_times({r["id"]: r["scale"] for r in traced})
    calls = tracer.calls()
    out = {}
    for mod, qualname in LAYERS:
        name = f"{mod.lstrip('_')}.{qualname}"
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    box = tracer.counters["pisot.search_units.box_points"]
    hits = tracer.counters["pisot.search_unit_pisot.hits"]
    out["pisot.search_units.box_points"] = (box, "count")
    out["pisot.search_unit_pisot.hits"] = (hits, "count")
    out["pisot.hit_ratio"] = (hits / box if box else 0.0, "ratio")
    out["serialize.parse_s"] = (sum(self_s.get(n, 0.0) for n in PARSE), "s")
    out["serialize.emit_s"] = (sum(self_s.get(n, 0.0) for n in EMIT), "s")
    sizes = [r["size"] for r in traced if "size" in r]
    for key, unit in (("dim", "count"), ("brackets", "count"), ("coeff_bits", "bits")):
        out[f"size.{key}.max"] = (max((s[key] for s in sizes), default=0), unit)
    measured = sum(r["measured_s"] for r in traced)
    out["trace.coverage"] = (tracer.top_level_time() / measured, "ratio")
    wall = sum(r["latency_s"] for r in traced)
    out["trace.overhead"] = (wall / sum(r["latency_s"] for r in untraced) - 1, "ratio")
    return out


def environment() -> dict:
    return {"python": platform.python_version(), "machine": platform.machine(),
            "nproc": os.cpu_count()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("paper_examples", "deep_class", "certify_dense"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        gold = setup(args.workload)
    except (ImportError, OSError, ValueError) as e:
        print(f"bench: cannot set up {args.workload}: {e}", file=sys.stderr)
        return 2
    if args.probe:
        print(repr(time.monotonic()), repr(setup_kernel()))
        return 0
    import workloads

    ops = workloads.build(args.workload, args.seed)
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_s = []
    if args.trace:
        records = run_pass(ops, args.workload, gold, deadline, 0)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(ops, args.workload, gold, deadline, 1, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(tracer, traced, records)
        records += traced
    else:
        setup_s = setup_times(args, deadline)
        records = run_for(ops, args.workload, gold, deadline, args.seconds)
        metrics = end_to_end(records, setup_s)

    failed = sum(not r["ok"] for r in records)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.ops.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment(), "setup_s": setup_s, "ops": records,
    }, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.jsonl")

    runs = "an untraced and a traced pass" if args.trace else f"{args.seconds:g} s"
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops, {len(records)} op runs "
          f"in {runs}, {failed} failed")
    for r in records:
        if not r["ok"]:
            print(f"  FAILED {r['id']} (pass {r['pass']}): {r['error']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':48s} {failed / len(records):.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
