"""Checks of the benchmark's own machinery:

    python3 -m pytest bench/test_bench.py -q
"""

import hashlib
import json
import signal
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import generate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED, HELD_OUT = 7, 1234


def _mix(items):
    return Counter((it["kind"], it["base"], it["size"]["dim"]) for it in items)


def test_same_seed_gives_identical_inputs():
    first, second = generate.dense_inputs(SEED), generate.dense_inputs(SEED)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    for name in workloads.WORKLOADS:
        assert [op.id for op in workloads.build(name, SEED)] == \
            [op.id for op in workloads.build(name, SEED)]


def test_held_out_seed_changes_inputs_but_not_the_mix():
    first, other = generate.dense_inputs(SEED), generate.dense_inputs(HELD_OUT)
    certify = [(a["algebra"], a["map"]) for a in first if a["kind"] == "accept"]
    certify_other = [(a["algebra"], a["map"]) for a in other if a["kind"] == "accept"]
    assert all(x != y for x, y in zip(certify, certify_other))
    assert _mix(first) == _mix(other)
    kinds = Counter(it["kind"] for it in first)
    assert kinds == {"accept": 5, "perturbed": 5, "nonhyperbolic": 5,
                     "classify42": 2, "dualize": 2}
    assert sorted({it["size"]["dim"] for it in first}) == [6, 9, 10, 12]


def test_dense_inputs_are_dense():
    for it in generate.dense_inputs(SEED):
        if it["kind"] == "accept":
            n = it["size"]["dim"]
            base_brackets = len(generate.load_base(it["base"])[1])
            assert it["size"]["brackets"] > 2 * base_brackets
            assert it["size"]["brackets"] <= n * n * (n - 1) // 2


def test_every_op_has_a_gold_digest():
    gold = json.loads((HERE / "gold.json").read_text())
    ids = {f"{name}/{op.id}" for name in workloads.WORKLOADS
           for op in workloads.build(name, SEED)}
    assert ids == set(gold)


def test_tracer_restores_the_library():
    import anosovforms
    import anosovforms.liealg as liealg
    import anosovforms.pisot as pisot

    before = (liealg.check_jacobi, anosovforms.certify,
              pisot.ConeConstraint.__dict__["holds_for"])
    t = tracer.Tracer()
    t.install()
    try:
        assert liealg.check_jacobi is not before[0]
        assert anosovforms.certify is not before[1]
        t.begin_op("op")
        liealg.check_jacobi(liealg.heisenberg())
        t.end_op()
        liealg.check_jacobi(liealg.heisenberg())
    finally:
        t.uninstall()
    assert (liealg.check_jacobi, anosovforms.certify,
            pisot.ConeConstraint.__dict__["holds_for"]) == before
    assert t.calls() == {"liealg.check_jacobi": 1}


def _op(op_id, run, emit=lambda text: text):
    return workloads.Op(op_id, "test", run, emit, lambda _res: {})


def test_harness_fails_wrong_outputs_exceptions_and_hangs():
    import time

    import run

    def hang():
        while True:
            time.sleep(0.01)

    def boom():
        raise RuntimeError("boom")

    gold = {"w/good": hashlib.sha256(b"ok").hexdigest(),
            "w/wrong": hashlib.sha256(b"ok").hexdigest()}
    ops = [_op("good", lambda: "ok"), _op("wrong", lambda: "not ok"),
           _op("boom", boom), _op("hang", hang)]
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    old_budget, run.OP_BUDGET_S = run.OP_BUDGET_S, 0.2
    try:
        records = run.run_pass(ops, "w", gold, time.monotonic() + 10, 0)
    finally:
        run.OP_BUDGET_S = old_budget
        signal.signal(signal.SIGALRM, old)
    ok = {r["id"]: r["ok"] for r in records}
    assert ok == {"good": True, "wrong": False, "boom": False, "hang": False}
    errors = {r["id"]: r.get("error", "") for r in records}
    assert "differs from gold" in errors["wrong"]
    assert errors["boom"] == "RuntimeError: boom"
    assert "budget" in errors["hang"]
    assert next(r for r in records if r["id"] == "hang")["latency_s"] < 5


def test_ops_after_the_run_deadline_fail_without_running():
    import time

    import run

    ran = []
    records = run.run_pass([_op("late", lambda: ran.append(1))], "w", {},
                           time.monotonic() - 1, 0)
    assert ran == [] and records[0]["ok"] is False
