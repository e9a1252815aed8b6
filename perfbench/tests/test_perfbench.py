"""Tests of the benchmark itself. Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time

import pytest

from clapping_sim import harness, wire
from clapping_sim.engine import PipelineEngine
from perfbench import workloads as wl
from perfbench.tracer import OP, SETUP, Tracer

from .conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seconds: float = 1.0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_named_metric(workload, trace):
    out = bench(workload, trace)
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in group}
    for m in group:
        value = out["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert math.isfinite(value["value"])
        if not trace:
            assert value["value"] > 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


def one_run(monkeypatch, tmp_path, steps: int, tracer=None, log_every: int = 1):
    """run_rounds over a single short clapping_fc run."""
    monkeypatch.setenv("CLAPPING_SIM_CACHE_DIR", str(tmp_path / "cache"))
    cfg = harness.logistic_benchmark_config("clapping_fc", total_steps=steps, seed=3,
                                            log_every=log_every)
    monkeypatch.setattr(wl, "run_configs", lambda workload, seed: [("clapping_fc", cfg)])
    return wl.run_rounds("logistic_ref", 3, 0.0, tmp_path, wl.OpLog(), tracer)


def test_slowing_one_variant_lowers_ops_per_s(monkeypatch, tmp_path):
    """Every variant counts in the op figures: slowing the steps of one
    of two variants must lower ops_per_s."""
    monkeypatch.setenv("CLAPPING_SIM_CACHE_DIR", str(tmp_path / "cache"))
    configs = [(v, harness.logistic_benchmark_config(v, total_steps=50, seed=3, log_every=50))
               for v in ("no_comp", "aq_sgd")]
    monkeypatch.setattr(wl, "run_configs", lambda workload, seed: configs)

    def ops_per_s() -> float:
        ops = wl.OpLog()
        wl.run_rounds("logistic_ref", 3, 0.3, tmp_path, ops)
        ops.finish()
        return wl.op_figures(ops.scaled())["ops_per_s"]

    base = ops_per_s()
    real = PipelineEngine.run_iteration

    def slow(self, *args, **kwargs):
        if self.config.variant == "aq_sgd":
            time.sleep(0.002)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PipelineEngine, "run_iteration", slow)
    assert ops_per_s() < 0.8 * base


def test_op_times_are_scaled_by_the_calibration_slices_around_them(monkeypatch):
    monkeypatch.setattr(wl, "REF_CAL_S", 0.010)
    monkeypatch.setattr(wl, "calibration_slice", lambda: 0.020)
    slices = [0.020, 0.020, 0.100, 0.020]  # one disturbed slice
    ops = wl.OpLog(durations=[0.1] * 5, segments=list(enumerate(slices, start=1)))
    ops.finish()  # the last op's segment gets a slice of its own
    assert len(ops.segments) == 5
    assert ops.scaled() == pytest.approx([0.05] * 5)
    assert wl.op_figures(ops.scaled())["ops_per_s"] == pytest.approx(20.0)


def test_corrupted_csv_counts_failed_ops(monkeypatch, tmp_path):
    monkeypatch.setattr(wl, "LOGISTIC_STEPS", 4)
    monkeypatch.setattr(wl, "LOGISTIC_LOG_EVERY", 1)
    rounds = one_run(monkeypatch, tmp_path, 4)
    (variant, n_ops, text), = rounds
    assert n_ops == 4

    clean = wl.Outcome()
    wl.check_rounds("logistic_ref", 3, rounds, "no recorded digests", clean)
    assert (clean.attempted, clean.failed) == (4, 0)

    # a byte flip breaks the recorded digest
    key = wl.digest_key("logistic_ref", variant, 3)
    monkeypatch.setattr(wl, "load_digests", lambda fp: {key: wl.sha256(text)})
    flipped = text.replace(b"0.", b"1.", 1)
    digest_fail = wl.Outcome()
    wl.check_rounds("logistic_ref", 3, [(variant, n_ops, flipped)], "fp", digest_fail)
    assert digest_fail.failed == 4

    # without a digest, a loss below the optimum breaks the invariants
    monkeypatch.setattr(wl, "load_digests", lambda fp: {})
    lines = text.decode().splitlines()
    cells = lines[2].split(",")
    cells[2] = "-0.5"
    lines[2] = ",".join(cells)
    broken = ("\n".join(lines) + "\n").encode()
    invariant_fail = wl.Outcome()
    wl.check_rounds("logistic_ref", 3, [(variant, n_ops, text), (variant, n_ops, broken)],
                    "fp", invariant_fail)
    assert invariant_fail.attempted == 8 and invariant_fail.failed == 4
    assert "optimum" in invariant_fail.reasons[0]


def test_corrupted_message_counts_failed_ops(monkeypatch):
    real = wire.decode_message

    def corrupt(data, dim, bits=0, compose_inner=wire.FMT_DENSE):
        header, values = real(data, dim, bits, compose_inner)
        if dim == 4096:
            values = values.copy()
            values[0] += 1.0
        return header, values

    monkeypatch.setattr(wire, "decode_message", corrupt)
    ops = wl.OpLog()
    outcome = wl.Outcome()
    wl.run_wire(3, 0.0, ops, outcome)
    per_round = len(wl.wire_schedule())
    assert outcome.attempted == per_round
    assert outcome.failed == len(wl.WIRE_FORMATS)  # one 4096-d message per format


def test_traced_ops_self_times_sum_to_root(monkeypatch, tmp_path):
    tracer = Tracer()
    one_run(monkeypatch, tmp_path, 2, tracer)

    own = tracer.self_times()
    kinds = {r: tracer.names[tracer.name_id[r]] for r in set(tracer.root)}
    op_roots = [r for r, k in kinds.items() if k == OP]
    assert len(op_roots) == 2 and SETUP in kinds.values()
    for r in op_roots:
        members = [i for i, root in enumerate(tracer.root) if root == r]
        assert len(members) > 10
        total = sum(own[i] for i in members)
        assert total == pytest.approx(tracer.end[r] - tracer.start[r], rel=1e-9, abs=1e-12)

    # the optimum solve is a setup span, never an op span
    by_kind, _, ops = tracer.summary()
    assert (SETUP, "datasets.compute_f_star") in by_kind
    assert (OP, "datasets.compute_f_star") not in by_kind
    assert ops == {"clapping_fc": 2}
    layers = wl.layer_metrics(tracer, run_workload=True)
    assert {m["name"] for m in SPEC["per_layer"]} - set(layers) == {"trace.overhead_ratio"}
    assert layers["stages.useful_adjoint_ratio"][0] == 0.5

    # stage calls made by the exact-objective logging are kept out of stages.*
    assert by_kind[(OP, "stages.forward.in_chain")][0] > 0
    fewer_logs = Tracer()
    one_run(monkeypatch, tmp_path, 2, fewer_logs, log_every=2)
    assert wl.layer_metrics(fewer_logs, run_workload=True)["stages.calls"] == layers["stages.calls"]
