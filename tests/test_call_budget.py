"""Call budget of the reference step: a ledger of the calls one step makes.

The logistic step is bound by call overhead, and call counts are exact
where timings are noisy. For every ``logistic_benchmark_config`` variant
and one 3-worker MLP narrow enough that nothing splits into halves, run
as ``clapping_fc`` and as ``clapping_fu`` (whose steps are partly fresh), this
counts, over 200 steps after warm-up, the Python calls into code under
``src/clapping_sim`` and the C calls made from those frames (numpy's own
Python wrappers are not counted, nor what they call), and compares the
counts with ``BUDGET``. A change that lowers an entry updates the table;
one that raises it says why.

Which C calls the profiler reports depends on the Python and numpy
versions, so the table is keyed by both; on an unrecorded pair the test
skips and names it. To record a new pair, run

    PYTHONPATH=src python tests/test_call_budget.py

and add the printed entry to ``BUDGET``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from clapping_sim import harness
from clapping_sim.engine import VARIANTS, PipelineEngine

SRC = str(Path(harness.__file__).resolve().parent)
WARM_UP, STEPS = 20, 200

MLP = {
    "dataset.kind": "synthetic_mlp", "dataset.n": "48", "dataset.seed": "5",
    "model.dims": "6,10,8,4", "model.boundaries": "2,4",
    "algo.variant": "clapping_fc", "algo.batch_size": "8", "algo.seed": "3",
    "algo.sampler_rule": "batch_samplewise", "algo.total_steps": str(WARM_UP + STEPS),
    "optimizer.gamma": "0.05", "optimizer.momentum": "0.3", "sampling.p": "0.4",
    "compressor.forward": "randk:3", "compressor.backward": "topk:3+quant:4",
}

# (Python calls, C calls) over the STEPS counted steps
BUDGET = {
    "python 3.11; numpy 2.4.6": {
        "logistic/no_comp": (9800, 6000),
        "logistic/direct": (9800, 5800),
        "logistic/forward_ef": (9800, 5800),
        "logistic/aq_sgd": (9800, 5800),
        "logistic/clapping_fc": (9224, 5416),
        "logistic/clapping_fu": (9608, 5840),
        "mlp/clapping_fc": (31597, 17791),
        "mlp/clapping_fu": (35549, 20955),
    },
}


def versions() -> str:
    return f"python {sys.version_info.major}.{sys.version_info.minor}; numpy {np.__version__}"


def budget_configs() -> dict[str, harness.ExperimentConfig]:
    configs = {f"logistic/{v}": harness.logistic_benchmark_config(v, total_steps=WARM_UP + STEPS)
               for v in VARIANTS}
    configs["mlp/clapping_fc"] = harness.config_from_mapping(MLP)
    # partly fresh steps: the only record of ef_fresh_dense's gather path
    configs["mlp/clapping_fu"] = harness.config_from_mapping({**MLP, "algo.variant": "clapping_fu"})
    return configs


def count_calls(cfg: harness.ExperimentConfig) -> tuple[int, int]:
    chain, inputs, init, _ = harness.build_problem(cfg)
    engine = PipelineEngine(chain, cfg.algo, inputs, init_weights=init)
    engine.run(WARM_UP)
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts and frame.f_code.co_filename.startswith(SRC):
            counts[event] += 1

    sys.setprofile(profile)
    try:
        for _ in range(STEPS):  # this frame is not under SRC: the loop is not counted
            engine.run_iteration()
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"]


def all_counts() -> dict[str, tuple[int, int]]:
    return {name: count_calls(cfg) for name, cfg in budget_configs().items()}


def test_reference_step_calls_match_the_budget():
    budget = BUDGET.get(versions())
    if budget is None:
        pytest.skip(f"no call budget recorded for {versions()!r}")
    got = all_counts()
    changed = {name: (budget[name], got[name]) for name in budget if got[name] != budget[name]}
    assert set(got) == set(budget)
    assert not changed, f"call counts changed, (budget, now): {changed}"


if __name__ == "__main__":
    print(json.dumps({versions(): all_counts()}, indent=1, sort_keys=True))
