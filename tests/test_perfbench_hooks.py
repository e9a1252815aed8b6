"""The benchmark's tracer wraps library names it looks up by attribute
(``Patches.set`` reads ``owner.__dict__[attr]``), so a renamed exchange or
a moved import would stop it from seeing the engine, or stop it at setup.
These tests run it on a small engine so that such a change fails here."""

import sys
from pathlib import Path

import numpy as np
import pytest

from clapping_sim import compressors as comp
from clapping_sim import engine, stages, wire
from clapping_sim.engine import CLAPPING_FC, AlgoConfig, PipelineEngine
from clapping_sim.optim import MOMENTUM_SGD, OptimizerConfig
from clapping_sim.rng import named_stream
from clapping_sim.sampling import BATCH_BATCHWISE, Schedule

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import OP, Patches, Tracer, instrument  # noqa: E402

HOOKS = [
    (PipelineEngine, "forward_exchange"), (PipelineEngine, "backward_exchange"),
    (PipelineEngine, "run_iteration"), (engine, "lazy_sample"), (engine, "momentum_update"),
    (engine, "adam_update"), (comp, "compress_batch"), (comp, "compress"),
    (stages, "stage_forward"), (stages, "chain_gradients"), (wire.TransferLedger, "record"),
]


@pytest.fixture
def three_worker_engine():
    chain = stages.tanh_mlp_chain((5, 6, 6, 4), boundaries=(2, 4))
    X = named_stream(4, "hooks").standard_normal((16, 5))
    opt = OptimizerConfig(MOMENTUM_SGD, gamma=Schedule.constant(0.05),
                          momentum=Schedule.constant(0.5))
    cfg = AlgoConfig(variant=CLAPPING_FC, optimizer=opt,
                     forward_compressors=(comp.topk_spec(2),) * 2,
                     backward_compressors=(comp.quant_spec(8),) * 2,
                     batch_size=4, total_steps=3, seed=1, sampler_rule=BATCH_BATCHWISE,
                     p_schedule=Schedule.constant(0.5))
    init = [0.3 * named_stream(5, "hooks-init").standard_normal(chain.worker_param_dim(e))
            for e in (1, 2, 3)]
    return PipelineEngine(chain, cfg, X, init_weights=init)


def test_tracer_sees_every_exchange_and_every_ledger_byte(three_worker_engine):
    eng = three_worker_engine
    originals = [owner.__dict__[attr] for owner, attr in HOOKS]
    tracer, patches = Tracer(), Patches()
    instrument(tracer, patches)
    try:
        tracer.begin_root(OP, CLAPPING_FC)
        eng.run(3)
        tracer.end_root()
    finally:
        patches.undo()

    spans = [tracer.names[n] for n in tracer.name_id]
    # three steps, two boundaries: two spans per step in each direction
    assert spans.count("engine.forward_exchange") == 6
    assert spans.count("engine.backward_exchange") == 6
    assert spans.count("engine.run_iteration") == 3
    assert tracer.counters[OP]["wire.ledger_payload_bytes"] == eng.ledger.total_bytes() > 0
    assert [owner.__dict__[attr] for owner, attr in HOOKS] == originals
    assert all(not hasattr(owner.__dict__[attr], "__wrapped__") for owner, attr in HOOKS)
