"""The benchmark's tracer wraps library names it looks up by attribute
(``Patches.set`` reads ``owner.__dict__[attr]``), so a renamed exchange or
a moved import would stop it from seeing the engine, or stop it at setup.
These tests run it on a small engine so that such a change fails here."""

import os
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from clapping_sim import compressors as comp
from clapping_sim import engine, halves, stages, wire
from clapping_sim.engine import CLAPPING_FC, CLAPPING_FU, NO_COMP, AlgoConfig, PipelineEngine
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


def make_engine(variant):
    chain = stages.tanh_mlp_chain((5, 6, 6, 4), boundaries=(2, 4))
    X = named_stream(4, "hooks").standard_normal((16, 5))
    opt = OptimizerConfig(MOMENTUM_SGD, gamma=Schedule.constant(0.05),
                          momentum=Schedule.constant(0.5))
    cfg = AlgoConfig(variant=variant, optimizer=opt,
                     forward_compressors=(comp.topk_spec(2),) * 2,
                     backward_compressors=(comp.quant_spec(8),) * 2,
                     batch_size=4, total_steps=3, seed=1, sampler_rule=BATCH_BATCHWISE,
                     p_schedule=Schedule.constant(0.5))
    init = [0.3 * named_stream(5, "hooks-init").standard_normal(chain.worker_param_dim(e))
            for e in (1, 2, 3)]
    return PipelineEngine(chain, cfg, X, init_weights=init)


@pytest.fixture
def three_worker_engine():
    return make_engine(CLAPPING_FC)


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


def test_engine_calls_the_public_stage_and_compressor_functions(three_worker_engine):
    """The traced call shape of the step: the engine reaches the stages
    and compressors through their public, wrapped functions, so a change
    that goes round them shows here rather than as a blind per-layer
    trace."""
    eng = three_worker_engine
    tracer, patches = Tracer(), Patches()
    instrument(tracer, patches)
    try:
        tracer.begin_root(OP, CLAPPING_FC)
        eng.run(3)
        tracer.end_root()
    finally:
        patches.undo()

    spans = [tracer.names[n] for n in tracer.name_id]
    # 8 stages; the final (loss) stage's output is never read, so it is not run
    assert len(eng.chain.stages) == 8
    assert spans.count("stages.forward") == 3 * 7
    exchanges = [i for i, name in enumerate(spans) if name.endswith("_exchange")]
    assert len(exchanges) == 3 * 2 * 2
    for i in exchanges:  # clapping_fc: every exchange is ef, one compress_batch each
        children = [spans[j] for j, parent in enumerate(tracer.parent) if parent == i]
        assert children.count("compressors.compress_batch") == 1, children
    assert spans.count("compressors.compress_batch") == len(exchanges)


def test_only_parametric_stages_get_a_weight_adjoint(three_worker_engine):
    """The pinned call shape after the build-time trims: a step asks for
    weight adjoints only of stages that have parameters (no tanh, no loss
    head), every exchange still runs one traced compress_batch, and the
    traced ledger bytes are the ledger's own total."""
    eng = three_worker_engine
    tracer, patches = Tracer(), Patches()
    instrument(tracer, patches)
    try:
        tracer.begin_root(OP, CLAPPING_FC)
        eng.run(3)
        tracer.end_root()
    finally:
        patches.undo()

    spans = [tracer.names[n] for n in tracer.name_id]
    parametric = [s for s in eng.chain.stages if s.param_dim]
    assert len(parametric) == 4  # four affine stages; four tanh and loss stages have none
    assert spans.count("stages.backward_weight") == 3 * len(parametric)
    exchanges = [i for i, name in enumerate(spans) if name.endswith("_exchange")]
    assert len(exchanges) == 3 * 2 * 2
    for i in exchanges:
        children = [spans[j] for j, parent in enumerate(tracer.parent) if parent == i]
        assert children.count("compressors.compress_batch") == 1, children
    assert spans.count("wire.ledger_record") == len(exchanges)
    assert tracer.counters[OP]["wire.ledger_payload_bytes"] == eng.ledger.total_bytes() > 0


@pytest.mark.parametrize("variant", [NO_COMP, CLAPPING_FU])
def test_every_message_runs_one_compress_batch(variant):
    """A dense send is identity compression: a ``no_comp`` exchange, and a
    ``clapping_fu`` one whose rows were all drawn fresh, run the same one
    traced compress_batch as any compressed exchange."""
    eng = make_engine(variant)
    tracer, patches = Tracer(), Patches()
    instrument(tracer, patches)
    fresh = []
    try:
        for step in range(6):
            tracer.begin_root(OP, str(step))
            fresh.append(eng.run_iteration())
        tracer.end_root()
    finally:
        patches.undo()

    assert fresh[0] and (variant == NO_COMP or not all(fresh))  # reused and fresh steps both
    spans = [tracer.names[n] for n in tracer.name_id]
    exchanges = [i for i, name in enumerate(spans) if name.endswith("_exchange")]
    assert len(exchanges) == 6 * 2 * 2
    for i in exchanges:
        children = [spans[j] for j, parent in enumerate(tracer.parent) if parent == i]
        assert children.count("compressors.compress_batch") == 1, (
            tracer.root_label[tracer.root[i]], children)
    assert tracer.counters[OP]["wire.ledger_payload_bytes"] == eng.ledger.total_bytes() > 0


def wide_engine():
    """The shape of the benchmark's mlp_wide_topk run: 4 workers, width 512,
    batches of 128, so every affine stage product is split in two."""
    chain = stages.tanh_mlp_chain((512,) * 5, boundaries=(2, 4, 6))
    X = named_stream(6, "hooks-wide").standard_normal((256, 512))
    opt = OptimizerConfig(MOMENTUM_SGD, gamma=Schedule.constant(0.01),
                          momentum=Schedule.constant(0.9))
    cfg = AlgoConfig(variant=CLAPPING_FC, optimizer=opt,
                     forward_compressors=(comp.topk_spec(51),) * 3,
                     backward_compressors=(comp.topk_spec(51),) * 3,
                     batch_size=128, total_steps=3, seed=2, sampler_rule=BATCH_BATCHWISE,
                     p_schedule=Schedule.constant(0.1))
    return PipelineEngine(chain, cfg, X)


def traced_wide_run():
    """Three steps of the wide engine under the tracer: the span names per
    op, and the threads that opened spans."""
    threads = set()

    class ThreadTracer(Tracer):
        def open(self, nid):
            threads.add(threading.get_ident())
            return super().open(nid)

    eng = wide_engine()
    tracer, patches = ThreadTracer(), Patches()
    instrument(tracer, patches)
    try:
        for step in range(3):
            tracer.begin_root(OP, str(step))
            eng.run_iteration()
        tracer.end_root()
    finally:
        patches.undo()
    assert not tracer.stack
    for idx, parent in enumerate(tracer.parent):  # closed, and inside its parent
        assert tracer.start[idx] <= tracer.end[idx]
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[idx] <= tracer.end[idx] <= tracer.end[parent]
    per_op = Counter((tracer.root_label[tracer.root[idx]], tracer.names[nid])
                     for idx, nid in enumerate(tracer.name_id))
    return per_op, threads


def test_split_products_keep_the_tracer_on_the_main_thread(matmul_split, half_calls):
    """With BLAS on one thread, as perfbench runs it, the wide stage
    products and the compressor calls run half on a helper thread, and
    workers 4-2 defer their weight adjoints, scaling and update to it as
    whole jobs. The helper calls only numpy and private functions, so every
    traced call still opens and closes its span on the main thread, in
    order, and each op records the same spans as with one CPU allowed,
    where nothing is split or deferred."""
    matmul_split(threads=1, cpus=(0, 1))
    two_cpus, threads = traced_wide_run()
    assert halves._helpers[os.getpid()] is not None  # the products were split
    assert threads == {threading.main_thread().ident}
    helper = Counter(name for name, ident in half_calls if ident != threading.main_thread().ident)
    # three steps: workers 4-2's scaling and update whole, and the three
    # forward top-k sends; worker 1's scaling and update and the backward
    # sends run whole on the main thread
    assert helper == {"itruediv": 3 * 3, "_momentum": 3 * 3, "topk": 3 * 3}
    matmul_split(threads=1, cpus=(0,))
    half_calls.clear()
    one_cpu, _ = traced_wide_run()
    assert halves._helpers == {os.getpid(): None}
    assert {ident for _, ident in half_calls} == {threading.main_thread().ident}
    assert two_cpus == one_cpu
    assert two_cpus[("0", "stages.forward")] > 0
    assert two_cpus[("0", "optim.update")] == 4
    assert two_cpus[("0", "compressors.compress_batch")] == 6
