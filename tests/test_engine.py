import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from clapping_sim import compressors as comp
from clapping_sim import engine as engine_module
from clapping_sim import harness
from clapping_sim import stages as st
from clapping_sim import wire
from clapping_sim.engine import (AQ_SGD, CLAPPING_FC, CLAPPING_FU, DIRECT, FORWARD_EF,
                                 NO_COMP, VARIANT_POLICY, AlgoConfig, PipelineEngine,
                                 StreamingInputs)
from clapping_sim.errors import (ConfigurationError, ContractViolation, DivergenceError,
                                 UnsupportedConfiguration)
from clapping_sim.optim import MOMENTUM_SGD, OptimizerConfig
from clapping_sim.rng import named_stream
from clapping_sim.sampling import BATCH_BATCHWISE, BATCH_SAMPLEWISE, Schedule
from clapping_sim.wire import BACKWARD, FORWARD, TransferLedger


def sgd(gamma=0.1, m=0.5):
    return OptimizerConfig(MOMENTUM_SGD, gamma=Schedule.constant(gamma),
                           momentum=Schedule.constant(m))


def make_config(variant, chain, p=1.0, fwd=None, bwd=None, batch=1, steps=10, seed=11,
                rule=None, resets=frozenset(), opt=None):
    n = chain.num_workers - 1
    fwd = fwd or tuple(comp.identity_spec() for _ in range(n))
    bwd = bwd or tuple(comp.identity_spec() for _ in range(n))
    if rule is None:
        rule = "single" if batch == 1 else BATCH_BATCHWISE
    return AlgoConfig(variant=variant, optimizer=opt or sgd(),
                      forward_compressors=fwd, backward_compressors=bwd,
                      batch_size=batch, total_steps=steps, seed=seed,
                      sampler_rule=rule, p_schedule=Schedule.constant(p),
                      momentum_reset_steps=resets)


def record_exchanges(eng):
    """Keep a copy of the latest array each exchange hands its receiver,
    by (direction, boundary)."""
    received = {}

    def recording(direction, exchange):
        def call(i, x, *rest):
            out = exchange(i, x, *rest)
            received[direction, i] = out.copy()
            return out
        return call

    eng.forward_exchange = recording(FORWARD, eng.forward_exchange)
    eng.backward_exchange = recording(BACKWARD, eng.backward_exchange)
    return received


def freeze(monkeypatch, eng):
    """Keep the engine's weights and optimizer state at their initial values:
    the engine's update functions do nothing until the test ends."""
    for name in ("momentum_update", "adam_update"):
        monkeypatch.setattr(engine_module, name, lambda *args, **kwargs: None)
    return eng


class CountingStream:
    """A 5-wide input stream that records the size of every draw."""

    def __init__(self):
        self.sizes = []

    def draw(self, rng, k):
        self.sizes.append(k)
        return rng.standard_normal((k, 5))


def refreshed_counts(monkeypatch):
    """Record each step's refreshed-row count as lazy_sample returns it."""
    counts = []
    real = engine_module.lazy_sample

    def counting(*args):
        out = real(*args)
        counts.append(int(out[1].sum()))
        return out

    monkeypatch.setattr(engine_module, "lazy_sample", counting)
    return counts


@pytest.fixture
def logistic_setup():
    chain = st.logistic_chain(6, 0.005)
    rng = named_stream(3, "engine-setup")
    X = rng.standard_normal((16, 7))
    init = [rng.standard_normal(chain.worker_param_dim(e)) for e in (1, 2)]
    return chain, X, init


class TestNoCompEquivalence:
    def test_single_step_matches_monolithic_momentum(self, logistic_setup):
        chain, X, init = logistic_setup
        engine = PipelineEngine(chain, make_config(NO_COMP, chain), X, init_weights=init)
        engine.run_iteration()
        # replicate by hand: same sampler stream picks the same row
        idx = named_stream(11, "sampler").integers(0, 16, size=1)[0]
        w_all = chain.split_params(chain.stages, np.concatenate(init))
        _, u_all = st.chain_gradients(chain, X[idx], w_all)
        expected = [w - 0.1 * (0.5 * u) for w, u in zip(w_all, u_all)]
        for got, want in zip(engine.per_stage_weights(), expected):
            npt.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_multi_step_matches_monolithic_recurrence(self, logistic_setup):
        chain, X, init = logistic_setup
        engine = PipelineEngine(chain, make_config(NO_COMP, chain, steps=25), X,
                                init_weights=init)
        engine.run(25)
        rng = named_stream(11, "sampler")
        w_all = chain.split_params(chain.stages, np.concatenate(init))
        u_all = [np.zeros_like(w) for w in w_all]
        for t in range(1, 26):
            if t == 1:
                idx = rng.integers(0, 16, size=1)[0]
            else:
                rng.random()
                idx = rng.integers(0, 16, size=1)[0]
            _, grads = st.chain_gradients(chain, X[idx], w_all)
            u_all = [0.5 * u + 0.5 * g for u, g in zip(u_all, grads)]
            w_all = [w - 0.1 * u for w, u in zip(w_all, u_all)]
        for got, want in zip(engine.per_stage_weights(), w_all):
            npt.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestIdentityCollapse:
    @pytest.mark.parametrize("variant", [CLAPPING_FC, CLAPPING_FU, DIRECT, FORWARD_EF])
    def test_variant_tracks_no_comp(self, variant, logistic_setup):
        chain, X, init = logistic_setup
        ref = PipelineEngine(chain, make_config(NO_COMP, chain, steps=200), X,
                             init_weights=init)
        eng = PipelineEngine(chain, make_config(variant, chain, steps=200), X,
                             init_weights=init)
        for _ in range(200):
            ref.run_iteration()
            eng.run_iteration()
            dev = np.max(np.abs(ref.flat_weights() - eng.flat_weights()))
            assert dev <= 1e-12


class TestExchanges:
    def test_fu_fresh_step_is_dense_and_exact(self, logistic_setup):
        chain, X, init = logistic_setup
        fwd = (comp.topk_spec(1),)
        eng = PipelineEngine(chain, make_config(CLAPPING_FU, chain, fwd=fwd, bwd=fwd),
                             X, init_weights=init)
        assert eng.run_iteration()  # first step always fresh
        d = chain.boundary_dim(0)
        assert eng.ledger.total_bytes(FORWARD) == 4 * d
        assert eng.ledger.total_bytes(BACKWARD) == 4 * d
        # the caches hold exactly the uncompressed activation of the drawn
        # row and the uncompressed activation gradient (the head of this
        # chain has no parameters, so both are recomputable)
        idx = named_stream(11, "sampler").integers(0, 16, size=1)[0]
        y = st.stage_forward(chain.stages[0], X[idx], init[0])
        npt.assert_array_equal(eng.links[FORWARD][0].cache[0], y)
        v = st.stage_backward_input(chain.stages[1], eng.links[FORWARD][0].cache[0],
                                    np.zeros(0), np.ones(1))
        npt.assert_array_equal(eng.links[BACKWARD][0].cache[0], v)

    def test_direct_topk_on_equal_pair_never_decays(self, monkeypatch):
        # two-element activation (1, 1): top-1 keeps index 0 forever, the
        # error on index 1 never shrinks
        spec = st.StageSpec(st.LINEAR, 2, 2)
        head = st.StageSpec(st.LOGISTIC_LOSS, 1, 1)
        mid = st.StageSpec(st.LINEAR, 2, 1)
        chain = st.ModelChain((spec, mid, head), boundaries=(1,))
        X = np.array([[1.0, 1.0]])
        init = [np.eye(2).ravel(), np.array([0.3, 0.3])]
        eng = freeze(monkeypatch, PipelineEngine(
            chain,
            make_config(DIRECT, chain, fwd=(comp.topk_spec(1),), steps=5, seed=2),
            X, init_weights=init,
        ))
        received = record_exchanges(eng)
        for _ in range(5):
            eng.run_iteration()
            npt.assert_array_equal(received[FORWARD, 0][0], [1.0, 0.0])

    def test_backward_error_propagation_formula(self, monkeypatch):
        # three linear workers, exact forward, noisy backward: the
        # received gradient is W2^T(W3^T v3 + eps2) + eps1
        s1 = st.StageSpec(st.LINEAR, 4, 3)
        s2 = st.StageSpec(st.LINEAR, 3, 2)
        s3 = st.StageSpec(st.LINEAR, 2, 1)
        chain = st.ModelChain((s1, s2, s3), boundaries=(1, 2))
        rng = named_stream(4, "linear3")
        init = [rng.standard_normal(12), rng.standard_normal(6), rng.standard_normal(2)]
        X = rng.standard_normal((4, 4))
        bwd = (comp.inject_uniform_spec(0.3), comp.inject_uniform_spec(0.3))
        eng = freeze(monkeypatch, PipelineEngine(chain, make_config(DIRECT, chain, bwd=bwd, seed=5),
                                                 X, init_weights=init))
        received = record_exchanges(eng)
        eng.run_iteration()
        W2 = init[1].reshape(2, 3)
        W3 = init[2].reshape(1, 2)
        v2 = (W3.T @ np.ones(1))
        eps2 = received[BACKWARD, 1][0] - v2
        v1 = W2.T @ received[BACKWARD, 1][0]
        eps1 = received[BACKWARD, 0][0] - v1
        expected = W2.T @ (W3.T @ np.ones(1) + eps2) + eps1
        npt.assert_allclose(received[BACKWARD, 0][0], expected, rtol=1e-12)
        assert np.linalg.norm(eps2) > 0

    def test_cache_inventory(self):
        # one cache per boundary and direction, only where the mode reads one
        chain = st.tanh_mlp_chain((5, 6, 7, 8, 4), boundaries=(1, 2, 3))
        X = np.zeros((32, 5))

        def caches(variant, rule=None):
            eng = PipelineEngine(chain, make_config(variant, chain, batch=4, rule=rule), X)
            return [[link.cache.shape for link in links if link.cache is not None]
                    for links in eng.links]

        dims = [chain.boundary_dim(i) for i in range(3)]
        assert caches(CLAPPING_FC) == [[(4, d) for d in dims]] * 2
        assert caches(NO_COMP) == caches(DIRECT) == [[], []]
        assert caches(AQ_SGD, BATCH_SAMPLEWISE) == [[(32, d) for d in dims], []]


class TestEfFixedPoint:
    def test_frozen_state_contracts_at_compressor_rate(self, logistic_setup, monkeypatch):
        chain, X, init = logistic_setup
        fwd = (comp.topk_spec(1),)
        cfg = make_config(CLAPPING_FC, chain, p=0.0, fwd=fwd, bwd=fwd, steps=40, seed=7)
        eng = freeze(monkeypatch, PipelineEngine(chain, cfg, X, init_weights=init))
        omega = np.sqrt(comp.contraction_bound(comp.topk_spec(1), chain.boundary_dim(0)))
        eng.run_iteration()
        idx = eng.sampler.current[0]
        y = st.stage_forward(chain.stages[0], X[idx], init[0])
        cache = eng.links[FORWARD][0].cache
        errs = [np.linalg.norm(cache[0] - y)]
        for _ in range(10):
            eng.run_iteration()
            errs.append(np.linalg.norm(cache[0] - y))
        for prev, cur in zip(errs, errs[1:]):
            assert cur <= omega * prev + 1e-12
        assert errs[-1] <= 1e-12  # top-1 on dim 2 pins everything within d/k steps


class TestDeterminism:
    def test_identical_config_identical_metrics(self, logistic_setup):
        chain, X, init = logistic_setup
        cfg = make_config(CLAPPING_FU, chain, p=0.3, fwd=(comp.randk_spec(1),),
                          bwd=(comp.quant_spec(4),), steps=50, seed=21)
        runs = []
        for _ in range(2):
            eng = PipelineEngine(chain, cfg, X, init_weights=init)
            runs.append([(eng.run_iteration(), eng.ledger.total_bytes(FORWARD),
                          eng.ledger.total_bytes(BACKWARD), eng.flat_weights().tobytes(),
                          np.concatenate(eng.momentum).tobytes())
                         for _ in range(50)])
        assert runs[0] == runs[1]

    def test_compressor_stream_does_not_disturb_sampling(self, logistic_setup):
        # swapping a stochastic compressor for a deterministic one must
        # not change which samples are drawn
        chain, X, init = logistic_setup
        a = PipelineEngine(chain, make_config(CLAPPING_FC, chain, p=0.5, steps=40,
                                              fwd=(comp.randk_spec(2),)), X, init_weights=init)
        b = PipelineEngine(chain, make_config(CLAPPING_FC, chain, p=0.5, steps=40,
                                              fwd=(comp.topk_spec(2),)), X, init_weights=init)
        for _ in range(40):
            a.run_iteration()
            b.run_iteration()
        npt.assert_array_equal(a.sampler.current, b.sampler.current)


class TestBatchMode:
    def test_batch_gradient_is_row_average(self):
        chain = st.logistic_chain(5, 0.01)
        rng = named_stream(8, "batch-avg")
        X = rng.standard_normal((8, 6))
        init = [rng.standard_normal(chain.worker_param_dim(e)) for e in (1, 2)]
        eng = PipelineEngine(chain, make_config(NO_COMP, chain, batch=8, seed=9,
                                                opt=sgd(m=1.0)), X, init_weights=init)
        eng.run_iteration()
        rows = eng.inputs[eng.sampler.current]
        w_all = chain.split_params(chain.stages, np.concatenate(init))
        _, u_all = st.chain_gradients(chain, rows, w_all)
        expected = np.concatenate(init) - 0.1 * np.concatenate(u_all)
        npt.assert_allclose(eng.flat_weights(), expected, rtol=0, atol=1e-14)

    def test_samplewise_fu_mixed_payloads(self, monkeypatch):
        chain = st.logistic_chain(5, 0.01)
        rng = named_stream(10, "mixed")
        X = rng.standard_normal((64, 6))
        init = [rng.standard_normal(chain.worker_param_dim(e)) for e in (1, 2)]
        k, d, B = 1, chain.boundary_dim(0), 16
        eng = PipelineEngine(
            chain,
            make_config(CLAPPING_FU, chain, p=0.5, batch=B, rule=BATCH_SAMPLEWISE,
                        fwd=(comp.topk_spec(k),), bwd=(comp.topk_spec(k),),
                        steps=20, seed=12),
            X, init_weights=init)
        refreshed = refreshed_counts(monkeypatch)
        eng.run_iteration()  # fresh everywhere
        for _ in range(19):
            before = eng.ledger.total_bytes(FORWARD)
            eng.run_iteration()
            fresh = refreshed[-1]
            if 0 < fresh < B:
                sent = eng.ledger.total_bytes(FORWARD) - before
                assert sent == 4 * d * fresh + 8 * k * (B - fresh)
                break
        else:
            pytest.fail("no partially refreshed step observed")

    def test_partly_fresh_send_updates_the_cache_in_place(self):
        # fresh rows restart their cache rows exactly, stale rows take the
        # error-feedback update, and the receiver reads the cache itself
        chain = st.logistic_chain(4, 0.01)
        X = named_stream(15, "partly-fresh").standard_normal((12, 5))
        cfg = make_config(CLAPPING_FU, chain, p=0.5, batch=4, rule=BATCH_SAMPLEWISE,
                          fwd=(comp.topk_spec(1),), bwd=(comp.topk_spec(1),))
        eng = PipelineEngine(chain, cfg, X)
        eng.run(3)
        link = eng.links[FORWARD][0]
        cache = link.cache.copy()
        x = named_stream(16, "partly-fresh").standard_normal(cache.shape)
        fresh = np.array([False, True, False, True])
        before = eng.ledger.total_bytes(FORWARD)
        recon = eng.forward_exchange(0, x, fresh, eng.sampler.current)
        assert recon is link.cache
        npt.assert_array_equal(recon[fresh], x[fresh])
        delta = comp.compress_batch(comp.topk_spec(1), x[~fresh] - cache[~fresh])[0]
        npt.assert_array_equal(recon[~fresh], cache[~fresh] + delta)
        assert eng.ledger.total_bytes(FORWARD) - before == 2 * 4 * x.shape[1] + 2 * 8


class TestAqsgd:
    def make_engine(self, n_samples, batch=1, fwd=None, seed=13, steps=20):
        chain = st.logistic_chain(4, 0.01)
        rng = named_stream(14, "aq")
        X = rng.standard_normal((n_samples, 5))
        init = [rng.standard_normal(chain.worker_param_dim(e)) for e in (1, 2)]
        rule = "single" if batch == 1 else BATCH_SAMPLEWISE
        cfg = make_config(AQ_SGD, chain, fwd=fwd or (comp.identity_spec(),),
                          batch=batch, rule=rule, steps=steps, seed=seed)
        return PipelineEngine(chain, cfg, X, init_weights=init), chain, X, init

    def test_cache_entries_counted(self):
        eng, *_ = self.make_engine(64)
        assert eng.cache_rows(FORWARD) == [64]
        assert eng.cache_rows(BACKWARD) == []  # the backward is direct and keeps no cache
        eng.run_iteration()
        assert eng.cache_rows(FORWARD) == [64]

    def test_single_sample_dataset_coincides_with_lazy_hold(self):
        # N=1: per-sample error feedback against one cache entry equals
        # the lazy variant that retains its only sample (p=0)
        eng, chain, X, init = self.make_engine(1, fwd=(comp.topk_spec(1),))
        fc = PipelineEngine(chain, make_config(CLAPPING_FC, chain, p=0.0,
                                               fwd=(comp.topk_spec(1),), steps=20, seed=13),
                            X, init_weights=init)
        for _ in range(20):
            eng.run_iteration()
            fc.run_iteration()
        npt.assert_allclose(eng.flat_weights(), fc.flat_weights(), rtol=0, atol=1e-13)

    def test_identity_compressor_matches_no_comp_over_epochs(self):
        eng, chain, X, init = self.make_engine(4, steps=8)
        ref = PipelineEngine(chain, make_config(NO_COMP, chain, steps=8, seed=13), X,
                             init_weights=init)
        for _ in range(8):
            eng.run_iteration()
            ref.run_iteration()
        npt.assert_allclose(eng.flat_weights(), ref.flat_weights(), rtol=0, atol=1e-13)

    def test_direct_step_call_touches_only_selected_rows(self):
        # the per-sample variant runs the normal step; each step updates
        # the cache entry of the row it sampled and no other
        eng, chain, X, init = self.make_engine(8, fwd=(comp.topk_spec(1),))
        after = eng.links[FORWARD][0].cache
        for _ in range(5):
            before = after.copy()
            eng.run_iteration()
            row = eng.sampler.current[0]
            assert after.shape == (8, chain.boundary_dim(0))
            assert not np.array_equal(after[row], before[row])
            untouched = [i for i in range(8) if i != row]
            npt.assert_array_equal(after[untouched], before[untouched])

    def test_a_sample_drawn_twice_keeps_its_last_rows_reconstruction(self, monkeypatch):
        # batch_samplewise draws rows with replacement. Every row of a
        # sample drawn twice is compressed against the same pre-step cache
        # entry, and the cache keeps the last row's reconstruction, by
        # numpy's fancy-assignment order (the README states this)
        chain = st.tanh_mlp_chain((5, 6, 3), boundaries=(2,))
        rng = named_stream(14, "aq")
        X = rng.standard_normal((4, 5))
        init = [rng.standard_normal(chain.worker_param_dim(e)) for e in (1, 2)]
        cfg = make_config(AQ_SGD, chain, fwd=(comp.randk_spec(2),), batch=4,
                          rule=BATCH_SAMPLEWISE, seed=0)
        eng = PipelineEngine(chain, cfg, X, init_weights=init)
        sent = []
        real = comp.compress_batch

        def recording(spec, x, rng=None, cache=None):
            out = real(spec, x, rng, cache)
            sent.append(out[0].copy())
            return out

        monkeypatch.setattr(comp, "compress_batch", recording)
        received = record_exchanges(eng)
        eng.run_iteration()
        npt.assert_array_equal(eng.sampler.current, [3, 2, 3, 3])  # sample 3 at rows 0, 2, 3
        rows = sent[0]  # the forward reconstruction, 0 + C(x - 0) per row: the cache was zero
        npt.assert_array_equal(received[FORWARD, 0], rows)  # each row is received as sent
        assert not np.array_equal(rows[0], rows[3]) and not np.array_equal(rows[2], rows[3])
        cache = eng.links[FORWARD][0].cache
        npt.assert_array_equal(cache[3], rows[3])
        npt.assert_array_equal(cache[2], rows[1])
        npt.assert_array_equal(cache[[0, 1]], 0.0)  # never drawn

    def test_streaming_inputs_rejected(self):
        chain = st.logistic_chain(4, 0.01)
        stream = StreamingInputs(dim=5, draw=lambda rng, k: rng.standard_normal((k, 5)))
        with pytest.raises(UnsupportedConfiguration):
            PipelineEngine(chain, make_config(AQ_SGD, chain), stream)

    def test_lazy_variant_supports_streams(self):
        chain = st.logistic_chain(4, 0.01)
        stream = StreamingInputs(dim=5, draw=lambda rng, k: rng.standard_normal((k, 5)))
        eng = PipelineEngine(chain, make_config(CLAPPING_FU, chain, p=0.5, steps=15), stream)
        eng.run(15)
        assert eng.t == 15 and np.isfinite(eng.flat_weights()).all()


class TestHeldBatch:
    """The engine holds the batch's rows between steps and fetches only
    the rows a step refreshes."""

    def test_reused_stream_batch_draws_once(self):
        chain = st.logistic_chain(4, 0.01)
        stream = CountingStream()
        eng = PipelineEngine(chain, make_config(CLAPPING_FC, chain, p=0.0, batch=4, steps=10),
                             StreamingInputs(dim=5, draw=stream.draw))
        eng.run(10)
        assert stream.sizes == [4]

    def test_samplewise_stream_draws_each_steps_refreshed_rows(self, monkeypatch):
        chain = st.logistic_chain(4, 0.01)
        stream = CountingStream()
        counts = refreshed_counts(monkeypatch)
        eng = PipelineEngine(chain, make_config(CLAPPING_FC, chain, p=0.5, batch=8, steps=20,
                                                rule=BATCH_SAMPLEWISE),
                             StreamingInputs(dim=5, draw=stream.draw))
        eng.run(20)
        assert counts[0] == 8 and any(0 < c < 8 for c in counts)
        assert stream.sizes == [c for c in counts if c]

    @pytest.mark.parametrize("variant, rule", [(CLAPPING_FU, BATCH_SAMPLEWISE),
                                               (CLAPPING_FC, BATCH_BATCHWISE),
                                               (NO_COMP, BATCH_SAMPLEWISE)])
    def test_held_rows_are_the_sampled_dataset_rows(self, monkeypatch, variant, rule):
        chain = st.logistic_chain(4, 0.01)
        X = named_stream(15, "held").standard_normal((12, 5))
        eng = PipelineEngine(chain, make_config(variant, chain, p=0.4, batch=4, steps=25,
                                                rule=rule), X)
        counts = refreshed_counts(monkeypatch)
        first_stage_inputs = []
        real = st.stage_forward

        def recording(stage, y, w):
            if stage is chain.stages[0]:
                first_stage_inputs.append(y.copy())
            return real(stage, y, w)

        monkeypatch.setattr(st, "stage_forward", recording)
        for _ in range(25):
            eng.run_iteration()
            npt.assert_array_equal(first_stage_inputs[-1], X[eng.sampler.current])
        assert len(first_stage_inputs) == 25
        # the lazy variants reuse whole batches, and sample-wise ones refresh part of one
        assert (0 in counts[1:]) == (variant != NO_COMP)
        assert any(0 < c < 4 for c in counts) == (variant == CLAPPING_FU)


class TestStreamDraws:
    """A stream's draw is checked where the engine fetches it, so a bad
    one names the stream and the step instead of failing further on."""

    @staticmethod
    def engine(draw):
        chain = st.logistic_chain(4, 0.01)
        fwd = bwd = (comp.topk_spec(1),)
        cfg = make_config(CLAPPING_FC, chain, p=0.5, batch=4, fwd=fwd, bwd=bwd, steps=5)
        return PipelineEngine(chain, cfg, StreamingInputs(dim=5, draw=draw))

    def test_short_draw(self):
        def short(rng, k):
            return rng.standard_normal((k - 1, 5))
        eng = self.engine(short)
        with pytest.raises(ContractViolation, match=r"step 1: input stream .*short: asked for 4 "
                                                    r"rows of width 5, got shape \(3, 5\)"):
            eng.run_iteration()

    def test_wide_draw(self):
        def wide(rng, k):
            return rng.standard_normal((k, 6))
        eng = self.engine(wide)
        with pytest.raises(ContractViolation, match=r"step 1: input stream .*wide: .*"
                                                    r"got shape \(4, 6\)"):
            eng.run_iteration()

    def test_complex_draw(self):
        def rotated(rng, k):
            return rng.standard_normal((k, 5)) * 1j
        eng = self.engine(rotated)
        with pytest.raises(ContractViolation, match=r"^step 1: input stream .*rotated: expected "
                                                    r"real numbers, got complex"):
            eng.run_iteration()

    def test_nan_row(self):
        draws = []

        def late_nan(rng, k):
            rows = rng.standard_normal((k, 5))
            draws.append(k)
            if len(draws) == 2:  # the second draw, on the first refreshed step after step 1
                rows[-1, 2] = np.nan
            return rows
        eng = self.engine(late_nan)
        with pytest.raises(ContractViolation, match="input stream .*late_nan: asked for 4 rows "
                                                    "of width 5, got non-finite rows") as caught:
            eng.run(5)
        assert not isinstance(caught.value, DivergenceError)
        assert caught.value.args[0].startswith(f"step {eng.t + 1}: ") and eng.t > 0


class TestDivergence:
    @pytest.mark.parametrize("variant", list(VARIANT_POLICY))
    def test_blow_up_is_named_at_the_same_step(self, variant):
        # 16 logistic rows at gamma = 1e6: the weights overflow, and the first
        # non-finite activation is caught before it is sent, whatever the mode
        cfg = harness.config_from_mapping({
            "dataset.n": "16", "dataset.dim": "4", "algo.total_steps": "200",
            "algo.variant": variant, "optimizer.gamma": "1e6",
        })
        chain, inputs, init, _ = harness.build_problem(cfg)
        eng = PipelineEngine(chain, cfg.algo, inputs, init_weights=init)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as caught:
            eng.run()
        assert str(caught.value) == (
            "step 52: non-finite forward message at boundary 0, sent by worker 1")
        assert eng.t == 51

    @pytest.mark.parametrize("variant", [DIRECT, FORWARD_EF, AQ_SGD, CLAPPING_FC])
    def test_unencodable_message_is_named_at_its_step(self, variant):
        # the same blow-up on an 8-bit quant link: the activation is still finite
        # at step 7, but its peak exceeds the float32 scale the body carries
        cfg = harness.config_from_mapping({
            "dataset.n": "16", "dataset.dim": "4", "algo.total_steps": "200",
            "algo.variant": variant, "optimizer.gamma": "1e6", "compressor.forward": "quant:8",
        })
        chain, inputs, init, _ = harness.build_problem(cfg)
        eng = PipelineEngine(chain, cfg.algo, inputs, init_weights=init)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as caught:
            eng.run()
        assert str(caught.value).startswith(
            "step 7: forward message at boundary 0, sent by worker 1: uniform_quant: |x| = ")
        assert eng.t == 6

    def test_non_finite_fresh_row_sent_dense(self):
        # clapping_fu sends the rows drawn fresh this step dense, past any
        # compressor: the engine's own scan names them, and nothing is sent
        chain = st.logistic_chain(4, 0.01)
        X = named_stream(15, "fresh-nan").standard_normal((12, 5))
        cfg = make_config(CLAPPING_FU, chain, p=0.5, batch=4, rule=BATCH_SAMPLEWISE,
                          fwd=(comp.topk_spec(1),), bwd=(comp.topk_spec(1),))
        eng = PipelineEngine(chain, cfg, X)
        eng.run(3)
        link = eng.links[FORWARD][0]
        cache, state = link.cache.copy(), link.rng.bit_generator.state
        x = np.ones((4, chain.boundary_dim(0)))
        x[1, 0] = np.inf
        fresh = np.array([False, True, False, True])
        with pytest.raises(DivergenceError) as caught:
            eng.forward_exchange(0, x, fresh, eng.sampler.current)
        assert str(caught.value) == (
            "step 4: non-finite forward message at boundary 0, sent by worker 1")
        npt.assert_array_equal(link.cache, cache)
        assert link.rng.bit_generator.state == state
        assert eng.ledger.total_messages() == 6

    def test_overflowing_residual_keeps_the_compressors_reason(self, logistic_setup):
        # x is finite, but x - cache is not: the compressor's check finds it,
        # and the message keeps its reason
        chain, X, init = logistic_setup
        eng = PipelineEngine(chain, make_config(CLAPPING_FC, chain), X, init_weights=init)
        eng.run_iteration()
        eng.links[FORWARD][0].cache[0, 0] = -1.5e308
        x = np.full((1, chain.boundary_dim(0)), 1.5e308)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as caught:
            eng.forward_exchange(0, x, np.zeros(1, dtype=bool), eng.sampler.current)
        assert str(caught.value) == ("step 2: forward message at boundary 0, sent by worker 1: "
                                     "compressor input must be finite")

    def test_backward_message_names_its_sender(self, logistic_setup):
        chain, X, init = logistic_setup
        eng = PipelineEngine(chain, make_config(CLAPPING_FC, chain), X, init_weights=init)
        eng.run_iteration()
        with pytest.raises(DivergenceError, match="step 2: .* backward .* boundary 0, .* worker 2"):
            eng.backward_exchange(0, np.full((1, chain.boundary_dim(0)), np.nan),
                                  np.zeros(1, dtype=bool))


class TestAdamEngine:
    def test_no_comp_matches_hand_recurrence(self, logistic_setup):
        from clapping_sim.optim import ADAM, adam_update

        chain, X, init = logistic_setup
        opt = OptimizerConfig(ADAM, gamma=Schedule.constant(0.05),
                              momentum=Schedule.constant(0.9), beta2=0.99, eps=1e-8)
        eng = PipelineEngine(chain, make_config(NO_COMP, chain, steps=5, opt=opt), X,
                             init_weights=init)
        eng.run(5)
        rng = named_stream(11, "sampler")
        w = np.concatenate(init)
        u = np.zeros_like(w)
        s = np.zeros_like(w)
        for t in range(1, 6):
            if t > 1:
                rng.random()
            idx = rng.integers(0, 16, size=1)[0]
            _, grads = st.chain_gradients(chain, X[idx],
                                          chain.split_params(chain.stages, w))
            g = np.concatenate(grads)
            u, s, w = adam_update(u, s, w, g, 0.9, 0.99, 1e-8, 0.05)
        npt.assert_allclose(eng.flat_weights(), w, rtol=0, atol=1e-13)


class TestDiscardedWork:
    def test_worker_one_first_stage_gets_no_input_adjoint(self, monkeypatch):
        chain = st.tanh_mlp_chain((5, 6, 6, 4), boundaries=(2, 4))
        X = named_stream(4, "adjoints").standard_normal((32, 5))
        rng = named_stream(5, "adjoints-init")
        init = [0.3 * rng.standard_normal(chain.worker_param_dim(e)) for e in (1, 2, 3)]
        engine = PipelineEngine(chain, make_config(CLAPPING_FC, chain, p=0.5, batch=4, steps=6),
                                X, init_weights=init)
        asked = []
        real = st.stage_backward_input

        def counting(stage, *args):
            asked.append(stage)
            return real(stage, *args)

        monkeypatch.setattr(st, "stage_backward_input", counting)
        for _ in range(6):
            asked.clear()
            engine.run_iteration()
            assert len(asked) == len(chain.stages) - 1
            assert not any(stage is chain.stages[0] for stage in asked)


class TestMemory:
    def test_warm_step_retains_nothing_and_updates_state_in_place(self):
        cfg = harness.config_from_mapping({
            "dataset.kind": "synthetic_mlp", "dataset.n": "256",
            "model.dims": "512,512,512,512,512", "model.boundaries": "2,4,6",
            "algo.variant": "clapping_fc", "algo.batch_size": "128", "sampling.p": "0.5",
            "compressor.forward": "topk:51", "compressor.backward": "topk:51",
        })
        chain, inputs, init, _ = harness.build_problem(cfg)
        eng = PipelineEngine(chain, cfg.algo, inputs, init_weights=init)
        eng.run(1)
        state = [list(eng.weights), list(eng.momentum),
                 [link.cache for links in eng.links for link in links]]
        before = [w.copy() for w in eng.weights]
        tracemalloc.start()
        try:
            eng.run(2)  # so that what the step replaces was allocated under tracing
            base = tracemalloc.get_traced_memory()[0]
            eng.run_iteration()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # slack for interpreter bookkeeping only: one 512-wide row is 4 KiB
        assert retained < 1024, retained
        after = [list(eng.weights), list(eng.momentum),
                 [link.cache for links in eng.links for link in links]]
        assert all(a is b for got, had in zip(after, state) for a, b in zip(got, had))
        assert not any(np.array_equal(a, b) for a, b in zip(eng.weights, before))
        assert eng.second_moment == []  # only Adam keeps a second moment

    def test_workers_share_one_gradient_scratch(self):
        # four workers of unequal size: the widest is the second
        chain = st.tanh_mlp_chain((64, 256, 128, 64, 16), boundaries=(2, 4, 6))
        dims = [chain.worker_param_dim(e) for e in range(1, 5)]
        X = named_stream(6, "scratch").standard_normal((64, 64))
        init = [np.zeros(d) for d in dims]
        cfg = make_config(CLAPPING_FC, chain, p=0.5, batch=32,
                          fwd=tuple(comp.topk_spec(8) for _ in range(3)),
                          bwd=tuple(comp.topk_spec(8) for _ in range(3)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            eng = PipelineEngine(chain, cfg, X, init_weights=init)
            built = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()

        scratch = eng.plans[0].grad.base
        assert scratch is not None and len(scratch) == max(dims)
        for plan, d in zip(eng.plans, dims):
            assert plan.grad.base is scratch and len(plan.grad) == d
            assert plan.grad.ctypes.data == scratch.ctypes.data  # from offset 0
            assert all(g.base is scratch for g in plan.stage_grads if len(g))
        caches = sum(link.cache.nbytes for links in eng.links for link in links)
        # weights and momentum per worker, one scratch, the link caches; the
        # slack is far below the 203 KiB that per-worker gradients would add
        expected = 2 * 8 * sum(dims) + 8 * max(dims) + caches
        assert built < expected + 32 * 1024, (built, expected)


class TestMisc:
    def test_readme_variant_table_matches_policy(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = {}
        for line in readme.read_text().splitlines():
            cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0] in VARIANT_POLICY:
                fwd, bwd, lazy = cells[1:]
                rows[cells[0]] = (fwd, bwd, lazy == "yes")
        assert rows == {v: tuple(p) for v, p in VARIANT_POLICY.items()}

    def test_momentum_reset_clears_history(self, logistic_setup):
        chain, X, init = logistic_setup
        cfg = make_config(NO_COMP, chain, p=0.0, steps=2, resets=frozenset({2}))
        eng = PipelineEngine(chain, cfg, X, init_weights=init)
        eng.run_iteration()
        w_after1 = [w.copy() for w in eng.weights]
        eng.run_iteration()
        # momentum was zeroed at the top of step 2, so the update is m * g2
        w_stages = chain.split_params(chain.stages, np.concatenate(w_after1))
        idx = eng.sampler.current[0]
        _, grads = st.chain_gradients(chain, X[idx], w_stages)
        expected = np.concatenate(w_stages) - 0.1 * 0.5 * np.concatenate(grads)
        npt.assert_allclose(eng.flat_weights(), expected, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("entries", [1, 3])
    def test_init_weights_need_one_entry_per_worker(self, logistic_setup, entries):
        chain, X, init = logistic_setup
        with pytest.raises(ConfigurationError, match="init_weights: expected 2 entries"):
            PipelineEngine(chain, make_config(NO_COMP, chain), X,
                           init_weights=(init * 2)[:entries])

    @pytest.mark.parametrize("case, message", [
        ("one worker", "pipeline needs at least 2 workers"),
        ("stream width", "stream dim does not match the chain input"),
        ("1-d inputs", "inputs must be \\(n, input_dim\\)"),
        ("inputs width", "inputs must be \\(n, input_dim\\)"),
        ("no rows", "empty dataset"),
        ("worker 1 parameters", "worker 1 expects 7 parameters"),
        ("worker 2 parameters", "worker 2 expects 0 parameters"),
        ("batch above the rows", "batch size 8 exceeds the 4-sample dataset"),
    ])
    def test_build_refuses(self, logistic_setup, case, message):
        chain, X, init = logistic_setup
        init = list(init)
        cfg = make_config(NO_COMP, chain)
        if case == "one worker":
            chain = st.ModelChain(chain.stages)
        elif case == "stream width":
            X = StreamingInputs(dim=6, draw=lambda rng, k: rng.standard_normal((k, 6)))
        elif case == "1-d inputs":
            X = X[0]
        elif case == "inputs width":
            X = X[:, :6]
        elif case == "no rows":
            X = X[:0]
        elif case == "batch above the rows":
            X, cfg = X[:4], make_config(NO_COMP, chain, batch=8)
        else:
            e = int(case.split()[1])
            init[e - 1] = np.zeros(len(init[e - 1]) + 1)
        with pytest.raises(ConfigurationError, match=message):
            PipelineEngine(chain, cfg, X, init_weights=init)

    @pytest.mark.parametrize("what", ["inputs", "init_weights"])
    def test_complex_inputs_are_refused_not_cast(self, logistic_setup, what):
        chain, X, init = logistic_setup
        if what == "inputs":
            X = X + 1j
        else:
            init = [init[0] + 1j, init[1]]
        with pytest.raises(ContractViolation, match=f"^{what}: expected real numbers, got complex"):
            PipelineEngine(chain, make_config(NO_COMP, chain), X, init_weights=init)

    def test_wrong_compressor_count_rejected(self, logistic_setup):
        chain, X, _ = logistic_setup
        cfg = make_config(NO_COMP, chain)
        bad = AlgoConfig(variant=NO_COMP, optimizer=cfg.optimizer,
                         forward_compressors=(comp.identity_spec(),) * 3,
                         backward_compressors=cfg.backward_compressors,
                         batch_size=1, total_steps=1, seed=0)
        with pytest.raises(ConfigurationError):
            PipelineEngine(chain, bad, X)

    @pytest.mark.parametrize("variant", list(VARIANT_POLICY))
    def test_compressor_wider_than_its_boundary_rejected_at_build(self, variant):
        chain = st.tanh_mlp_chain((3, 5, 4), (2,))
        wide = comp.topk_spec(chain.boundary_dim(0) + 1)
        X = np.zeros((4, chain.input_dim))
        with pytest.raises(ConfigurationError, match="boundary 0 forward.*k=6"):
            PipelineEngine(chain, make_config(variant, chain, fwd=(wide,)), X)
        member = comp.compose_spec(comp.randk_spec(6), comp.natural_spec())
        with pytest.raises(ConfigurationError, match="boundary 0 backward.*randk k=6"):
            PipelineEngine(chain, make_config(variant, chain, bwd=(member,)), X)
        PipelineEngine(chain, make_config(variant, chain, fwd=(comp.topk_spec(5),)), X)

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_refresh_probability_outside_unit_interval_rejected(self, logistic_setup, p):
        chain, _, _ = logistic_setup
        with pytest.raises(ConfigurationError, match="sampling.p"):
            make_config(NO_COMP, chain, p=p)

    def test_ledger_accumulates_sim_time(self, logistic_setup):
        chain, X, init = logistic_setup
        eng = PipelineEngine(chain, make_config(NO_COMP, chain, steps=4), X,
                             init_weights=init, bandwidth_bps=1e6)
        eng.run(4)
        d = chain.boundary_dim(0)
        total_bytes = 4 * 4 * d * 2  # four steps, dense both directions
        assert eng.ledger.simulated_seconds == pytest.approx(total_bytes * 8 / 1e6)

    def test_ledger_counts_sparse_value_bytes_apart_from_payload(self):
        # 5 steps of 4 rows over the 8-wide boundary, top-3 forward and
        # top-2 backward: a sparse body's value bytes leave out its indices
        cfg = harness.config_from_mapping({
            "dataset.kind": "synthetic_mlp", "model.dims": "6,8,5", "model.boundaries": "2",
            "algo.variant": "direct", "algo.batch_size": "4",
            "algo.sampler_rule": BATCH_BATCHWISE, "dataset.n": "16",
            "compressor.forward": "topk:3", "compressor.backward": "topk:2",
        })
        chain, inputs, init, _ = harness.build_problem(cfg)
        eng = PipelineEngine(chain, cfg.algo, inputs, init_weights=init)
        eng.run(5)
        fwd, bwd = (wire.sizes(wire.FMT_SPARSE, 8, k) for k in (3, 2))  # (24, 12), (16, 8)
        assert eng.ledger.per_link == {(0, FORWARD): [5 * 4 * fwd[0], 5 * 4 * fwd[1], 5],
                                       (0, BACKWARD): [5 * 4 * bwd[0], 5 * 4 * bwd[1], 5]}

    def test_step_reads_no_ledger_totals(self, logistic_setup, monkeypatch):
        # a step only records its messages; totals are read where they are logged
        chain, X, init = logistic_setup
        eng = PipelineEngine(chain, make_config(CLAPPING_FU, chain, p=0.5, steps=20), X,
                             init_weights=init)
        calls = []
        real = TransferLedger.total_bytes

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(TransferLedger, "total_bytes", counting)
        eng.run(20)
        assert calls == []
        assert eng.ledger.total_messages() == 40
