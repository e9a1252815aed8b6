import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from clapping_sim import compressors as comp
from clapping_sim import harness
from clapping_sim import stages as st
from clapping_sim.engine import (AQ_SGD, CLAPPING_FC, CLAPPING_FU, DIRECT, FORWARD_EF,
                                 NO_COMP, VARIANT_POLICY, AlgoConfig, PipelineEngine,
                                 StreamingInputs)
from clapping_sim.errors import ConfigurationError, DivergenceError, UnsupportedConfiguration
from clapping_sim.optim import MOMENTUM_SGD, OptimizerConfig
from clapping_sim.rng import named_stream
from clapping_sim.sampling import BATCH_BATCHWISE, BATCH_SAMPLEWISE, Schedule
from clapping_sim.wire import BACKWARD, FORWARD


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
        metrics = engine.run_iteration()
        # replicate by hand: same sampler stream picks the same row
        idx = named_stream(11, "sampler").integers(0, 16, size=1)[0]
        w_all = chain.split_params(chain.stages, np.concatenate(init))
        loss, u_all = st.chain_gradients(chain, X[idx], w_all)
        assert metrics.loss == pytest.approx(loss, abs=1e-15)
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
        metrics = eng.run_iteration()  # first step always fresh
        assert metrics.f_fu
        d = chain.boundary_dim(0)
        assert metrics.fwd_bytes == 4 * d
        assert metrics.bwd_bytes == 4 * d
        # the caches hold exactly the uncompressed activation of the drawn
        # row and the uncompressed activation gradient (the head of this
        # chain has no parameters, so both are recomputable)
        idx = named_stream(11, "sampler").integers(0, 16, size=1)[0]
        y = st.stage_forward(chain.stages[0], X[idx], init[0])
        npt.assert_array_equal(eng.links[FORWARD][0].cache[0], y)
        v = st.stage_backward_input(chain.stages[1], eng.links[FORWARD][0].cache[0],
                                    np.zeros(0), np.ones(1))
        npt.assert_array_equal(eng.links[BACKWARD][0].cache[0], v)

    def test_direct_topk_on_equal_pair_never_decays(self):
        # two-element activation (1, 1): top-1 keeps index 0 forever, the
        # error on index 1 never shrinks
        spec = st.StageSpec(st.LINEAR, 2, 2)
        head = st.StageSpec(st.LOGISTIC_LOSS, 1, 1)
        mid = st.StageSpec(st.LINEAR, 2, 1)
        chain = st.ModelChain((spec, mid, head), boundaries=(1,))
        X = np.array([[1.0, 1.0]])
        init = [np.eye(2).ravel(), np.array([0.3, 0.3])]
        eng = PipelineEngine(
            chain,
            make_config(DIRECT, chain, fwd=(comp.topk_spec(1),), steps=5, seed=2),
            X, init_weights=init, freeze_weights=True,
        )
        received = record_exchanges(eng)
        for _ in range(5):
            eng.run_iteration()
            npt.assert_array_equal(received[FORWARD, 0][0], [1.0, 0.0])

    def test_backward_error_propagation_formula(self):
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
        eng = PipelineEngine(chain, make_config(DIRECT, chain, bwd=bwd, seed=5), X,
                             init_weights=init, freeze_weights=True)
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
    def test_frozen_state_contracts_at_compressor_rate(self, logistic_setup):
        chain, X, init = logistic_setup
        fwd = (comp.topk_spec(1),)
        eng = PipelineEngine(chain, make_config(CLAPPING_FC, chain, p=0.0, fwd=fwd,
                                                bwd=fwd, steps=40, seed=7),
                             X, init_weights=init, freeze_weights=True)
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
            runs.append([(m.step, m.loss, m.u_norm, m.fwd_bytes, m.bwd_bytes, m.f_fu)
                         for m in eng.run(50)])
        assert runs[0] == runs[1]

    def test_seed_stream_decorrelates_stochastic_compressors(self, logistic_setup):
        chain, X, init = logistic_setup
        import dataclasses
        base = comp.randk_spec(1)
        other = dataclasses.replace(base, seed_stream="alt")
        a = PipelineEngine(chain, make_config(DIRECT, chain, fwd=(base,), steps=5), X,
                           init_weights=init)
        b = PipelineEngine(chain, make_config(DIRECT, chain, fwd=(other,), steps=5), X,
                           init_weights=init)
        got_a, got_b = record_exchanges(a), record_exchanges(b)
        a.run(5)
        b.run(5)
        assert not np.array_equal(got_a[FORWARD, 0], got_b[FORWARD, 0])

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

    def test_samplewise_fu_mixed_payloads(self):
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
        eng.run_iteration()  # fresh everywhere
        for _ in range(19):
            m = eng.run_iteration()
            fresh = m.refreshed
            if 0 < fresh < B:
                assert m.fwd_bytes == 4 * d * fresh + 8 * k * (B - fresh)
                break
        else:
            pytest.fail("no partially refreshed step observed")


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

    def test_streaming_inputs_rejected(self):
        chain = st.logistic_chain(4, 0.01)
        stream = StreamingInputs(dim=5, draw=lambda rng, k: rng.standard_normal((k, 5)))
        with pytest.raises(UnsupportedConfiguration):
            PipelineEngine(chain, make_config(AQ_SGD, chain), stream)

    def test_lazy_variant_supports_streams(self):
        chain = st.logistic_chain(4, 0.01)
        stream = StreamingInputs(dim=5, draw=lambda rng, k: rng.standard_normal((k, 5)))
        eng = PipelineEngine(chain, make_config(CLAPPING_FU, chain, p=0.5, steps=15), stream)
        metrics = eng.run(15)
        assert len(metrics) == 15 and np.isfinite(metrics[-1].loss)


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


class TestMisc:
    def test_readme_variant_table_matches_policy(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows = {}
        for line in readme.read_text().splitlines():
            cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
            if len(cells) == 5 and cells[0] in VARIANT_POLICY:
                fwd, bwd, lazy, fresh = cells[1:]
                rows[cells[0]] = (fwd, bwd, lazy == "yes", fresh == "yes")
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

    def test_iterations_must_run_in_order(self, logistic_setup):
        chain, X, init = logistic_setup
        eng = PipelineEngine(chain, make_config(NO_COMP, chain), X, init_weights=init)
        with pytest.raises(Exception):
            eng.run_iteration(t=5)

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
        metrics = eng.run(4)
        d = chain.boundary_dim(0)
        total_bytes = 4 * 4 * d * 2  # four steps, dense both directions
        assert metrics[-1].sim_seconds == pytest.approx(total_bytes * 8 / 1e6)
