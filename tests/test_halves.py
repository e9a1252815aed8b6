"""The stage products and compress_batch run as two halves, one on the
helper thread, where ``halves.helper()`` gives one (the ``matmul_split``
fixture sets that up), and a wide engine defers its workers' weight sides
to that thread as whole jobs. Each result must be that of the one call it
replaces, bit for bit, and so must each error. ``half_calls`` records
which thread ran each half or job."""

import sys
import threading

import numpy as np
import pytest

from clapping_sim import compressors as comp
from clapping_sim import engine, halves, optim, stages
from clapping_sim.engine import CLAPPING_FC, CLAPPING_FU, AlgoConfig, PipelineEngine
from clapping_sim.errors import ContractViolation, DivergenceError
from clapping_sim.optim import ADAM, MOMENTUM_SGD, OptimizerConfig, adam_update, momentum_update
from clapping_sim.rng import named_stream
from clapping_sim.sampling import BATCH_BATCHWISE, BATCH_SAMPLEWISE, Schedule, lazy_sample

MAIN = threading.main_thread().ident
ONE_CPU, TWO_CPUS = (0,), (0, 1)


def bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def on_helper(calls, name=None):
    """How many recorded calls (of ``name``) ran on the helper thread."""
    return sum(ident != MAIN for n, ident in calls if name in (None, n))


def on_main(calls, name):
    """How many recorded calls of ``name`` ran on the main thread."""
    return sum(ident == MAIN for n, ident in calls if n == name)


def per_cpus(matmul_split, fn):
    """fn() with one CPU allowed, then with two; returns both results."""
    got = []
    for cpus in (ONE_CPU, TWO_CPUS):
        matmul_split(threads=1, cpus=cpus)
        got.append(fn())
    return got


class TestUpdates:
    @pytest.mark.parametrize("n", [1000, (1 << 18) + 3])
    @pytest.mark.parametrize("kind", ["momentum", "adam"])
    def test_update_runs_whole_on_the_calling_thread(self, kind, n, matmul_split, half_calls):
        rng = named_stream(30, f"halves-{kind}")
        state = [rng.standard_normal(n) * 10.0 ** rng.integers(-3, 3) for _ in range(4)]
        state[1] = np.abs(state[1])  # Adam's second moment

        def update():
            u, s, w, g = (a.copy() for a in state)
            if kind == "momentum":
                momentum_update(u, w, g, 0.37, 0.0125)
                return u, w, g
            adam_update(u, s, w, g, 0.9, 0.999, 1e-8, 0.0125)
            return u, s, w, g

        one, two = per_cpus(matmul_split, update)
        for a, b in zip(one, two):
            assert np.array_equal(bits(a), bits(b))
        assert len(half_calls) == 2 and on_helper(half_calls) == 0

    def test_updates_on_shared_buffers_run_as_one_call(self, matmul_split, half_calls):
        """u and w overlap: run here or deferred, the update is one call."""
        w0 = named_stream(31, "halves-shared").standard_normal((1 << 18) + 1)

        def update(defer):
            w = w0.copy()
            momentum_update(w[1:], w[:-1], w[1:].copy(), 0.5, 0.1, defer=defer)
            halves.wait()
            return w

        one, two = per_cpus(matmul_split, lambda: [update(False), update(True)])
        for got in (one[1], *two):
            assert np.array_equal(bits(got), bits(one[0]))
        assert on_helper(half_calls) == 1  # the deferred one, with two CPUs


def deferred_update():
    """A deferred momentum update whose gamma * u overflows, in multiply."""
    u = named_stream(32, "halves-errstate").standard_normal((1 << 18) + 1)
    u[-10] = 1e300
    w, g = np.zeros_like(u), np.ones_like(u)
    momentum_update(u, w, g, 0.5, 1e10, defer=True)
    halves.wait()
    return w


def deferred_adam():
    """A deferred Adam update whose g**2 overflows, in square."""
    g = named_stream(33, "halves-errstate").standard_normal((1 << 18) + 1)
    g[-10] = 1e200
    u, s, w = np.zeros_like(g), np.ones_like(g), np.zeros_like(g)
    adam_update(u, s, w, g, 0.9, 0.999, 1e-8, 0.0125, defer=True)
    halves.wait()
    return w


def split_ef(peak, entry, row=100):
    """A wide top-k error-feedback call with one extreme entry in ``row``
    (100 is in the helper's row half, 10 in the caller's): ``peak`` in x,
    ``entry`` in the cache."""
    x, cache = np.ones((128, 512)), np.zeros((128, 512))
    x[row, 5], cache[row, 5] = peak, entry
    comp.compress_batch(comp.topk_spec(51), x, cache=cache)
    return cache


class TestErrorState:
    @pytest.mark.parametrize("job, error, helped", [
        (deferred_update, "overflow encountered in multiply", 2),
        (deferred_adam, "overflow encountered in square", 2),
        # x - cache overflows: formed before the split, as one call forms it
        (lambda: split_ef(1e308, -1e308), "overflow encountered in subtract", 0),
        # (ignored, the inf fails the caller's half's input check, while
        # the helper's half runs its rows)
        (lambda: split_ef(1e308, -1e308, row=10), "overflow encountered in subtract", 1),
        # x - cache is finite, and only the helper's cache update overflows
        (lambda: split_ef(np.finfo(float).max, np.ldexp(3.0, 970)),
         "overflow encountered in add", 2),
        # the same in the caller's half, while the helper's half succeeds
        (lambda: split_ef(np.finfo(float).max, np.ldexp(3.0, 970), row=10),
         "overflow encountered in add", 2),
    ], ids=["deferred-update", "deferred-adam", "ef-subtract", "ef-subtract-caller-half",
            "ef-add", "ef-add-caller-half"])
    def test_helper_runs_under_the_callers_error_state(self, job, error, helped, matmul_split,
                                                      half_calls):
        """numpy's error state is per thread: a deferred job and a split
        call's halves take the caller's, and an overflow raises one call's
        error whichever thread meets it."""
        def outcome(**state):
            try:
                with np.errstate(**state):
                    return bits(job())
            except Exception as exc:
                return type(exc), str(exc)

        # pytest turns any RuntimeWarning into an error, so this is silence
        one, two = per_cpus(matmul_split, lambda: outcome(over="ignore"))
        assert type(one) is type(two) and np.array_equal(one, two)
        assert per_cpus(matmul_split, lambda: outcome(over="raise")) == [
            (FloatingPointError, error)] * 2
        assert on_helper(half_calls) == helped


SPECS = {
    "identity": comp.identity_spec(),
    "topk": comp.topk_spec(51),
    "quant8": comp.quant_spec(8),
    "natural": comp.natural_spec(),
    "compose": comp.compose_spec(comp.topk_spec(51), comp.quant_spec(8)),
}


EF_SPECS = dict(SPECS, randk=comp.randk_spec(51), inject_uniform=comp.inject_uniform_spec(0.2))


class TestCompressBatch:
    @pytest.mark.parametrize("rows", [128, 97, 37, 1])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_batch_matches_one_call_bit_for_bit(self, name, rows, matmul_split, half_calls):
        rng = named_stream(33, f"halves-{name}")
        if name == "topk":  # four magnitudes: every row has more ties than free slots
            x = rng.choice([-2.0, -1.0, 1.0, 2.0], size=(rows, 512))
        else:
            x = rng.standard_normal((rows, 512)) * 10.0 ** rng.integers(-3, 3, size=(rows, 1))
        one, two = per_cpus(matmul_split, lambda: comp.compress_batch(SPECS[name], x))
        assert np.array_equal(bits(one[0]), bits(two[0])) and one[1:] == two[1:]
        split = x.size > comp._SPLIT_ENTRIES and rows > 1 and name != "identity"
        assert bool(on_helper(half_calls)) == split
        if name == "topk":
            assert np.count_nonzero(one[0], axis=-1).tolist() == [51] * rows

    @pytest.mark.parametrize("spec", [comp.randk_spec(51), comp.inject_uniform_spec(0.2),
                                      comp.compose_spec(comp.randk_spec(51), comp.quant_spec(8)),
                                      comp.compose_spec(comp.topk_spec(51),
                                                        comp.inject_uniform_spec(0.2))],
                             ids=["randk", "inject_uniform", "randk+quant", "topk+inject"])
    def test_stochastic_kinds_draw_the_whole_batch_in_one_call(self, spec, matmul_split,
                                                              half_calls):
        x = named_stream(34, "halves-stochastic").standard_normal((128, 512))

        def draw():
            rng = named_stream(35, "halves-stream")
            recon, nbytes, values = comp.compress_batch(spec, x, rng)
            return recon, nbytes, values, rng.bit_generator.state

        one, two = per_cpus(matmul_split, draw)
        assert np.array_equal(bits(one[0]), bits(two[0])) and one[1:] == two[1:]
        assert half_calls and on_helper(half_calls) == 0

    @pytest.mark.parametrize("name", sorted(EF_SPECS))
    def test_a_cache_takes_the_error_feedback_update_in_place(self, name, matmul_split,
                                                             half_calls):
        """With a cache, compress_batch compresses x - cache, adds the
        result into the cache and returns the cache itself: bit for bit
        the caller's own update around a call without one."""
        spec = EF_SPECS[name]
        rng = named_stream(39, f"halves-ef-{name}")
        x = rng.standard_normal((128, 512))
        c0 = x + rng.standard_normal((128, 512)) * 10.0 ** rng.integers(-3, 1, size=(128, 1))
        assert x.size > comp._SPLIT_ENTRIES

        def ef():
            cache = c0.copy()
            got = comp.compress_batch(spec, x, named_stream(40, "halves-ef"), cache=cache)
            delta = comp.compress_batch(spec, x - c0, named_stream(40, "halves-ef"))
            assert got[0] is cache and got[1:] == delta[1:]
            assert np.array_equal(bits(cache), bits(c0 + delta[0]))
            return cache

        one, two = per_cpus(matmul_split, ef)
        assert np.array_equal(bits(one), bits(two))
        split = not spec.stochastic and name != "identity"
        assert bool(on_helper(half_calls)) == split

    def test_a_failing_half_gives_one_calls_exception(self, matmul_split, half_calls):
        """Rows past float32's range in both halves: the text names the
        peak over the whole batch, as one call's does, not one half's."""
        x = named_stream(36, "halves-quant").standard_normal((128, 512))
        x[10, 3], x[100, 7] = 1e39, -3e39
        errors = []
        for cpus in (ONE_CPU, TWO_CPUS):
            matmul_split(threads=1, cpus=cpus)
            with pytest.raises(ContractViolation) as caught:
                comp.compress_batch(comp.quant_spec(8), x)
            errors.append(str(caught.value))
        assert errors[0] == errors[1] and "|x| = 3e+39" in errors[0]
        assert on_helper(half_calls) == 1


def wide_engine(kind, variant=CLAPPING_FC, sampler=BATCH_BATCHWISE):
    """4 workers of width 512 with 128-row batches: every stage product,
    update and compressor call is above its split constant, so with a
    helper workers 4, 3 and 2 defer their weight sides."""
    chain = stages.tanh_mlp_chain((512,) * 5, boundaries=(2, 4, 6))
    X = named_stream(37, "halves-wide").standard_normal((256, 512))
    opt = OptimizerConfig(kind, gamma=Schedule.constant(0.01), momentum=Schedule.constant(0.9))
    cfg = AlgoConfig(variant=variant, optimizer=opt,
                     forward_compressors=(comp.topk_spec(51),) * 3,
                     backward_compressors=(comp.quant_spec(8),) * 3,
                     batch_size=128, total_steps=20, seed=3, sampler_rule=sampler,
                     p_schedule=Schedule.constant(0.1))
    init = [0.05 * named_stream(38, "halves-init").standard_normal(chain.worker_param_dim(e))
            for e in (1, 2, 3, 4)]
    return PipelineEngine(chain, cfg, X, init_weights=init)


def engine_state(eng):
    """Weights, momenta, second moments and link caches, in that order."""
    caches = [link.cache for links in eng.links for link in links]
    return [eng.flat_weights()] + eng.momentum + eng.second_moment + caches


class TestWideEngine:
    @pytest.mark.parametrize("kind", [MOMENTUM_SGD, ADAM])
    def test_twenty_steps_match_one_cpu_bit_for_bit(self, kind, matmul_split, half_calls):
        def run():
            eng = wide_engine(kind)
            eng.run()
            return engine_state(eng), eng.ledger.total_bytes(), [p.defer for p in eng.plans]

        one, two = per_cpus(matmul_split, run)
        assert len(one[0]) == len(two[0]) == 4 + 4 * (kind == ADAM) + 7
        for a, b in zip(one[0], two[0]):
            assert np.array_equal(bits(a), bits(b))
        assert one[1] == two[1]
        assert one[2] == [False] * 4 and two[2] == [False, True, True, True]
        update = "_momentum" if kind == MOMENTUM_SGD else "_adam"
        # 20 steps: workers 4-2 hand their scaling and update whole to the
        # helper, worker 1 runs both here; the three forward sends split, and
        # the three backward sends run whole here, behind deferred jobs
        names = ("itruediv", update, "topk", "uniform_quant")
        assert [on_helper(half_calls, name) for name in names] == [20 * 3, 20 * 3, 20 * 3, 0]
        # here: all of the one-CPU run, then worker 1's update and every send;
        # a batch mean that is not deferred calls np.divide, not itruediv
        assert [on_main(half_calls, name) for name in names] == [0, 80 + 20, 60 + 60, 60 + 60]

    def test_divergence_texts_match_one_cpu(self, matmul_split):
        """A wide quant link that cannot encode its message names it with
        one call's text."""
        errors = []
        for cpus in (ONE_CPU, TWO_CPUS):
            matmul_split(threads=1, cpus=cpus)
            eng = wide_engine(MOMENTUM_SGD)
            eng.run(2)
            v = np.ones((128, 512))
            v[3, 0], v[120, 1] = 5e38, 7e38
            with pytest.raises(DivergenceError) as caught:
                eng.backward_exchange(1, v, np.zeros(128, dtype=bool))
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("step 3: backward message at boundary 1, sent by worker 3: "
                                    "uniform_quant: |x| = 7e+38")

    def test_a_non_finite_row_in_the_second_half_names_its_message(self, matmul_split,
                                                                  half_calls):
        """A wide top-k error-feedback message with one inf in its second
        row half: the helper's half fails its input check, and the text is
        that of one call. The first half may have updated its cache rows;
        the run stops there."""
        errors = []
        for cpus in (ONE_CPU, TWO_CPUS):
            matmul_split(threads=1, cpus=cpus)
            eng = wide_engine(MOMENTUM_SGD)
            eng.run(2)
            x = np.ones((128, 512))
            x[100, 5] = np.inf
            with pytest.raises(DivergenceError) as caught:
                eng.forward_exchange(0, x, np.zeros(128, dtype=bool), eng.sampler.current)
            errors.append(str(caught.value))
        assert errors == ["step 3: non-finite forward message at boundary 0, sent by worker 1"] * 2
        assert on_helper(half_calls, "topk") == 2 * 3  # two steps' forward sends, split


class TestDeferred:
    def test_helper_gives_none_on_the_helper_thread(self, matmul_split):
        matmul_split(threads=1, cpus=TWO_CPUS)
        jobs = halves.helper()
        assert jobs is not None
        assert halves.run(jobs, halves.helper, (), (), whole=()) == (jobs, None)

    @pytest.mark.parametrize("cpus", [ONE_CPU, TWO_CPUS], ids=["one-cpu", "two-cpus"])
    def test_jobs_run_in_order_and_nothing_splits_until_wait(self, cpus, matmul_split):
        matmul_split(threads=1, cpus=cpus)
        ran = []
        for i in range(5):
            halves.defer(lambda i=i: ran.append((i, threading.get_ident(), halves.helper())))
        assert halves.helper() is None  # pending jobs, or no helper at all
        halves.wait()
        assert [i for i, _, _ in ran] == list(range(5))
        assert {(ident == MAIN, split) for _, ident, split in ran} == {(cpus == ONE_CPU, None)}
        assert (halves.helper() is None) == (cpus == ONE_CPU)

    def test_many_jobs_keep_their_order_under_fast_thread_switching(self, matmul_split):
        matmul_split(threads=1, cpus=TWO_CPUS)
        ran, interval = [], sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for i in range(2000):
                halves.defer(ran.append, i)
                if i % 500 == 499:
                    halves.wait()
        finally:
            sys.setswitchinterval(interval)
            halves.wait()
        assert ran == list(range(2000)) and not halves._deferred

    def test_a_failing_job_skips_the_later_ones_and_wait_raises_it(self, matmul_split):
        matmul_split(threads=1, cpus=TWO_CPUS)
        ran = []

        def fail():
            raise FloatingPointError("the first failure")

        halves.defer(ran.append, 1)
        halves.defer(fail)
        halves.defer(ran.append, 2)
        with pytest.raises(FloatingPointError, match="the first failure"):
            halves.wait()
        assert ran == [1] and not halves._deferred
        halves.wait()  # nothing left to raise

    def test_partly_fresh_clapping_fu_matches_one_cpu_bit_for_bit(self, matmul_split,
                                                                  monkeypatch):
        """Partly fresh steps send their fresh rows dense and gather the
        stale cache rows, while the weight sides run on the helper."""
        fresh = []  # per step, the share of rows drawn fresh

        def sample(*args):
            out = lazy_sample(*args)
            fresh.append(out[1].mean())
            return out

        monkeypatch.setattr(engine, "lazy_sample", sample)

        def run():
            eng = wide_engine(MOMENTUM_SGD, CLAPPING_FU, BATCH_SAMPLEWISE)
            eng.run()
            return engine_state(eng), eng.ledger.total_bytes(), [p.defer for p in eng.plans]

        one, two = per_cpus(matmul_split, run)
        assert one[2] == [False] * 4 and two[2] == [False, True, True, True]
        for a, b in zip(one[0], two[0], strict=True):
            assert np.array_equal(bits(a), bits(b))
        assert one[1] == two[1]
        partly = [0 < share < 1 for share in fresh]
        assert partly[:20] == partly[20:] and sum(partly) > 10

    def test_a_divergence_in_a_backward_send_waits_for_the_queued_jobs(self, matmul_split,
                                                                       half_calls):
        """Worker 3's backward message at step 3 is non-finite while its
        weight adjoints and update are queued: the step raises one CPU's
        text, once no job is left running, with the same state as one CPU
        leaves (worker 4 and 3 updated, 2 and 1 not)."""
        def diverge():
            eng = wide_engine(MOMENTUM_SGD)
            eng.run(2)
            send = eng.backward_exchange

            def poisoned(i, v, fresh_rows):
                if i == 1:
                    v = v.copy()
                    v[100, 5] = np.inf
                return send(i, v, fresh_rows)

            eng.backward_exchange = poisoned
            with pytest.raises(DivergenceError) as caught:
                eng.run_iteration()
            assert not halves._deferred  # every queued job ran before the raise
            return str(caught.value), engine_state(eng)

        one, two = per_cpus(matmul_split, diverge)
        assert one[0] == two[0] == ("step 3: non-finite backward message at boundary 1, "
                                    "sent by worker 3")
        for a, b in zip(one[1], two[1], strict=True):
            assert np.array_equal(bits(a), bits(b))
        # step 3's updates with two CPUs: workers 4 and 3, whole, on the helper
        assert on_helper(half_calls, "_momentum") == 2 * 3 + 2

    def test_a_failing_deferred_update_raises_one_threads_error(self, matmul_split, monkeypatch):
        """Worker 3's update raises at step 3, once it has written its
        momenta and weights: the step raises that error once no job is
        left running, and the weights and momenta are as one thread leaves
        them (workers 4 and 3 updated, 2 and 1 not). The backward sends the
        main thread made meanwhile have updated their caches and the
        ledger, past where one thread stops, so those are not compared."""
        update = optim._momentum

        def diverge():
            eng = wide_engine(MOMENTUM_SGD)
            eng.run(2)

            def failing(u, *args):
                update(u, *args)
                if u is eng.momentum[2]:
                    raise FloatingPointError("worker 3's update")

            monkeypatch.setattr(optim, "_momentum", failing)
            with pytest.raises(FloatingPointError) as caught:
                eng.run_iteration()
            monkeypatch.setattr(optim, "_momentum", update)
            assert not halves._deferred  # every queued job ran or was skipped
            return str(caught.value), [eng.flat_weights()] + eng.momentum

        one, two = per_cpus(matmul_split, diverge)
        assert one[0] == two[0] == "worker 3's update"
        for a, b in zip(one[1], two[1], strict=True):
            assert np.array_equal(bits(a), bits(b))
