import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from clapping_sim.errors import ConfigurationError
from clapping_sim.rng import named_stream
from clapping_sim.sampling import (BATCH_BATCHWISE, BATCH_SAMPLEWISE, SINGLE, SamplerState,
                                   Schedule, lazy_sample)


def make_sampler(rule=SINGLE, batch=1, p=1.0, n=16, force2=False):
    return SamplerState(rule=rule, batch_size=batch, p_schedule=Schedule.constant(p),
                        n_samples=n, force_fresh_at_step_2=force2)


def walk_value_at(table, t):
    """The table walk a schedule lookup replaced: last entry with start <= t."""
    out = table[0][1]
    for start, value in table:
        if start <= t:
            out = value
        else:
            break
    return out


def copying_lazy_sample(sampler, rng):
    """The lazy-sampling step as it was before the sampler handed out its
    own arrays: a fresh copy of the indices and a fresh mask every step,
    and p looked up by walking the table. The reference for the rule."""
    sampler.step += 1
    t = sampler.step
    p = walk_value_at(sampler.p_schedule.table, t)
    b = sampler.batch_size
    if t == 1:
        sampler.current = sampler._draw(rng, b).copy()
        return sampler.current.copy(), np.ones(b, dtype=bool), True
    if t == 2 and sampler.force_fresh_at_step_2:
        p = 1.0
    if sampler.rule == BATCH_SAMPLEWISE:
        refreshed = rng.random(b) < p
        fresh = sampler._draw(rng, int(refreshed.sum()))
        sampler.current = sampler.current.copy()
        sampler.current[refreshed] = fresh
    else:
        refresh_all = bool(rng.random() < p)
        refreshed = np.full(b, refresh_all)
        if refresh_all:
            sampler.current = sampler._draw(rng, b).copy()
    return sampler.current.copy(), refreshed, bool(refreshed.any())


class TestSchedule:
    def test_piecewise_lookup(self):
        sched = Schedule(((1, 0.1), (5, 0.05), (9, 0.025)))
        assert sched.value_at(1) == 0.1
        assert sched.value_at(4) == 0.1
        assert sched.value_at(5) == 0.05
        assert sched.value_at(100) == 0.025

    def test_must_start_at_one(self):
        with pytest.raises(ConfigurationError):
            Schedule(((2, 0.1),))

    def test_starts_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            Schedule(((1, 0.1), (1, 0.2)))

    @given(gaps=hs.lists(hs.integers(1, 50), max_size=8),
           values=hs.lists(hs.floats(-10.0, 10.0), min_size=9, max_size=9),
           steps=hs.lists(hs.integers(1, 500), min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_lookup_matches_table_walk(self, gaps, values, steps):
        starts = np.cumsum([1] + gaps).tolist()  # strictly increasing from 1
        table = tuple(zip(starts, values))
        sched = Schedule(table)
        for t in steps + starts + [s - 1 for s in starts[1:]]:
            assert sched.value_at(t) == walk_value_at(table, t)


class TestLazySample:
    def test_first_step_always_fresh(self):
        sampler = make_sampler(p=0.0)
        _, refreshed, f_fu = lazy_sample(sampler, named_stream(0, "s"))
        assert f_fu and refreshed.all()

    def test_p_one_always_fresh(self):
        sampler = make_sampler(p=1.0)
        rng = named_stream(1, "s")
        for _ in range(50):
            _, _, f_fu = lazy_sample(sampler, rng)
            assert f_fu

    def test_p_zero_retains_forever(self):
        sampler = make_sampler(p=0.0)
        rng = named_stream(2, "s")
        first, _, _ = lazy_sample(sampler, rng)
        for _ in range(50):
            idx, refreshed, f_fu = lazy_sample(sampler, rng)
            assert not f_fu and not refreshed.any()
            np.testing.assert_array_equal(idx, first)

    def test_refresh_frequency_binomial(self):
        p, steps = 0.4, 10_000
        sampler = make_sampler(p=p)
        rng = named_stream(3, "s")
        lazy_sample(sampler, rng)  # forced first draw
        fresh = sum(lazy_sample(sampler, rng)[2] for _ in range(steps))
        sigma = np.sqrt(p * (1 - p) / steps)
        assert abs(fresh / steps - p) <= 3 * sigma

    def test_force_fresh_at_step_2(self):
        sampler = make_sampler(p=0.0, force2=True)
        rng = named_stream(4, "s")
        lazy_sample(sampler, rng)
        _, _, f_fu = lazy_sample(sampler, rng)
        assert f_fu
        _, _, f_fu = lazy_sample(sampler, rng)
        assert not f_fu

    def test_samplewise_partial_refresh_flags(self):
        sampler = make_sampler(rule=BATCH_SAMPLEWISE, batch=64, p=0.5, n=100)
        rng = named_stream(5, "s")
        lazy_sample(sampler, rng)
        prev = sampler.current.copy()
        idx, refreshed, f_fu = lazy_sample(sampler, rng)
        assert 0 < refreshed.sum() < 64  # overwhelmingly likely at p=0.5
        assert f_fu == refreshed.any()
        np.testing.assert_array_equal(idx[~refreshed], prev[~refreshed])

    def test_batchwise_refresh_is_atomic(self):
        sampler = make_sampler(rule=BATCH_BATCHWISE, batch=8, p=0.5, n=64)
        rng = named_stream(6, "s")
        lazy_sample(sampler, rng)
        for _ in range(30):
            _, refreshed, _ = lazy_sample(sampler, rng)
            assert refreshed.all() or not refreshed.any()

    def test_batchwise_draw_has_no_duplicates(self):
        sampler = make_sampler(rule=BATCH_BATCHWISE, batch=16, p=1.0, n=16)
        rng = named_stream(7, "s")
        for _ in range(10):
            idx, _, _ = lazy_sample(sampler, rng)
            assert len(set(idx.tolist())) == 16

    def test_batch_larger_than_dataset_rejected(self):
        with pytest.raises(ConfigurationError, match="batch size 32 exceeds the 8-sample dataset"):
            make_sampler(rule=BATCH_BATCHWISE, batch=32, p=1.0, n=8)

    def test_single_rule_requires_batch_one(self):
        with pytest.raises(ConfigurationError):
            make_sampler(rule=SINGLE, batch=4)

    def test_p_outside_unit_interval_rejected_when_built(self):
        with pytest.raises(ConfigurationError, match="got 1.5 from step 4"):
            SamplerState(rule=SINGLE, batch_size=1, p_schedule=Schedule(((1, 0.5), (4, 1.5))),
                         n_samples=8)

    @pytest.mark.parametrize("rule, batch, n", [(SINGLE, 1, 16), (BATCH_BATCHWISE, 8, 32),
                                                (BATCH_SAMPLEWISE, 8, 32),
                                                (BATCH_BATCHWISE, 4, 0), (BATCH_SAMPLEWISE, 4, 0)])
    def test_returns_read_only_arrays_matching_copying_rule(self, rule, batch, n):
        # n = 0 is stream mode; p changes at step 30 and step 2 is forced fresh
        p = Schedule(((1, 0.3), (30, 0.7)))
        ours = SamplerState(rule=rule, batch_size=batch, p_schedule=p, n_samples=n,
                            force_fresh_at_step_2=True)
        ref = SamplerState(rule=rule, batch_size=batch, p_schedule=p, n_samples=n,
                           force_fresh_at_step_2=True)
        rng, ref_rng = named_stream(10, "s"), named_stream(10, "s")
        for _ in range(60):
            idx, refreshed, f_fu = lazy_sample(ours, rng)
            want = copying_lazy_sample(ref, ref_rng)
            np.testing.assert_array_equal(idx, want[0])
            np.testing.assert_array_equal(refreshed, want[1])
            assert f_fu == want[2]
            assert idx is ours.current and idx.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                idx[0] = 1
            if rule != BATCH_SAMPLEWISE or ours.step == 1:
                assert any(refreshed is mask for mask in ours.masks)
                with pytest.raises(ValueError, match="read-only"):
                    refreshed[0] = not refreshed[0]
        assert ours.draws == ref.draws

    def test_stream_mode_counts_draws(self):
        sampler = SamplerState(rule=BATCH_BATCHWISE, batch_size=4,
                               p_schedule=Schedule.constant(1.0), n_samples=0)
        rng = named_stream(9, "s")
        a, _, _ = lazy_sample(sampler, rng)
        b, _, _ = lazy_sample(sampler, rng)
        np.testing.assert_array_equal(a, [0, 1, 2, 3])
        np.testing.assert_array_equal(b, [4, 5, 6, 7])
