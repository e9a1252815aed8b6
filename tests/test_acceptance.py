"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line. Criterion 1 drives five full 200k-step benchmark runs and criterion
10 three horizons of up to 160k steps, each on two worker processes;
everything else is seconds."""

import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from clapping_sim import compressors as comp
from clapping_sim import harness as H
from clapping_sim import stages as st
from clapping_sim import verify as vf
from clapping_sim import wire
from clapping_sim.engine import AQ_SGD, CLAPPING_FC, AlgoConfig, PipelineEngine
from clapping_sim.optim import MOMENTUM_SGD, OptimizerConfig
from clapping_sim.rng import named_stream
from clapping_sim.sampling import BATCH_BATCHWISE, BATCH_SAMPLEWISE, Schedule

BENCH_VARIANTS = ("no_comp", "direct", "forward_ef", "clapping_fc", "clapping_fu")


def run_experiments(jobs):
    """Metric columns of each (config, csv path) run, in order. The runs are
    independent and seeded, so two spawned processes run them side by side;
    the CSVs are read here."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        paths = list(pool.map(H.run_experiment, *zip(*jobs)))
    return [H.read_metrics(path) for path in paths]


def report(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


@pytest.mark.slow
def test_criterion_1_benchmark_reproduction(tmp_path):
    """Five-variant benchmark: the lossless, lazily-sampled, and
    first-step-uncompressed runs end at least 100x below the plateaus of
    direct compression and forward-only error feedback; the
    first-step-uncompressed run ends no higher than the always-compressed
    one; direct compression's gap stops decreasing."""
    runs = run_experiments([(H.logistic_benchmark_config(variant, seed=0),
                             tmp_path / f"{variant}.csv") for variant in BENCH_VARIANTS])
    gaps = {v: float(cols["loss_gap"][-1]) for v, cols in zip(BENCH_VARIANTS, runs)}
    direct_cols = runs[BENCH_VARIANTS.index("direct")]

    floor = {v: max(g, 0.0) for v, g in gaps.items()}
    ok_a = all(
        100.0 * floor[v] <= gaps[ref]
        for v in ("no_comp", "clapping_fc", "clapping_fu")
        for ref in ("direct", "forward_ef")
    )
    ok_b = gaps["clapping_fu"] <= gaps["clapping_fc"]
    steps = direct_cols["step"]
    T = steps[-1]
    mid = np.median(direct_cols["loss_gap"][(steps > 3 * T / 8) & (steps <= 5 * T / 8)])
    lastq = np.median(direct_cols["loss_gap"][steps > 3 * T / 4])
    ok_c = 0.5 <= lastq / mid <= 2.0

    detail = (f"finals {', '.join(f'{v}={gaps[v]:.2e}' for v in BENCH_VARIANTS)}; "
              f"direct mid/lastq medians {mid:.2e}/{lastq:.2e}")
    report(1, ok_a and ok_b and ok_c, detail)


def test_criterion_2_identity_equivalence():
    """Every variant with lossless compressors tracks the uncompressed
    trajectory within 1e-12 over 1000 steps on a 3-worker chain."""
    t0 = time.perf_counter()
    rep = vf.check_identity_equivalence(steps=1000, tol=1e-12, seed=0)
    elapsed = time.perf_counter() - t0
    report(2, rep.passed and elapsed < 10.0,
           f"max deviation {rep.max_deviation:.2e} over 1000 steps in {elapsed:.1f}s")


def test_criterion_3_gradient_correctness():
    """Backpropagation matches central finite differences to 1e-6
    relative over >=100 trials per stage kind and >=20 full-chain trials."""
    t0 = time.perf_counter()
    rep = vf.check_chain_gradients(trials=100, chain_trials=20, h=1e-5, tol=1e-6, seed=0)
    elapsed = time.perf_counter() - t0
    report(3, rep.passed and elapsed < 30.0,
           f"{rep.cases} cases, worst relative error {rep.max_deviation:.2e} in {elapsed:.1f}s")


def test_criterion_4_contraction_certification():
    """Worst-case and mean contraction ratios match the certified bounds."""
    t0 = time.perf_counter()
    rng = named_stream(0, "acceptance/contraction")
    ok = True
    details = []

    for k, d in ((1, 4), (3, 10), (16, 64)):
        measured = comp.empirical_contraction(comp.topk_spec(k), d, 20_000, rng)
        bound = comp.contraction_bound(comp.topk_spec(k), d)
        ok &= abs(measured - bound) <= 1e-12
        details.append(f"topk({k},{d}) worst={measured:.12f}")

    ratios = comp.contraction_ratio_samples(comp.randk_spec(2), 8, 10_000, rng,
                                            include_adversarial=False)
    se = ratios.std(ddof=1) / math.sqrt(len(ratios))
    ok &= abs(float(ratios.mean()) - 0.75) <= 3 * se
    details.append(f"randk mean={ratios.mean():.4f} (3se={3*se:.4f})")

    for spec, d in ((comp.quant_spec(2), 16), (comp.quant_spec(8), 64),
                    (comp.natural_spec(), 32)):
        measured = comp.empirical_contraction(spec, d, 5000, rng)
        bound = comp.contraction_bound(spec, d)
        ok &= measured <= bound + 1e-12 and measured < 1.0
        details.append(f"{spec.kind} measured={measured:.4f} bound={bound:.4f}")

    ok &= time.perf_counter() - t0 < 30.0
    report(4, ok, "; ".join(details))


def test_criterion_5_ef_fixed_point_decay():
    """With a frozen target, error feedback contracts by the compressor
    factor each step; top-k zeroes the residual within ceil(d/k) steps."""
    t0 = time.perf_counter()
    ok = True
    details = []
    for spec, d in ((comp.topk_spec(5), 12), (comp.topk_spec(1), 7),
                    (comp.quant_spec(8), 32), (comp.natural_spec(), 16)):
        rep = vf.check_ef_decay(spec, d, steps=40, seed=0)
        ok &= rep.passed

    for k, d in ((5, 12), (1, 7), (3, 9)):
        y = named_stream(1, f"acceptance/ef-{k}-{d}").standard_normal(d)
        cache = np.zeros(d)
        for _ in range(math.ceil(d / k)):
            cache = cache + comp.compress(comp.topk_spec(k), y - cache).reconstruction
        exact_zero = float(np.linalg.norm(y - cache)) == 0.0
        ok &= exact_zero
        details.append(f"topk({k},{d}) zero after {math.ceil(d/k)} steps: {exact_zero}")
    ok &= time.perf_counter() - t0 < 5.0
    report(5, ok, "; ".join(details))


def test_criterion_6_communication_accounting():
    """Top-5% sparse payload bytes on a 4096-dim boundary follow the
    8-bytes-per-entry wire formula exactly; reductions round to 90.0%
    with index overhead and 95% value-only."""
    d = 4096
    k = int(0.05 * d)  # 204 whole entries; the format admits no fractional entry
    x = named_stream(2, "acceptance/bytes").standard_normal(d)
    pay = comp.compress(comp.topk_spec(k), x)
    dense = comp.compress(comp.identity_spec(), x)

    msg = wire.encode_message(1, 0, wire.FORWARD, pay.body)
    ok = pay.encoded_bytes == 8 * k == len(msg) - wire.HEADER_BYTES
    ok &= dense.encoded_bytes == 4 * d == 16384
    reduction_with_index = 1.0 - pay.encoded_bytes / dense.encoded_bytes
    reduction_value_only = 1.0 - pay.value_bytes / dense.encoded_bytes
    ok &= round(100 * reduction_with_index, 1) == 90.0
    ok &= round(100 * reduction_value_only) == 95
    report(6, ok, f"body {pay.encoded_bytes} B vs dense {dense.encoded_bytes} B "
                  f"({100*reduction_with_index:.1f}% / {100*reduction_value_only:.1f}% saved)")


def test_criterion_7_memory_calculator():
    """The cache-overhead formulas reproduce the reference 7B-scale row:
    2.0 GiB for the batch cache; the per-sample cache figure matches the
    quoted 2850.0 (which is in units of 10^3 GiB for 45.6M samples)."""
    out = H.memory_calculator(workers=2, batch=16, samples=45_600_000,
                              seq_len=4096, hidden=4096, bytes_per_element=2)
    ok = abs(out["clapping_gib"] - 2.0) / 2.0 <= 0.02
    ok &= abs(out["aqsgd_gib"] / 1e3 - 2850.0) / 2850.0 <= 0.02
    report(7, ok, f"batch cache {out['clapping_gib']:.3f} GiB, "
                  f"per-sample cache {out['aqsgd_gib']:.1f} GiB")


def test_criterion_8_per_sample_cache_accounting():
    """With 64 samples and batch 4, the per-sample variant keeps exactly
    64 cache entries per boundary while the lazy variants keep 4."""
    chain = st.logistic_chain(6, 0.01)
    X = named_stream(3, "acceptance/cache").standard_normal((64, 7))
    opt = OptimizerConfig(MOMENTUM_SGD, gamma=Schedule.constant(0.05),
                          momentum=Schedule.constant(0.2))

    def config(variant):
        return AlgoConfig(variant=variant, optimizer=opt,
                          forward_compressors=(comp.topk_spec(1),),
                          backward_compressors=(comp.topk_spec(1),),
                          batch_size=4, total_steps=4, seed=0,
                          sampler_rule=BATCH_SAMPLEWISE if variant == AQ_SGD else BATCH_BATCHWISE,
                          p_schedule=Schedule.constant(0.5))

    aq = PipelineEngine(chain, config(AQ_SGD), X)
    fc = PipelineEngine(chain, config(CLAPPING_FC), X)
    aq.run(4)
    fc.run(4)
    ok = aq.cache_rows(wire.FORWARD) == [64] and fc.cache_rows(wire.FORWARD) == [4]
    report(8, ok, f"per-sample entries {aq.cache_rows(wire.FORWARD)}, "
                  f"batch entries {fc.cache_rows(wire.FORWARD)}")


def test_criterion_9_error_propagation_bounds():
    """Compressed-vs-shadow deviations respect the layer-indexed bounds
    with measured constants on 100 random states for 2- and 3-worker
    chains."""
    t0 = time.perf_counter()
    rep2 = vf.check_error_propagation(
        st.tanh_mlp_chain((4, 5, 3), boundaries=(2,)),
        (comp.topk_spec(2),), (comp.topk_spec(1),), trials=100, seed=0,
    )
    rep3 = vf.check_error_propagation(
        st.tanh_mlp_chain((4, 6, 5, 3), boundaries=(2, 4)),
        (comp.topk_spec(2), comp.quant_spec(4)),
        (comp.quant_spec(4), comp.topk_spec(2)), trials=100, seed=0,
    )
    ok = rep2.passed and rep3.passed and time.perf_counter() - t0 < 30.0
    report(9, ok, f"2-worker worst excess {rep2.max_deviation:.2e}, "
                  f"3-worker worst excess {rep3.max_deviation:.2e}")


@pytest.mark.slow
def test_criterion_10_advisory_rate_trend(tmp_path):
    """Advisory (not pass/fail): with step sizes and momentum scaled as
    1/sqrt(T), the run-averaged squared gradient norm of the
    first-step-uncompressed variant should fall with T at a fitted
    exponent around -0.5; the fit is reported, not asserted, since
    desk-scale constants and noise make exponent certification
    unreliable."""
    horizons = (10_000, 40_000, 160_000)
    jobs = []
    for T in horizons:
        scale = math.sqrt(10_000 / T)
        raw = {
            "dataset.kind": "synthetic_logistic",
            "dataset.n": "1024", "dataset.dim": "200", "dataset.seed": "7",
            "algo.variant": "clapping_fu",
            "algo.batch_size": "128",
            "algo.total_steps": str(T),
            "algo.seed": "0",
            "algo.sampler_rule": BATCH_BATCHWISE,
            "algo.force_fresh_step2": "true",
            "optimizer.gamma": repr(0.1 * scale),
            "optimizer.momentum": repr(min(1.0, 0.3 * scale)),
            "sampling.p": "0.4",
            "compressor.forward": "inject_uniform:0.2",
            "compressor.backward": "identity",
            "run.log_every": "50",
        }
        jobs.append((H.config_from_mapping(raw), tmp_path / f"trend-{T}.csv"))
    # the longest horizon first, so that the two shorter ones share the other process
    runs = run_experiments(jobs[::-1])[::-1]
    averages = [float(np.mean(cols["grad_norm"] ** 2)) for cols in runs]

    slope = np.polyfit(np.log(horizons), np.log(averages), 1)[0]
    ok = np.isfinite(slope)
    hint = "consistent with the square-root rate" if slope <= -0.35 else "flatter than expected"
    report(10, ok, f"ADVISORY fitted exponent {slope:.3f} over T={horizons} "
                   f"(averages {', '.join(f'{a:.3e}' for a in averages)}); {hint}")
