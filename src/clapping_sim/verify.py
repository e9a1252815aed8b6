"""Independent correctness oracles.

Each check builds its own inputs from a seed, measures worst-case
deviations against an independent reference (finite differences, direct
enumeration, an uncompressed shadow run), and returns a machine-readable
report. A report passes exactly when its worst deviation is within
tolerance. Suites that include a negative control only pass when the
control fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import compressors as comp
from . import stages as st
from .engine import (CLAPPING_FC, CLAPPING_FU, DIRECT, FORWARD_EF, NO_COMP,
                     AlgoConfig, PipelineEngine)
from .errors import ConfigurationError
from .optim import MOMENTUM_SGD, OptimizerConfig
from .rng import named_stream
from .sampling import BATCH_BATCHWISE, SamplerState, Schedule, lazy_sample


@dataclass
class CheckReport:
    suite: str
    cases: int
    max_deviation: float
    tolerance: float
    diagnostics: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.suite,
            "cases": self.cases,
            "max_deviation": self.max_deviation,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "diagnostics": self.diagnostics,
        }, indent=2)

    def see(self, deviation: float, diagnostic: str) -> None:
        """Count one case, and keep it as the worst if none deviated more."""
        self.cases += 1
        if deviation > self.max_deviation:
            self.max_deviation, self.diagnostics = deviation, [diagnostic]

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (f"{flag} {self.suite}: {self.cases} cases, "
                f"max deviation {self.max_deviation:.3e} (tol {self.tolerance:.3e})")


# -- finite-difference gradient checks --------------------------------------


def _random_stage(kind: str, rng: np.random.Generator) -> tuple[st.StageSpec, np.ndarray, np.ndarray]:
    """Random spec, input, and params for one stage kind."""
    din = int(rng.integers(2, 6))
    dout = int(rng.integers(1, 5))
    if kind == st.LINEAR:
        if rng.random() < 0.5:
            spec = st.StageSpec(kind, din, dout)
        else:
            spec = st.StageSpec(kind, din, dout + 1, {"append_sq_norm": True})
    elif kind == st.AFFINE_BIAS:
        spec = st.StageSpec(kind, din, dout)
    elif kind in (st.TANH, st.RELU):
        spec = st.StageSpec(kind, din, din)
    elif kind == st.LOGISTIC_LOSS:
        spec = st.StageSpec(kind, 1, 1)
    else:
        spec = st.StageSpec(kind, 2, 1, {"c_r": float(rng.uniform(0.001, 0.1))})
    y = rng.standard_normal(spec.input_dim)
    if kind == st.RELU:
        y = np.where(np.abs(y) < 0.05, 0.5, y)  # stay off the kink
    w = rng.standard_normal(spec.param_dim)
    return spec, y, w


def _central_diff(fn, x: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Central differences of v . fn(x) in each coordinate of x."""
    g = np.zeros_like(x)
    for i in range(len(x)):
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) @ v / (2 * h)
    return g


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(b)), 1e-8)
    return float(np.linalg.norm(a - b)) / scale


def check_chain_gradients(
    chain: st.ModelChain | None = None,
    trials: int = 100,
    chain_trials: int = 20,
    h: float = 1e-5,
    tol: float = 1e-6,
    seed: int = 0,
) -> CheckReport:
    """Backpropagated adjoints against central finite differences, per
    stage kind and through full chains."""
    rng = named_stream(seed, "verify/gradients")
    report = CheckReport("chain-gradients", 0, 0.0, tol)
    for kind in st.STAGE_KINDS:
        for _ in range(trials):
            spec, y, w = _random_stage(kind, rng)
            v = rng.standard_normal(spec.output_dim)
            saved = st.stage_forward(spec, y, w) if spec.saves_output else y
            bp_in = st.stage_backward_input(spec, saved, w, v)
            err = _rel_err(bp_in, _central_diff(lambda y_: st.stage_forward(spec, y_, w), y, v, h))
            if spec.param_dim:
                bp_w = st.stage_backward_weight(spec, y, w, v)
                fd_w = _central_diff(lambda w_: st.stage_forward(spec, y, w_), w, v, h)
                err = max(err, _rel_err(bp_w, fd_w))
            report.see(err, f"worst stage case: kind={kind} err={err:.3e}")

    chains = [chain] if chain is not None else [
        st.tanh_mlp_chain((4, 6, 3), boundaries=(2,)),
        st.tanh_mlp_chain((3, 5, 5, 2), boundaries=(2, 4)),
        st.logistic_chain(6, 0.005),
    ]
    one = np.ones(1)  # the loss is a scalar
    for ch in chains:
        for _ in range(chain_trials):
            w_all = [0.6 * rng.standard_normal(s.param_dim) for s in ch.stages]
            x = rng.standard_normal(ch.input_dim)
            _, u_all = st.chain_gradients(ch, x, w_all)
            # weight gradients against finite differences of the scalar loss
            for si, w in enumerate(w_all):
                if not len(w):
                    continue
                fd = _central_diff(lambda w_: np.array([st.chain_loss(
                    ch, x, w_all[:si] + [w_] + w_all[si + 1:])]), w, one, h)
                err = _rel_err(u_all[si], fd)
                report.see(err, f"worst chain case: stage {si} err={err:.3e}")
            # activation gradients against finite differences over y_e, the
            # true stage inputs; v_all[si] is the adjoint of stage si's
            # output, pulled back from the loss one stage at a time
            ys = [st.run_stages(ch.stages[:i], x, w_all[:i])[-1] for i in range(len(ch.stages) + 1)]
            v_all = [np.ones_like(ys[-1])]
            for sj in reversed(range(1, len(ch.stages))):
                saved = ys[sj + 1] if ch.stages[sj].saves_output else ys[sj]
                v_all.insert(0, st.stage_backward_input(ch.stages[sj], saved, w_all[sj], v_all[0]))
            for si in range(len(ch.stages) - 1):
                rest = ch.stages[si + 1:]
                fd = _central_diff(lambda y_: st.run_stages(rest, y_, w_all[si + 1:])[-1],
                                   ys[si + 1], one, h)
                err = _rel_err(v_all[si], fd)
                report.see(err, f"worst activation case: boundary {si} err={err:.3e}")
    return report


# -- error-feedback fixed-point decay ----------------------------------------


def check_ef_decay(
    spec: comp.CompressorSpec,
    boundary_dim: int,
    steps: int = 40,
    seed: int = 0,
) -> CheckReport:
    """With a frozen target, iterating cache <- cache + C(y - cache) must
    contract the error by the compressor's factor each step."""
    if spec.stochastic:
        raise ConfigurationError("decay certification needs a deterministic compressor")
    rng = named_stream(seed, "verify/ef-decay")
    y = rng.standard_normal(boundary_dim)
    omega = float(np.sqrt(comp.contraction_bound(spec, boundary_dim)))
    cache = np.zeros(boundary_dim)
    errs = [float(np.linalg.norm(y - cache))]
    for _ in range(steps):
        cache = cache + comp.compress_batch(spec, (y - cache)[None])[0][0]
        errs.append(float(np.linalg.norm(y - cache)))
    worst = 0.0
    for prev, cur in zip(errs, errs[1:]):
        worst = max(worst, cur - (omega * prev + 1e-12))
    worst = max(worst, errs[-1] - (omega**steps * errs[0] + 1e-12 * errs[0]))
    diags = [f"omega={omega:.6f}", f"err0={errs[0]:.3e}", f"err_final={errs[-1]:.3e}"]
    return CheckReport("ef-decay", steps, worst, 0.0, diags)


# -- identity-compressor equivalence -----------------------------------------


def _identity_engines(chain, inputs, init, steps, seed, control_spec=None):
    n_bound = chain.num_workers - 1
    ident = tuple(comp.identity_spec() for _ in range(n_bound))
    opt = OptimizerConfig(MOMENTUM_SGD, gamma=Schedule.constant(0.05),
                          momentum=Schedule.constant(0.2))
    # the fresh-every-step variants share the no-compression sample
    # sequence; the lazy pair shares its own and is compared pairwise
    runs = {v: (v, ident, Schedule.constant(1.0))
            for v in (NO_COMP, CLAPPING_FC, CLAPPING_FU, DIRECT, FORWARD_EF)}
    runs.update({f"{v}-lazy": (v, ident, Schedule.constant(0.5))
                 for v in (CLAPPING_FC, CLAPPING_FU)})
    if control_spec is not None:
        runs["negative-control"] = (
            DIRECT, tuple(control_spec for _ in range(n_bound)), Schedule.constant(1.0),
        )
    engines = {}
    for name, (variant, specs, p_sched) in runs.items():
        cfg = AlgoConfig(
            variant=variant, optimizer=opt, forward_compressors=specs,
            backward_compressors=specs, batch_size=1, total_steps=steps,
            seed=seed, p_schedule=p_sched,
        )
        engines[name] = PipelineEngine(chain, cfg, inputs, init_weights=init)
    return engines


def check_identity_equivalence(
    chain: st.ModelChain | None = None,
    steps: int = 1000,
    tol: float = 1e-12,
    seed: int = 0,
    with_negative_control: bool = True,
    control_spec: comp.CompressorSpec | None = None,
) -> CheckReport:
    """Every variant with zero-error compressors must track the
    uncompressed trajectory (all running fresh samples every step, so the
    sample sequences coincide); the lazy first-step-compressed and
    first-step-uncompressed pair must track each other; a lossy control
    must not track anything."""
    rng = named_stream(seed, "verify/equivalence")
    chain = chain or st.tanh_mlp_chain((5, 7, 4), boundaries=(2, 4))
    inputs = rng.standard_normal((32, chain.input_dim))
    init = [0.5 * rng.standard_normal(chain.worker_param_dim(e))
            for e in range(1, chain.num_workers + 1)]
    control = (control_spec or comp.topk_spec(1)) if with_negative_control else None
    engines = _identity_engines(chain, inputs, init, steps, seed, control)

    vs_ref = [CLAPPING_FC, CLAPPING_FU, DIRECT, FORWARD_EF]
    if with_negative_control:
        vs_ref.append("negative-control")
    deviations = dict.fromkeys(vs_ref + ["lazy-pair"], 0.0)
    for _ in range(steps):
        for engine in engines.values():
            engine.run_iteration()
        ref = engines[NO_COMP].flat_weights()
        for name in vs_ref:
            dev = float(np.max(np.abs(engines[name].flat_weights() - ref)))
            deviations[name] = max(deviations[name], dev)
        pair = float(np.max(np.abs(engines["clapping_fu-lazy"].flat_weights()
                                   - engines["clapping_fc-lazy"].flat_weights())))
        deviations["lazy-pair"] = max(deviations["lazy-pair"], pair)

    worst = max(v for k, v in deviations.items() if k != "negative-control")
    diags = [f"{k}: max deviation {v:.3e}" for k, v in sorted(deviations.items())]
    if with_negative_control:
        control_dev = deviations["negative-control"]
        if control_dev <= tol:
            worst = float("inf")
            diags.append("negative control FAILED to deviate; suite invalid")
        else:
            diags.append(f"negative control deviated as required ({control_dev:.3e})")
    return CheckReport("identity-equivalence", len(deviations) * steps, worst, tol, diags)


# -- error propagation against an uncompressed shadow pass -------------------


def _worker_apply(chain, e, weights, y_in):
    stages = chain.worker_stages(e)
    ys = st.run_stages(stages, y_in, chain.split_params(stages, weights[e - 1]))
    return ys[-1], ys


def _worker_pullback(chain, e, weights, tape, v):
    # pull_back pops its tape, and each tape here is pulled back more than once
    stages = chain.worker_stages(e)
    return st.pull_back(stages, tape[:-1], chain.split_params(stages, weights[e - 1]), v)


def check_error_propagation(
    chain: st.ModelChain,
    fwd_specs: tuple[comp.CompressorSpec, ...],
    bwd_specs: tuple[comp.CompressorSpec, ...],
    trials: int = 100,
    seed: int = 0,
) -> CheckReport:
    """One compressed forward/backward pass against an uncompressed
    shadow: the accumulated deviations must respect the layer-indexed
    bounds with constants measured on the trial states."""
    rng = named_stream(seed, "verify/error-propagation")
    E = chain.num_workers
    report = CheckReport("error-propagation", 0, -np.inf, 0.0)
    for trial in range(trials):
        weights = [0.6 * rng.standard_normal(chain.worker_param_dim(e)) for e in range(1, E + 1)]
        x = rng.standard_normal(chain.input_dim)

        # shadow (uncompressed) pass
        y_hat = {0: x}
        tapes_hat = {}
        for e in range(1, E + 1):
            y_hat[e], tapes_hat[e] = _worker_apply(chain, e, weights, y_hat[e - 1])

        # compressed pass with randomized previous caches
        y_tilde = {0: x}
        y_pre = {}
        tapes = {}
        for e in range(1, E):
            y_pre[e], tapes[e] = _worker_apply(chain, e, weights, y_tilde[e - 1])
            cache = y_hat[e] + 0.5 * rng.standard_normal(len(y_hat[e]))
            delta = comp.compress_batch(fwd_specs[e - 1], (y_pre[e] - cache)[None], rng)[0][0]
            y_tilde[e] = cache + delta
        _, tapes[E] = _worker_apply(chain, E, weights, y_tilde[E - 1])

        # backward: shadow and compressed activation gradients
        v_hat = {E: np.ones(1)}
        v_pre = {}
        v_tilde = {E: np.ones(1)}
        for e in range(E - 1, 0, -1):
            v_hat[e] = _worker_pullback(chain, e + 1, weights, tapes_hat[e + 1], v_hat[e + 1])
            v_pre[e] = _worker_pullback(chain, e + 1, weights, tapes[e + 1], v_tilde[e + 1])
            cache = v_hat[e] + 0.5 * rng.standard_normal(len(v_hat[e]))
            delta = comp.compress_batch(bwd_specs[e - 1], (v_pre[e] - cache)[None], rng)[0][0]
            v_tilde[e] = cache + delta

        # constants realized on this trial's states
        l_a = 1e-12
        for e in range(2, E):
            denom = float(np.linalg.norm(y_tilde[e - 1] - y_hat[e - 1]))
            if denom > 0:
                l_a = max(l_a, float(np.linalg.norm(y_pre[e] - y_hat[e])) / denom)
        l_jac = 1e-12
        l_lip = 1e-12
        for e in range(1, E):
            dv = v_tilde[e + 1] - v_hat[e + 1]
            denom = float(np.linalg.norm(dv))
            if denom > 0:
                pulled = _worker_pullback(chain, e + 1, weights, tapes[e + 1], dv)
                l_jac = max(l_jac, float(np.linalg.norm(pulled)) / denom)
            dy = float(np.linalg.norm(y_tilde[e] - y_hat[e]))
            if dy > 0:
                a = _worker_pullback(chain, e + 1, weights, tapes[e + 1], v_hat[e + 1])
                b = _worker_pullback(chain, e + 1, weights, tapes_hat[e + 1], v_hat[e + 1])
                l_lip = max(l_lip, float(np.linalg.norm(a - b)) / dy)

        fwd_err = {e: float(np.sum((y_tilde[e] - y_pre[e]) ** 2)) for e in range(1, E)}
        bwd_err = {e: float(np.sum((v_tilde[e] - v_pre[e]) ** 2)) for e in range(1, E)}

        atol = 1e-18  # absorbs rounding when both sides are exactly zero in theory
        slack = 1.0 + 1e-9  # relative, for rounding in the bound's own sums
        for e in range(1, E):
            lhs = float(np.sum((y_tilde[e] - y_hat[e]) ** 2))
            rhs = sum(2.0 * (2.0 * l_a**2) ** (e - i) * fwd_err[i] for i in range(1, e + 1))
            report.see(lhs - rhs * slack - atol,
                       f"forward boundary {e}, trial {trial}: lhs={lhs:.3e} rhs={rhs:.3e}")

        for e in range(1, E):
            lhs = float(np.sum((v_tilde[e] - v_hat[e]) ** 2))
            rhs = 2.0 * sum((2.0 * l_jac**2) ** (i - e) * bwd_err[i] for i in range(e, E))
            rhs += 4.0 * l_lip**2 * sum(
                (2.0 * l_jac**2) ** (s - e) * (2.0 * l_a**2) ** (s - i) * fwd_err[i]
                for i in range(1, E)
                for s in range(max(e, i), E)
            )
            report.see(lhs - rhs * slack - atol,
                       f"backward boundary {e}, trial {trial}: lhs={lhs:.3e} rhs={rhs:.3e}")
    return report


# -- sampler statistics -------------------------------------------------------


def check_sampler_stats(p: float, steps: int = 10_000, seed: int = 0) -> CheckReport:
    """Empirical refresh frequency after the forced first draw must sit
    within three binomial standard errors of p."""
    if steps < 1000:
        raise ConfigurationError("need at least 1000 steps for stable statistics")
    rng = named_stream(seed, "verify/sampler")
    sampler = SamplerState(rule=BATCH_BATCHWISE, batch_size=2,
                           p_schedule=Schedule.constant(p), n_samples=64)
    fresh = 0
    for t in range(steps + 1):
        _, _, f_fu = lazy_sample(sampler, rng)
        if t >= 1:  # skip the forced first draw
            fresh += int(f_fu)
    freq = fresh / steps
    sigma = float(np.sqrt(max(p * (1 - p), 1e-12) / steps))
    dev = abs(freq - p) - 3.0 * sigma
    return CheckReport("sampler-stats", steps, dev, 0.0,
                       [f"p={p} observed={freq:.4f} sigma={sigma:.5f}"])


# -- contraction certification -------------------------------------------------


def check_contraction(seed: int = 0) -> CheckReport:
    """Certifies documented contraction factors: exact worst case for
    top-k, mean behavior for rand-k, strict contraction for quantizers."""
    rng = named_stream(seed, "verify/contraction")
    worst = -np.inf
    diags = []
    cases = 0

    for k, d in ((1, 4), (3, 10), (5, 16)):
        spec = comp.topk_spec(k)
        measured = comp.empirical_contraction(spec, d, 2000, rng)
        bound = comp.contraction_bound(spec, d)
        cases += 1
        worst = max(worst, abs(measured - bound) - 1e-12)
        diags.append(f"topk k={k} d={d}: measured={measured:.12f} bound={bound:.12f}")

    for k, d in ((2, 8), (5, 20)):
        spec = comp.randk_spec(k)
        ratios = comp.contraction_ratio_samples(spec, d, 10_000, rng, include_adversarial=False)
        mean = float(ratios.mean())
        se = float(ratios.std(ddof=1) / np.sqrt(len(ratios)))
        target = 1.0 - k / d
        cases += 1
        worst = max(worst, abs(mean - target) - 3.0 * se)
        diags.append(f"randk k={k} d={d}: mean={mean:.4f} target={target:.4f} se={se:.5f}")

    for spec, d in ((comp.quant_spec(2), 16), (comp.quant_spec(8), 64), (comp.natural_spec(), 32)):
        measured = comp.empirical_contraction(spec, d, 2000, rng)
        bound = comp.contraction_bound(spec, d)
        cases += 1
        worst = max(worst, measured - bound - 1e-12)
        worst = max(worst, measured - (1.0 - 1e-9))  # strictly below 1
        diags.append(f"{spec.kind} d={d}: measured={measured:.6f} bound={bound:.6f}")
    return CheckReport("contraction", cases, worst, 0.0, diags)


# -- suite registry --------------------------------------------------------------


def run_suite(name: str, seed: int = 0, out_dir: str | Path | None = None) -> list[CheckReport]:
    """Run a named suite (or 'all'); optionally write reports as JSON."""
    suites = {
        "gradients": lambda: [check_chain_gradients(seed=seed)],
        "contraction": lambda: [check_contraction(seed=seed)],
        "ef-decay": lambda: [
            check_ef_decay(comp.identity_spec(), 16, steps=3, seed=seed),
            check_ef_decay(comp.topk_spec(2), 16, steps=16, seed=seed),
            check_ef_decay(comp.quant_spec(8), 32, steps=30, seed=seed),
            check_ef_decay(comp.natural_spec(), 32, steps=40, seed=seed),
        ],
        "equivalence": lambda: [check_identity_equivalence(steps=300, seed=seed)],
        "error-propagation": lambda: [
            check_error_propagation(
                st.tanh_mlp_chain((4, 5, 3), boundaries=(2,)),
                (comp.topk_spec(2),), (comp.topk_spec(1),), trials=50, seed=seed,
            ),
            check_error_propagation(
                st.tanh_mlp_chain((4, 6, 5, 3), boundaries=(2, 4)),
                (comp.topk_spec(2), comp.quant_spec(4)),
                (comp.topk_spec(2), comp.quant_spec(4)),
                trials=50, seed=seed,
            ),
        ],
        "sampler": lambda: [
            check_sampler_stats(1.0, steps=2000, seed=seed),
            check_sampler_stats(0.4, steps=10_000, seed=seed),
        ],
    }
    if name != "all" and name not in suites:
        raise ConfigurationError(f"unknown suite {name!r}; choose from "
                                 f"{', '.join(list(suites) + ['all'])}")
    if out_dir is not None:  # made before the suite runs, so a bad path costs no run
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"{out_dir}: cannot write report directory ({exc.strerror})") from None
    reports = [r for key in (suites if name == "all" else (name,)) for r in suites[key]()]
    if out_dir is not None:
        for i, rep in enumerate(reports):
            (Path(out_dir) / f"{rep.suite}-{i}.json").write_text(rep.to_json())
    return reports
