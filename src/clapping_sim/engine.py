"""Sequential simulator of pipeline-parallel optimization with
communication compression.

All workers run in one process in deterministic order: forward sweep
1..E-1 across the boundaries, then a backward sweep E..1 that updates
each worker's parameters before handing the activation gradient to its
neighbor. The backward pass at a worker uses the weights that produced
the forward pass, matching a synchronous pipeline where the gradient
message is formed from the same iterate it was computed against.

Each boundary and direction is one ``Link``. Where its mode reads a
cache, the link holds one array for both endpoints' identical copies.
A non-finite message raises ``DivergenceError`` before it is sent.

The variants differ only in what each boundary sends in each direction.
``VARIANT_POLICY`` gives each one a mode per direction, whether it samples
lazily (reusing the previous batch with probability 1 - p_t) and whether
rows drawn fresh this step travel dense. The modes: ``dense`` sends the
values; ``direct`` sends C(x); ``ef`` sends C(x - cache) and both
endpoints set cache <- cache + C(x - cache); ``per_sample_ef`` does the
same against one cache entry per dataset row instead of per batch row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import compressors as comp
from . import stages as st
from . import wire
from .errors import (ConfigurationError, ContractViolation, DivergenceError,
                     UnsupportedConfiguration)
from .optim import ADAM, MOMENTUM_SGD, OptimizerConfig, adam_update, momentum_update
from .rng import named_stream
from .sampling import SINGLE, SamplerState, Schedule, lazy_sample

NO_COMP = "no_comp"
DIRECT = "direct"
FORWARD_EF = "forward_ef"
AQ_SGD = "aq_sgd"
CLAPPING_FC = "clapping_fc"
CLAPPING_FU = "clapping_fu"

# exchange modes (see the module docstring); per-sample EF is forward only
MODE_DENSE = "dense"
MODE_DIRECT = "direct"
MODE_EF = "ef"
MODE_PER_SAMPLE_EF = "per_sample_ef"

_DIRECTIONS = ("forward", "backward")  # by wire.FORWARD and wire.BACKWARD


class VariantPolicy(NamedTuple):
    forward: str
    backward: str
    lazy: bool              # lazy sampling; the others draw fresh every step
    fresh_rows_dense: bool  # EF sends rows drawn fresh this step uncompressed


VARIANT_POLICY = {
    NO_COMP: VariantPolicy(MODE_DENSE, MODE_DENSE, lazy=False, fresh_rows_dense=False),
    DIRECT: VariantPolicy(MODE_DIRECT, MODE_DIRECT, lazy=False, fresh_rows_dense=False),
    FORWARD_EF: VariantPolicy(MODE_EF, MODE_DIRECT, lazy=False, fresh_rows_dense=False),
    AQ_SGD: VariantPolicy(MODE_PER_SAMPLE_EF, MODE_DIRECT, lazy=False, fresh_rows_dense=False),
    CLAPPING_FC: VariantPolicy(MODE_EF, MODE_EF, lazy=True, fresh_rows_dense=False),
    CLAPPING_FU: VariantPolicy(MODE_EF, MODE_EF, lazy=True, fresh_rows_dense=True),
}
VARIANTS = tuple(VARIANT_POLICY)


@dataclass(frozen=True)
class StreamingInputs:
    """Infinite input stream: draw(rng, size) -> (size, dim) rows."""

    dim: int
    draw: object


@dataclass(frozen=True)
class AlgoConfig:
    variant: str
    optimizer: OptimizerConfig
    forward_compressors: tuple[comp.CompressorSpec, ...]
    backward_compressors: tuple[comp.CompressorSpec, ...]
    batch_size: int = 1
    total_steps: int = 1
    seed: int = 0
    sampler_rule: str = SINGLE
    p_schedule: Schedule = Schedule.constant(1.0)
    momentum_reset_steps: frozenset = frozenset()
    force_fresh_at_step_2: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.batch_size < 1 or self.total_steps < 0:
            raise ConfigurationError("batch_size must be >= 1 and total_steps >= 0")
        if self.batch_size > 1 and self.sampler_rule == SINGLE:
            raise ConfigurationError(
                f"algo.batch_size: {self.batch_size} needs a batch sampler rule, "
                f"not algo.sampler_rule = {SINGLE}"
            )
        if any(not 0.0 <= p <= 1.0 for _, p in self.p_schedule.table):
            raise ConfigurationError("sampling.p: every entry must be in [0, 1]")


class WorkerPlan(NamedTuple):
    """One worker compiled at engine init: its stages, each stage's
    parameters as a view into the worker's flat weight vector, and a
    flat gradient buffer with one view per stage."""

    stages: tuple[st.StageSpec, ...]
    params: list[np.ndarray]
    grad: np.ndarray
    stage_grads: list[np.ndarray]


class Link(NamedTuple):
    """One boundary in one direction, compiled at engine init. The cache
    is (B, d) for ``ef``, (n, d) for ``per_sample_ef``, else None."""

    mode: str
    spec: comp.CompressorSpec
    rng: np.random.Generator
    cache: np.ndarray | None


@dataclass
class IterationMetrics:
    step: int
    f_fu: bool
    refreshed: int
    loss: float
    u_norm: float
    fwd_bytes: int
    bwd_bytes: int
    sim_seconds: float


class PipelineEngine:
    """One simulated run. Instances are single-threaded and hold all
    worker state; two engines with the same config and seed produce
    bit-identical trajectories."""

    def __init__(
        self,
        chain: st.ModelChain,
        config: AlgoConfig,
        inputs,
        init_weights: list[np.ndarray] | None = None,
        bandwidth_bps: float = 100e6,
        latency_s: float = 0.0,
        freeze_weights: bool = False,
    ):
        if chain.num_workers < 2:
            raise ConfigurationError("pipeline needs at least 2 workers")
        n_bound = chain.num_workers - 1
        if len(config.forward_compressors) != n_bound or len(config.backward_compressors) != n_bound:
            raise ConfigurationError(f"need one compressor per direction per {n_bound} boundaries")
        self.chain = chain
        self.config = config
        self.freeze_weights = freeze_weights
        self.E = chain.num_workers
        self.B = config.batch_size

        self.policy = VARIANT_POLICY[config.variant]
        if isinstance(inputs, StreamingInputs):
            if self.policy.forward == MODE_PER_SAMPLE_EF:
                raise UnsupportedConfiguration(
                    "the per-sample cache cannot cover an infinite input stream"
                )
            if inputs.dim != chain.input_dim:
                raise ConfigurationError("stream dim does not match the chain input")
            self.inputs = inputs
            n_samples = 0
        else:
            X = np.asarray(inputs, dtype=np.float64)
            if X.ndim != 2 or X.shape[1] != chain.input_dim:
                raise ConfigurationError("inputs must be (n, input_dim)")
            if X.shape[0] == 0:
                raise ConfigurationError("empty dataset")
            self.inputs = X
            n_samples = X.shape[0]

        self.sampler = SamplerState(
            rule=config.sampler_rule,
            batch_size=config.batch_size,
            p_schedule=config.p_schedule if self.policy.lazy else Schedule.constant(1.0),
            n_samples=n_samples,
            force_fresh_at_step_2=self.policy.lazy and config.force_fresh_at_step_2,
        )
        self._rng_sample = named_stream(config.seed, "sampler")
        self._rng_stream_data = named_stream(config.seed, "stream-data")

        def link(direction: int, i: int, spec: comp.CompressorSpec) -> Link:
            dim = chain.boundary_dim(i)
            comp.check_width(spec, dim, f"boundary {i} {_DIRECTIONS[direction]}")
            stream = f"compressor/{('fwd', 'bwd')[direction]}/{i}"
            if spec.seed_stream:
                stream += f"/{spec.seed_stream}"
            mode = self.policy[direction]  # VariantPolicy starts (forward, backward)
            rows = {MODE_EF: self.B, MODE_PER_SAMPLE_EF: n_samples}.get(mode)
            return Link(mode, spec, named_stream(config.seed, stream),
                        None if rows is None else np.zeros((rows, dim)))

        # indexed [wire.FORWARD or wire.BACKWARD][boundary]
        self.links = tuple([link(d, i, spec) for i, spec in enumerate(specs)] for d, specs in
                           enumerate((config.forward_compressors, config.backward_compressors)))

        self.weights: list[np.ndarray] = []
        for e in range(1, self.E + 1):
            d = chain.worker_param_dim(e)
            if init_weights is not None:
                w = np.asarray(init_weights[e - 1], dtype=np.float64).copy()
                if w.shape != (d,):
                    raise ConfigurationError(f"worker {e} expects {d} parameters")
            else:
                w = np.zeros(d)
            self.weights.append(w)
        self.momentum = [np.zeros_like(w) for w in self.weights]
        self.second_moment = (
            [np.zeros_like(w) for w in self.weights] if config.optimizer.kind == ADAM else []
        )
        self.plans: list[WorkerPlan] = []
        for e, w in enumerate(self.weights, start=1):
            stages = chain.worker_stages(e)
            grad = np.zeros_like(w)
            self.plans.append(WorkerPlan(stages, chain.split_params(stages, w), grad,
                                         chain.split_params(stages, grad)))

        self.ledger = wire.TransferLedger(bandwidth_bps=bandwidth_bps, latency_s=latency_s)
        self.t = 0

    # -- state helpers -------------------------------------------------

    def flat_weights(self) -> np.ndarray:
        return np.concatenate(self.weights)

    def per_stage_weights(self) -> list[np.ndarray]:
        """Views of the live weights, one per stage."""
        return [w for plan in self.plans for w in plan.params]

    def cache_rows(self, direction: int) -> list[int]:
        """Rows of each cache in one direction, for the boundaries that keep one."""
        return [link.cache.shape[0] for link in self.links[direction] if link.cache is not None]

    def _rows(self, indices: np.ndarray) -> np.ndarray:
        if isinstance(self.inputs, StreamingInputs):
            return np.asarray(self.inputs.draw(self._rng_stream_data, len(indices)), dtype=np.float64)
        return self.inputs[indices]

    # -- worker-local math ---------------------------------------------

    def _worker_forward(self, e: int, y_in: np.ndarray) -> list[np.ndarray]:
        """Forward through worker e's stages; returns [input, each stage
        output]. Each stage's input is the tape the backward pass reads."""
        plan = self.plans[e - 1]
        return st.run_stages(plan.stages, y_in, plan.params)

    def _worker_backward(self, e: int, tape: list[np.ndarray], v_out: np.ndarray):
        """Backward through worker e, consuming its tape; returns (weight
        grad averaged over the batch, in the worker's gradient buffer;
        input activation gradient rows). Worker 1's input is the data
        rows, which nothing differentiates, so it returns None there
        instead of computing that adjoint."""
        plan = self.plans[e - 1]
        v = v_out
        for idx in reversed(range(len(plan.stages))):
            stage, w, y = plan.stages[idx], plan.params[idx], tape.pop()
            st.stage_backward_weight(stage, y, w, v, out=plan.stage_grads[idx])
            if idx > 0 or e > 1:
                v = st.stage_backward_input(stage, y, w, v)
        np.divide(plan.grad, self.B, out=plan.grad)
        return plan.grad, (v if e > 1 else None)

    # -- exchanges -------------------------------------------------------

    def forward_exchange(self, i: int, y: np.ndarray, fresh_rows: np.ndarray,
                         sample_idx: np.ndarray | None = None) -> np.ndarray:
        """Transmit the boundary-i activation to worker i+2."""
        return self._exchange(wire.FORWARD, i, y, fresh_rows, sample_idx)

    def backward_exchange(self, i: int, v: np.ndarray, fresh_rows: np.ndarray) -> np.ndarray:
        """Transmit the boundary-i activation gradient back to worker i+1."""
        return self._exchange(wire.BACKWARD, i, v, fresh_rows, None)

    def _exchange(self, direction: int, i: int, x: np.ndarray, fresh_rows: np.ndarray,
                  sample_idx: np.ndarray | None) -> np.ndarray:
        """Send x across boundary i on its link; updates the link's cache
        and the ledger, returns the reconstruction the receiver uses."""
        link = self.links[direction][i]
        if not np.isfinite(x).all():  # sent by worker i + 1 forward, i + 2 backward
            raise DivergenceError(f"step {self.t + 1}: non-finite {_DIRECTIONS[direction]} "
                                  f"message at boundary {i}, sent by worker {i + 1 + direction}")
        if link.mode == MODE_DENSE:
            recon = x.copy()
            nbytes = value_bytes = wire.sizes(wire.FMT_DENSE, x.shape[1])[0] * len(x)
        elif link.mode == MODE_DIRECT:
            recon, nbytes, value_bytes = comp.compress_batch(link.spec, x, link.rng)
        else:
            rows = sample_idx if link.mode == MODE_PER_SAMPLE_EF else slice(None)
            cache = link.cache[rows]
            if self.policy.fresh_rows_dense and fresh_rows.any():
                stale = ~fresh_rows
                recon = x.copy()
                nbytes = value_bytes = (wire.sizes(wire.FMT_DENSE, x.shape[1])[0]
                                        * int(fresh_rows.sum()))
                if stale.any():
                    recon[stale], nb, vb = _ef_update(link.spec, x[stale], cache[stale], link.rng)
                    nbytes += nb
                    value_bytes += vb
            else:
                recon, nbytes, value_bytes = _ef_update(link.spec, x, cache, link.rng)
            link.cache[rows] = recon

        self.ledger.record(i, direction, nbytes, value_bytes)
        return recon

    # -- one iteration ---------------------------------------------------

    def run_iteration(self, t: int | None = None) -> IterationMetrics:
        """Advance one step: lazy sample, forward sweep, backward sweep
        with interleaved updates. Returns per-step metrics."""
        expected = self.t + 1
        if t is not None and t != expected:
            raise ContractViolation(f"iterations must run in order, expected t={expected}")
        t = expected

        indices, refreshed, f_fu = lazy_sample(self.sampler, self._rng_sample)
        fwd0 = self.ledger.total_bytes(wire.FORWARD)
        bwd0 = self.ledger.total_bytes(wire.BACKWARD)

        tapes = []
        y = self._rows(indices)
        for e in range(1, self.E + 1):
            tapes.append(self._worker_forward(e, y))
            y = tapes[-1].pop()  # the output; what remains is the backward tape
            if e < self.E:
                y = self.forward_exchange(e - 1, y, refreshed, indices)
        loss = float(np.mean(y))

        gamma = self.config.optimizer.gamma.value_at(t)
        m_t = self.config.optimizer.momentum.value_at(t)
        if t in self.config.momentum_reset_steps:
            for u in self.momentum:
                u[:] = 0.0

        v = np.ones((self.B, 1))
        u_sq = 0.0
        for e in range(self.E, 0, -1):
            u_e, v_in = self._worker_backward(e, tapes.pop(), v)
            self._update_worker(e, u_e, gamma, m_t)
            u_sq += float(self.momentum[e - 1] @ self.momentum[e - 1])
            if e > 1:
                v = self.backward_exchange(e - 2, v_in, refreshed)

        self.t = t
        return IterationMetrics(
            step=t,
            f_fu=bool(f_fu),
            refreshed=int(np.sum(refreshed)),
            loss=loss,
            u_norm=float(np.sqrt(u_sq)),
            fwd_bytes=self.ledger.total_bytes(wire.FORWARD) - fwd0,
            bwd_bytes=self.ledger.total_bytes(wire.BACKWARD) - bwd0,
            sim_seconds=self.ledger.simulated_seconds,
        )

    def _update_worker(self, e: int, grad: np.ndarray, gamma: float, m_t: float) -> None:
        if self.freeze_weights:
            return
        opt = self.config.optimizer
        i = e - 1
        if len(grad) == 0:
            return
        # in place: the plan's parameter views stay valid
        if opt.kind == MOMENTUM_SGD:
            momentum_update(self.momentum[i], self.weights[i], grad, m_t, gamma)
        else:
            adam_update(self.momentum[i], self.second_moment[i], self.weights[i], grad,
                        m_t, opt.beta2, opt.eps, gamma)

    def run(self, steps: int | None = None) -> list[IterationMetrics]:
        steps = self.config.total_steps if steps is None else steps
        return [self.run_iteration() for _ in range(steps)]


def _ef_update(spec: comp.CompressorSpec, x: np.ndarray, cache: np.ndarray, rng):
    """Error-feedback step: (cache + C(x - cache), payload bytes, value bytes)."""
    delta, nbytes, value_bytes = comp.compress_batch(spec, x - cache, rng)
    return cache + delta, nbytes, value_bytes
