"""Sequential simulator of pipeline-parallel optimization with
communication compression.

All workers run in one process in deterministic order: forward sweep
1..E-1 across the boundaries, then a backward sweep E..1 that updates
each worker's parameters before handing the activation gradient to its
neighbor. The backward pass at a worker uses the weights that produced
the forward pass, matching a synchronous pipeline where the gradient
message is formed from the same iterate it was computed against.

The engine holds the current batch's input rows between steps and
fetches only the rows a step refreshes, from the dataset or the stream.

Each boundary and direction is one ``Link``, bound at init to its
mode's send function. Where its mode reads a cache, the link holds one
array for both endpoints' identical copies. Every message goes through
``compressors.compress_batch``, whose input check is its one scan: a
non-finite message, or a finite one its compressor cannot encode, raises
``DivergenceError`` naming the step, boundary and sender.

The variants differ only in what each boundary sends in each direction.
``VARIANT_POLICY`` gives each one a mode per direction and whether it
samples lazily (reusing the previous batch with probability 1 - p_t).
The modes: ``dense`` sends the values, as identity compression; ``direct``
sends C(x); ``ef`` sends C(x - cache) and both endpoints set cache <- cache
+ C(x - cache); ``per_sample_ef`` does so against one cache entry per
dataset row; ``ef_fresh_dense`` is ``ef`` but sends the rows drawn fresh
this step dense, which restart their cache rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itruediv
from typing import Callable, NamedTuple

import numpy as np

from . import compressors as comp
from . import halves
from . import stages as st
from . import wire
from .errors import (ConfigurationError, ContractViolation, DivergenceError,
                     UnsupportedConfiguration)
from .optim import ADAM, MOMENTUM_SGD, OptimizerConfig, adam_update, momentum_update
from .rng import named_stream
from .sampling import BATCH_BATCHWISE, SamplerState, Schedule, lazy_sample

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
MODE_EF_FRESH_DENSE = "ef_fresh_dense"

_DIRECTIONS = ("forward", "backward")  # by wire.FORWARD and wire.BACKWARD
_DENSE = comp.identity_spec()  # a dense send is identity compression


class VariantPolicy(NamedTuple):
    forward: str
    backward: str
    lazy: bool  # lazy sampling; the others draw fresh every step

    def cache_rows(self, batch: int, samples: int) -> tuple[int, int]:
        """Cache rows each endpoint of a link keeps, (forward, backward): one
        per batch row for the ``ef`` modes, per dataset row for ``per_sample_ef``."""
        rows = {MODE_EF: batch, MODE_EF_FRESH_DENSE: batch, MODE_PER_SAMPLE_EF: samples}
        return rows.get(self.forward, 0), rows.get(self.backward, 0)


VARIANT_POLICY = {
    NO_COMP: VariantPolicy(MODE_DENSE, MODE_DENSE, lazy=False),
    DIRECT: VariantPolicy(MODE_DIRECT, MODE_DIRECT, lazy=False),
    FORWARD_EF: VariantPolicy(MODE_EF, MODE_DIRECT, lazy=False),
    AQ_SGD: VariantPolicy(MODE_PER_SAMPLE_EF, MODE_DIRECT, lazy=False),
    CLAPPING_FC: VariantPolicy(MODE_EF, MODE_EF, lazy=True),
    CLAPPING_FU: VariantPolicy(MODE_EF_FRESH_DENSE, MODE_EF_FRESH_DENSE, lazy=True),
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
    sampler_rule: str = BATCH_BATCHWISE
    p_schedule: Schedule = Schedule.constant(1.0)
    momentum_reset_steps: frozenset = frozenset()
    force_fresh_at_step_2: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        if self.batch_size < 1 or self.total_steps < 0:
            raise ConfigurationError("batch_size must be >= 1 and total_steps >= 0")
        if any(not 0.0 <= p <= 1.0 for _, p in self.p_schedule.table):
            raise ConfigurationError("sampling.p: every entry must be in [0, 1]")


class WorkerPlan(NamedTuple):
    """One worker compiled at engine init: its stages, each stage's
    parameters as a view into the worker's flat weight vector, a flat
    gradient with one view per stage, the stages and params the forward
    pass runs (all but the last worker's final stage, whose output the
    backward pass never reads: it seeds the adjoint with 1), and whether
    its weight side is deferred.

    Every worker's gradient is a view of one engine-wide scratch from
    offset 0: the backward sweep finishes a worker's gradient (pull-back,
    batch mean, update) before the next worker's pull-back writes it. A
    deferring worker (``defer``: not worker 1, where ``halves.helper()``
    gives a helper and a weight product is above ``stages._SPLIT_MACS``)
    hands its weight adjoints, batch mean and update to ``halves.defer``
    while the sweep goes on with its input adjoints and backward send. The
    one helper runs deferred jobs in the order they were queued, so worker
    e's update has read the scratch before worker e-1's weight adjoint
    writes it. A worker that does not defer waits for the queue first. A
    deferred job that raises stops the step with its error once the queue
    is drained, and the weights and momenta are as one thread leaves them;
    but the backward sends made meanwhile have updated their link caches
    and the ledger, past where one thread stops."""

    stages: tuple[st.StageSpec, ...]
    params: list[np.ndarray]
    grad: np.ndarray
    stage_grads: list[np.ndarray]
    forward_stages: tuple[st.StageSpec, ...]
    forward_params: list[np.ndarray]
    defer: bool


class Link(NamedTuple):
    """One boundary in one direction, compiled at engine init. ``send``
    is its mode's send function (``_SEND``); the cache has the rows
    ``VariantPolicy.cache_rows`` gives its mode, or is None for none.
    An ``ef`` or ``ef_fresh_dense`` send hands the receiver the cache array
    itself, not a copy: each link sends once per step, so the cache does not
    change while the step reads it, and no stage function writes its inputs."""

    send: Callable
    spec: comp.CompressorSpec
    rng: np.random.Generator
    cache: np.ndarray | None


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
    ):
        if chain.num_workers < 2:
            raise ConfigurationError("pipeline needs at least 2 workers")
        n_bound = chain.num_workers - 1
        if len(config.forward_compressors) != n_bound or len(config.backward_compressors) != n_bound:
            raise ConfigurationError(f"need one compressor per direction per {n_bound} boundaries")
        self.chain = chain
        self.config = config
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
            X = st._float64("inputs", inputs)
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
            mode = self.policy[direction]  # VariantPolicy starts (forward, backward)
            rows = self.policy.cache_rows(self.B, n_samples)[direction]
            return Link(_SEND[mode], _DENSE if mode == MODE_DENSE else spec,
                        named_stream(config.seed, stream), np.zeros((rows, dim)) if rows else None)

        # indexed [wire.FORWARD or wire.BACKWARD][boundary]
        self.links = tuple([link(d, i, spec) for i, spec in enumerate(specs)] for d, specs in
                           enumerate((config.forward_compressors, config.backward_compressors)))

        if init_weights is None:
            init_weights = [np.zeros(chain.worker_param_dim(e)) for e in range(1, self.E + 1)]
        if len(init_weights) != self.E:
            raise ConfigurationError(f"init_weights: expected {self.E} entries, one per worker, "
                                     f"got {len(init_weights)}")
        self.weights = [st._float64("init_weights", w).copy() for w in init_weights]
        for e, w in enumerate(self.weights, start=1):
            d = chain.worker_param_dim(e)
            if w.shape != (d,):
                raise ConfigurationError(f"worker {e} expects {d} parameters")
        self.momentum = [np.zeros_like(w) for w in self.weights]
        self.second_moment = (
            [np.zeros_like(w) for w in self.weights] if config.optimizer.kind == ADAM else []
        )
        self.plans: list[WorkerPlan] = []
        scratch = np.zeros(max(len(w) for w in self.weights))  # see WorkerPlan
        helped = halves.helper() is not None
        for e, w in enumerate(self.weights, start=1):
            stages = chain.worker_stages(e)
            params, grad = chain.split_params(stages, w), scratch[: len(w)]
            n = len(stages) - (e == self.E)
            defer = helped and e > 1 and any(  # a weight product's multiply-adds
                self.B * s.matrix_rows * s.input_dim > st._SPLIT_MACS
                for s in stages if s.param_dim)
            self.plans.append(WorkerPlan(stages, params, grad, chain.split_params(stages, grad),
                                         stages[:n], params[:n], defer))
        self._defers = any(plan.defer for plan in self.plans)
        self._loss_adjoint = np.ones((self.B, 1))  # d loss / d final output, read-only
        self._loss_adjoint.flags.writeable = False
        self._batch: np.ndarray | None = None  # the current batch's input rows

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

    def _batch_rows(self, indices: np.ndarray, refreshed: np.ndarray, fresh: bool) -> np.ndarray:
        """The step's input rows. The batch is held between steps, so a
        reused row is not read again: only refreshed rows are gathered
        from the dataset, or drawn from the stream."""
        if fresh and refreshed.all():
            self._batch = self._fetch(indices)
        elif fresh:
            self._batch = self._batch.copy()  # the last step's rows stay as they were
            self._batch[refreshed] = self._fetch(indices[refreshed])
        return self._batch

    def _fetch(self, indices: np.ndarray) -> np.ndarray:
        if not isinstance(self.inputs, StreamingInputs):
            return self.inputs[indices]
        want = (len(indices), self.inputs.dim)
        name = getattr(self.inputs.draw, "__qualname__", "draw")
        where = f"step {self.t + 1}: input stream {name}"
        rows = st._float64(where, self.inputs.draw(self._rng_stream_data, want[0]))
        if rows.shape != want or not np.isfinite(rows).all():
            got = f"shape {rows.shape}" if rows.shape != want else "non-finite rows"
            raise ContractViolation(f"{where}: asked for {want[0]} rows of width {want[1]}, "
                                    f"got {got}")
        return rows

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
        try:
            recon, nbytes, value_bytes = link.send(link, x, fresh_rows, sample_idx)
        except ContractViolation as exc:
            where = (f"{_DIRECTIONS[direction]} message at boundary {i}, "
                     f"sent by worker {i + 1 + direction}")
            if not np.isfinite(x).all():  # rescanned on this failure path only
                raise DivergenceError(f"step {self.t + 1}: non-finite {where}") from None
            # finite, but its compressor cannot encode it
            raise DivergenceError(f"step {self.t + 1}: {where}: {exc}") from exc

        self.ledger.record(i, direction, nbytes, value_bytes)
        return recon

    # -- one iteration ---------------------------------------------------

    def run_iteration(self) -> bool:
        """Advance one step: lazy sample, forward sweep, backward sweep
        with interleaved updates. Returns whether the step drew a fresh
        sample; byte and time totals are on ``self.ledger``."""
        t = self.t + 1
        indices, refreshed, f_fu = lazy_sample(self.sampler, self._rng_sample)

        tapes = []  # per worker: the stage tape of st.run_stages
        y = self._batch_rows(indices, refreshed, f_fu)
        for e, plan in enumerate(self.plans, start=1):
            tapes.append(st.run_stages(plan.forward_stages, y, plan.forward_params))
            if e < self.E:  # pop the output; what remains is the backward tape
                y = self.forward_exchange(e - 1, tapes[-1].pop(), refreshed, indices)

        opt = self.config.optimizer
        gamma, m_t = opt.gamma.value_at(t), opt.momentum.value_at(t)
        if t in self.config.momentum_reset_steps:
            for u in self.momentum:
                u[:] = 0.0

        v = self._loss_adjoint
        try:
            for e in range(self.E, 0, -1):
                plan = self.plans[e - 1]  # worker 1's input is the data rows: no adjoint
                if self._defers and not plan.defer:  # it writes the scratch queued jobs read
                    halves.wait()
                v = st.pull_back(plan.stages, tapes.pop(), plan.params, v, plan.stage_grads,
                                 e > 1, plan.defer)
                if len(plan.grad):  # a worker without parameters has nothing to update
                    if plan.defer:  # the batch mean, as one queued job
                        halves.defer(itruediv, plan.grad, self.B)
                    else:
                        np.divide(plan.grad, self.B, out=plan.grad)
                    # in place: the plan's parameter views stay valid
                    u, w = self.momentum[e - 1], self.weights[e - 1]
                    if opt.kind == MOMENTUM_SGD:
                        momentum_update(u, w, plan.grad, m_t, gamma, defer=plan.defer)
                    else:
                        adam_update(u, self.second_moment[e - 1], w, plan.grad, m_t, opt.beta2,
                                    opt.eps, gamma, defer=plan.defer)
                if e > 1:
                    v = self.backward_exchange(e - 2, v, refreshed)
        finally:  # no queued job outlives the step, nor a step that raises
            if self._defers:
                halves.wait()

        self.t = t
        return f_fu

    def run(self, steps: int | None = None) -> None:
        for _ in range(self.config.total_steps if steps is None else steps):
            self.run_iteration()


# Send functions, by mode: (link, x, fresh_rows, sample_idx) ->
# (reconstruction, payload bytes, value bytes).

def _send(link: Link, x: np.ndarray, fresh_rows, sample_idx):
    """``dense`` and ``direct`` send C(x); ``ef`` makes error feedback on
    the whole cache, which ``compress_batch`` updates in place."""
    return comp.compress_batch(link.spec, x, link.rng, cache=link.cache)


def _send_rows(link: Link, x: np.ndarray, fresh_rows, rows):
    """Error feedback on the cache ``rows``: a gathered copy, written back."""
    cache = link.cache[rows]
    out = comp.compress_batch(link.spec, x, link.rng, cache=cache)
    link.cache[rows] = cache
    return out


def _send_ef_fresh_dense(link: Link, x: np.ndarray, fresh_rows, sample_idx):
    """``ef`` on the stale rows; the fresh rows travel dense into their
    cache rows, written last, so a failing message leaves the cache as it was."""
    if not fresh_rows.any():
        return _send(link, x, fresh_rows, sample_idx)
    if fresh_rows.all():  # no row gathers
        link.cache[:], nbytes, value_bytes = comp.compress_batch(_DENSE, x)
        return link.cache, nbytes, value_bytes
    dense, nbytes, value_bytes = comp.compress_batch(_DENSE, x[fresh_rows])
    _, nb, vb = _send_rows(link, x[stale := ~fresh_rows], None, stale)
    link.cache[fresh_rows] = dense
    return link.cache, nbytes + nb, value_bytes + vb


_SEND = {MODE_DENSE: _send, MODE_DIRECT: _send, MODE_EF: _send,
         MODE_PER_SAMPLE_EF: _send_rows, MODE_EF_FRESH_DENSE: _send_ef_fresh_dense}
