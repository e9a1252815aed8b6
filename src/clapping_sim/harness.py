"""Experiment orchestration: config files, runs, metrics, memory math.

Config files are flat ``section.key = value`` text (``#`` comments,
blank lines ignored). Schedules are comma-separated ``start:value``
pairs starting at step 1. Compressors use a compact syntax:
``identity``, ``topk:K``, ``randk:K``, ``quant:BITS``, ``natural``,
``inject_uniform:A``, members joined by ``+`` compose left to right.
``compressor.forward`` / ``compressor.backward`` apply to every
boundary; ``compressor.forward.N`` overrides boundary N.

Metrics are CSV with columns
``step,loss,loss_gap,grad_norm,fwd_bytes,bwd_bytes,sim_seconds,f_fu``.
``loss`` and ``grad_norm`` are the exact full-dataset objective and
gradient norm at the post-step iterate (so every logged loss is bounded
below by the reference optimum); byte and time columns are cumulative
totals; ``f_fu`` is 1 on steps that drew a fresh sample. Two runs of the
same config produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import compressors as comp
from . import datasets as ds
from . import stages as st
from .engine import VARIANTS, AlgoConfig, PipelineEngine
from .errors import ConfigurationError
from .optim import ADAM, MOMENTUM_SGD, OptimizerConfig
from .rng import named_stream
from .sampling import BATCH_BATCHWISE, RULES, SINGLE, Schedule

CSV_COLUMNS = ("step", "loss", "loss_gap", "grad_norm", "fwd_bytes", "bwd_bytes",
               "sim_seconds", "f_fu")


# -- config file parsing -------------------------------------------------

def parse_config_text(text: str) -> dict[str, str]:
    """Flat dotted-key mapping from config text; later keys override."""
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _get(raw: dict, key: str, default=None, required: bool = False) -> str:
    if key in raw:
        return raw[key]
    if required:
        raise ConfigurationError(f"{key}: missing required key")
    return default


def _parse_int(key: str, v) -> int:
    try:
        return int(str(v))
    except (TypeError, ValueError):
        raise ConfigurationError(f"{key}: expected an integer, got {v!r}") from None


def _as_int(raw: dict, key: str, default=None, required=False, minimum=None) -> int:
    out = _parse_int(key, _get(raw, key, default, required))
    if minimum is not None and out < minimum:
        raise ConfigurationError(f"{key}: must be >= {minimum}, got {out}")
    return out


def _as_ints(raw: dict, key: str, default: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, x) for x in str(_get(raw, key, default)).split(","))


def _as_float(raw: dict, key: str, default=None, required=False) -> float:
    v = _get(raw, key, default, required)
    try:
        return float(str(v))
    except (TypeError, ValueError):
        raise ConfigurationError(f"{key}: expected a number, got {v!r}") from None


def _as_bool(raw: dict, key: str, default: bool) -> bool:
    v = str(_get(raw, key, default)).strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"{key}: expected a boolean, got {v!r}")


def parse_schedule(key: str, text: str) -> Schedule:
    entries = []
    for part in str(text).split(","):
        part = part.strip()
        if ":" in part:
            start, value = part.split(":", 1)
        elif not entries:
            start, value = "1", part
        else:
            raise ConfigurationError(f"{key}: schedule entries need 'start:value'")
        try:
            entries.append((int(start), float(value)))
        except ValueError:
            raise ConfigurationError(f"{key}: bad schedule entry {part!r}") from None
    try:
        return Schedule(tuple(entries))
    except ConfigurationError as e:
        raise ConfigurationError(f"{key}: {e}") from None


def parse_compressor(key: str, text: str) -> comp.CompressorSpec:
    members = []
    for token in str(text).split("+"):
        token = token.strip()
        name, _, arg = token.partition(":")
        try:
            if name == "identity":
                members.append(comp.identity_spec())
            elif name == "topk":
                members.append(comp.topk_spec(int(arg)))
            elif name == "randk":
                members.append(comp.randk_spec(int(arg)))
            elif name == "quant":
                members.append(comp.quant_spec(int(arg)))
            elif name == "natural":
                members.append(comp.natural_spec())
            elif name == "inject_uniform":
                members.append(comp.inject_uniform_spec(float(arg)))
            else:
                raise ConfigurationError(f"{key}: unknown compressor {name!r}")
        except ValueError:
            raise ConfigurationError(f"{key}: bad compressor argument {arg!r}") from None
    return members[0] if len(members) == 1 else comp.compose_spec(*members)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run."""

    dataset_kind: str
    dataset_n: int
    dataset_dim: int
    dataset_seed: int
    feature_scale: float
    noise_scale: float
    second_param_is_std: bool
    c_r: float
    model_kind: str
    model_dims: tuple[int, ...]
    model_boundaries: tuple[int, ...]
    algo: AlgoConfig
    bandwidth_bps: float
    latency_s: float
    log_every: int
    output: str


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    dataset_kind = _get(raw, "dataset.kind", "synthetic_logistic")
    if dataset_kind not in ("synthetic_logistic", "synthetic_mlp"):
        raise ConfigurationError(f"dataset.kind: unknown dataset {dataset_kind!r}")
    model_kind = _get(raw, "model.kind", "logistic" if dataset_kind == "synthetic_logistic" else "tanh_mlp")
    if model_kind not in ("logistic", "tanh_mlp"):
        raise ConfigurationError(f"model.kind: unknown model {model_kind!r}")

    dims = _as_ints(raw, "model.dims", "8,8") if model_kind == "tanh_mlp" else ()
    bounds = _as_ints(raw, "model.boundaries", "2") if model_kind == "tanh_mlp" else ()

    variant = _get(raw, "algo.variant", required=True)
    if variant not in VARIANTS:
        raise ConfigurationError(f"algo.variant: unknown variant {variant!r}")
    rule = _get(raw, "algo.sampler_rule", None)
    batch = _as_int(raw, "algo.batch_size", 1, minimum=1)
    if rule is None:
        rule = SINGLE if batch == 1 else BATCH_BATCHWISE
    if rule not in RULES:
        raise ConfigurationError(f"algo.sampler_rule: unknown rule {rule!r}")

    opt_kind = _get(raw, "optimizer.kind", MOMENTUM_SGD)
    if opt_kind not in (MOMENTUM_SGD, ADAM):
        raise ConfigurationError(f"optimizer.kind: unknown optimizer {opt_kind!r}")
    optimizer = OptimizerConfig(
        kind=opt_kind,
        gamma=parse_schedule("optimizer.gamma", _get(raw, "optimizer.gamma", "0.1")),
        momentum=parse_schedule("optimizer.momentum", _get(raw, "optimizer.momentum", "0.1")),
        beta2=_as_float(raw, "optimizer.beta2", 0.999),
        eps=_as_float(raw, "optimizer.eps", 1e-8),
    )
    resets = frozenset(
        _parse_int("optimizer.reset_steps", x)
        for x in str(_get(raw, "optimizer.reset_steps", "")).split(",") if x.strip()
    )

    # one compressor per boundary per direction, with per-boundary overrides
    if model_kind == "logistic":
        n_bound = 1
    else:
        n_bound = len(bounds)
    fwd, bwd = [], []
    for i in range(n_bound):
        fkey = f"compressor.forward.{i}"
        bkey = f"compressor.backward.{i}"
        fwd.append(parse_compressor(fkey, raw.get(fkey, _get(raw, "compressor.forward", "identity"))))
        bwd.append(parse_compressor(bkey, raw.get(bkey, _get(raw, "compressor.backward", "identity"))))

    algo = AlgoConfig(
        variant=variant,
        optimizer=optimizer,
        forward_compressors=tuple(fwd),
        backward_compressors=tuple(bwd),
        batch_size=batch,
        total_steps=_as_int(raw, "algo.total_steps", 1000, minimum=0),
        seed=_as_int(raw, "algo.seed", 0),
        sampler_rule=rule,
        p_schedule=parse_schedule("sampling.p", _get(raw, "sampling.p", "1.0")),
        momentum_reset_steps=resets,
        force_fresh_at_step_2=_as_bool(raw, "algo.force_fresh_step2", False),
    )
    return ExperimentConfig(
        dataset_kind=dataset_kind,
        dataset_n=_as_int(raw, "dataset.n", 1024, minimum=1),
        dataset_dim=_as_int(raw, "dataset.dim", 200, minimum=1),
        dataset_seed=_as_int(raw, "dataset.seed", 7),
        feature_scale=_as_float(raw, "dataset.feature_scale", 0.5),
        noise_scale=_as_float(raw, "dataset.noise_scale", 0.3),
        second_param_is_std=_as_bool(raw, "dataset.second_param_is_std", False),
        c_r=_as_float(raw, "dataset.c_r", 0.005),
        model_kind=model_kind,
        model_dims=dims,
        model_boundaries=bounds,
        algo=algo,
        bandwidth_bps=_as_float(raw, "run.bandwidth_bps", 100e6),
        latency_s=_as_float(raw, "run.latency_s", 0.0),
        log_every=_as_int(raw, "run.log_every", 100, minimum=1),
        output=_get(raw, "run.output", "metrics.csv"),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_mapping(parse_config_text(Path(path).read_text()))


# -- run assembly ---------------------------------------------------------

def build_problem(cfg: ExperimentConfig):
    """Returns (chain, engine inputs, init weights, f_star or None)."""
    if cfg.dataset_kind == "synthetic_logistic":
        data = ds.gen_logistic_dataset(
            cfg.dataset_n, cfg.dataset_dim, cfg.dataset_seed,
            feature_scale=cfg.feature_scale, noise_scale=cfg.noise_scale,
            c_r=cfg.c_r, second_param_is_std=cfg.second_param_is_std,
        )
        chain = st.logistic_chain(cfg.dataset_dim, cfg.c_r)
        return chain, data.chain_inputs(), None, data
    chain = st.tanh_mlp_chain(cfg.model_dims, cfg.model_boundaries)
    rng = named_stream(cfg.dataset_seed, "dataset/mlp-inputs")
    inputs = rng.standard_normal((cfg.dataset_n, chain.input_dim))
    w_rng = named_stream(cfg.dataset_seed, "dataset/mlp-init")
    init = [
        0.4 * w_rng.standard_normal(chain.worker_param_dim(e))
        for e in range(1, chain.num_workers + 1)
    ]
    return chain, inputs, init, None


def run_experiment(cfg: ExperimentConfig, out_path: str | Path | None = None) -> Path:
    """Run the configured experiment and write the metrics CSV."""
    chain, inputs, init, data = build_problem(cfg)
    f_star = ds.compute_f_star(data, chain) if data is not None else 0.0
    engine = PipelineEngine(
        chain, cfg.algo, inputs, init_weights=init,
        bandwidth_bps=cfg.bandwidth_bps, latency_s=cfg.latency_s,
    )
    out = Path(out_path) if out_path is not None else Path(cfg.output)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    full_inputs = inputs if not hasattr(inputs, "draw") else None
    for t in range(1, cfg.algo.total_steps + 1):
        metrics = engine.run_iteration()
        if t % cfg.log_every == 0 or t == cfg.algo.total_steps:
            loss, gnorm = _exact_objective(chain, full_inputs, engine)
            writer.writerow([
                t, repr(loss), repr(loss - f_star), repr(gnorm),
                engine.ledger.total_bytes(0), engine.ledger.total_bytes(1),
                repr(engine.ledger.simulated_seconds), int(metrics.f_fu),
            ])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(buf.getvalue())
    return out


def _exact_objective(chain, full_inputs, engine):
    if full_inputs is None:
        return float("nan"), float("nan")
    loss, grads, _ = st.chain_gradients(chain, full_inputs, engine.per_stage_weights())
    gnorm = float(np.sqrt(sum(float(g @ g) for g in grads)))
    return loss, gnorm


def read_metrics(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a metrics CSV as float arrays keyed by name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}
    return cols


# -- memory calculator -----------------------------------------------------

def memory_calculator(
    workers: int, batch: int, samples: int, seq_len: int, hidden: int,
    bytes_per_element: int = 2,
) -> dict[str, float]:
    """Communication-cache overhead of batch-cache error feedback versus
    a per-sample activation cache.

    The batch cache holds the current batch's activations and activation
    gradients on both endpoints of every boundary:
    4 * (workers - 1) * batch * seq_len * hidden elements. The per-sample
    cache holds one activation per dataset row on both endpoints:
    2 * (workers - 1) * samples * seq_len * hidden elements.
    """
    if min(workers, batch, samples, seq_len, hidden, bytes_per_element) < 1:
        raise ConfigurationError("memory calculator inputs must be positive")
    links = workers - 1
    clapping = 4 * links * batch * seq_len * hidden * bytes_per_element
    aqsgd = 2 * links * samples * seq_len * hidden * bytes_per_element
    gib = 1024.0**3
    return {
        "clapping_bytes": float(clapping),
        "aqsgd_bytes": float(aqsgd),
        "clapping_gib": clapping / gib,
        "aqsgd_gib": aqsgd / gib,
    }


# -- reference benchmark presets -------------------------------------------

def logistic_benchmark_config(
    variant: str,
    total_steps: int = 200_000,
    seed: int = 0,
    n: int = 128,
    dim: int = 200,
    batch: int = 128,
    p: float = 0.05,
    log_every: int = 200,
    noise_amplitude: float = 0.2,
    output: str = "metrics.csv",
) -> ExperimentConfig:
    """The noisy-boundary logistic benchmark: gamma starts at 0.1 and
    halves every 40k steps with the momentum buffer cleared at each
    halving; uniform relative noise of the given amplitude is injected on
    the forward boundary, the backward direction is exact.

    The defaults put the run in the full-coverage batch regime (every
    batch is a reshuffle of the whole 128-row dataset), so that the
    baseline's gradient has no sampling noise and the final loss gaps
    isolate the compression error: direct compression and forward-only
    error feedback plateau, while error feedback with lazy sampling keeps
    contracting as the step size decays."""
    halvings = [(1, 0.1)]
    resets = []
    step_size = 0.1
    for start in range(40_001, max(total_steps, 1) + 1, 40_000):
        step_size /= 2.0
        halvings.append((start, step_size))
        resets.append(start)
    gamma = ",".join(f"{s}:{v}" for s, v in halvings)
    raw = {
        "dataset.kind": "synthetic_logistic",
        "dataset.n": str(n),
        "dataset.dim": str(dim),
        "dataset.seed": "7",
        "dataset.c_r": "0.005",
        "algo.variant": variant,
        "algo.batch_size": str(batch),
        "algo.total_steps": str(total_steps),
        "algo.seed": str(seed),
        "algo.sampler_rule": BATCH_BATCHWISE,
        "optimizer.kind": MOMENTUM_SGD,
        "optimizer.gamma": gamma,
        "optimizer.momentum": "0.1",
        "optimizer.reset_steps": ",".join(str(r) for r in resets),
        "sampling.p": repr(p),
        "compressor.forward": f"inject_uniform:{noise_amplitude}",
        "compressor.backward": "identity",
        "run.log_every": str(log_every),
        "run.output": output,
    }
    return config_from_mapping(raw)
