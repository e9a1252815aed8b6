"""Experiment orchestration: config files, runs, metrics, memory math.

Config files are flat ``section.key = value`` text (``#`` comments,
blank lines ignored). Schedules are comma-separated ``start:value``
pairs starting at step 1. Compressors use a compact syntax:
``identity``, ``topk:K``, ``randk:K``, ``quant:BITS``, ``natural``,
``inject_uniform:A``, members joined by ``+`` compose left to right.
``compressor.forward`` / ``compressor.backward`` apply to every
boundary; ``compressor.forward.N`` overrides boundary N. Each setting
is read once, with its type and range, and a key that is not read is an
error; the model kind follows from ``dataset.kind``.

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
import difflib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import compressors as comp
from . import datasets as ds
from . import stages as st
from .engine import AQ_SGD, CLAPPING_FC, VARIANT_POLICY, VARIANTS, AlgoConfig, PipelineEngine
from .errors import ConfigurationError, DivergenceError
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


def _int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigurationError(f"{key}: expected an integer, got {text!r}") from None


def _ints(key: str, text: str) -> tuple[int, ...]:
    return tuple(_int(key, x) for x in text.split(","))


def _int_set(key: str, text: str) -> frozenset[int]:
    return frozenset(_int(key, x) for x in text.split(",") if x.strip())


def _float(key: str, text: str) -> float:
    try:
        out = float(text)
        if math.isfinite(out):
            return out
    except ValueError:
        pass
    raise ConfigurationError(f"{key}: expected a finite number, got {text!r}")


def _bool(key: str, text: str) -> bool:
    v = text.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"{key}: expected a boolean, got {text!r}")


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


# compressor syntax: each kind's config name, and the parser of the field it reads
_COMPRESSOR_NAMES = {row.name: kind for kind, row in comp.KIND_TABLE.items() if row.name}
_ARGUMENT = {int: _int, float: _float}


def parse_compressor(key: str, text: str) -> comp.CompressorSpec:
    members = []
    for token in str(text).split("+"):
        token = token.strip()
        name, colon, arg = token.partition(":")
        if name not in _COMPRESSOR_NAMES:
            raise ConfigurationError(f"{key}: unknown compressor {name!r}")
        kind = _COMPRESSOR_NAMES[name]
        field = comp.KIND_TABLE[kind].field
        if field is None and colon:
            raise ConfigurationError(f"{key}: {name} takes no argument, got {token!r}")
        args = {} if field is None else {field.name: _ARGUMENT[field.type](key, arg)}
        try:
            members.append(comp.CompressorSpec(kind, **args))
        except ConfigurationError as exc:  # the spec's own range check
            raise ConfigurationError(f"{key}: {exc}") from None
    return members[0] if len(members) == 1 else comp.compose_spec(*members)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run."""

    dataset_kind: str
    dataset_n: int
    dataset_seed: int
    model_dims: tuple[int, ...]
    model_boundaries: tuple[int, ...]
    algo: AlgoConfig
    bandwidth_bps: float
    latency_s: float
    log_every: int
    output: str
    # the logistic dataset and its model; the MLP dataset reads none of these
    dataset_dim: int = 200
    feature_scale: float = 0.5
    noise_scale: float = 0.3
    second_param_is_std: bool = False
    c_r: float = 0.005


_MAX_FLOAT64S = np.iinfo(np.intp).max // 8  # numpy refuses an array of more bytes than intp holds
_MODEL_OF_DATASET = {"synthetic_logistic": "logistic", "synthetic_mlp": "tanh_mlp"}
# keys read only under another setting: the unused-key error names that setting
_READ_ONLY_WHEN = {
    **dict.fromkeys(("optimizer.beta2", "optimizer.eps"), f"optimizer.kind = {ADAM}"),
    **dict.fromkeys(("model.dims", "model.boundaries"), "dataset.kind = synthetic_mlp"),
    **dict.fromkeys(("dataset.dim", "dataset.feature_scale", "dataset.noise_scale", "dataset.c_r",
                     "dataset.second_param_is_std"), "dataset.kind = synthetic_logistic"),
}


def config_from_mapping(raw: dict[str, str]) -> ExperimentConfig:
    """Build a config from a flat key mapping (see the module docstring)."""
    asked: set[str] = set()

    def read(key, parse=None, default=None, allowed=(), minimum=None, above=None):
        """Parsed value of key (text if parse is None), or default (None: required)."""
        asked.add(key)
        if key not in raw:
            if default is None:
                raise ConfigurationError(f"{key}: missing required key")
            return default
        value = parse(key, str(raw[key])) if parse else str(raw[key])
        if allowed and value not in allowed:
            raise ConfigurationError(f"{key}: expected one of {', '.join(allowed)}, got {value!r}")
        values = value if isinstance(value, (tuple, frozenset)) else (value,)
        if minimum is not None and (bad := sorted(v for v in values if v < minimum)):
            raise ConfigurationError(f"{key}: must be >= {minimum}, got {', '.join(map(str, bad))}")
        if above is not None and value <= above:
            raise ConfigurationError(f"{key}: must be > {above}, got {value}")
        return value

    dataset_kind = read("dataset.kind", default="synthetic_logistic", allowed=_MODEL_OF_DATASET)
    model_kind = _MODEL_OF_DATASET[dataset_kind]
    read("model.kind", default=model_kind, allowed=(model_kind,))
    mlp = model_kind == "tanh_mlp"
    dims = read("model.dims", _ints, (8, 8), minimum=1) if mlp else ()
    bounds = read("model.boundaries", _ints, (2,)) if mlp else ()
    if mlp:
        try:  # the chain's own cut rule, raised under its key before anything is built
            st.tanh_mlp_chain(dims, bounds)
        except ConfigurationError as exc:
            raise ConfigurationError(f"model.boundaries: {exc}") from None

    batch = read("algo.batch_size", _int, 1, minimum=1)
    opt_kind = read("optimizer.kind", default=MOMENTUM_SGD, allowed=(MOMENTUM_SGD, ADAM))
    adam = {} if opt_kind != ADAM else dict(
        beta2=read("optimizer.beta2", _float, 0.999), eps=read("optimizer.eps", _float, 1e-8))
    optimizer = OptimizerConfig(
        kind=opt_kind,
        gamma=read("optimizer.gamma", parse_schedule, Schedule.constant(0.1)),
        momentum=read("optimizer.momentum", parse_schedule, Schedule.constant(0.1)),
        **adam,
    )

    # one compressor per boundary per direction, with per-boundary overrides
    fwd_all = read("compressor.forward", parse_compressor, comp.identity_spec())
    bwd_all = read("compressor.backward", parse_compressor, comp.identity_spec())
    n_bound = len(bounds) if mlp else 1
    fwd = [read(f"compressor.forward.{i}", parse_compressor, fwd_all) for i in range(n_bound)]
    bwd = [read(f"compressor.backward.{i}", parse_compressor, bwd_all) for i in range(n_bound)]

    steps = read("algo.total_steps", _int, 1000, minimum=0)
    resets = read("optimizer.reset_steps", _int_set, frozenset(), minimum=1)
    if late := sorted(r for r in resets if r > steps):  # would never fire
        raise ConfigurationError(f"optimizer.reset_steps: must be <= algo.total_steps ({steps}), "
                                 f"got {', '.join(map(str, late))}")
    algo = AlgoConfig(
        variant=read("algo.variant", allowed=VARIANTS),
        optimizer=optimizer,
        forward_compressors=tuple(fwd),
        backward_compressors=tuple(bwd),
        batch_size=batch,
        total_steps=steps,
        seed=read("algo.seed", _int, 0, minimum=0),
        sampler_rule=read("algo.sampler_rule", default=SINGLE if batch == 1 else BATCH_BATCHWISE,
                          allowed=RULES),
        p_schedule=read("sampling.p", parse_schedule, Schedule.constant(1.0)),
        momentum_reset_steps=resets,
        force_fresh_at_step_2=read("algo.force_fresh_step2", _bool, False),
    )
    logistic = {} if mlp else dict(
        dataset_dim=read("dataset.dim", _int, 200, minimum=1),
        feature_scale=read("dataset.feature_scale", _float, 0.5, minimum=0.0),
        noise_scale=read("dataset.noise_scale", _float, 0.3, minimum=0.0),
        second_param_is_std=read("dataset.second_param_is_std", _bool, False),
        c_r=read("dataset.c_r", _float, 0.005, minimum=0.0),
    )
    n = read("dataset.n", _int, 1024, minimum=1)
    # numpy must be able to describe the arrays these sizes shape, not that they fit in memory
    width = max(dims) if mlp else logistic["dataset_dim"] + 1
    for key, *shape in (*(("model.dims", a + 1, b) for a, b in zip(dims, (*dims[1:], 1))),
                        ("dataset.dim", width), ("dataset.n", n, dims[0] if mlp else width),
                        ("algo.batch_size", batch, width)):
        if math.prod(shape) > _MAX_FLOAT64S:
            raise ConfigurationError(f"{key}: a {' x '.join(map(str, shape))} float64 array "
                                     "exceeds numpy's size limit")
    if algo.sampler_rule == BATCH_BATCHWISE and batch > n:
        raise ConfigurationError(
            f"algo.batch_size: {batch} exceeds the {n}-sample dataset, which "
            f"{BATCH_BATCHWISE} draws without replacement"
        )
    cfg = ExperimentConfig(
        dataset_kind=dataset_kind,
        dataset_n=n,
        dataset_seed=read("dataset.seed", _int, 7, minimum=0),
        model_dims=dims,
        model_boundaries=bounds,
        algo=algo,
        bandwidth_bps=read("run.bandwidth_bps", _float, 100e6, above=0.0),
        latency_s=read("run.latency_s", _float, 0.0, minimum=0.0),
        log_every=read("run.log_every", _int, 100, minimum=1),
        output=read("run.output", default="metrics.csv"),
        **logistic,
    )
    for key in raw:
        if key not in asked:
            close = difflib.get_close_matches(key, asked, n=1)
            hint = (f"; read only when {_READ_ONLY_WHEN[key]}" if key in _READ_ONLY_WHEN
                    else f"; did you mean {close[0]}?" if close else "")
            raise ConfigurationError(f"{key}: unknown or unused key{hint}")
    return cfg


def read_config_file(path: str | Path) -> dict[str, str]:
    """The key mapping of a config file; an unreadable file is a config error."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise ConfigurationError(f"{path}: cannot read config file ({reason})") from None
    return parse_config_text(text)


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_mapping(read_config_file(path))


# -- run assembly ---------------------------------------------------------

def build_problem(cfg: ExperimentConfig):
    """Returns (chain, engine inputs, init weights, logistic dataset or None)."""
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
    init = [0.4 * w_rng.standard_normal(chain.worker_param_dim(e))
            for e in range(1, chain.num_workers + 1)]
    return chain, inputs, init, None


def run_experiment(cfg: ExperimentConfig, out_path: str | Path | None = None) -> Path:
    """Run the configured experiment, writing each metrics row as it is
    logged, so a run that stops early keeps the rows before the stop. A
    non-finite message or logged objective raises ``DivergenceError``
    naming its step; numpy's overflow warnings on the way are not shown.
    A non-finite simulated time is a ``ConfigurationError``."""
    chain, inputs, init, data = build_problem(cfg)
    engine = PipelineEngine(
        chain, cfg.algo, inputs, init_weights=init,
        bandwidth_bps=cfg.bandwidth_bps, latency_s=cfg.latency_s,
    )
    del init  # the engine holds its own copy
    f_star = ds.compute_f_star(data) if data is not None else 0.0
    out = Path(out_path) if out_path is not None else Path(cfg.output)
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        fh = open(out, "w", newline="")
    except OSError as exc:
        raise ConfigurationError(f"{out}: cannot write metrics file ({exc.strerror})") from None

    with fh, np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for t in range(1, cfg.algo.total_steps + 1):
            f_fu = engine.run_iteration()
            if t % cfg.log_every == 0 or t == cfg.algo.total_steps:
                seconds = engine.ledger.simulated_seconds
                if not math.isfinite(seconds):
                    raise ConfigurationError(
                        f"run.bandwidth_bps = {cfg.bandwidth_bps!r} and run.latency_s = "
                        f"{cfg.latency_s!r} give simulated time {seconds!r} at step {t}")
                loss, gnorm = _exact_objective(chain, inputs, engine)
                if not (math.isfinite(loss) and math.isfinite(gnorm)):
                    raise DivergenceError(f"step {t}: non-finite logged objective "
                                          f"(loss {loss!r}, gradient norm {gnorm!r})")
                writer.writerow([
                    t, repr(loss), repr(loss - f_star), repr(gnorm),
                    engine.ledger.total_bytes(0), engine.ledger.total_bytes(1),
                    repr(seconds), int(f_fu),
                ])
    return out


def _exact_objective(chain, inputs, engine):
    loss, grads = st.chain_gradients(chain, inputs, engine.per_stage_weights())
    return loss, float(np.sqrt(sum(float(g @ g) for g in grads)))


def read_metrics(path: str | Path) -> dict[str, np.ndarray]:
    """Columns of a metrics CSV as float arrays keyed by name."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


# -- memory calculator -----------------------------------------------------

def memory_calculator(
    workers: int, batch: int, samples: int, seq_len: int, hidden: int,
    bytes_per_element: int = 2,
) -> dict[str, float]:
    """Communication-cache bytes of every variant: the rows
    ``VariantPolicy.cache_rows`` gives each direction, of seq_len * hidden
    elements, at both endpoints of each of the workers - 1 boundaries.
    ``clapping_*`` is the lazy variants' batch cache, ``aqsgd_*`` the
    per-sample cache."""
    if workers < 2 or min(batch, samples, seq_len, hidden, bytes_per_element) < 1:
        raise ConfigurationError("memory calculator: needs workers >= 2 and every other input >= 1")
    row_bytes = 2 * (workers - 1) * seq_len * hidden * bytes_per_element
    try:
        out = {variant: float(row_bytes * sum(policy.cache_rows(batch, samples)))
               for variant, policy in VARIANT_POLICY.items()}
    except OverflowError:
        raise ConfigurationError("memory calculator: a cache size exceeds float range") from None
    return {"clapping_bytes": out[CLAPPING_FC], "clapping_gib": out[CLAPPING_FC] / 2**30,
            "aqsgd_bytes": out[AQ_SGD], "aqsgd_gib": out[AQ_SGD] / 2**30, **out}


# -- reference benchmark presets -------------------------------------------

def logistic_benchmark_config(
    variant: str, total_steps: int = 200_000, seed: int = 0, log_every: int = 200,
) -> ExperimentConfig:
    """The noisy-boundary logistic benchmark: gamma starts at 0.1 and
    halves every 40k steps with the momentum buffer cleared at each
    halving; uniform relative noise of amplitude 0.2 is injected on the
    forward boundary, the backward direction is exact.

    The run is in the full-coverage batch regime (every batch of 128 is
    a reshuffle of the whole 128-row dataset, 200 features), so that the
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
        "dataset.n": "128",
        "dataset.dim": "200",
        "dataset.seed": "7",
        "dataset.c_r": "0.005",
        "algo.variant": variant,
        "algo.batch_size": "128",
        "algo.total_steps": str(total_steps),
        "algo.seed": str(seed),
        "algo.sampler_rule": BATCH_BATCHWISE,
        "optimizer.kind": MOMENTUM_SGD,
        "optimizer.gamma": gamma,
        "optimizer.momentum": "0.1",
        "optimizer.reset_steps": ",".join(str(r) for r in resets),
        "sampling.p": "0.05",
        "compressor.forward": "inject_uniform:0.2",
        "compressor.backward": "identity",
        "run.log_every": str(log_every),
        "run.output": "metrics.csv",
    }
    return config_from_mapping(raw)
