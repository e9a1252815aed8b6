"""The three benchmark workloads, their op timing and their correctness gate.

An op is one training step in the run workloads and one message round
trip in ``wire_codec``. Op boundaries are timestamped from outside the
library: the run workloads wrap ``PipelineEngine.run_iteration`` so each
step (plus the exact-objective logging that follows it) runs from one
step start to the next; ``wire_codec`` drives its own loop.

The caller must pin the BLAS thread count before this module imports
numpy (see worker.py): the metrics CSV is byte-identical only at a fixed
thread count.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clapping_sim import compressors, harness, wire
from clapping_sim.engine import VARIANTS, PipelineEngine
from clapping_sim.rng import named_stream

from .tracer import OP, SETUP, Patches, Tracer, instrument

RUN_WORKLOADS = ("logistic_ref", "mlp_wide_topk")
WORKLOADS = RUN_WORKLOADS + ("wire_codec",)

LOGISTIC_STEPS = 1000
LOGISTIC_LOG_EVERY = 200
# 120 steps logged every 100 gives two logged steps per run (1.7% of
# ops), so op_ms_p99 falls inside the logged steps instead of on the
# edge between logged and plain steps.
MLP_STEPS = 120
MLP_LOG_EVERY = 100
MLP_CONFIG = {
    "dataset.kind": "synthetic_mlp",
    "dataset.n": "1024",
    "model.kind": "tanh_mlp",
    "model.dims": "512,512,512,512,512",
    "model.boundaries": "2,4,6",
    "algo.variant": "clapping_fc",
    "algo.batch_size": "128",
    "algo.sampler_rule": "batch_batchwise",
    "sampling.p": "0.1",
    "compressor.forward": "topk:51",
    "compressor.backward": "topk:51",
    "algo.total_steps": str(MLP_STEPS),
    "run.log_every": str(MLP_LOG_EVERY),
}

WIRE_DIMS = (201, 4096)
WIRE_FORMATS = (  # (metric name, compressor syntax with k = d // 10)
    ("dense", "identity"),
    ("topk", "topk:{k}"),
    ("randk", "randk:{k}"),
    ("quant8", "quant:8"),
    ("natural", "natural"),
    ("compose", "topk:{k}+quant:8"),
)
FLOAT32_FORMATS = ("dense", "topk", "randk")  # values travel as float32
# 201-d (the reference input width) messages run three times per round
# and 4096-d ones once, so the op median sits inside the 201-d cluster
# rather than on the edge between the two shapes.
WIRE_REPEATS = {201: 3, 4096: 1}
WIRE_POOL = 8  # distinct seeded vectors per dimension
HEADER_BYTES = 8
# On the 2-vCPU Xeon VM the bounds were set on, speed drifts by up to
# 1.7x over seconds to minutes, with CPU time tracking wall time and no
# steal time, so the CPU itself runs slower. Op times are therefore
# scaled to a reference speed: a fixed slice of Python and numpy work
# that does not touch clapping_sim runs between ops after every
# CAL_EVERY_S of op time, and each op's duration is multiplied by
# REF_CAL_S / (the time of the slices around it).
CAL_EVERY_S = 0.2
REF_CAL_S = 0.010  # about one slice's time on the 2-vCPU Xeon the bounds were set on
SETUP_CAL_SLICES = 10  # slices that scale setup_s, run just after set-up
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((128, 128))
_CAL_WIDE = _CAL_RNG.standard_normal(4096)
_CAL_NARROW = _CAL_RNG.standard_normal(201)

DIGESTS = Path(__file__).with_name("digests.json")


class SetupDone(Exception):
    """Raised at the first op boundary of a setup-only process."""


@dataclass
class _CalRecord:
    index: int
    value: float


def _cal_add(a, b=1.0):
    return a + b


def calibration_slice() -> float:
    """Seconds taken by a fixed mix of interpreter loops, object and
    string handling, numpy calls on small vectors (as in the codec) and
    a few wider numpy kernels. Probes found each part tracks some
    workloads' slowdowns better than the others."""
    t0 = time.perf_counter()
    acc, counts, out = 0, {}, []
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFF
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0) + 1
        rec = _CalRecord(i, i * 0.5)
        out.append((_cal_add(rec.index, b=rec.value), f"{i}:{rec.value}"))
    for _ in range(100):
        x = _CAL_NARROW * 1.5
        top = np.argpartition(np.abs(x), -20)[-20:]
        q = np.round(x / np.abs(x).max() * 127).astype(np.int8)
        body = q.tobytes() + x[top].astype(np.float32).tobytes()
        np.frombuffer(body[:201], dtype=np.int8).astype(np.float64)
        np.clip(np.sign(x), -1, 1)
    for _ in range(6):
        _CAL_MATRIX @ _CAL_MATRIX
        np.argsort(_CAL_WIDE, kind="stable")
        np.cumsum(_CAL_WIDE)
    return time.perf_counter() - t0


@dataclass
class OpLog:
    """Durations between op boundaries, the calibration slice that ends
    each segment of ops, and the monotonic time, process CPU time and
    machine steal time at the first boundary (the end of setup)."""

    stop_at_first: bool = False
    durations: list = field(default_factory=list)
    segments: list = field(default_factory=list)  # (end index into durations, slice s)
    setup_cal: list = field(default_factory=list)
    first_op_at: float | None = None
    first_op_cpu: float = 0.0
    first_op_steal: float = 0.0
    cpus: set = field(default_factory=set)
    _open: float | None = None
    _since_cal: float = 0.0

    def boundary(self) -> None:
        if self.first_op_at is None:
            self.first_op_at = time.monotonic()
            self.first_op_cpu = time.process_time()
            self.first_op_steal = steal_s()
            self.setup_cal = [calibration_slice() for _ in range(SETUP_CAL_SLICES)]
            if self.stop_at_first:
                raise SetupDone
        self.close()
        if self._since_cal >= CAL_EVERY_S:
            self.calibrate()
        self._open = time.perf_counter()

    def close(self) -> None:
        if self._open is not None:
            d = time.perf_counter() - self._open
            self.durations.append(d)
            self._since_cal += d
            self._open = None

    def started(self) -> int:
        return len(self.durations) + (self._open is not None)

    def calibrate(self) -> None:
        self.segments.append((len(self.durations), calibration_slice()))
        self._since_cal = 0.0
        self.cpus.add(current_cpu())

    def finish(self) -> None:
        """Close the last op and calibrate the last segment."""
        self.close()
        if not self.segments or self.segments[-1][0] < len(self.durations):
            self.calibrate()

    def setup_scale(self) -> float:
        return REF_CAL_S / float(np.median(self.setup_cal))

    def scaled(self) -> np.ndarray:
        """Op durations in reference seconds (call finish first). A
        segment is scaled by the median of its own slice and the two on
        either side, so one disturbed slice does not rescale its ops."""
        d = np.asarray(self.durations, dtype=float)
        cal = [c for _, c in self.segments]
        start = 0
        for i, (end, _) in enumerate(self.segments):
            d[start:end] *= REF_CAL_S / float(np.median(cal[max(0, i - 2):i + 3]))
            start = end
        return d


def op_figures(durations) -> dict[str, float]:
    """ops_per_s, op_ms_p50 and op_ms_p99 over every op of a run."""
    d = np.asarray(durations)
    return {"ops_per_s": len(d) / float(d.sum()),
            "op_ms_p50": float(np.percentile(d, 50)) * 1e3,
            "op_ms_p99": float(np.percentile(d, 99)) * 1e3}


def steal_s() -> float:
    """Seconds the hypervisor has run other guests on this machine's
    CPUs while it wanted them (the steal column of /proc/stat)."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def current_cpu() -> int:
    """CPU this process last ran on (field 39 of /proc/self/stat)."""
    stat = Path("/proc/self/stat").read_text()
    return int(stat.rsplit(")", 1)[1].split()[36])


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # CSV digests seen, by digest_key

    def fail(self, ops: int, reason: str) -> None:
        self.failed += ops
        if len(self.reasons) < 5:
            self.reasons.append(reason)


# -- run workloads ---------------------------------------------------------

def run_configs(workload: str, seed: int):
    """(variant, ExperimentConfig) pairs making up one round."""
    if workload == "logistic_ref":
        return [
            (v, harness.logistic_benchmark_config(
                v, total_steps=LOGISTIC_STEPS, seed=seed, log_every=LOGISTIC_LOG_EVERY))
            for v in VARIANTS
        ]
    raw = dict(MLP_CONFIG, **{"algo.seed": str(seed), "dataset.seed": str(seed)})
    return [("clapping_fc", harness.config_from_mapping(raw))]


def run_rounds(workload: str, seed: int, seconds: float, out_dir: Path, ops: OpLog,
               tracer: Tracer | None = None):
    """Run whole rounds of the workload until ``seconds`` have passed
    since the first op; returns [(variant, ops attempted, csv bytes or
    the exception)]. Raises SetupDone in a setup-only process."""
    configs = run_configs(workload, seed)
    patches = Patches()
    if tracer is not None:
        instrument(tracer, patches)
    inner = PipelineEngine.run_iteration

    def run_iteration(self, *args, **kwargs):
        if tracer is not None:
            tracer.end_root()  # a calibration slice belongs to no op
        ops.boundary()
        if tracer is not None:
            tracer.begin_root(OP, self.config.variant)
        return inner(self, *args, **kwargs)

    patches.set(PipelineEngine, "run_iteration", run_iteration)
    rounds = []
    try:
        while True:
            for variant, cfg in configs:
                if tracer is not None:
                    tracer.begin_root(SETUP)
                before = ops.started()
                out = out_dir / f"{workload}-{variant}.csv"
                try:
                    harness.run_experiment(cfg, out)
                    result = out.read_bytes()
                except SetupDone:
                    raise
                except Exception as exc:  # a failed run still ends the round
                    result = exc
                ops.close()
                if tracer is not None:
                    tracer.end_root()
                rounds.append((variant, ops.started() - before, result))
            if ops.first_op_at is None or time.monotonic() - ops.first_op_at >= seconds:
                return rounds
    finally:
        patches.undo()


def digest_key(workload: str, variant: str, seed: int) -> str:
    return f"{workload}/{variant}/seed={seed}"


def load_digests(fingerprint: str) -> dict[str, str]:
    """Recorded CSV digests for this numpy/BLAS build and thread pin."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(fingerprint, {})


def csv_invariants(text: bytes, steps: int, log_every: int) -> str | None:
    """Seed-independent checks on a metrics CSV; returns the first
    violation or None."""
    try:
        rows = list(csv.reader(io.StringIO(text.decode())))
        if not rows or tuple(rows[0]) != harness.CSV_COLUMNS:
            return "bad header"
        logged = [int(r[0]) for r in rows[1:]]
        cols = {name: [float(r[i]) for r in rows[1:]] for i, name in enumerate(rows[0])}
    except (UnicodeDecodeError, ValueError, IndexError) as exc:
        return f"unparseable CSV ({exc})"
    if logged != sorted(set(range(log_every, steps + 1, log_every)) | {steps}):
        return "logged steps differ from the schedule"
    if not all(math.isfinite(v) for col in cols.values() for v in col):
        return "non-finite value"
    if min(cols["loss_gap"]) < -1e-12:
        return "loss below the reference optimum"
    for name in ("fwd_bytes", "bwd_bytes", "sim_seconds"):
        col = cols[name]
        if any(b < a for a, b in zip(col, col[1:])):
            return f"{name} decreased"
    return None


def check_rounds(workload: str, seed: int, rounds, fingerprint: str, outcome: Outcome) -> None:
    """Digest (or invariant) check per round, and every round of a
    variant byte-identical to its first."""
    digests = load_digests(fingerprint)
    steps, log_every = ((LOGISTIC_STEPS, LOGISTIC_LOG_EVERY) if workload == "logistic_ref"
                        else (MLP_STEPS, MLP_LOG_EVERY))
    first: dict[str, bytes] = {}
    for variant, n_ops, result in rounds:
        outcome.attempted += max(n_ops, 1)
        if isinstance(result, Exception):
            outcome.fail(max(n_ops, 1), f"{variant}: {result!r}")
            continue
        key = digest_key(workload, variant, seed)
        outcome.digests.setdefault(key, sha256(result))
        if key in digests:
            problem = None if sha256(result) == digests[key] else "digest mismatch"
        else:
            problem = csv_invariants(result, steps, log_every)
        if problem is None and first.setdefault(variant, result) != result:
            problem = "differs from the first round of the same seed"
        if problem is not None:
            outcome.fail(n_ops, f"{variant}: {problem}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- wire codec workload ---------------------------------------------------

@dataclass(frozen=True)
class MessageKind:
    fmt: str
    dim: int
    spec: compressors.CompressorSpec
    bits: int
    inner: int

    @property
    def label(self) -> str:
        return f"{self.fmt}.{self.dim}"


def message_kinds() -> list[MessageKind]:
    kinds = []
    for d in WIRE_DIMS:
        for fmt, syntax in WIRE_FORMATS:
            spec = harness.parse_compressor(fmt, syntax.format(k=d // 10))
            bits = 8 if fmt in ("quant8", "compose") else 0
            inner = wire.FMT_QUANT if fmt == "compose" else wire.FMT_DENSE
            kinds.append(MessageKind(fmt, d, spec, bits, inner))
    return kinds


def wire_schedule() -> list[MessageKind]:
    """One round of messages: every kind, 201-d ones repeated."""
    return [k for k in message_kinds() for _ in range(WIRE_REPEATS[k.dim])]


def wire_vectors(seed: int) -> dict[int, list[np.ndarray]]:
    return {d: [named_stream(seed, f"perfbench/wire/{d}/{j}").standard_normal(d)
                for j in range(WIRE_POOL)] for d in WIRE_DIMS}


def check_message(kind: MessageKind, step: int, direction: int, payload, message: bytes,
                  header, values) -> str | None:
    if len(message) != HEADER_BYTES + wire.body_size(payload.body):
        return "message length is not 8 + body_size"
    if header != (step, 0, direction, payload.body.fmt):
        return "header fields changed in transit"
    recon = payload.reconstruction
    want = recon.astype(np.float32).astype(np.float64) if kind.fmt in FLOAT32_FORMATS else recon
    if values.shape != want.shape or not np.array_equal(values, want):
        return "decoded values differ from the reconstruction"
    return None


def run_wire(seed: int, seconds: float, ops: OpLog, outcome: Outcome,
             tracer: Tracer | None = None) -> None:
    """Round trips compress -> encode -> decode, each checked, until
    ``seconds`` have passed since the first op."""
    patches = Patches()
    if tracer is not None:
        instrument(tracer, patches)
        tracer.begin_root(SETUP)
    try:
        schedule = wire_schedule()
        vectors = wire_vectors(seed)
        rng = named_stream(seed, "perfbench/wire/randk")
        i = 0
        while True:
            kind = schedule[i % len(schedule)]
            x = vectors[kind.dim][(i // len(schedule)) % WIRE_POOL]
            direction = i % 2
            ops.boundary()
            if tracer is not None:
                tracer.begin_root(OP, kind.label)
            try:
                payload = compressors.compress(kind.spec, x, rng)
                message = wire.encode_message(i, 0, direction, payload.body)
                header, values = wire.decode_message(message, kind.dim, kind.bits, kind.inner)
            except Exception as exc:  # a failed op must not stop the run
                problem = repr(exc)
            else:
                problem = None
            ops.close()
            if tracer is not None:
                tracer.end_root()
            outcome.attempted += 1
            if problem is None:
                problem = check_message(kind, i, direction, payload, message, header, values)
            if problem is not None:
                outcome.fail(1, f"{kind.label}: {problem}")
            i += 1
            if i % len(schedule) == 0 and time.monotonic() - ops.first_op_at >= seconds:
                return
    finally:
        patches.undo()


def run_workload(workload: str, seed: int, seconds: float, out_dir: Path, ops: OpLog,
                 fingerprint: str, tracer: Tracer | None = None) -> Outcome:
    outcome = Outcome()
    if workload == "wire_codec":
        run_wire(seed, seconds, ops, outcome, tracer)
    else:
        rounds = run_rounds(workload, seed, seconds, out_dir, ops, tracer)
        check_rounds(workload, seed, rounds, fingerprint, outcome)
    return outcome


# -- per-layer metrics -------------------------------------------------------

STAGE_SPANS = ("stages.forward", "stages.backward_input", "stages.backward_weight")
CHAIN_STAGE_SPANS = tuple(f"{s}.in_chain" for s in STAGE_SPANS)  # under chain_gradients
EXCHANGE_SPANS = ("engine.forward_exchange", "engine.backward_exchange")


def layer_metrics(tracer: Tracer, run_workload: bool) -> dict[str, tuple[float, str]]:
    """Per-layer figures from a traced run, per op unless the name says
    otherwise. A layer the workload never calls reads 0."""
    by_kind, by_label, ops = tracer.summary()
    n_ops = max(sum(ops.values()), 1)
    setup = tracer.counters[SETUP]
    count = tracer.counters[OP]

    def op(name, col=1):  # col: 0 calls, 1 seconds, 2 self seconds, under op roots
        return by_kind[(OP, name)][col]

    def setup_total(name, col=1):
        return by_kind[(SETUP, name)][col]

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call_us(name, label):
        calls, total, _ = by_label[(name, label)]
        return ratio(total, calls) * 1e6

    m = {
        "stages.forward_ms": (op("stages.forward") / n_ops * 1e3, "ms"),
        "stages.backward_input_ms": (op("stages.backward_input") / n_ops * 1e3, "ms"),
        "stages.backward_weight_ms": (op("stages.backward_weight") / n_ops * 1e3, "ms"),
        "stages.calls": (sum(op(s, 0) for s in STAGE_SPANS) / n_ops, "count"),
        "stages.useful_adjoint_ratio": (ratio(count["stages.adjoints_used"], count["stages.adjoints"]),
                                        "ratio"),
        "stages.setup_calls": (sum(setup_total(s, 0) for s in STAGE_SPANS + CHAIN_STAGE_SPANS),
                               "count"),
        "compressors.batch_ms": (op("compressors.compress_batch") / n_ops * 1e3, "ms"),
        "compressors.batch_calls": (op("compressors.compress_batch", 0) / n_ops, "count"),
        "compressors.payload_ratio": (ratio(count["compressors.payload_bytes"],
                                            count["compressors.dense_bytes"]), "ratio"),
        "wire.ledger_us": (op("wire.ledger_record") / n_ops * 1e6, "us"),
        "wire.payload_bytes": (count["wire.ledger_payload_bytes"] / n_ops, "bytes"),
        "wire.value_share": (ratio(count["wire.ledger_value_bytes"],
                                   count["wire.ledger_payload_bytes"]), "ratio"),
        "engine.self_ms": (op("engine.run_iteration", 2) / n_ops * 1e3, "ms"),
        "engine.exchange_self_ms": (sum(op(s, 2) for s in EXCHANGE_SPANS) / n_ops * 1e3, "ms"),
        "sampling.ms": (op("sampling.lazy_sample") / n_ops * 1e3, "ms"),
        "sampling.fresh_share": (ratio(count["sampling.fresh_rows"], count["sampling.rows"]), "ratio"),
        "optim.ms": (op("optim.update") / n_ops * 1e3, "ms"),
        "optim.params": (count["optim.params"] / n_ops, "count"),
        "datasets.fstar_s": (setup_total("datasets.compute_f_star"), "s"),
        "datasets.fstar_iters": (setup["datasets.fstar_gradient_evals"], "count"),
        "datasets.gen_s": (setup_total("datasets.gen_logistic_dataset"), "s"),
        "harness.log_ms": (op("stages.chain_gradients") / n_ops * 1e3, "ms"),
        "harness.self_ms": (op(OP, 2) / n_ops * 1e3 if run_workload else 0.0, "ms"),
    }
    for fmt, _ in WIRE_FORMATS:
        for d in WIRE_DIMS:
            label = f"{fmt}.{d}"
            m[f"compressors.compress_us.{label}"] = (per_call_us("compressors.compress", label), "us")
            m[f"wire.encode_us.{label}"] = (per_call_us("wire.encode_message", label), "us")
            m[f"wire.decode_us.{label}"] = (per_call_us("wire.decode_message", label), "us")
            calls = by_label[("wire.encode_message", label)][0]
            m[f"wire.message_bytes.{label}"] = (ratio(count[f"wire.message_bytes.{label}"], calls),
                                                "bytes")
    for v in VARIANTS:
        m[f"engine.step_ms.{v}"] = (per_call_us("engine.run_iteration", v) / 1e3, "ms")
    return m
