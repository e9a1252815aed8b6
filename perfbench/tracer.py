"""In-memory span tracer and the call-site wrappers that feed it.

Spans are kept in flat arrays (name id, parent, root, start, end) so a
30-second run of a sub-millisecond workload stays a few megabytes. Every
span belongs to a root span: a ``setup`` root covers the work before an
op (building the problem, the reference-optimum solve, engine init), an
``op`` root covers one op and carries a label (the variant, or the wire
format and dimension). A span's self time is its duration minus the
durations of its direct children.

``instrument`` wraps the library's public functions where the library
calls them (module attributes and class methods), records a span per
call and counts work at the same boundaries; ``Patches.undo`` restores
the originals.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

SETUP = "setup"
OP = "op"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.root_label: dict[int, str] = {}
        self.on_root_end: list = []   # callables run just before a root closes
        # counters[root kind][name], summed over every root of that kind
        self.counters: dict[str, dict[str, float]] = {SETUP: defaultdict(float), OP: defaultdict(float)}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self.stack
        self.name_id.append(nid)
        if stack:
            self.parent.append(stack[-1])
            self.root.append(stack[0])
        else:
            self.parent.append(-1)
            self.root.append(idx)
        stack.append(idx)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError(f"span {self.names[self.name_id[idx]]} closed out of order")

    def root_kind(self) -> str | None:
        return self.names[self.name_id[self.stack[0]]] if self.stack else None

    def count(self, name: str, value: float = 1.0) -> None:
        kind = self.root_kind()
        if kind is not None:
            self.counters[kind][name] += value

    def begin_root(self, kind: str, label: str = "") -> None:
        """Close whatever root is open and start a new one."""
        self.end_root()
        self.root_label[self.open(self.intern(kind))] = label

    def end_root(self) -> None:
        if self.stack:
            if len(self.stack) != 1:
                raise RuntimeError("a root span ended while child spans were open")
            for fn in self.on_root_end:
                fn()
            self.close(self.stack[0])

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` inside a span; ``before(args)`` and ``after(args, out)``
        run just outside it, under the same root."""
        nid = self.intern(name)
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[idx]
        return own

    def summary(self):
        """Per (root kind, span name): [calls, total s, self s]; per (span
        name, op label): the same over op roots; and the op count per
        label."""
        own = self.self_times()
        by_kind = defaultdict(lambda: [0, 0.0, 0.0])
        by_label = defaultdict(lambda: [0, 0.0, 0.0])
        ops = defaultdict(int)
        names, nid, root = self.names, self.name_id, self.root
        for idx, r in enumerate(root):
            kind = names[nid[r]]
            name = names[nid[idx]]
            row = by_kind[(kind, name)]
            d = self.end[idx] - self.start[idx]
            row[0] += 1
            row[1] += d
            row[2] += own[idx]
            if kind == OP:
                label = self.root_label[r]
                if idx == r:
                    ops[label] += 1
                row = by_label[(name, label)]
                row[0] += 1
                row[1] += d
                row[2] += own[idx]
        return by_kind, by_label, ops


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the library's public calls at the sites where it calls them."""
    from clapping_sim import compressors, datasets, engine, stages, wire

    produced: dict[int, object] = {}   # input adjoints computed during the current op
    consumed: set[int] = set()

    def track_use(v) -> None:
        if id(v) in produced:
            consumed.add(id(v))

    def stage_args(args) -> None:
        if len(args) > 3:
            track_use(args[3])

    def adjoint_out(args, out) -> None:
        if tracer.root_kind() == OP:
            produced[id(out)] = out
            tracer.count("stages.adjoints")

    def settle_adjoints() -> None:
        tracer.count("stages.adjoints_used", len(consumed))
        produced.clear()
        consumed.clear()

    tracer.on_root_end.append(settle_adjoints)

    # Stage calls made inside chain_gradients (the exact-objective logging
    # and the optimum solve) are recorded as ``stages.<name>.in_chain`` so
    # that ``stages.<name>`` holds the engine's own stage calls only.
    in_chain = [0]

    def gradients_before(args) -> None:
        if tracer.stack and tracer.names[tracer.name_id[tracer.stack[-1]]] == "datasets.compute_f_star":
            tracer.count("datasets.fstar_gradient_evals")

    traced_chain = tracer.wrap(stages.chain_gradients, "stages.chain_gradients", gradients_before)

    def chain_gradients(*args, **kwargs):
        in_chain[0] += 1
        try:
            return traced_chain(*args, **kwargs)
        finally:
            in_chain[0] -= 1

    chain_gradients.__wrapped__ = stages.chain_gradients
    patches.set(stages, "chain_gradients", chain_gradients)

    def stage_wrapper(fn, name: str):
        after = adjoint_out if name == "backward_input" else None
        engine_call = tracer.wrap(fn, f"stages.{name}", stage_args, after)
        chain_call = tracer.wrap(fn, f"stages.{name}.in_chain")

        def stage(*args, **kwargs):
            return (chain_call if in_chain[0] else engine_call)(*args, **kwargs)

        stage.__wrapped__ = fn
        return stage

    for name in ("forward", "backward_input", "backward_weight"):
        patches.set(stages, f"stage_{name}", stage_wrapper(getattr(stages, f"stage_{name}"), name))

    def batch_bytes(args, out) -> None:
        x = args[1]
        tracer.count("compressors.payload_bytes", out[1])
        tracer.count("compressors.dense_bytes", 4 * x.shape[0] * x.shape[1])

    def single_bytes(args, out) -> None:
        tracer.count("compressors.payload_bytes", out.encoded_bytes)
        tracer.count("compressors.dense_bytes", 4 * len(args[1]))

    patches.set(compressors, "compress_batch",
                tracer.wrap(compressors.compress_batch, "compressors.compress_batch", after=batch_bytes))
    patches.set(compressors, "compress",
                tracer.wrap(compressors.compress, "compressors.compress", after=single_bytes))

    def message_bytes(args, out) -> None:
        label = tracer.root_label.get(tracer.stack[0], "") if tracer.stack else ""
        tracer.count(f"wire.message_bytes.{label}", len(out))

    def ledger_bytes(args, out) -> None:
        nbytes = args[3]
        value = args[4] if len(args) > 4 and args[4] is not None else nbytes
        tracer.count("wire.ledger_payload_bytes", nbytes)
        tracer.count("wire.ledger_value_bytes", value)

    patches.set(wire, "encode_message",
                tracer.wrap(wire.encode_message, "wire.encode_message", after=message_bytes))
    patches.set(wire, "decode_message", tracer.wrap(wire.decode_message, "wire.decode_message"))
    patches.set(wire.TransferLedger, "record",
                tracer.wrap(wire.TransferLedger.record, "wire.ledger_record", after=ledger_bytes))

    def sample_rows(args, out) -> None:
        refreshed = out[1]
        tracer.count("sampling.fresh_rows", int(refreshed.sum()))
        tracer.count("sampling.rows", len(refreshed))

    def optim_params(args) -> None:
        tracer.count("optim.params", len(args[1] if len(args) == 5 else args[2]))

    patches.set(engine, "lazy_sample",
                tracer.wrap(engine.lazy_sample, "sampling.lazy_sample", after=sample_rows))
    patches.set(engine, "momentum_update",
                tracer.wrap(engine.momentum_update, "optim.update", optim_params))
    patches.set(engine, "adam_update", tracer.wrap(engine.adam_update, "optim.update", optim_params))

    cls = engine.PipelineEngine
    patches.set(cls, "run_iteration", tracer.wrap(cls.run_iteration, "engine.run_iteration"))
    patches.set(cls, "forward_exchange", tracer.wrap(cls.forward_exchange, "engine.forward_exchange"))
    patches.set(cls, "backward_exchange",
                tracer.wrap(cls.backward_exchange, "engine.backward_exchange",
                            lambda args: track_use(args[2])))

    patches.set(datasets, "gen_logistic_dataset",
                tracer.wrap(datasets.gen_logistic_dataset, "datasets.gen_logistic_dataset"))
    patches.set(datasets, "compute_f_star",
                tracer.wrap(datasets.compute_f_star, "datasets.compute_f_star"))

