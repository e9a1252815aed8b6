"""Contractive compressors with exact wire-payload accounting.

Each compressor maps a vector x to a reconstruction C(x) the receiving
worker decodes, together with the exact byte size of the message that
would carry it. Every message goes through compress_batch; a dense link
is identity compression. One pass over the rows makes both the
reconstruction and the fields of its wire body; compress is the one-row
case, with the same stream draws, that also returns the body for the
codec. Deterministic kinds ignore the rng handle and are pure.

``KIND_TABLE`` holds each kind in one row: its config name, the one
``CompressorSpec`` field it reads, its wire format, whether it is
stochastic, its rows function and its contraction bound omega^2 on the
worst case of E||x - C(x)||^2 / ||x||^2. Top-k attains its bound on
all-equal magnitudes, rand-k in expectation, uniform_quant on
(scale, step/2, ..., step/2), natural within its exponent range.
inject_uniform is a noise-injection pseudo-compressor and not contractive.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import halves, stages, wire
from .errors import ConfigurationError, ContractViolation

IDENTITY = "identity"
TOPK = "topk"
RANDK = "randk"
UNIFORM_QUANT = "uniform_quant"
NATURAL = "natural"
COMPOSE = "compose"
INJECT_UNIFORM = "inject_uniform"

NATURAL_EXP_MIN = -63
NATURAL_EXP_MAX = 63
_SPLIT_ENTRIES = 3 << 14  # batch entries above which compress_batch may run as two halves


@dataclass(frozen=True)
class CompressorSpec:
    """One compressor; its kind reads at most one field, the others keep
    their defaults. Fixed when built: ``arg``, the value of that field;
    ``widest``, the member with the largest k; ``stochastic``; and the wire
    format ``wire.sizes`` takes: ``fmt``, ``wire_bits`` and ``value_fmt``,
    the last member's format, or dense after a sparse one."""

    kind: str
    k: int = 0
    bits: int = 0
    amplitude: float = 0.0
    inner: tuple = ()

    def __post_init__(self):
        row = KIND_TABLE.get(self.kind)
        if row is None:
            raise ConfigurationError(f"unknown compressor kind {self.kind!r}")
        for name, default in _FIELD_DEFAULTS.items():
            value = getattr(self, name)
            if row.field and name == row.field.name:
                if isinstance(value, bool) or not isinstance(value, _ACCEPTS[row.field.type]):
                    raise ConfigurationError(f"{self.kind} {name} must be of type "
                                             f"{row.field.type.__name__}, got {value!r}")
                if not row.field.ok(value):
                    raise ConfigurationError(f"{self.kind} {name} must be {row.field.text}, "
                                             f"got {value!r}")
            elif value != default:
                raise ConfigurationError(f"{self.kind} does not read {name}, got {value!r}")
        members = self.inner or (self,)
        last = KIND_TABLE[members[-1].kind].fmt
        object.__setattr__(self, "arg", getattr(self, row.field.name) if row.field else None)
        object.__setattr__(self, "widest", max(members, key=lambda m: m.k))
        object.__setattr__(self, "fmt", row.fmt)
        object.__setattr__(self, "wire_bits", members[-1].bits)
        object.__setattr__(self, "value_fmt",
                           last if self.inner and last != wire.FMT_SPARSE else wire.FMT_DENSE)
        object.__setattr__(self, "stochastic",
                           row.stochastic or any(m.stochastic for m in self.inner))


_FIELD_DEFAULTS = {f.name: f.default for f in dataclasses.fields(CompressorSpec)[1:]}
_ACCEPTS = {int: (int, np.integer), float: (int, float, np.integer, np.floating), tuple: tuple}


@dataclass(frozen=True)
class CompressedPayload:
    reconstruction: np.ndarray
    encoded_bytes: int
    value_bytes: int
    body: wire.WireBody


# rows functions: (x, arg, rng) -> (reconstruction of the (B, d) x, fields),
# where fields are the per-row arrays a wire body needs besides it

def _topk_rows(x: np.ndarray, k: int, rng):
    """Keeps each row's k largest magnitudes, ties to the lower index: every
    magnitude above the k-th largest, then those equal to it, lowest index
    first, the mask a stable descending sort gives. Fields: the mask."""
    d = x.shape[-1]
    mag = np.abs(x).reshape(-1, d)
    kth = np.partition(mag, d - k, axis=-1)[:, d - k, None]
    mask = mag >= kth
    over = np.count_nonzero(mask, axis=-1) > k  # rows with more ties than free slots
    if over.any():
        rows, row_kth = mag[over], kth[over]
        above = rows > row_kth
        tied = rows == row_kth
        free = k - np.count_nonzero(above, axis=-1)
        mask[over] = above | (tied & (np.cumsum(tied, axis=-1) <= free[:, None]))
    del mag, kth  # so np.where below can reuse their memory: measurably faster at 128 x 512
    mask = mask.reshape(x.shape)
    return np.where(mask, x, 0.0), (mask,)


def _randk_rows(x: np.ndarray, k: int, rng):
    """Keeps k coordinates per row drawn uniformly from the stream. Fields: the mask."""
    if rng is None:
        raise ContractViolation("randk needs a random stream")
    mask = np.zeros(x.shape, dtype=bool)
    np.put_along_axis(mask, np.argsort(rng.random(x.shape), axis=-1)[:, :k], True, axis=-1)
    return np.where(mask, x, 0.0), (mask,)


def _quant_rows(x: np.ndarray, bits: int, rng):
    """Scales each row by max|x_i|, sent as one float32, onto 2^bits - 1
    levels of width 2*scale/(2^bits - 1), rounding half away from zero.
    Fields: the float32 scales and the integer codes."""
    levels_half = (1 << (bits - 1)) - 1
    peak = np.abs(x).max(axis=-1, keepdims=True, initial=0.0)  # 0 for a row of width 0
    if (peak > np.finfo(np.float32).max).any():  # the scale travels as one float32
        raise ContractViolation(f"uniform_quant: |x| = {peak.max():.4g} exceeds the float32 "
                                f"scale limit {np.finfo(np.float32).max:.4g}")
    scale32 = peak.astype(np.float32)
    step = 2.0 * scale32.astype(np.float64) / (2**bits - 1)
    safe = np.where(step > 0, step, 1.0)
    codes = np.sign(x) * np.floor(np.abs(x) / safe + 0.5)
    codes = np.clip(codes, -levels_half, levels_half)
    return codes * step, (scale32, codes.astype(np.int64))


def _natural_rows(x: np.ndarray, _, rng):
    """Rounds magnitudes to the nearest power of two (ties up), keeping the
    sign and zero; exponents clamp to [-63, 63], flushing smaller ones to
    zero. Fields: the wire bytes, the sign bit (0x80) OR'd with
    exponent + 64, or 0 for zero and flushed entries."""
    mant, exp = np.frexp(np.abs(x))  # |x| = mant * 2^exp, mant in [0.5, 1)
    exp = exp - 1                    # |x| = (2*mant) * 2^exp, 2*mant in [1, 2)
    exp = np.where(2.0 * mant >= 1.5, exp + 1, exp)
    live = (x != 0.0) & (exp >= NATURAL_EXP_MIN)
    exp = np.clip(exp, NATURAL_EXP_MIN, NATURAL_EXP_MAX)
    recon = np.where(live, np.sign(x) * np.ldexp(1.0, exp), 0.0)
    codes = np.where(live, (exp + 64) | np.where(x < 0.0, 0x80, 0), 0).astype(np.uint8)
    return recon, (codes,)


def _compose_rows(x: np.ndarray, inner: tuple, rng):
    """Members left to right. Fields: the last member's, over what it saw."""
    for m in inner:
        x, fields = KIND_TABLE[m.kind].rows(x, m.arg, rng)
    return x, fields


def _inject_rows(x: np.ndarray, amplitude: float, rng):
    """C(x) = x * (1 + U(-a, a)) elementwise: the error scales with x."""
    if rng is None:
        raise ContractViolation("inject_uniform needs a random stream")
    return x * (1.0 + rng.uniform(-amplitude, amplitude, size=x.shape)), ()


def _compose_bound(inner: tuple, dim: int) -> float:
    # ||x - C2(C1(x))|| <= ||C1(x) - C2(C1(x))|| + ||x - C1(x)||
    # folds member by member as omega <- omega_i + omega_acc * (1 + omega_i)
    omega = 0.0
    for member in inner:
        w_i = float(np.sqrt(contraction_bound(member, dim)))
        omega = w_i + omega * (1.0 + w_i)
    if omega >= 1.0:
        raise ConfigurationError(f"composition is not contractive (omega={omega:.3f})")
    return omega**2


class Field(NamedTuple):
    """The field a kind reads: its name, the type of its config argument,
    and its range as text and as a test."""

    name: str
    type: type
    text: str
    ok: Callable


class Kind(NamedTuple):
    name: str | None  # in the config syntax; members joined by "+" compose
    field: Field | None
    fmt: int
    stochastic: bool  # a composition is stochastic if a member is
    rows: Callable
    bound: Callable | None  # (arg, d) -> omega^2; None: not contractive


_K = Field("k", int, ">= 1", lambda k: k >= 1)
KIND_TABLE = {
    IDENTITY: Kind("identity", None, wire.FMT_DENSE, False,
                   lambda x, _, rng: (x.copy(), ()), lambda _, d: 0.0),
    TOPK: Kind("topk", _K, wire.FMT_SPARSE, False, _topk_rows, lambda k, d: 1.0 - k / d),
    RANDK: Kind("randk", _K, wire.FMT_SPARSE, True, _randk_rows, lambda k, d: 1.0 - k / d),
    UNIFORM_QUANT: Kind("quant", Field("bits", int, f"in {wire.QUANT_WIDTHS}",
                                       lambda b: b in wire.QUANT_BITS),
                        wire.FMT_QUANT, False, _quant_rows,
                        lambda bits, d: d / (((1 << bits) - 1) ** 2 + d - 1)),
    NATURAL: Kind("natural", None, wire.FMT_NATURAL, False, _natural_rows, lambda _, d: 1.0 / 9.0),
    COMPOSE: Kind(None, Field("inner", tuple, "one or more members, none composed",
                              lambda ms: bool(ms) and all(m.kind != COMPOSE for m in ms)),
                  wire.FMT_COMPOSE, False, _compose_rows, _compose_bound),
    INJECT_UNIFORM: Kind("inject_uniform", Field("amplitude", float, "> 0", lambda a: a > 0),
                         wire.FMT_DENSE, True, _inject_rows, None),
}


def identity_spec() -> CompressorSpec:
    return CompressorSpec(IDENTITY)


def topk_spec(k: int) -> CompressorSpec:
    return CompressorSpec(TOPK, k=k)


def randk_spec(k: int) -> CompressorSpec:
    return CompressorSpec(RANDK, k=k)


def quant_spec(bits: int) -> CompressorSpec:
    return CompressorSpec(UNIFORM_QUANT, bits=bits)


def natural_spec() -> CompressorSpec:
    return CompressorSpec(NATURAL)


def compose_spec(*members: CompressorSpec) -> CompressorSpec:
    return CompressorSpec(COMPOSE, inner=tuple(members))


def inject_uniform_spec(amplitude: float) -> CompressorSpec:
    return CompressorSpec(INJECT_UNIFORM, amplitude=amplitude)


def check_width(spec: CompressorSpec, dim: int, where: str = "compressor") -> None:
    """Reject a top-k or rand-k member that keeps more than dim coordinates."""
    if spec.widest.k > dim:
        raise ConfigurationError(f"{where}: {spec.widest.kind} k={spec.widest.k} "
                                 f"exceeds input dimension {dim}")


def _rows_job(spec: CompressorSpec, rng, x: np.ndarray, cache=None):
    """The compressor's pass over a float64 (B, d) array, or a range of
    its rows: the input check, then the kind's rows function. With
    ``cache``, x is the residual against it, and the result is added into
    ``cache`` in place. Returns the reconstruction (``cache``, with one),
    the body fields, and for a composition each row's surviving entry count."""
    if not np.isfinite(x).all():
        raise ContractViolation("compressor input must be finite")
    if spec.widest.k > x.shape[-1]:
        check_width(spec, x.shape[-1])
    recon, fields = KIND_TABLE[spec.kind].rows(x, spec.arg, rng)
    counts = np.count_nonzero(recon, axis=-1) if spec.fmt == wire.FMT_COMPOSE else None
    return (recon if cache is None else np.add(cache, recon, out=cache)), fields, counts


def _value_block(fmt: int, bits: int, recon: np.ndarray, fields, at) -> wire.WireBody:
    """WireBody of one row's entries ``at`` in a value format."""
    values = recon[at]
    if fmt == wire.FMT_QUANT:
        scale32, codes = fields
        return wire.WireBody(fmt=fmt, dim=len(values), scale=float(scale32[0]), codes=codes[at],
                             bits=bits)
    if fmt == wire.FMT_NATURAL:
        return wire.WireBody(fmt=fmt, dim=len(values), codes=fields[0][at])
    return wire.WireBody(fmt=fmt, dim=len(values), values=values)


def compress(spec: CompressorSpec, x: np.ndarray, rng=None) -> CompressedPayload:
    """Compress one vector; returns the reconstruction, exact wire byte
    counts, and the structured body the codec can serialize. This is the
    one-row case of compress_batch and makes the same stream draws."""
    x = stages._float64("compressor input", x)
    if x.ndim != 1:
        raise ContractViolation("compress takes a single vector; use compress_batch for rows")
    recon, fields, _ = _rows_job(spec, rng, x[None])
    recon, fields = recon[0], [f[0] for f in fields]
    idx = ()  # the indices a sparse or composed body sends
    if spec.fmt == wire.FMT_SPARSE:  # exactly the k selected entries, zero-valued ones too
        idx = np.flatnonzero(fields[0])
        body = wire.WireBody(fmt=spec.fmt, dim=len(x), indices=idx, values=recon[idx])
    elif spec.fmt == wire.FMT_COMPOSE:
        # indices of the surviving support + the last member's value block
        # at them; the quant scale stands, as its largest magnitude survives
        idx = np.flatnonzero(recon)
        body = wire.WireBody(fmt=spec.fmt, dim=len(x), indices=idx,
                             inner=_value_block(spec.value_fmt, spec.wire_bits, recon, fields, idx))
    else:
        body = _value_block(spec.fmt, spec.wire_bits, recon, fields, slice(None))
    # the arguments compress_batch passes, for one row
    sizes = wire.sizes(spec.fmt, len(x), len(idx), spec.wire_bits, spec.value_fmt)
    return CompressedPayload(recon, *sizes, body)


def compress_batch(spec: CompressorSpec, x: np.ndarray, rng=None, cache=None):
    """Row-wise compression of a (B, d) array: (reconstruction, payload
    bytes, value bytes), summed over rows. Rows match compress() bit for
    bit; a stochastic kind draws the whole batch in one call.

    With ``cache``, the rows an error-feedback link keeps (a writeable
    float64 array of x's shape), it compresses x - cache instead, adds the
    result into ``cache`` in place and returns ``cache`` as the
    reconstruction: bit for bit ``cache + compress_batch(spec, x - cache, rng)[0]``.

    A deterministic kind other than identity, on more than _SPLIT_ENTRIES
    entries, runs on the two row halves at once where ``halves.helper()``
    gives a helper, each half with its input check, rows function and
    cache update; the residual is formed whole first. A failing call
    raises one unsplit call's exception, but the other half may have
    updated its own cache rows by then."""
    if type(x) is not np.ndarray or x.dtype is not stages._F64:  # else np.asarray returns x itself
        x = stages._float64("compressor input", x)
    if x.ndim != 2:
        raise ContractViolation("compress_batch takes a (B, d) array")
    if cache is not None and not (type(cache) is np.ndarray and cache.dtype is stages._F64
                                  and cache.shape == x.shape and cache.flags.writeable):
        got = (f"cache of type {type(cache).__name__}" if not isinstance(cache, np.ndarray)
               else f"{'' if cache.flags.writeable else 'read-only '}{cache.dtype} cache "
               f"of shape {cache.shape}")
        raise ContractViolation(f"compress_batch: {got} for a batch of shape {x.shape}; "
                                "the cache must be a writeable float64 array of its shape")
    if cache is not None:  # whole, so an overflow in it raises as in one call
        x = np.subtract(x, cache)
    # identity is one copy, which halves only make slower
    if (x.size > _SPLIT_ENTRIES and not spec.stochastic and spec.kind != IDENTITY
            and x.shape[0] > 1 and (jobs := halves.helper()) is not None):
        h = x.shape[0] // 2
        arrays = (x,) if cache is None else (x, cache)
        # on a failure, the check and rows function run again, alone, on x
        (top, _, top_counts), (bottom, _, counts) = halves.run(
            jobs, _rows_job, (spec, None, *(a[:h] for a in arrays)),
            (spec, None, *(a[h:] for a in arrays)), whole=(spec, None, x))
        recon = np.concatenate((top, bottom)) if cache is None else cache
        if counts is not None:
            counts = np.concatenate((top_counts, counts))
    else:
        recon, _, counts = _rows_job(spec, rng, x, cache)
    if spec.fmt == wire.FMT_COMPOSE:  # the counts of each row's surviving entries
        payload, values = wire.sizes(spec.fmt, x.shape[1], counts, spec.wire_bits,
                                     spec.value_fmt)
        return recon, int(payload.sum()), int(values.sum())
    payload, values = wire.sizes(spec.fmt, x.shape[1], spec.k, spec.wire_bits)
    return recon, payload * x.shape[0], values * x.shape[0]


def contraction_bound(spec: CompressorSpec, dim: int) -> float:
    """Certified upper bound on sup_x E||x - C(x)||^2 / ||x||^2; a
    configuration error for a kind or composition that is not contractive."""
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
    check_width(spec, dim)
    bound = KIND_TABLE[spec.kind].bound
    if bound is None:
        raise ConfigurationError(f"{spec.kind} is not a contractive compressor")
    return bound(spec.arg, dim)


def contraction_ratio_samples(
    spec: CompressorSpec, dim: int, trials: int, rng, include_adversarial: bool = True
) -> np.ndarray:
    """Observed ||x - C(x)||^2 / ||x||^2 on Gaussian trial vectors, plus
    the all-equal adversarial vector that attains the top-k bound."""
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    ratios = np.empty(trials + (1 if include_adversarial else 0))
    for i in range(len(ratios)):
        x = rng.standard_normal(dim) if i < trials else np.full(dim, 0.5)
        c = compress_batch(spec, x[None], rng)[0][0]
        ratios[i] = float(np.sum((x - c) ** 2) / np.sum(x**2))
    return ratios


def empirical_contraction(spec: CompressorSpec, dim: int, trials: int, rng) -> float:
    """Worst ratio of contraction_ratio_samples; for deterministic kinds
    within 1e-12 of contraction_bound."""
    return float(contraction_ratio_samples(spec, dim, trials, rng).max())
