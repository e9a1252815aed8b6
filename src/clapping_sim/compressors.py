"""Contractive compressors with exact wire-payload accounting.

Each compressor maps a vector x to a reconstruction C(x) the receiving
worker decodes, together with the exact byte size of the message that
would carry it. The engine sends every message through compress_batch;
a dense link is identity compression. One pass over the rows makes both
the reconstruction and the fields of its wire body; compress is the
one-row case of compress_batch, with the same stream draws.
Deterministic kinds ignore the rng handle and are pure.

Kinds and their documented contraction factors (omega^2 bounds the worst
case of E||x - C(x)||^2 / ||x||^2):

  identity        omega^2 = 0
  topk            keeps the k largest magnitudes, ties broken by
                  ascending index; omega^2 = 1 - k/d, attained when all
                  magnitudes are equal
  randk           keeps k uniformly chosen coordinates; omega^2 = 1 - k/d
                  in expectation
  uniform_quant   per-call symmetric scaling by max|x_i|, 2^bits - 1
                  levels of width 2*scale/(2^bits - 1), deterministic
                  round half away from zero, scale sent as one float32;
                  omega^2 = d / ((2^bits - 1)^2 + d - 1), attained by
                  (scale, step/2, ..., step/2)
  natural         magnitude rounded to the nearest power of two (ties to
                  the larger), sign preserved, zero to zero; exponents
                  are clamped to the wire range [-63, 63] (smaller
                  magnitudes flush to zero, larger saturate);
                  omega^2 = 1/9 within that range
  compose         members applied left to right; the bound folds as
                  omega <- omega_i + omega_acc * (1 + omega_i), a
                  configuration error if it reaches 1
  inject_uniform  pseudo-compressor for noise-injection studies:
                  C(x) = x * (1 + U(-a, a)) elementwise, so the injected
                  error scales with whatever quantity is compressed; it
                  carries dense payloads and is excluded from
                  contraction certification
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wire
from .errors import ConfigurationError, ContractViolation

IDENTITY = "identity"
TOPK = "topk"
RANDK = "randk"
UNIFORM_QUANT = "uniform_quant"
NATURAL = "natural"
COMPOSE = "compose"
INJECT_UNIFORM = "inject_uniform"

KINDS = (IDENTITY, TOPK, RANDK, UNIFORM_QUANT, NATURAL, COMPOSE, INJECT_UNIFORM)
STOCHASTIC_KINDS = (RANDK, INJECT_UNIFORM)

# wire format of each kind's message body (a composed body is FMT_COMPOSE)
_FORMATS = {
    IDENTITY: wire.FMT_DENSE,
    INJECT_UNIFORM: wire.FMT_DENSE,
    TOPK: wire.FMT_SPARSE,
    RANDK: wire.FMT_SPARSE,
    UNIFORM_QUANT: wire.FMT_QUANT,
    NATURAL: wire.FMT_NATURAL,
}

NATURAL_EXP_MIN = -63
NATURAL_EXP_MAX = 63


@dataclass(frozen=True)
class CompressorSpec:
    """One compressor. A built spec also carries whether it is
    ``stochastic`` and its bodies' wire format, fixed once as ``wire.sizes``
    takes it: ``fmt``, ``wire_bits`` and ``value_fmt``. A composed body
    carries the last member's values in that member's format, or dense
    after a sparse member (the indices are already sent)."""

    kind: str
    k: int = 0
    bits: int = 0
    amplitude: float = 0.0
    inner: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown compressor kind {self.kind!r}")
        if self.kind in (TOPK, RANDK) and self.k < 1:
            raise ConfigurationError(f"{self.kind} needs k >= 1")
        if self.kind == UNIFORM_QUANT and self.bits not in wire.QUANT_BITS:
            raise ConfigurationError(f"uniform_quant bits must be in {wire.QUANT_WIDTHS}")
        if self.kind == COMPOSE:
            if not self.inner:
                raise ConfigurationError("compose needs at least one member")
            if any(m.kind == COMPOSE for m in self.inner):
                raise ConfigurationError("compose members must not nest")
        if self.kind == INJECT_UNIFORM and self.amplitude <= 0:
            raise ConfigurationError("inject_uniform needs a positive amplitude")
        composed = self.kind == COMPOSE
        members = self.inner if composed else (self,)
        last = _FORMATS[members[-1].kind]
        object.__setattr__(self, "fmt", wire.FMT_COMPOSE if composed else last)
        object.__setattr__(self, "wire_bits", members[-1].bits)
        object.__setattr__(self, "value_fmt",
                           last if composed and last != wire.FMT_SPARSE else wire.FMT_DENSE)
        object.__setattr__(self, "stochastic", any(m.kind in STOCHASTIC_KINDS for m in members))


@dataclass(frozen=True)
class CompressedPayload:
    reconstruction: np.ndarray
    encoded_bytes: int
    value_bytes: int
    body: wire.WireBody


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
    for m in spec.inner if spec.kind == COMPOSE else (spec,):
        if m.kind in (TOPK, RANDK) and m.k > dim:
            raise ConfigurationError(f"{where}: {m.kind} k={m.k} exceeds input dimension {dim}")


def _check_input(spec: CompressorSpec, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ContractViolation("compressor input must be finite")
    check_width(spec, x.shape[-1])
    return x


def _topk_rows(x: np.ndarray, k: int) -> np.ndarray:
    """Row mask of the k largest magnitudes, ties to the lower index.

    Keeps every magnitude above the row's k-th largest, then fills the
    remaining slots with the entries equal to it, lowest index first: the
    same mask a stable descending sort would give, without the sort.
    """
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
    return mask.reshape(x.shape)


def _randk_rows(x: np.ndarray, k: int, rng) -> np.ndarray:
    """Row mask of k coordinates per row drawn uniformly from the stream."""
    if rng is None:
        raise ContractViolation("randk needs a random stream")
    order = np.argsort(rng.random(x.shape), axis=-1)
    mask = np.zeros(x.shape, dtype=bool)
    np.put_along_axis(mask, order[:, :k], True, axis=-1)
    return mask


def _quant_rows(x: np.ndarray, bits: int):
    """Returns (reconstruction, float32 scales, integer codes)."""
    levels_half = (1 << (bits - 1)) - 1
    peak = np.abs(x).max(axis=-1, keepdims=True)
    if (peak > np.finfo(np.float32).max).any():  # the scale travels as one float32
        raise ContractViolation(f"uniform_quant: |x| = {peak.max():.4g} exceeds the float32 "
                                f"scale limit {np.finfo(np.float32).max:.4g}")
    scale32 = peak.astype(np.float32)
    step = 2.0 * scale32.astype(np.float64) / (2**bits - 1)
    safe = np.where(step > 0, step, 1.0)
    codes = np.sign(x) * np.floor(np.abs(x) / safe + 0.5)
    codes = np.clip(codes, -levels_half, levels_half)
    recon = codes * step
    return recon, scale32, codes.astype(np.int64)


def _natural_rows(x: np.ndarray):
    """Returns (reconstruction, wire bytes). Each byte is the sign bit
    (0x80) OR'd with exponent + 64; zero and flushed entries are byte 0."""
    mant, exp = np.frexp(np.abs(x))  # |x| = mant * 2^exp, mant in [0.5, 1)
    exp = exp - 1                    # |x| = (2*mant) * 2^exp, 2*mant in [1, 2)
    exp = np.where(2.0 * mant >= 1.5, exp + 1, exp)
    live = (x != 0.0) & (exp >= NATURAL_EXP_MIN)
    exp = np.clip(exp, NATURAL_EXP_MIN, NATURAL_EXP_MAX)
    recon = np.where(live, np.sign(x) * np.ldexp(1.0, exp), 0.0)
    codes = np.where(live, (exp + 64) | np.where(x < 0.0, 0x80, 0), 0).astype(np.uint8)
    return recon, codes


def _compress_rows(spec: CompressorSpec, x: np.ndarray, rng):
    """The one compressor pass over a (B, d) array: (reconstruction, fields),
    where fields are the per-row arrays a body needs besides it: the top-k
    or rand-k mask, the quant (scales, codes), the natural wire bytes, or
    none for dense kinds. A composition returns its last member's fields,
    over the intermediate that member saw."""
    if spec.kind == IDENTITY:
        return x.copy(), ()
    if spec.kind in (TOPK, RANDK):
        mask = _topk_rows(x, spec.k) if spec.kind == TOPK else _randk_rows(x, spec.k, rng)
        return np.where(mask, x, 0.0), (mask,)
    if spec.kind == UNIFORM_QUANT:
        recon, scale32, codes = _quant_rows(x, spec.bits)
        return recon, (scale32, codes)
    if spec.kind == NATURAL:
        recon, codes = _natural_rows(x)
        return recon, (codes,)
    if spec.kind == INJECT_UNIFORM:
        if rng is None:
            raise ContractViolation("inject_uniform needs a random stream")
        noise = rng.uniform(-spec.amplitude, spec.amplitude, size=x.shape)
        return x * (1.0 + noise), ()
    for member in spec.inner:
        x, fields = _compress_rows(member, x, rng)
    return x, fields


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
    x = _check_input(spec, x)
    if x.ndim != 1:
        raise ContractViolation("compress takes a single vector; use compress_batch for rows")
    recon, fields = _compress_rows(spec, x[None], rng)
    recon, fields = recon[0], [f[0] for f in fields]
    if spec.fmt == wire.FMT_SPARSE:
        # the sparse body always carries exactly the k selected entries;
        # selected entries that happen to be zero-valued still occupy a slot
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
    return CompressedPayload(
        reconstruction=recon,
        encoded_bytes=wire.body_size(body),
        value_bytes=wire.value_only_size(body),
        body=body,
    )


def compress_batch(spec: CompressorSpec, x: np.ndarray, rng=None):
    """Row-wise compression of a (B, d) array.

    Deterministic kinds match per-row compress() bit for bit; stochastic
    kinds draw the whole batch from the given stream in one call. Returns
    (reconstruction, payload_bytes, value_bytes) summed over rows.
    """
    x = _check_input(spec, x)
    if x.ndim != 2:
        raise ContractViolation("compress_batch takes a (B, d) array")
    recon, _ = _compress_rows(spec, x, rng)
    if spec.fmt == wire.FMT_COMPOSE:
        payload, values = wire.sizes(spec.fmt, x.shape[1], np.count_nonzero(recon, axis=-1),
                                     spec.wire_bits, spec.value_fmt)
        return recon, int(payload.sum()), int(values.sum())
    payload, values = wire.sizes(spec.fmt, x.shape[1], spec.k, spec.wire_bits)
    return recon, payload * x.shape[0], values * x.shape[0]


def contraction_bound(spec: CompressorSpec, dim: int) -> float:
    """Certified upper bound on sup_x E||x - C(x)||^2 / ||x||^2.

    Raises a configuration error for non-contractive configurations
    (inject_uniform, or a composition whose folded factor reaches 1).
    """
    if dim < 1:
        raise ConfigurationError("dim must be >= 1")
    check_width(spec, dim)
    if spec.kind == IDENTITY:
        return 0.0
    if spec.kind in (TOPK, RANDK):
        return 1.0 - spec.k / dim
    if spec.kind == UNIFORM_QUANT:
        levels = (1 << spec.bits) - 1
        return dim / (levels**2 + dim - 1)
    if spec.kind == NATURAL:
        return 1.0 / 9.0
    if spec.kind == INJECT_UNIFORM:
        raise ConfigurationError("inject_uniform is not a contractive compressor")
    # compose: ||x - C2(C1(x))|| <= ||C1(x) - C2(C1(x))|| + ||x - C1(x)||
    # folds member by member as omega <- omega_i + omega_acc * (1 + omega_i)
    omega = 0.0
    for member in spec.inner:
        w_i = float(np.sqrt(contraction_bound(member, dim)))
        omega = w_i + omega * (1.0 + w_i)
    if omega >= 1.0:
        raise ConfigurationError(f"composition is not contractive (omega={omega:.3f})")
    return omega**2


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
        c = compress(spec, x, rng).reconstruction
        ratios[i] = float(np.sum((x - c) ** 2) / np.sum(x**2))
    return ratios


def empirical_contraction(spec: CompressorSpec, dim: int, trials: int, rng) -> float:
    """Worst observed contraction ratio over random trials plus the
    adversarial uniform vector. For deterministic kinds this must stay
    within 1e-12 of contraction_bound."""
    return float(contraction_ratio_samples(spec, dim, trials, rng).max())
