"""Wire format and transfer accounting.

Every exchanged payload has a canonical byte layout, and ``sizes`` holds
its byte-count formula: every byte count the simulator reports (message
bodies, batch totals, dense payloads) comes from it. All multi-byte
integers are little-endian.

Header (8 bytes): u32 step, u16 boundary, u8 direction (0 forward,
1 backward; encoder and decoder refuse any other byte), u8 format tag.

Body by format tag:

  DENSE    d x 4-byte IEEE-754 float32
  SPARSE   k x (u32 index + float32 value), indices strictly ascending,
           used by top-k and rand-k
  QUANT    float32 scale + ceil(d*bits/8) bytes: code + 2^(bits-1) - 1 in bits
           bits each, LSB first, little-endian within each byte, zero-padded;
           bits in [2, 16], whole codes within +-(2^(bits-1) - 1)
  NATURAL  d bytes, each 1 sign bit (high) + 7-bit exponent offset
           (exponent+64 in [1,127]; 0 is the value zero; 0x80 is invalid)
  COMPOSE  u32 nonzero count + count x u32 indices (strictly ascending) + a
           DENSE, QUANT or NATURAL value block over those values: the
           final member's format, DENSE after a sparse member

Values travel as float32, so a decoded DENSE/SPARSE body equals the
float32 cast of what was sent (bit-exact when the values are float32-
representable). QUANT and NATURAL bodies decode to the compressor's
in-process reconstruction exactly, because their codes are integers and
the QUANT scale is float32 by construction. No float32 inf or NaN
travels: both the encoder and the decoder refuse one.

The decoder checks each body's length with ``sizes``. It needs the
boundary dimension, the quant width and a composed body's value-block
format, all connection state known to each endpoint.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DecodeError

FMT_DENSE = 0
FMT_SPARSE = 1
FMT_QUANT = 2
FMT_NATURAL = 3
FMT_COMPOSE = 4

FORWARD = 0
BACKWARD = 1

_HEADER = struct.Struct("<IHBB")
HEADER_BYTES = _HEADER.size
_SPARSE_ENTRY = np.dtype([("i", "<u4"), ("v", "<f4")])


@dataclass(frozen=True)
class WireBody:
    """Structured content of one message body, produced by a compressor
    and consumed by the codec below."""

    fmt: int
    dim: int
    values: np.ndarray | None = None   # float64, encoded as float32
    indices: np.ndarray | None = None  # uint32-compatible ints, strictly ascending
    scale: float = 0.0                 # float32 quant scale
    codes: np.ndarray | None = None    # signed quant codes or natural bytes
    bits: int = 0
    inner: "WireBody | None" = None    # COMPOSE value block


def sizes(fmt: int, dim, count=0, bits: int = 0, inner: int = FMT_DENSE):
    """(body, value-only) byte counts of one body: the single size formula.

    ``count`` is the SPARSE entry count or the COMPOSE index count, ``bits``
    the QUANT width (of the value block, for COMPOSE) and ``inner`` the
    COMPOSE value-block format. ``dim`` and ``count`` may be arrays of
    per-row values; the counts then come back per row. Value-only bytes
    leave out index and count overhead.
    """
    if fmt == FMT_DENSE:
        body = 4 * dim
    elif fmt == FMT_SPARSE:
        return 8 * count, 4 * count
    elif fmt == FMT_QUANT:
        body = 4 + (dim * bits + 7) // 8
    elif fmt == FMT_NATURAL:
        body = dim
    elif fmt == FMT_COMPOSE:
        values = sizes(inner, count, bits=bits)[1]
        return 4 + 4 * count + values, values
    else:
        raise ConfigurationError(f"unknown wire format {fmt}")
    return body, body


def body_size(body: WireBody) -> int:
    """A WireBody's exact body byte count: ``sizes`` for its fields."""
    count = 0 if body.indices is None else len(body.indices)
    block = body.inner or body  # a COMPOSE value block sets the bits and inner format
    return sizes(body.fmt, body.dim, count, block.bits, block.fmt)[0]


QUANT_BITS = range(2, 17)  # the quant widths either end accepts; int64 shifts cannot wrap there
QUANT_WIDTHS = f"[{QUANT_BITS[0]}, {QUANT_BITS[-1]}]"


def _pack_bits(codes: np.ndarray, bits: int) -> bytes:
    """Non-negative codes, ``bits`` bits each, LSB first and little-endian
    within each byte, zero-padded to ceil(n*bits/8) bytes."""
    matrix = (codes[:, None] >> np.arange(bits)) & 1
    return np.packbits(matrix.astype(np.uint8), bitorder="little").tobytes()


def _unpack_bits(data: bytes, n: int, bits: int) -> np.ndarray:
    flat = np.unpackbits(np.frombuffer(data, dtype=np.uint8), count=n * bits, bitorder="little")
    return flat.reshape(n, bits) @ (1 << np.arange(bits))


def _u32_indices(indices) -> np.ndarray:
    idx = np.asarray(indices)
    if (idx[1:] <= idx[:-1]).any():
        raise ConfigurationError("indices must be strictly ascending")
    if len(idx) and not (0 <= int(idx[0]) and int(idx[-1]) < 2**32):
        raise ConfigurationError("index outside u32: dimensions beyond u32 are unsupported")
    return idx.astype("<u4")


def _float32(values) -> np.ndarray:
    """``values`` as the float32 the wire carries, refusing any that would travel non-finite."""
    with np.errstate(over="ignore"):
        out = np.asarray(values, dtype="<f4")
    if not np.isfinite(out).all():
        bad = np.asarray(values, dtype=np.float64)[~np.isfinite(out)][0]
        raise ConfigurationError(f"value {bad:.4g} is outside float32 range")
    return out


def _whole_codes(codes, fmt_name: str) -> np.ndarray:
    """``codes`` as an array, refusing a code that is not a whole number;
    an integer array passes on its dtype alone."""
    codes = np.asarray(codes)
    if codes.dtype.kind not in "biu":
        whole = np.isfinite(codes) & (np.trunc(codes) == codes)
        if not whole.all():
            raise ConfigurationError(f"{fmt_name} code {codes[~whole][0]} is not a whole number")
    return codes


def _encode_body(body: WireBody) -> bytes:
    if body.fmt == FMT_DENSE:
        return _float32(body.values).tobytes()
    if body.fmt == FMT_SPARSE:
        entries = np.empty(len(body.indices), dtype=_SPARSE_ENTRY)
        entries["i"] = _u32_indices(body.indices)
        entries["v"] = _float32(body.values)
        return entries.tobytes()
    if body.fmt == FMT_QUANT:
        if body.bits not in QUANT_BITS:
            raise ConfigurationError(f"quant bit width {body.bits} outside {QUANT_WIDTHS}")
        half = (1 << (body.bits - 1)) - 1
        codes = _whole_codes(body.codes, "quant")
        if ((codes < -half) | (codes > half)).any():  # np.abs would wrap at int64's minimum
            raise ConfigurationError(f"quant code outside +-{half} at {body.bits} bits")
        if codes.shape != (body.dim,):  # a surplus code could share the last padded byte
            raise ConfigurationError(f"quant codes of shape {codes.shape} for dimension {body.dim}")
        codes = codes.astype(np.int64, copy=False) + half
        return _float32([body.scale]).tobytes() + _pack_bits(codes, body.bits)
    if body.fmt == FMT_NATURAL:
        codes = _whole_codes(body.codes, "natural")
        if codes.dtype != np.uint8 and ((codes < 0) | (codes > 255)).any():
            raise ConfigurationError("natural code outside [0, 255]")
        codes = codes.astype(np.uint8, copy=False)
        if (codes == 0x80).any():
            raise ConfigurationError("natural byte 0x80 is reserved")
        return codes.tobytes()
    if body.fmt == FMT_COMPOSE:
        idx = _u32_indices(body.indices)
        return struct.pack("<I", len(idx)) + idx.tobytes() + _encode_body(body.inner)
    raise ConfigurationError(f"unknown wire format {body.fmt}")


def encode_message(step: int, boundary: int, direction: int, body: WireBody) -> bytes:
    """Serialize header + body. The body length always equals body_size."""
    if direction not in (FORWARD, BACKWARD):
        raise ConfigurationError(f"unknown direction {direction}")
    raw = _encode_body(body)
    if len(raw) != body_size(body):
        raise ConfigurationError("encoded body does not match its size formula")
    return _HEADER.pack(step, boundary, direction, body.fmt) + raw


def _decode_natural_values(raw: bytes) -> np.ndarray:
    out = np.zeros(len(raw), dtype=np.float64)
    for i, byte in enumerate(raw):
        if byte == 0:
            continue
        sign = -1.0 if byte & 0x80 else 1.0
        exp = (byte & 0x7F) - 64
        out[i] = sign * np.ldexp(1.0, exp)
    return out


def _finite(values: np.ndarray) -> np.ndarray:
    """float32 values as float64, refused if one is not finite before a cast can warn."""
    if not np.isfinite(values).all():
        raise DecodeError("non-finite decoded value")
    return values.astype(np.float64)


def _decode_values(fmt: int, raw: bytes, n: int, bits: int) -> np.ndarray:
    """The n values of a DENSE, QUANT or NATURAL block whose length is
    checked; every value a NATURAL byte or a finite QUANT scale gives is finite."""
    if fmt == FMT_DENSE:
        return _finite(np.frombuffer(raw, dtype="<f4"))
    if fmt == FMT_QUANT:
        scale = struct.unpack_from("<f", raw)[0]
        if not math.isfinite(scale):
            raise DecodeError("non-finite decoded value")
        offset = (1 << (bits - 1)) - 1
        codes = _unpack_bits(raw[4:], n, bits) - offset
        if np.any(np.abs(codes) > offset):
            raise DecodeError("quant code out of range")
        return codes * (2.0 * scale / (2**bits - 1))
    if 0x80 in raw:  # a sign bit over exponent offset 0: reserved, not a value
        raise DecodeError("natural byte 0x80 is reserved")
    return _decode_natural_values(raw)


_FORMAT_NAMES = ("dense", "sparse", "quant", "natural", "compose")  # by format tag
_VALUE_FORMATS = (FMT_DENSE, FMT_QUANT, FMT_NATURAL)


def _decode_body(tag: int, raw: bytes, dim: int, bits: int, inner: int) -> np.ndarray:
    if tag >= len(_FORMAT_NAMES):
        raise DecodeError(f"unknown format tag {tag}")
    if tag == FMT_COMPOSE and inner not in _VALUE_FORMATS:
        raise DecodeError(f"compose value block of format {inner} is not dense, quant or natural")
    if (inner if tag == FMT_COMPOSE else tag) == FMT_QUANT and bits not in QUANT_BITS:
        raise DecodeError(f"quant bit width {bits} outside {QUANT_WIDTHS}")
    if tag == FMT_COMPOSE and len(raw) < 4:
        raise DecodeError("compose body too short")
    count = (struct.unpack_from("<I", raw)[0] if tag == FMT_COMPOSE
             else len(raw) // _SPARSE_ENTRY.itemsize)  # sizes reads it for SPARSE only
    size, value_size = sizes(tag, dim, count, bits, inner)
    if len(raw) != size:
        raise DecodeError(f"{_FORMAT_NAMES[tag]} body length mismatch")
    if tag in _VALUE_FORMATS:
        return _decode_values(tag, raw, dim, bits)
    if tag == FMT_SPARSE:
        entries = np.frombuffer(raw, dtype=_SPARSE_ENTRY)
        idx = entries["i"]
    else:
        idx = np.frombuffer(raw, dtype="<u4", count=count, offset=4)
    if (idx[1:] <= idx[:-1]).any():
        raise DecodeError(f"{_FORMAT_NAMES[tag]} indices not strictly ascending")
    if len(idx) and idx[-1] >= dim:
        raise DecodeError(f"{_FORMAT_NAMES[tag]} index out of range")
    out = np.zeros(dim, dtype=np.float64)
    out[idx] = (_finite(entries["v"]) if tag == FMT_SPARSE
                else _decode_values(inner, raw[size - value_size:], count, bits))
    return out


def decode_message(data: bytes, dim: int, bits: int = 0, compose_inner: int = FMT_DENSE):
    """Parse a message; returns ((step, boundary, direction, tag), reconstruction).

    ``dim`` is the boundary dimension, ``bits`` the quant width and
    ``compose_inner`` the value-block format of composed payloads; all
    are connection state the receiving endpoint already knows.
    """
    if len(data) < HEADER_BYTES:
        raise DecodeError("message shorter than header")
    step, boundary, direction, tag = _HEADER.unpack(data[:HEADER_BYTES])
    if direction not in (FORWARD, BACKWARD):
        raise DecodeError(f"unknown direction {direction}")
    return (step, boundary, direction, tag), _decode_body(tag, data[HEADER_BYTES:], dim, bits,
                                                          compose_inner)


@dataclass
class TransferLedger:
    """Cumulative payload accounting plus a serial-link time model.

    Each boundary is a half-duplex serial link with zero latency by
    default; a fixed per-message latency is configurable. Compute time is
    not modeled. Simulated seconds are total bytes * 8 / bandwidth plus
    latency per message. ``per_link`` maps (boundary, direction) to the
    integer counters [payload bytes, value bytes, messages]; totals are
    summed when read.
    """

    bandwidth_bps: float
    latency_s: float = 0.0
    per_link: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")

    def record(self, boundary: int, direction: int, nbytes: int, value_nbytes: int) -> None:
        counts = self.per_link.setdefault((boundary, direction), [0, 0, 0])
        counts[0] += int(nbytes)
        counts[1] += int(value_nbytes)
        counts[2] += 1

    def total_bytes(self, direction: int | None = None) -> int:
        return sum(c[0] for (_, d), c in self.per_link.items()
                   if direction is None or d == direction)

    def total_messages(self) -> int:
        return sum(c[2] for c in self.per_link.values())

    @property
    def simulated_seconds(self) -> float:
        return self.total_bytes() * 8.0 / self.bandwidth_bps + self.latency_s * self.total_messages()
