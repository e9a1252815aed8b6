"""Wire format and transfer accounting.

Every exchanged payload has a canonical byte layout, and ``sizes`` holds
its byte-count formula: every byte count the simulator reports (message
bodies, batch totals, dense payloads) comes from it. All multi-byte
integers are little-endian.

Header (8 bytes): u32 step, u16 boundary, u8 direction (0 forward,
1 backward; encoder and decoder refuse any other byte), u8 format tag.

Body by format tag:

  DENSE    d x 4-byte IEEE-754 float32
  SPARSE   k x (u32 index + float32 value), used by top-k and rand-k
  QUANT    float32 scale + ceil(d*bits/8) packed codes (bit-packed,
           little-endian within each byte)
  NATURAL  d bytes, each 1 sign bit (high) + 7-bit exponent offset
           (exponent+64 in [1,127]; 0 is the value zero; 0x80 is invalid)
  COMPOSE  u32 nonzero count + count x u32 indices (ascending) + the
           value block of the final member's format over those values

Values travel as float32, so a decoded DENSE/SPARSE body equals the
float32 cast of what was sent (bit-exact when the values are float32-
representable). QUANT and NATURAL bodies decode to the compressor's
in-process reconstruction exactly, because their codes are integers and
the QUANT scale is float32 by construction.

Decoding SPARSE and COMPOSE needs the boundary dimension, and QUANT needs
the bit width; both are connection state known to each endpoint.
"""

from __future__ import annotations

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
    indices: np.ndarray | None = None  # uint32-compatible ints, ascending for COMPOSE
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


def _body_sizes(body: WireBody):
    count = 0 if body.indices is None else len(body.indices)
    block = body.inner or body  # a COMPOSE value block sets the bits and inner format
    return sizes(body.fmt, body.dim, count, block.bits, block.fmt)


def body_size(body: WireBody) -> int:
    """Exact body byte count for a WireBody."""
    return _body_sizes(body)[0]


def value_only_size(body: WireBody) -> int:
    """Byte count excluding index/count overhead, for saving metrics that
    mirror value-only accounting."""
    return _body_sizes(body)[1]


def _pack_bits(codes: np.ndarray, bits: int) -> bytes:
    out = bytearray((len(codes) * bits + 7) // 8)
    pos = 0
    for c in codes:
        c = int(c)
        for b in range(bits):
            if (c >> b) & 1:
                out[pos >> 3] |= 1 << (pos & 7)
            pos += 1
    return bytes(out)


def _unpack_bits(data: bytes, n: int, bits: int) -> np.ndarray:
    codes = np.zeros(n, dtype=np.int64)
    pos = 0
    for i in range(n):
        c = 0
        for b in range(bits):
            if data[pos >> 3] & (1 << (pos & 7)):
                c |= 1 << b
            pos += 1
        codes[i] = c
    return codes


def _u32_indices(indices) -> np.ndarray:
    idx = np.asarray(indices)
    if len(idx) and int(idx.max()) >= 2**32:
        raise ConfigurationError("index overflow: dimensions beyond u32 are unsupported")
    return idx.astype("<u4")


def _encode_body(body: WireBody) -> bytes:
    if body.fmt == FMT_DENSE:
        return np.asarray(body.values, dtype="<f4").tobytes()
    if body.fmt == FMT_SPARSE:
        entries = np.empty(len(body.indices), dtype=_SPARSE_ENTRY)
        entries["i"] = _u32_indices(body.indices)
        entries["v"] = body.values
        return entries.tobytes()
    if body.fmt == FMT_QUANT:
        offset = (1 << (body.bits - 1)) - 1
        stored = np.asarray(body.codes, dtype=np.int64) + offset
        return struct.pack("<f", float(body.scale)) + _pack_bits(stored, body.bits)
    if body.fmt == FMT_NATURAL:
        codes = np.asarray(body.codes, dtype=np.uint8)
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


def _decode_quant_values(raw: bytes, dim: int, bits: int) -> np.ndarray:
    if bits < 2:
        raise DecodeError("quant decoding needs the bit width")
    if len(raw) != sizes(FMT_QUANT, dim, bits=bits)[0]:
        raise DecodeError("quant body length mismatch")
    scale = struct.unpack("<f", raw[:4])[0]
    offset = (1 << (bits - 1)) - 1
    codes = _unpack_bits(raw[4:], dim, bits) - offset
    if np.any(np.abs(codes) > offset):
        raise DecodeError("quant code out of range")
    step = 2.0 * float(np.float32(scale)) / (2**bits - 1)
    return codes * step


def _decode_natural_values(raw: bytes) -> np.ndarray:
    out = np.zeros(len(raw), dtype=np.float64)
    for i, byte in enumerate(raw):
        if byte == 0:
            continue
        sign = -1.0 if byte & 0x80 else 1.0
        exp = (byte & 0x7F) - 64
        out[i] = sign * np.ldexp(1.0, exp)
    return out


def _decode_body(tag: int, raw: bytes, dim: int, bits: int, inner_fmt: int = FMT_DENSE) -> np.ndarray:
    if tag == FMT_DENSE:
        if len(raw) != 4 * dim:
            raise DecodeError("dense body length mismatch")
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if tag == FMT_SPARSE:
        if len(raw) % 8:
            raise DecodeError("sparse body length mismatch")
        entries = np.frombuffer(raw, dtype=_SPARSE_ENTRY)
        if np.any(entries["i"] >= dim):
            raise DecodeError("sparse index out of range")
        out = np.zeros(dim, dtype=np.float64)
        out[entries["i"]] = entries["v"]
        return out
    if tag == FMT_QUANT:
        return _decode_quant_values(raw, dim, bits)
    if tag == FMT_NATURAL:
        if len(raw) != dim:
            raise DecodeError("natural body length mismatch")
        if 0x80 in raw:  # a sign bit over exponent offset 0: reserved, not a value
            raise DecodeError("natural byte 0x80 is reserved")
        return _decode_natural_values(raw)
    if tag == FMT_COMPOSE:
        if len(raw) < 4:
            raise DecodeError("compose body too short")
        count = struct.unpack("<I", raw[:4])[0]
        if len(raw) < 4 + 4 * count:
            raise DecodeError("compose body length mismatch")
        idx = np.frombuffer(raw, dtype="<u4", count=count, offset=4)
        if np.any(idx >= dim):
            raise DecodeError("compose index out of range")
        vals = _decode_body(inner_fmt, raw[4 + 4 * count :], count, bits)
        out = np.zeros(dim, dtype=np.float64)
        out[idx] = vals
        return out
    raise DecodeError(f"unknown format tag {tag}")


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
    values = _decode_body(tag, data[HEADER_BYTES:], dim, bits, compose_inner)
    return (step, boundary, direction, tag), values


@dataclass
class TransferLedger:
    """Cumulative payload accounting plus a serial-link time model.

    Each boundary is a half-duplex serial link with zero latency by
    default; a fixed per-message latency is configurable. Compute time is
    not modeled. Simulated seconds are total bytes * 8 / bandwidth plus
    latency per message.
    """

    bandwidth_bps: float
    latency_s: float = 0.0
    payload_bytes: dict = field(default_factory=dict)
    value_bytes: dict = field(default_factory=dict)
    messages: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")

    def record(self, boundary: int, direction: int, nbytes: int, value_nbytes: int | None = None,
               count: int = 1) -> None:
        key = (boundary, direction)
        self.payload_bytes[key] = self.payload_bytes.get(key, 0) + int(nbytes)
        self.value_bytes[key] = self.value_bytes.get(key, 0) + int(
            nbytes if value_nbytes is None else value_nbytes
        )
        self.messages[key] = self.messages.get(key, 0) + count

    def total_bytes(self, direction: int | None = None) -> int:
        return sum(v for (b, d), v in self.payload_bytes.items()
                   if direction is None or d == direction)

    def total_messages(self) -> int:
        return sum(self.messages.values())

    @property
    def simulated_seconds(self) -> float:
        return self.total_bytes() * 8.0 / self.bandwidth_bps + self.latency_s * self.total_messages()
