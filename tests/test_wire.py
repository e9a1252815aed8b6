import struct
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from clapping_sim import compressors as comp
from clapping_sim import wire
from clapping_sim.errors import ConfigurationError, DecodeError
from clapping_sim.rng import named_stream


class TestBodySizes:
    def test_dense_200(self):
        body = wire.WireBody(fmt=wire.FMT_DENSE, dim=200, values=np.zeros(200))
        assert wire.body_size(body) == 800

    def test_topk_10_of_200_is_90_percent_reduction(self):
        pay = comp.compress(comp.topk_spec(10), np.arange(1.0, 201.0))
        assert pay.encoded_bytes == 80
        dense = 4 * 200
        assert pay.encoded_bytes / dense == 0.1
        assert pay.value_bytes == 40  # value-only accounting

    def test_quant_8bit_200(self):
        pay = comp.compress(comp.quant_spec(8), np.linspace(-1, 1, 200))
        assert pay.encoded_bytes == 4 + 200

    def test_natural_is_one_byte_per_element(self):
        pay = comp.compress(comp.natural_spec(), np.linspace(-3, 3, 37))
        assert pay.encoded_bytes == 37


class TestRoundTrips:
    def test_dense_f32_exact_values(self):
        pay = comp.compress(comp.identity_spec(), np.array([1.5, -2.25]))
        msg = wire.encode_message(7, 3, wire.FORWARD, pay.body)
        (step, boundary, direction, tag), rec = wire.decode_message(msg, 2)
        assert (step, boundary, direction, tag) == (7, 3, wire.FORWARD, wire.FMT_DENSE)
        npt.assert_array_equal(rec, [1.5, -2.25])

    def test_sparse_roundtrip_identical(self):
        x = np.array([0.5, -8.0, 0.25, 64.0, 0.125])
        pay = comp.compress(comp.topk_spec(2), x)
        msg = wire.encode_message(1, 0, wire.BACKWARD, pay.body)
        _, rec = wire.decode_message(msg, 5)
        npt.assert_array_equal(rec, pay.reconstruction)

    def test_quant_roundtrip_matches_in_process_reconstruction(self):
        rng = named_stream(0, "wire-quant")
        spec = comp.quant_spec(8)
        for _ in range(1000):
            x = rng.standard_normal(17) * rng.uniform(0.1, 100)
            pay = comp.compress(spec, x)
            msg = wire.encode_message(0, 0, 0, pay.body)
            _, rec = wire.decode_message(msg, 17, bits=8)
            npt.assert_array_equal(rec, pay.reconstruction)

    def test_natural_roundtrip_exact(self):
        rng = named_stream(1, "wire-nat")
        x = rng.standard_normal(64)
        pay = comp.compress(comp.natural_spec(), x)
        msg = wire.encode_message(2, 1, 1, pay.body)
        _, rec = wire.decode_message(msg, 64)
        npt.assert_array_equal(rec, pay.reconstruction)

    def test_natural_zero_travels_as_byte_zero(self):
        pay = comp.compress(comp.natural_spec(), np.array([0.0, 1.0, -3.0]))
        npt.assert_array_equal(pay.body.codes, [0, 64, 194])
        _, rec = wire.decode_message(wire.encode_message(0, 0, 0, pay.body), 3)
        npt.assert_array_equal(rec, pay.reconstruction)
        npt.assert_array_equal(rec, [0.0, 1.0, -4.0])

    def test_compose_roundtrip_exact(self):
        rng = named_stream(2, "wire-compose")
        spec = comp.compose_spec(comp.topk_spec(5), comp.quant_spec(8))
        x = rng.standard_normal(40)
        pay = comp.compress(spec, x)
        msg = wire.encode_message(9, 2, 0, pay.body)
        _, rec = wire.decode_message(msg, 40, bits=8, compose_inner=wire.FMT_QUANT)
        npt.assert_array_equal(rec, pay.reconstruction)

    def test_body_length_always_matches_formula(self):
        rng = named_stream(3, "wire-len")
        specs = [comp.identity_spec(), comp.topk_spec(3), comp.quant_spec(5),
                 comp.natural_spec(), comp.compose_spec(comp.topk_spec(4), comp.natural_spec())]
        for spec in specs:
            x = rng.standard_normal(21)
            pay = comp.compress(spec, x)
            msg = wire.encode_message(0, 0, 0, pay.body)
            assert len(msg) - wire.HEADER_BYTES == pay.encoded_bytes


class TestDecodeErrors:
    def test_truncated_header(self):
        with pytest.raises(DecodeError):
            wire.decode_message(b"\x00\x01", 4)

    def test_wrong_body_length(self):
        pay = comp.compress(comp.identity_spec(), np.ones(4))
        msg = wire.encode_message(0, 0, 0, pay.body)
        with pytest.raises(DecodeError):
            wire.decode_message(msg[:-2], 4)

    def test_sparse_index_out_of_range(self):
        pay = comp.compress(comp.topk_spec(1), np.array([0.0, 0.0, 9.0]))
        msg = wire.encode_message(0, 0, 0, pay.body)
        with pytest.raises(DecodeError):
            wire.decode_message(msg, 2)  # dim too small for the stored index

    def test_natural_byte_0x80_is_reserved(self):
        # sign bit over exponent offset 0 would be -2^-64, outside [-63, 63]
        msg = struct.pack("<IHBB", 0, 0, 0, wire.FMT_NATURAL) + bytes([64, 0x80])
        with pytest.raises(DecodeError):
            wire.decode_message(msg, 2)

    def test_direction_beyond_backward(self):
        pay = comp.compress(comp.identity_spec(), np.ones(2))
        msg = bytearray(wire.encode_message(0, 0, wire.BACKWARD, pay.body))
        msg[6] = 7  # the header's direction byte
        with pytest.raises(DecodeError):
            wire.decode_message(bytes(msg), 2)

    @pytest.mark.parametrize("tag, body, reason", [
        (wire.FMT_QUANT, bytes(4 + 3), "quant body length mismatch"),  # 4 codes need 4 bytes
        (wire.FMT_SPARSE, bytes(12), "sparse body length mismatch"),
        (wire.FMT_NATURAL, bytes([64] * 5), "natural body length mismatch"),
        (wire.FMT_COMPOSE, bytes(3), "compose body too short"),
        (9, bytes(16), "unknown format tag 9"),
    ], ids=["quant", "sparse", "natural", "compose", "tag"])
    def test_body_the_decoder_cannot_read(self, tag, body, reason):
        msg = struct.pack("<IHBB", 0, 0, 0, tag) + body
        with pytest.raises(DecodeError, match=f"^{reason}$"):
            wire.decode_message(msg, 4, 8)

    def _compose_message(self, count, indices, values):
        body = struct.pack(f"<I{len(indices)}I", count, *indices)
        body += np.asarray(values, dtype="<f4").tobytes()
        return struct.pack("<IHBB", 0, 0, 0, wire.FMT_COMPOSE) + body

    def test_compose_count_past_body(self):
        with pytest.raises(DecodeError):
            wire.decode_message(self._compose_message(5, [1], [2.0]), 4)

    @pytest.mark.parametrize("inner, block", [
        (wire.FMT_SPARSE, struct.pack("<If", 0, 2.0)),  # one sparse entry for the one index
        (wire.FMT_COMPOSE, struct.pack("<I", 0)),        # a nested composed body of no entries
        (9, bytes(4)),
    ], ids=["sparse", "compose", "unknown"])
    def test_a_composed_value_block_is_dense_quant_or_natural(self, inner, block):
        """No encoder writes a sparse or composed value block, so the decoder
        refuses one even where its length would fit."""
        msg = struct.pack("<IHBBII", 0, 0, 0, wire.FMT_COMPOSE, 1, 1) + block
        with pytest.raises(DecodeError, match=f"^compose value block of format {inner} is not "
                                              f"dense, quant or natural$"):
            wire.decode_message(msg, 4, 8, compose_inner=inner)

    def test_a_composed_quant_block_is_checked_with_its_body(self):
        spec = comp.compose_spec(comp.topk_spec(3), comp.quant_spec(8))
        pay = comp.compress(spec, np.arange(1.0, 7.0))
        msg = wire.encode_message(0, 0, 0, pay.body)
        assert np.array_equal(wire.decode_message(msg, 6, 8, wire.FMT_QUANT)[1], pay.reconstruction)
        with pytest.raises(DecodeError, match="^compose body length mismatch$"):
            wire.decode_message(msg[:-1], 6, 8, wire.FMT_QUANT)
        with pytest.raises(DecodeError, match=r"^quant bit width 0 outside \[2, 16\]$"):
            wire.decode_message(msg, 6, 0, wire.FMT_QUANT)

    @pytest.mark.parametrize("indices", [[3, 3], [5, 2]])
    def test_sparse_indices_not_strictly_ascending(self, indices):
        entries = np.zeros(2, dtype=[("i", "<u4"), ("v", "<f4")])
        entries["i"], entries["v"] = indices, [1.0, 2.0]
        msg = struct.pack("<IHBB", 0, 0, 0, wire.FMT_SPARSE) + entries.tobytes()
        with pytest.raises(DecodeError, match="strictly ascending"):
            wire.decode_message(msg, 8)

    @pytest.mark.parametrize("indices", [[3, 3], [5, 2]])
    def test_compose_indices_not_strictly_ascending(self, indices):
        with pytest.raises(DecodeError, match="strictly ascending"):
            wire.decode_message(self._compose_message(2, indices, [1.0, 2.0]), 8)

    @pytest.mark.parametrize("fmt", [wire.FMT_DENSE, wire.FMT_SPARSE, wire.FMT_QUANT,
                                     wire.FMT_COMPOSE])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_float32(self, fmt, bad):
        f32 = np.float32(bad).tobytes()
        if fmt == wire.FMT_DENSE:
            body = np.array([1.0, bad], dtype="<f4").tobytes()
        elif fmt == wire.FMT_SPARSE:
            body = struct.pack("<I", 1) + f32
        elif fmt == wire.FMT_QUANT:  # a bad scale under nonzero and zero codes
            body = f32 + bytes([0x07, 0x08])
        else:
            body = struct.pack("<II", 1, 0) + f32
        msg = struct.pack("<IHBB", 0, 0, 0, fmt) + body
        with pytest.raises(DecodeError, match="non-finite"):
            wire.decode_message(msg, 2, bits=8)

    # a float32 signalling NaN: casting it to float64 would warn before the refusal
    SNAN = struct.pack("<I", 0x7F800001)

    def _refused_without_warning(self, fmt, body):
        msg = struct.pack("<IHBB", 0, 0, 0, fmt) + body
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DecodeError, match="non-finite"):
                wire.decode_message(msg, 2)

    def test_signalling_nan_in_a_dense_body(self):
        self._refused_without_warning(wire.FMT_DENSE, struct.pack("<f", 1.0) + self.SNAN)

    def test_signalling_nan_in_a_sparse_entry(self):
        self._refused_without_warning(wire.FMT_SPARSE, struct.pack("<I", 1) + self.SNAN)

    def test_signalling_nan_in_a_compose_dense_block(self):
        self._refused_without_warning(wire.FMT_COMPOSE, struct.pack("<II", 1, 0) + self.SNAN)

    @pytest.mark.parametrize("bits", [0, 1, 17, 64])
    def test_quant_width_outside_2_to_16(self, bits):
        # the body length matches the width, so only the width can refuse it
        msg = struct.pack("<IHBBf", 0, 0, 0, wire.FMT_QUANT, 1.0) + bytes((3 * bits + 7) // 8)
        with pytest.raises(DecodeError, match=f"quant bit width {bits} outside"):
            wire.decode_message(msg, 3, bits=bits)

    def test_every_8_bit_quant_byte(self):
        # stored byte b is code b - 127; at scale 127.5 one level is exactly 1.0
        quant = struct.pack("<IHBBf", 0, 0, 0, wire.FMT_QUANT, 127.5)
        _, rec = wire.decode_message(quant + bytes(range(255)), 255, bits=8)
        npt.assert_array_equal(rec, np.arange(255) - 127.0)
        for at in range(3):
            body = bytearray([127, 127, 127])
            body[at] = 255  # code 128, one past the top level
            with pytest.raises(DecodeError, match="quant code out of range"):
                wire.decode_message(quant + bytes(body), 3, bits=8)

    def test_compose_index_out_of_range(self):
        msg = self._compose_message(1, [9], [2.0])
        with pytest.raises(DecodeError):
            wire.decode_message(msg, 4)
        _, rec = wire.decode_message(msg, 10)  # the same message fits a wider boundary
        npt.assert_array_equal(rec, [0.0] * 9 + [2.0])


class TestEncodeErrors:
    """The encoder refuses what the decoder would reject."""

    def test_direction_beyond_backward(self):
        body = comp.compress(comp.identity_spec(), np.ones(2)).body
        with pytest.raises(ConfigurationError, match="direction 7"):
            wire.encode_message(0, 0, 7, body)

    def test_body_that_does_not_match_its_size_formula(self):
        body = wire.WireBody(fmt=wire.FMT_DENSE, dim=2, values=np.ones(3))
        with pytest.raises(ConfigurationError,
                           match="^encoded body does not match its size formula$"):
            wire.encode_message(0, 0, 0, body)

    @pytest.mark.parametrize("compose", [False, True])
    def test_natural_byte_0x80(self, compose):
        body = wire.WireBody(fmt=wire.FMT_NATURAL, dim=2, codes=np.array([64, 0x80]))
        if compose:
            body = wire.WireBody(fmt=wire.FMT_COMPOSE, dim=4, indices=np.array([0, 3]), inner=body)
        with pytest.raises(ConfigurationError, match="0x80"):
            wire.encode_message(0, 0, 0, body)

    @staticmethod
    def _quant(codes, bits=8, compose=False):
        body = wire.WireBody(fmt=wire.FMT_QUANT, dim=len(codes), scale=1.0,
                             codes=np.array(codes), bits=bits)
        if compose:
            body = wire.WireBody(fmt=wire.FMT_COMPOSE, dim=9, indices=np.arange(len(codes)),
                                 inner=body)
        return body

    @pytest.mark.parametrize("compose", [False, True])
    @pytest.mark.parametrize("code", [128, -128, 1000, -(2**40), -(2**63)])
    def test_quant_code_outside_the_levels(self, code, compose):
        # 128 is stored as 255, which the decoder rejects; 1000 would be
        # truncated to its low 8 bits and decode as another value
        with pytest.raises(ConfigurationError, match="quant code outside \\+-127 at 8 bits"):
            wire.encode_message(0, 0, 0, self._quant([1, code, -3], compose=compose))
        body = self._quant([1, 127, -127], compose=compose)  # the extreme levels travel
        block = body.inner or body
        _, rec = wire.decode_message(wire.encode_message(0, 0, 0, body), body.dim, 8, block.fmt)
        npt.assert_array_equal(rec[:3], np.array([1, 127, -127]) * (2.0 / 255))

    @pytest.mark.parametrize("compose", [False, True])
    @pytest.mark.parametrize("bits", [0, 1, 17, 40])
    def test_quant_width_outside_2_to_16(self, bits, compose):
        with pytest.raises(ConfigurationError, match=f"quant bit width {bits} outside"):
            wire.encode_message(0, 0, 0, self._quant([0, 1], bits=bits, compose=compose))

    def test_quant_codes_must_fill_the_dimension(self):
        # at 4 bits one code more still fits the last padded byte, and the
        # decoder would drop it
        body = wire.WireBody(fmt=wire.FMT_QUANT, dim=1, scale=1.0, codes=np.array([1, 2]), bits=4)
        with pytest.raises(ConfigurationError, match="quant codes of shape \\(2,\\) for dimension 1"):
            wire.encode_message(0, 0, 0, body)

    @pytest.mark.parametrize("compose", [False, True])
    @pytest.mark.parametrize("code", [300, 256, -1])
    def test_natural_code_outside_a_byte(self, code, compose):
        # 300 would wrap to byte 44, a value near 2^-20
        body = wire.WireBody(fmt=wire.FMT_NATURAL, dim=2, codes=np.array([64, code]))
        if compose:
            body = wire.WireBody(fmt=wire.FMT_COMPOSE, dim=4, indices=np.array([0, 3]), inner=body)
        with pytest.raises(ConfigurationError, match="natural code outside \\[0, 255\\]"):
            wire.encode_message(0, 0, 0, body)

    @pytest.mark.parametrize("compose", [False, True])
    @pytest.mark.parametrize("fmt, codes, bad", [
        (wire.FMT_QUANT, [1.5, -2.7], "1.5"), (wire.FMT_QUANT, [1.0, -2.7], "-2.7"),
        (wire.FMT_QUANT, [1.0, np.nan], "nan"), (wire.FMT_QUANT, [np.inf, 1.0], "inf"),
        (wire.FMT_NATURAL, [64.9, 65.5], "64.9"), (wire.FMT_NATURAL, [64.0, -np.inf], "-inf"),
    ])
    def test_a_code_that_is_not_a_whole_number(self, fmt, codes, bad, compose):
        # truncated, [1.5, -2.7] would travel as quant codes [1, -2] and
        # [64.9, 65.5] as natural bytes that decode to [1.0, 2.0]
        body = wire.WireBody(fmt=fmt, dim=2, scale=1.0, codes=np.array(codes), bits=8)
        if compose:
            body = wire.WireBody(fmt=wire.FMT_COMPOSE, dim=4, indices=np.array([0, 3]), inner=body)
        name = "quant" if fmt == wire.FMT_QUANT else "natural"
        with pytest.raises(ConfigurationError, match=f"{name} code {bad} is not a whole number"):
            wire.encode_message(0, 0, 0, body)

    def test_whole_float_codes_travel_as_their_integers(self):
        quant = wire.WireBody(fmt=wire.FMT_QUANT, dim=2, scale=1.0, codes=np.array([65.0, -2.0]),
                              bits=8)
        _, rec = wire.decode_message(wire.encode_message(0, 0, 0, quant), 2, 8)
        npt.assert_array_equal(rec, np.array([65, -2]) * (2.0 / 255))
        natural = wire.WireBody(fmt=wire.FMT_NATURAL, dim=2, codes=np.array([65.0, 0.0]))
        _, rec = wire.decode_message(wire.encode_message(0, 0, 0, natural), 2)
        npt.assert_array_equal(rec, [2.0, 0.0])

    def test_value_beyond_float32_range(self):
        # 1e39 would be written as float32 inf
        body = comp.compress(comp.identity_spec(), np.array([1e39, 1.0])).body
        with pytest.raises(ConfigurationError, match="1e\\+39 is outside float32 range"):
            wire.encode_message(0, 0, 0, body)
        body = wire.WireBody(fmt=wire.FMT_SPARSE, dim=4, indices=np.array([1, 3]),
                             values=np.array([2.0, -3.5e38]))
        with pytest.raises(ConfigurationError, match="outside float32 range"):
            wire.encode_message(0, 0, 0, body)
        body = wire.WireBody(fmt=wire.FMT_COMPOSE, dim=4, indices=np.array([0]),
                             inner=wire.WireBody(fmt=wire.FMT_DENSE, dim=1,
                                                 values=np.array([np.nan])))
        with pytest.raises(ConfigurationError, match="nan is outside float32 range"):
            wire.encode_message(0, 0, 0, body)
        body = wire.WireBody(fmt=wire.FMT_QUANT, dim=2, scale=float("inf"),
                             codes=np.array([1, -1]), bits=8)
        with pytest.raises(ConfigurationError, match="inf is outside float32 range"):
            wire.encode_message(0, 0, 0, body)
        # the largest float32 itself travels, and comes back as it was sent
        top = float(np.finfo(np.float32).max)
        body = comp.compress(comp.identity_spec(), np.array([top, -top])).body
        _, rec = wire.decode_message(wire.encode_message(0, 0, 0, body), 2)
        npt.assert_array_equal(rec, [top, -top])

    @pytest.mark.parametrize("fmt", [wire.FMT_SPARSE, wire.FMT_COMPOSE])
    @pytest.mark.parametrize("indices, reason", [
        ([3, 3], "strictly ascending"), ([5, 2], "strictly ascending"),
        ([-1, 2], "outside u32"),  # would be written as 2^32 - 1, out of order
    ])
    def test_indices_the_decoder_rejects(self, fmt, indices, reason):
        values = np.array([1.0, 2.0])
        if fmt == wire.FMT_SPARSE:
            body = wire.WireBody(fmt=fmt, dim=8, indices=np.array(indices), values=values)
        else:
            body = wire.WireBody(fmt=fmt, dim=8, indices=np.array(indices),
                                 inner=wire.WireBody(fmt=wire.FMT_DENSE, dim=2, values=values))
        with pytest.raises(ConfigurationError, match=reason):
            wire.encode_message(0, 0, 0, body)


def _pack_bits_loop(codes, bits):
    """The codec's original bit-by-bit packer, kept as the oracle."""
    out = bytearray((len(codes) * bits + 7) // 8)
    pos = 0
    for c in codes:
        c = int(c)
        for b in range(bits):
            if (c >> b) & 1:
                out[pos >> 3] |= 1 << (pos & 7)
            pos += 1
    return bytes(out)


def _unpack_bits_loop(data, n, bits):
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


@hs.composite
def codes_and_bytes(draw):
    """Codes of any width in [2, 16] (every stored value, not only the
    ones a quantizer makes) and random bytes of the packed length, whose
    padding bits may be set."""
    bits, n = draw(hs.integers(2, 16)), draw(hs.integers(0, 300))
    codes = draw(hs.lists(hs.integers(0, 2**bits - 1), min_size=n, max_size=n))
    data = draw(hs.binary(min_size=(n * bits + 7) // 8, max_size=(n * bits + 7) // 8))
    return np.array(codes, dtype=np.int64), bits, data


class TestBitPacking:
    @given(codes_and_bytes())
    # n * bits not a multiple of 8, so the last byte is part padding
    @example((np.array([5, 0, 7], dtype=np.int64), 3, b"\xff\xff"))
    @example((np.array([2**13 - 1] * 7, dtype=np.int64), 13, b"\xa5" * 12))
    # the widest codes, and none
    @example((np.arange(0, 2**16 - 1, 6553, dtype=np.int64), 16, bytes(range(22))))
    @example((np.zeros(0, dtype=np.int64), 9, b""))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_numpy_bits_match_the_bit_loops(self, case):
        codes, bits, data = case
        n = len(codes)
        packed = wire._pack_bits(codes, bits)
        assert packed == _pack_bits_loop(codes, bits)
        assert len(packed) == (n * bits + 7) // 8
        unpacked = wire._unpack_bits(packed, n, bits)
        assert unpacked.dtype == np.int64
        npt.assert_array_equal(unpacked, codes)
        npt.assert_array_equal(wire._unpack_bits(data, n, bits), _unpack_bits_loop(data, n, bits))


class TestTransferLedger:
    def test_hundred_megabit_million_bytes(self):
        ledger = wire.TransferLedger(bandwidth_bps=100e6)
        ledger.record(0, wire.FORWARD, 10**6, 10**6)
        assert ledger.simulated_seconds == pytest.approx(0.08, rel=0, abs=1e-15)

    def test_zero_bytes_zero_seconds(self):
        ledger = wire.TransferLedger(bandwidth_bps=100e6)
        ledger.record(0, wire.FORWARD, 0, 0)
        assert ledger.simulated_seconds == 0.0

    def test_top5pct_vs_dense_time_ratio(self):
        d = 200
        dense = wire.TransferLedger(bandwidth_bps=1e6)
        sparse = wire.TransferLedger(bandwidth_bps=1e6)
        dense.record(0, 0, 4 * d, 4 * d)
        sparse.record(0, 0, 8 * (d // 20), 4 * (d // 20))
        assert dense.simulated_seconds / sparse.simulated_seconds == 10.0

    def test_totals_are_sums_of_messages(self):
        ledger = wire.TransferLedger(bandwidth_bps=1e9)
        sizes = [100, 250, 3, 42]
        for i, s in enumerate(sizes):
            ledger.record(i % 2, i % 2, s, s)
        assert ledger.total_bytes() == sum(sizes)
        assert ledger.total_messages() == len(sizes)
        assert ledger.simulated_seconds == pytest.approx(sum(sizes) * 8 / 1e9)

    def test_per_message_latency_term(self):
        ledger = wire.TransferLedger(bandwidth_bps=1e6, latency_s=0.001)
        ledger.record(0, 0, 1000, 1000)
        ledger.record(0, 1, 1000, 1000)
        assert ledger.simulated_seconds == pytest.approx(2000 * 8 / 1e6 + 0.002)

    def test_bandwidth_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            wire.TransferLedger(bandwidth_bps=0.0)


def _member(draw, kind, d):
    if kind in (comp.TOPK, comp.RANDK):
        return comp.CompressorSpec(kind, k=draw(hs.integers(1, d)))
    if kind == comp.UNIFORM_QUANT:
        return comp.quant_spec(draw(hs.integers(2, 9)))
    if kind == comp.INJECT_UNIFORM:
        return comp.inject_uniform_spec(0.3)
    return comp.CompressorSpec(kind)


@hs.composite
def spec_and_batch(draw):
    """A compressor (every kind, and compose with every last-member kind,
    with at most one stochastic member) and a (B, d) batch that may hold
    all-zero rows, so composed and sparse bodies can be empty."""
    b, d = draw(hs.integers(1, 4)), draw(hs.integers(1, 10))
    kinds = [k for k in comp.KIND_TABLE if k != comp.COMPOSE]
    last = _member(draw, draw(hs.sampled_from(kinds)), d)
    spec = last
    if draw(hs.booleans()):
        firsts = [k for k in kinds if not (last.stochastic and comp.KIND_TABLE[k].stochastic)]
        spec = comp.compose_spec(_member(draw, draw(hs.sampled_from(firsts)), d), last)
    value = hs.one_of(hs.just(0.0), hs.floats(-1e6, 1e6, allow_nan=False))
    rows = [draw(hs.lists(value, min_size=d, max_size=d)) for _ in range(b)]
    zero = draw(hs.lists(hs.booleans(), min_size=b, max_size=b))
    x = np.array([[0.0] * d if z else r for r, z in zip(rows, zero)])
    return spec, x


class TestSizeFormula:
    @given(spec_and_batch())
    # natural entries that flush to 0, round up to 2^-63, and saturate at 2^63
    @example((comp.natural_spec(), np.array([[2.0**-64, 1.5 * 2.0**-64, 2.0**63, 1e30]])))
    @example((comp.compose_spec(comp.topk_spec(2), comp.natural_spec()),
              np.array([[2.0**-64, -1.5 * 2.0**-64, 0.0, -1e30]])))
    # an all-zero composed row: no indices and an empty value block
    @example((comp.compose_spec(comp.topk_spec(2), comp.quant_spec(8)), np.zeros((1, 3))))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_batch_sizes_equal_encoded_rows(self, case):
        # one stream for the batch and an equally seeded one for the rows:
        # with one stochastic member both draw the same numbers, so even
        # stochastic reconstructions match row for row
        spec, x = case
        recon, nbytes, vbytes = comp.compress_batch(spec, x, np.random.default_rng(0))
        row_rng = np.random.default_rng(0)
        pays = [comp.compress(spec, row, row_rng) for row in x]
        npt.assert_array_equal(recon, [p.reconstruction for p in pays])
        messages = [wire.encode_message(0, 0, 0, p.body) for p in pays]
        encoded = [len(m) - wire.HEADER_BYTES for m in messages]
        assert nbytes == sum(encoded)
        assert vbytes == sum(p.value_bytes for p in pays)
        for msg, pay in zip(messages, pays):
            # every row decodes to its reconstruction: bit-exact for quant
            # and natural value blocks, the float32 cast of dense and sparse
            block = pay.body.inner or pay.body
            _, rec = wire.decode_message(msg, x.shape[1], block.bits, block.fmt)
            exact = block.fmt in (wire.FMT_QUANT, wire.FMT_NATURAL)
            want = pay.reconstruction if exact else pay.reconstruction.astype(np.float32)
            npt.assert_array_equal(rec, want)
        if spec.stochastic:
            return
        for row, pay, size in zip(x, pays, encoded):
            assert comp.compress_batch(spec, row[None])[1:] == (size, pay.value_bytes)


F32 = hs.floats(width=32, allow_nan=False, allow_infinity=False)
NATURAL_BYTES = hs.integers(0, 255).filter(lambda b: b != 0x80)


@hs.composite
def value_block(draw, fmt, n):
    """A DENSE, QUANT or NATURAL body of n values, built directly, and the
    values it must decode to."""
    if fmt == wire.FMT_DENSE:
        values = np.array(draw(hs.lists(F32, min_size=n, max_size=n)), dtype=np.float64)
        return wire.WireBody(fmt=fmt, dim=n, values=values), values
    if fmt == wire.FMT_QUANT:
        bits = draw(hs.integers(2, 16))
        half = (1 << (bits - 1)) - 1
        codes = np.array(draw(hs.lists(hs.integers(-half, half), min_size=n, max_size=n)),
                         dtype=np.int64)
        scale = draw(hs.floats(0.0, float(np.finfo(np.float32).max), width=32))
        body = wire.WireBody(fmt=fmt, dim=n, scale=scale, codes=codes, bits=bits)
        return body, codes * (2.0 * scale / (2**bits - 1))
    codes = np.array(draw(hs.lists(NATURAL_BYTES, min_size=n, max_size=n)), dtype=np.uint8)
    signs = np.where(codes & 0x80, -1.0, 1.0)
    values = np.where(codes == 0, 0.0, signs * 2.0 ** ((codes & 0x7F).astype(int) - 64))
    return wire.WireBody(fmt=fmt, dim=n, codes=codes), values


@hs.composite
def wire_bodies(draw):
    """A body of any format and the dense vector it must decode to. Sparse
    and composed bodies may be empty."""
    fmt = draw(hs.sampled_from([wire.FMT_DENSE, wire.FMT_SPARSE, wire.FMT_QUANT,
                                wire.FMT_NATURAL, wire.FMT_COMPOSE]))
    dim = draw(hs.integers(1, 12))
    if fmt not in (wire.FMT_SPARSE, wire.FMT_COMPOSE):
        return draw(value_block(fmt, dim))
    idx = np.array(sorted(draw(hs.sets(hs.integers(0, dim - 1)))), dtype=np.int64)
    want = np.zeros(dim)
    if fmt == wire.FMT_SPARSE:
        want[idx] = draw(hs.lists(F32, min_size=len(idx), max_size=len(idx)))
        return wire.WireBody(fmt=fmt, dim=dim, indices=idx, values=want[idx]), want
    inner_fmt = draw(hs.sampled_from([wire.FMT_DENSE, wire.FMT_QUANT, wire.FMT_NATURAL]))
    inner, want[idx] = draw(value_block(inner_fmt, len(idx)))
    return wire.WireBody(fmt=fmt, dim=dim, indices=idx, inner=inner), want


class TestCodecProperties:
    @given(wire_bodies(), hs.integers(0, 2**32 - 1), hs.integers(0, 2**16 - 1),
           hs.sampled_from([wire.FORWARD, wire.BACKWARD]))
    # natural exponents at +-63, both signs, and zero
    @example((wire.WireBody(fmt=wire.FMT_NATURAL, dim=5, codes=np.array([1, 127, 129, 255, 0])),
              np.array([2.0**-63, 2.0**63, -(2.0**-63), -(2.0**63), 0.0])), 0, 0, 0)
    # empty sparse and composed bodies, and an empty quant value block
    @example((wire.WireBody(fmt=wire.FMT_SPARSE, dim=3, indices=np.zeros(0, dtype=np.int64),
                            values=np.zeros(0)), np.zeros(3)), 1, 2, 1)
    @example((wire.WireBody(fmt=wire.FMT_COMPOSE, dim=3, indices=np.zeros(0, dtype=np.int64),
                            inner=wire.WireBody(fmt=wire.FMT_QUANT, dim=0, scale=0.0,
                                                codes=np.zeros(0, dtype=np.int64), bits=8)),
              np.zeros(3)), 3, 4, 0)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_format_round_trips(self, case, step, boundary, direction):
        body, want = case
        msg = wire.encode_message(step, boundary, direction, body)
        assert len(msg) == wire.HEADER_BYTES + wire.body_size(body)
        block = body.inner or body
        header, rec = wire.decode_message(msg, body.dim, block.bits, block.fmt)
        assert header == (step, boundary, direction, body.fmt)
        assert rec.dtype == np.float64 and rec.tobytes() == want.tobytes()

    def test_natural_flush_to_zero_and_saturation_edges(self):
        # below 1.5 * 2^-64 a magnitude flushes to zero; from there it
        # rounds up to 2^-63; beyond 2^63 it saturates
        tiny = 2.0**-64
        x = np.array([tiny, 1.49 * tiny, -1.5 * tiny, 2.0**-63, -(2.0**63), 1e30, 0.0])
        for spec in (comp.natural_spec(), comp.compose_spec(comp.topk_spec(6), comp.natural_spec())):
            pay = comp.compress(spec, x)
            npt.assert_array_equal(pay.reconstruction,
                                   [0.0, 0.0, -(2.0**-63), 2.0**-63, -(2.0**63), 2.0**63, 0.0])
            msg = wire.encode_message(0, 0, 0, pay.body)
            assert len(msg) == wire.HEADER_BYTES + pay.encoded_bytes
            _, rec = wire.decode_message(msg, len(x), compose_inner=wire.FMT_NATURAL)
            assert rec.tobytes() == pay.reconstruction.tobytes()
