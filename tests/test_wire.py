import struct

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

    def _compose_message(self, count, indices, values):
        body = struct.pack(f"<I{len(indices)}I", count, *indices)
        body += np.asarray(values, dtype="<f4").tobytes()
        return struct.pack("<IHBB", 0, 0, 0, wire.FMT_COMPOSE) + body

    def test_compose_count_past_body(self):
        with pytest.raises(DecodeError):
            wire.decode_message(self._compose_message(5, [1], [2.0]), 4)

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

    @pytest.mark.parametrize("compose", [False, True])
    def test_natural_byte_0x80(self, compose):
        body = wire.WireBody(fmt=wire.FMT_NATURAL, dim=2, codes=np.array([64, 0x80]))
        if compose:
            body = wire.WireBody(fmt=wire.FMT_COMPOSE, dim=4, indices=np.array([0, 3]), inner=body)
        with pytest.raises(ConfigurationError, match="0x80"):
            wire.encode_message(0, 0, 0, body)


class TestTransferLedger:
    def test_hundred_megabit_million_bytes(self):
        ledger = wire.TransferLedger(bandwidth_bps=100e6)
        ledger.record(0, wire.FORWARD, 10**6)
        assert ledger.simulated_seconds == pytest.approx(0.08, rel=0, abs=1e-15)

    def test_zero_bytes_zero_seconds(self):
        ledger = wire.TransferLedger(bandwidth_bps=100e6)
        ledger.record(0, wire.FORWARD, 0)
        assert ledger.simulated_seconds == 0.0

    def test_top5pct_vs_dense_time_ratio(self):
        d = 200
        dense = wire.TransferLedger(bandwidth_bps=1e6)
        sparse = wire.TransferLedger(bandwidth_bps=1e6)
        dense.record(0, 0, 4 * d)
        sparse.record(0, 0, 8 * (d // 20))
        assert dense.simulated_seconds / sparse.simulated_seconds == 10.0

    def test_totals_are_sums_of_messages(self):
        ledger = wire.TransferLedger(bandwidth_bps=1e9)
        sizes = [100, 250, 3, 42]
        for i, s in enumerate(sizes):
            ledger.record(i % 2, i % 2, s)
        assert ledger.total_bytes() == sum(sizes)
        assert ledger.total_messages() == len(sizes)
        assert ledger.simulated_seconds == pytest.approx(sum(sizes) * 8 / 1e9)

    def test_per_message_latency_term(self):
        ledger = wire.TransferLedger(bandwidth_bps=1e6, latency_s=0.001)
        ledger.record(0, 0, 1000)
        ledger.record(0, 1, 1000)
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
    kinds = [k for k in comp.KINDS if k != comp.COMPOSE]
    last = _member(draw, draw(hs.sampled_from(kinds)), d)
    spec = last
    if draw(hs.booleans()):
        firsts = [k for k in kinds if not (last.stochastic and k in comp.STOCHASTIC_KINDS)]
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
    @settings(max_examples=200, deadline=None)
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
        assert vbytes == sum(wire.value_only_size(p.body) for p in pays)
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
