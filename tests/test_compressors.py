from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from clapping_sim import compressors as comp
from clapping_sim import harness, wire
from clapping_sim.errors import ConfigurationError, ContractViolation
from clapping_sim.rng import named_stream

README = Path(__file__).resolve().parent.parent / "README.md"

finite_vectors = hs.lists(
    hs.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=12,
).map(lambda xs: np.asarray(xs, dtype=np.float64))


class TestIdentity:
    def test_identity_returns_input_unchanged(self):
        x = np.array([1.0, 2.0, 3.0])
        pay = comp.compress(comp.identity_spec(), x)
        npt.assert_array_equal(pay.reconstruction, x)
        assert pay.encoded_bytes == 12

    def test_identity_bound_is_zero(self):
        assert comp.contraction_bound(comp.identity_spec(), 17) == 0.0
        rng = named_stream(0, "id")
        assert comp.empirical_contraction(comp.identity_spec(), 5, 100, rng) == 0.0


class TestTopK:
    def test_hand_example(self):
        x = np.array([3.0, -4.0, 1.0])
        pay = comp.compress(comp.topk_spec(1), x)
        npt.assert_array_equal(pay.reconstruction, [0.0, -4.0, 0.0])
        resid2 = np.sum((x - pay.reconstruction) ** 2)
        assert resid2 == 10.0
        assert resid2 <= (1 - 1 / 3) * np.sum(x**2)

    def test_tie_break_prefers_lower_index(self):
        pay = comp.compress(comp.topk_spec(1), np.array([2.0, -2.0, 2.0]))
        npt.assert_array_equal(pay.reconstruction, [2.0, 0.0, 0.0])

    def test_keep_all_bound_is_zero(self):
        assert comp.contraction_bound(comp.topk_spec(4), 4) == 0.0

    def test_bound_is_one_minus_k_over_d(self):
        assert comp.contraction_bound(comp.topk_spec(1), 4) == 0.75

    def test_empirical_worst_case_attained_by_uniform_vector(self):
        rng = named_stream(1, "topk")
        measured = comp.empirical_contraction(comp.topk_spec(1), 4, 10_000, rng)
        assert 0.74 < measured <= 0.75
        assert abs(measured - 0.75) < 1e-12

    def test_k_larger_than_dim_rejected(self):
        with pytest.raises(ConfigurationError):
            comp.compress(comp.topk_spec(5), np.ones(3))

    def test_sparse_body_is_fixed_size_even_with_zero_entries(self):
        # selected-but-zero coordinates still occupy wire slots
        pay = comp.compress(comp.topk_spec(3), np.array([0.0, 0.0, 5.0, 0.0]))
        assert pay.encoded_bytes == 24

    @given(finite_vectors, hs.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_contraction_inequality_holds_pointwise(self, x, k):
        if k > len(x) or not np.any(x):
            return
        pay = comp.compress(comp.topk_spec(k), x)
        lhs = np.sum((x - pay.reconstruction) ** 2)
        assert lhs <= (1 - k / len(x)) * np.sum(x**2) + 1e-9 * np.sum(x**2)

    def test_equality_iff_all_magnitudes_equal(self):
        x = np.array([0.5, -0.5, 0.5, 0.5])
        pay = comp.compress(comp.topk_spec(1), x)
        lhs = np.sum((x - pay.reconstruction) ** 2)
        npt.assert_allclose(lhs, 0.75 * np.sum(x**2), rtol=1e-15)
        y = np.array([0.5, -0.6, 0.5, 0.5])
        pay = comp.compress(comp.topk_spec(1), y)
        assert np.sum((y - pay.reconstruction) ** 2) < 0.75 * np.sum(y**2)


def topk_rows_reference(x, k):
    """The top-k mask by definition: a stable descending sort of the
    magnitudes, so equal magnitudes go to the lower index."""
    order = np.argsort(-np.abs(x), axis=-1, kind="stable")
    mask = np.zeros(x.shape, dtype=bool)
    np.put_along_axis(mask, order[..., :k], True, axis=-1)
    return mask


# few distinct magnitudes, so rows have heavy ties, equal rows and zeros
tie_heavy_rows = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=16),
    elements=hs.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 3.0]),
)


class TestTopKSelection:
    @given(tie_heavy_rows)
    @example(np.full(7, 0.5))
    @example(np.zeros((3, 5)))
    @example(np.array([[1.0, -1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0], [3.0, 3.0, -3.0, 3.0]]))
    @settings(max_examples=200, deadline=None)
    def test_mask_matches_stable_argsort_for_every_k(self, x):
        for k in range(1, x.shape[-1] + 1):
            npt.assert_array_equal(comp._topk_rows(x, k, None)[1][0], topk_rows_reference(x, k))

    def test_engine_csv_matches_argsort_reference(self, tmp_path, monkeypatch):
        cfg = harness.config_from_mapping({
            "dataset.kind": "synthetic_mlp", "dataset.n": "64", "model.kind": "tanh_mlp",
            "model.dims": "64,64,64,64", "model.boundaries": "2,4",
            "algo.variant": "clapping_fc", "algo.batch_size": "16",
            "algo.sampler_rule": "batch_batchwise", "sampling.p": "0.3",
            "compressor.forward": "topk:6", "compressor.backward": "topk:6",
            "algo.total_steps": "30", "run.log_every": "5",
        })
        partitioned = harness.run_experiment(cfg, tmp_path / "partition.csv").read_bytes()
        calls = []

        def reference(x, k, rng):
            calls.append(x.shape)
            mask = topk_rows_reference(x, k)
            return np.where(mask, x, 0.0), (mask,)

        topk = comp.KIND_TABLE[comp.TOPK]
        monkeypatch.setitem(comp.KIND_TABLE, comp.TOPK, topk._replace(rows=reference))
        argsorted = harness.run_experiment(cfg, tmp_path / "argsort.csv").read_bytes()
        assert calls  # the reference really replaced the selection
        assert partitioned == argsorted


class TestRandK:
    def test_mean_ratio_matches_expectation(self):
        rng = named_stream(2, "randk")
        spec = comp.randk_spec(2)
        ratios = comp.contraction_ratio_samples(spec, 8, 10_000, rng, include_adversarial=False)
        se = ratios.std(ddof=1) / np.sqrt(len(ratios))
        assert abs(ratios.mean() - 0.75) <= 3 * se

    def test_requires_stream(self):
        with pytest.raises(ContractViolation):
            comp.compress(comp.randk_spec(1), np.ones(3), rng=None)

    def test_sparse_body_carries_the_drawn_coordinates(self):
        # the stream draws coordinates 2, 4 and 7; two of them hold
        # nonzeros, and the zero-valued pick must still travel as itself
        x = np.array([0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 3.0])
        pay = comp.compress(comp.randk_spec(3), x, np.random.default_rng(1))
        npt.assert_array_equal(pay.body.indices, [2, 4, 7])
        npt.assert_array_equal(pay.body.values, [0.0, 5.0, 3.0])


class TestUniformQuant:
    def test_scalar_grid_within_half_step(self):
        # brute force over a grid of scalar-per-coordinate inputs with max 1
        spec = comp.quant_spec(8)
        grid = np.linspace(-1.0, 1.0, 2001)
        for v in grid:
            x = np.array([1.0, v])
            pay = comp.compress(spec, x)
            assert abs(pay.reconstruction[1] - v) <= 1.0 / 255.0 + 1e-15

    def test_measured_below_bound_and_below_one(self):
        rng = named_stream(3, "quant")
        for bits, dim in ((2, 8), (4, 32), (8, 64)):
            spec = comp.quant_spec(bits)
            measured = comp.empirical_contraction(spec, dim, 2000, rng)
            assert measured <= comp.contraction_bound(spec, dim) + 1e-12
            assert measured < 1.0

    def test_bound_attained_by_adversarial_vector(self):
        bits, d = 4, 6
        spec = comp.quant_spec(bits)
        levels = 2**bits - 1
        step = 2.0 / levels
        x = np.array([1.0] + [step / 2] * (d - 1))
        pay = comp.compress(spec, x)
        ratio = np.sum((x - pay.reconstruction) ** 2) / np.sum(x**2)
        npt.assert_allclose(ratio, comp.contraction_bound(spec, d), rtol=1e-9)

    def test_zero_vector(self):
        pay = comp.compress(comp.quant_spec(8), np.zeros(5))
        npt.assert_array_equal(pay.reconstruction, np.zeros(5))

    @pytest.mark.parametrize("syntax, batch, x", [
        ("quant:8", False, [1e39, 1.0, -2.0]),
        ("quant:8", True, [[3.5e38, 1.0]]),
        ("topk:1+quant:8", False, [1e39, 1.0, -2.0]),
    ])
    def test_scale_beyond_float32_is_named(self, syntax, batch, x):
        # the scale travels as a float32; past its range it used to turn into NaN
        spec = harness.parse_compressor("compressor.forward", syntax)
        run = comp.compress_batch if batch else comp.compress
        with pytest.raises(ContractViolation, match="float32 scale limit"):
            run(spec, np.array(x))


class TestNaturalComp:
    def test_rounds_to_nearest_power_of_two(self):
        pay = comp.compress(comp.natural_spec(), np.array([1.1, -0.9, 0.0, 5.0]))
        npt.assert_array_equal(pay.reconstruction, [1.0, -1.0, 0.0, 4.0])

    def test_tie_rounds_to_larger(self):
        pay = comp.compress(comp.natural_spec(), np.array([1.5, -3.0, 0.75]))
        npt.assert_array_equal(pay.reconstruction, [2.0, -4.0, 1.0])

    def test_relative_error_within_third(self):
        rng = named_stream(4, "nat")
        x = rng.standard_normal(100)
        pay = comp.compress(comp.natural_spec(), x)
        nz = x != 0
        assert np.all(np.abs(pay.reconstruction[nz] - x[nz]) <= np.abs(x[nz]) / 3 + 1e-15)

    def test_bound(self):
        assert comp.contraction_bound(comp.natural_spec(), 10) == pytest.approx(1 / 9)


class TestCompose:
    def test_reconstruction_is_sequential_application(self):
        spec = comp.compose_spec(comp.topk_spec(3), comp.quant_spec(8))
        rng = named_stream(5, "compose")
        x = rng.standard_normal(12)
        pay = comp.compress(spec, x)
        inner = comp.compress(comp.topk_spec(3), x).reconstruction
        expected = comp.compress(comp.quant_spec(8), inner).reconstruction
        npt.assert_array_equal(pay.reconstruction, expected)

    def test_bound_folds_sequentially(self):
        spec = comp.compose_spec(comp.topk_spec(11), comp.natural_spec())
        w1 = np.sqrt(comp.contraction_bound(comp.topk_spec(11), 12))
        w2 = 1 / 3
        expected = (w2 + w1 * (1 + w2)) ** 2
        npt.assert_allclose(comp.contraction_bound(spec, 12), expected, rtol=1e-12)

    def test_non_contractive_composition_rejected(self):
        spec = comp.compose_spec(comp.topk_spec(1), comp.topk_spec(1))
        with pytest.raises(ConfigurationError):
            comp.contraction_bound(spec, 50)

    def test_measured_within_folded_bound(self):
        rng = named_stream(6, "compose-b")
        spec = comp.compose_spec(comp.topk_spec(6), comp.quant_spec(8))
        measured = comp.empirical_contraction(spec, 8, 2000, rng)
        assert measured <= comp.contraction_bound(spec, 8) + 1e-12


class TestOnePass:
    @pytest.mark.parametrize("syntax, helper", [
        ("quant:8", "_quant_rows"), ("topk:3+quant:8", "_quant_rows"), ("natural", "_natural_rows"),
    ])
    def test_compress_runs_the_pass_once_without_compress_batch(self, monkeypatch, syntax, helper):
        calls = []
        inner = getattr(comp, helper)
        kind = next(k for k, row in comp.KIND_TABLE.items() if row.rows is inner)

        def counted(*args):
            calls.append(args[0].shape)
            return inner(*args)

        def refuse(*args, **kwargs):
            raise AssertionError("compress must not go through compress_batch")

        spec = harness.parse_compressor("forward", syntax)
        x = named_stream(10, "one-pass").standard_normal(12)
        want = comp.compress_batch(spec, x[None])[0][0]
        monkeypatch.setitem(comp.KIND_TABLE, kind, comp.KIND_TABLE[kind]._replace(rows=counted))
        monkeypatch.setattr(comp, "compress_batch", refuse)
        pay = comp.compress(spec, x)
        assert calls == [(1, 12)]
        npt.assert_array_equal(pay.reconstruction, want)
        assert pay.encoded_bytes == len(wire.encode_message(0, 0, 0, pay.body)) - wire.HEADER_BYTES


MEMBERS = [comp.identity_spec(), comp.topk_spec(2), comp.randk_spec(2), comp.quant_spec(4),
           comp.quant_spec(8), comp.natural_spec(), comp.inject_uniform_spec(0.1)]


def parent_wire_format(spec):
    """The per-call derivation the built attributes replace, kept as their oracle."""
    formats = {comp.IDENTITY: wire.FMT_DENSE, comp.INJECT_UNIFORM: wire.FMT_DENSE,
               comp.TOPK: wire.FMT_SPARSE, comp.RANDK: wire.FMT_SPARSE,
               comp.UNIFORM_QUANT: wire.FMT_QUANT, comp.NATURAL: wire.FMT_NATURAL}
    if spec.kind != comp.COMPOSE:
        return formats[spec.kind], spec.bits, wire.FMT_DENSE
    last = spec.inner[-1]
    inner = formats[last.kind]
    return wire.FMT_COMPOSE, last.bits, wire.FMT_DENSE if inner == wire.FMT_SPARSE else inner


def parent_stochastic(spec):
    if spec.kind == comp.COMPOSE:
        return any(parent_stochastic(m) for m in spec.inner)
    return spec.kind in (comp.RANDK, comp.INJECT_UNIFORM)


def spec_label(spec):
    if spec.kind == comp.COMPOSE:
        return f"compose({','.join(map(spec_label, spec.inner))})"
    return f"{spec.kind}{spec.k or spec.bits or ''}"


class TestBuiltWireFormat:
    @pytest.mark.parametrize("spec", MEMBERS + [comp.compose_spec(m) for m in MEMBERS] + [
        comp.compose_spec(a, b) for a in MEMBERS for b in MEMBERS], ids=spec_label)
    def test_the_spec_fixes_what_was_derived_per_call(self, spec):
        assert (spec.fmt, spec.wire_bits, spec.value_fmt) == parent_wire_format(spec)
        assert spec.stochastic is parent_stochastic(spec)


class TestSpecFields:
    @pytest.mark.parametrize("build", [
        lambda: comp.CompressorSpec(comp.IDENTITY, k=5, bits=3, amplitude=2.0),
        lambda: comp.CompressorSpec(comp.TOPK, k=2, inner=(comp.natural_spec(),)),
        lambda: comp.CompressorSpec(comp.NATURAL, bits=99),
        lambda: comp.compose_spec(comp.topk_spec(2), comp.CompressorSpec(comp.NATURAL, bits=9)),
    ], ids=["identity-k-bits-amplitude", "topk-inner", "natural-bits", "compose-natural-bits"])
    def test_a_field_the_kind_never_reads_is_refused(self, build):
        with pytest.raises(ConfigurationError, match="does not read"):
            build()

    @pytest.mark.parametrize("kind, field, bad", [
        (comp.TOPK, "k", 0), (comp.RANDK, "k", -1), (comp.UNIFORM_QUANT, "bits", 17),
        (comp.INJECT_UNIFORM, "amplitude", 0.0), (comp.COMPOSE, "inner", ()),
        (comp.COMPOSE, "inner", (comp.compose_spec(comp.natural_spec()),)),
    ])
    def test_the_field_the_kind_reads_is_range_checked(self, kind, field, bad):
        with pytest.raises(ConfigurationError, match=f"^{kind} {field} must be "):
            comp.CompressorSpec(kind, **{field: bad})


class TestInjectUniform:
    def test_noise_scales_with_input(self):
        rng = named_stream(7, "inject")
        spec = comp.inject_uniform_spec(0.2)
        x = np.full(1000, 2.0)
        pay = comp.compress(spec, x, rng)
        err = pay.reconstruction - x
        assert np.all(np.abs(err) <= 0.2 * 2.0 + 1e-12)
        assert np.abs(err).max() > 0.1  # noise actually injected

    def test_zero_input_gets_zero_noise(self):
        rng = named_stream(8, "inject0")
        pay = comp.compress(comp.inject_uniform_spec(0.2), np.zeros(4), rng)
        npt.assert_array_equal(pay.reconstruction, np.zeros(4))

    def test_excluded_from_contraction(self):
        with pytest.raises(ConfigurationError):
            comp.contraction_bound(comp.inject_uniform_spec(0.2), 4)

    def test_dense_payload(self):
        rng = named_stream(9, "inject-b")
        pay = comp.compress(comp.inject_uniform_spec(0.2), np.ones(10), rng)
        assert pay.encoded_bytes == 40


class TestSharedBehavior:
    @pytest.mark.parametrize("spec", [
        comp.topk_spec(2), comp.natural_spec(), comp.quant_spec(8), comp.identity_spec(),
    ])
    def test_deterministic_kinds_are_pure(self, spec):
        x = named_stream(10, "pure").standard_normal(9)
        a = comp.compress(spec, x).reconstruction
        b = comp.compress(spec, x).reconstruction
        assert a.tobytes() == b.tobytes()

    @given(finite_vectors)
    @settings(max_examples=60, deadline=None)
    def test_sign_safety(self, x):
        # reconstructed nonzero elements keep the input's sign for the
        # sparsifying and power-of-two kinds
        for spec in (comp.topk_spec(1), comp.natural_spec()):
            rec = comp.compress(spec, x).reconstruction
            nz = rec != 0.0
            assert np.all(np.sign(rec[nz]) == np.sign(x[nz]))

    @given(finite_vectors)
    @settings(max_examples=60, deadline=None)
    def test_quant_moves_at_most_half_step_plus_scale_rounding(self, x):
        # the scale travels as float32, so its rounding deficit (one f32
        # ulp of the max) adds to the half-step error budget
        rec = comp.compress(comp.quant_spec(4), x).reconstruction
        amax = float(np.abs(x).max())
        step = 2.0 * float(np.float32(amax)) / 15
        assert np.all(np.abs(rec - x) <= step / 2 + amax * 2.0**-23 + 1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ContractViolation):
            comp.compress(comp.identity_spec(), np.array([1.0, np.inf]))

    def test_batch_matches_rows_for_deterministic_kinds(self):
        X = named_stream(11, "batch").standard_normal((7, 10))
        for spec in (comp.topk_spec(3), comp.quant_spec(6), comp.natural_spec(),
                     comp.compose_spec(comp.topk_spec(4), comp.quant_spec(8))):
            recon, nbytes, vbytes = comp.compress_batch(spec, X)
            pays = [comp.compress(spec, X[i]) for i in range(7)]
            for i in range(7):
                npt.assert_array_equal(recon[i], pays[i].reconstruction)
            assert nbytes == sum(p.encoded_bytes for p in pays)
            assert vbytes == sum(p.value_bytes for p in pays)


class TestReadmeKindTable:
    TYPE_WORDS = {int: "integer", float: "number"}
    FORMAT_NAMES = {wire.FMT_DENSE: "dense", wire.FMT_SPARSE: "sparse", wire.FMT_QUANT: "quant",
                    wire.FMT_NATURAL: "natural", wire.FMT_COMPOSE: "compose"}
    ARGS = {"k": 3, "bits": 4, "amplitude": 0.5,
            "inner": (comp.topk_spec(9), comp.quant_spec(8))}

    def test_readme_kind_table_matches_the_code_table(self):
        rows = {}
        for line in README.read_text().splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 6 and cells[0].strip("`") in comp.KIND_TABLE:
                rows[cells[0].strip("`")] = cells[1:]
        assert rows.keys() == comp.KIND_TABLE.keys()
        d = 10
        for kind, (syntax, reads, fmt, stochastic, bound) in rows.items():
            row, field = comp.KIND_TABLE[kind], comp.KIND_TABLE[kind].field
            args = {} if field is None else {field.name: self.ARGS[field.name]}
            spec = comp.CompressorSpec(kind, **args)
            assert fmt == self.FORMAT_NAMES[row.fmt], kind
            if kind == comp.COMPOSE:  # no syntax name of its own, and a folded bound
                assert (row.name, syntax, row.stochastic) == (None, "`A+B`", False)
                assert (reads, stochastic) == (f"`inner`: {field.text}", "if a member is")
                assert "ω_i" in bound and 0 < comp.contraction_bound(spec, d) < 1
                continue
            name, colon, _ = syntax.strip("`").partition(":")
            assert (name, bool(colon)) == (row.name, field is not None), kind
            assert reads == ("nothing" if field is None else
                             f"{self.TYPE_WORDS[field.type]} `{field.name}` {field.text}"), kind
            assert stochastic == ("yes" if row.stochastic else "no"), kind
            if row.bound is None:
                assert bound.startswith("none"), kind
                with pytest.raises(ConfigurationError, match="not a contractive"):
                    comp.contraction_bound(spec, d)
            else:
                formula = bound.split("`")[1].replace("^", "**")
                documented = eval(formula, {"__builtins__": {}}, {"d": d, **args})
                assert documented == pytest.approx(comp.contraction_bound(spec, d)), kind
