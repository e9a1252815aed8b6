import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs
from hypothesis.extra import numpy as hnp

from clapping_sim import halves
from clapping_sim import stages as st
from clapping_sim.errors import ConfigurationError, ContractViolation
from clapping_sim.rng import named_stream

SRC = Path(__file__).resolve().parent.parent / "src"


def fd_input(spec, y, w, v, h=1e-5):
    g = np.zeros_like(y)
    for i in range(len(y)):
        up, dn = y.copy(), y.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (st.stage_forward(spec, up, w) - st.stage_forward(spec, dn, w)) @ v / (2 * h)
    return g


def fd_weight(spec, y, w, v, h=1e-5):
    g = np.zeros_like(w)
    for i in range(len(w)):
        up, dn = w.copy(), w.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (st.stage_forward(spec, y, up) - st.stage_forward(spec, y, dn)) @ v / (2 * h)
    return g


class TestStageForward:
    def test_linear_identity(self):
        spec = st.StageSpec(st.LINEAR, 2, 2)
        out = st.stage_forward(spec, np.array([3.0, -2.0]), np.eye(2).ravel())
        npt.assert_array_equal(out, [3.0, -2.0])

    def test_logistic_head_at_zero(self):
        spec = st.StageSpec(st.LOGISTIC_LOSS, 1, 1)
        out = st.stage_forward(spec, np.array([0.0]), np.zeros(0))
        npt.assert_allclose(out, [np.log(2.0)], rtol=0, atol=1e-15)

    def test_regularized_head_hand_value(self):
        # ln(1 + e^1) + 0.005 * 4 computed by hand
        spec = st.StageSpec(st.REG_LOGISTIC_LOSS, 2, 1, {"c_r": 0.005})
        out = st.stage_forward(spec, np.array([1.0, 4.0]), np.zeros(0))
        npt.assert_allclose(out, [np.log1p(np.e) + 0.02], rtol=1e-15)

    def test_relu_subgradient_zero_is_zero(self):
        spec = st.StageSpec(st.RELU, 3, 3)
        saved = st.stage_forward(spec, np.array([0.0, -1.0, 2.0]), np.zeros(0))  # the output
        out = st.stage_backward_input(spec, saved, np.zeros(0), np.ones(3))
        npt.assert_array_equal(out, [0.0, 0.0, 1.0])

    def test_dimension_mismatch_raises(self):
        spec = st.StageSpec(st.LINEAR, 3, 2)
        with pytest.raises(ContractViolation):
            st.stage_forward(spec, np.zeros(4), np.zeros(6))
        with pytest.raises(ContractViolation):
            st.stage_forward(spec, np.zeros(3), np.zeros(5))

    def test_forward_is_pure_and_deterministic(self):
        spec = st.StageSpec(st.AFFINE_BIAS, 4, 3)
        rng = named_stream(0, "purity")
        y, w = rng.standard_normal(4), rng.standard_normal(spec.param_dim)
        a = st.stage_forward(spec, y, w)
        b = st.stage_forward(spec, y, w)
        assert a.tobytes() == b.tobytes()

    def test_batched_rows_match_single(self):
        spec = st.StageSpec(st.AFFINE_BIAS, 3, 2)
        rng = named_stream(1, "batch")
        Y, w = rng.standard_normal((5, 3)), rng.standard_normal(spec.param_dim)
        batched = st.stage_forward(spec, Y, w)
        for i in range(5):
            # batched and single-row paths may differ by BLAS accumulation order
            npt.assert_allclose(batched[i], st.stage_forward(spec, Y[i], w),
                                rtol=1e-14, atol=1e-15)


def masked_sigmoid(z):
    """The two-branch form: 1 / (1 + e^-z) on z >= 0, e^z / (1 + e^z) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


EDGE_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
               2.2250738585072014e-308, -1e-310, 700.0, -700.0, 745.0, -745.0, 745.2,
               -745.2, 750.0, -750.0, 709.8, -709.8]
sigmoid_inputs = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=9),
    elements=hs.one_of(hs.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                       hs.floats(700.0, 750.0), hs.floats(-750.0, -700.0),
                       hs.sampled_from(EDGE_VALUES)))


class TestSigmoid:
    @given(sigmoid_inputs)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_masked_form_bit_for_bit(self, z):
        with np.errstate(all="ignore"):
            got, want = st._sigmoid(z), masked_sigmoid(z)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_edge_values(self):
        z = np.array(EDGE_VALUES)
        with np.errstate(all="ignore"):
            got, want = st._sigmoid(z), masked_sigmoid(z)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert np.array_equal(got[:4], [0.5, 0.5, 1.0, 0.0])


LINEAR_3_2 = st.StageSpec(st.LINEAR, 3, 2)


class TestChecks:
    """The fast pass in the stage checks returns only a float64 ndarray
    of the right shape; everything else goes the old way."""

    @pytest.mark.parametrize("y", [
        np.zeros(3, dtype=np.int64), [0.0, 1.0, 2.0], np.zeros(4, dtype=np.int64), [0.0] * 4,
        np.zeros((2, 2, 3)), np.zeros(4), np.zeros((2, 4)), np.zeros(()),
    ], ids=["int", "list", "int-wrong-dim", "list-wrong-dim", "3-d", "wrong-dim",
            "wrong-trailing-dim", "0-d"])
    def test_check_vec(self, y):
        x = np.asarray(y)
        if x.ndim in (1, 2) and x.shape[-1] == 3:  # converted, not refused
            out = st._check_vec("y_in", y, 3)
            assert out.dtype == np.float64 and np.array_equal(out, x)
        else:
            with pytest.raises(ContractViolation, match="y_in: expected trailing dim 3"):
                st._check_vec("y_in", y, 3)
            with pytest.raises(ContractViolation):
                st.stage_forward(LINEAR_3_2, y, np.zeros(6))

    @pytest.mark.parametrize("w", [
        np.zeros(6, dtype=np.int64), [0.0] * 6, np.zeros(5, dtype=np.int64), [0.0] * 5,
        np.zeros((1, 1, 6)), np.zeros(5), np.zeros((2, 3)), np.zeros(7),
    ], ids=["int", "list", "int-short", "list-short", "3-d", "short", "2-d", "long"])
    def test_check_params(self, w):
        x = np.asarray(w)
        if x.shape == (6,):  # converted, not refused
            out = st._check_params(w, 6)
            assert out.dtype == np.float64 and np.array_equal(out, x)
        else:
            with pytest.raises(ContractViolation, match="w: expected 6 parameters"):
                st._check_params(w, 6)
            for call in (st.stage_forward, st.stage_backward_input, st.stage_backward_weight):
                args = (np.zeros(3), w) + ((np.ones(2),) if call is not st.stage_forward else ())
                with pytest.raises(ContractViolation):
                    call(LINEAR_3_2, *args)

    @pytest.mark.parametrize("w", [np.ones(99), np.zeros(1), np.zeros((0, 0)), [0.0] * 3],
                             ids=["99", "1", "2-d", "list"])
    def test_a_stage_without_parameters_refuses_any(self, w):
        tanh = st.StageSpec(st.TANH, 3, 3)
        with pytest.raises(ContractViolation, match="w: expected 0 parameters, got shape"):
            st._check_params(w, 0)
        for call in (st.stage_forward, st.stage_backward_input):
            args = (np.zeros(3), w) + ((np.ones(3),) if call is not st.stage_forward else ())
            with pytest.raises(ContractViolation):
                call(tanh, *args)

    def test_the_weight_adjoint_checks_w_before_a_stage_without_parameters_returns(self):
        tanh = st.StageSpec(st.TANH, 3, 3)
        with pytest.raises(ContractViolation, match="w: expected 0 parameters"):
            st.stage_backward_weight(tanh, np.ones(3), np.ones(2), np.ones(3))
        with pytest.raises(ContractViolation, match="w: expected numbers, got str"):
            st.stage_backward_weight(tanh, np.ones(3), "junk", np.ones(3))

    @pytest.mark.parametrize("stage", [st.StageSpec(st.TANH, 3, 3), LINEAR_3_2],
                             ids=["tanh", "linear"])
    @pytest.mark.parametrize("arg, bad", [(0, "abc"), (1, "junk"), (2, [[1.0], [1.0, 2.0]]),
                                          (0, {}), (1, object())],
                             ids=["y-str", "w-str", "v-ragged", "y-dict", "w-object"])
    def test_an_argument_that_is_not_numeric(self, stage, arg, bad):
        good = [np.ones(3), np.ones(stage.param_dim), np.ones(stage.output_dim)]
        calls = {st.stage_forward: ("y_in", "w"), st.stage_backward_input: ("saved", "w", "v_out"),
                 st.stage_backward_weight: ("y_in", "w", "v_out")}
        for call, names in calls.items():
            if arg >= len(names):
                continue
            args = good[: len(names)]
            args[arg] = bad
            with pytest.raises(ContractViolation, match=f"^{names[arg]}: expected numbers, got "):
                call(stage, *args)

    @pytest.mark.parametrize("arg", [0, 1], ids=["y_in", "w"])
    def test_complex_input_is_refused_not_cast(self, arg):
        args = [np.ones((2, 3)), np.ones(LINEAR_3_2.param_dim)]
        args[arg] = args[arg] + 1j
        name = ("y_in", "w")[arg]
        with pytest.raises(ContractViolation, match=f"^{name}: expected real numbers, got complex"):
            st.stage_forward(LINEAR_3_2, *args)
        with pytest.raises(ContractViolation, match="^x: expected real numbers, got complex"):
            st.chain_loss(st.logistic_chain(2, 0.1), np.ones((2, 3)) + 1j, [np.ones(3), np.ones(0)])

    @pytest.mark.parametrize("stage, y_shape, v_shape", [
        (LINEAR_3_2, (4, 3), (3, 2)), (LINEAR_3_2, (3,), (2, 2)), (LINEAR_3_2, (2, 3), (2,)),
        (st.StageSpec(st.TANH, 3, 3), (3,), (4, 3)), (st.StageSpec(st.TANH, 3, 3), (4, 3), (3,)),
    ], ids=["linear-4-vs-3-rows", "linear-vector-vs-rows", "linear-rows-vs-vector",
            "tanh-vector-vs-rows", "tanh-rows-vs-vector"])
    def test_the_tape_entry_and_v_out_must_have_the_same_rows(self, stage, y_shape, v_shape):
        """A row mismatch was a bare numpy error, a wrong-shaped adjoint or
        a silent broadcast; both backward calls refuse it, naming both shapes."""
        y, w, v = np.ones(y_shape), np.ones(stage.param_dim), np.ones(v_shape)
        shapes = re.escape(f"{y_shape} and v_out {v_shape}")
        for call, name in ((st.stage_backward_input, "saved"), (st.stage_backward_weight, "y_in")):
            with pytest.raises(ContractViolation, match=f"^{name} {shapes} differ in rows"):
                call(stage, y, w, v)

    def test_a_chain_refuses_parameters_for_its_tanh_stage(self):
        chain = st.tanh_mlp_chain((3, 4), (2,))
        x = np.ones((2, 3))
        w_all = [np.zeros(s.param_dim) for s in chain.stages]
        st.chain_loss(chain, x, w_all)
        w_all[1] = np.ones(99)  # the tanh stage
        with pytest.raises(ContractViolation, match="expected 0 parameters, got shape \\(99,\\)"):
            st.chain_loss(chain, x, w_all)

    def test_fast_pass_returns_the_array_itself(self):
        y, w = np.zeros((4, 3)), np.zeros(6)
        assert st._check_vec("y_in", y, 3) is y
        assert st._check_params(w, 6) is w
        empty = np.zeros(0)  # a stage without parameters, too
        assert st._check_params(empty, 0) is empty
        view = np.zeros((4, 5))[:, :3]  # a strided view passes as it is, as asarray would
        assert st._check_vec("y_in", view, 3) is view

    def test_geometry_is_fixed_at_build(self):
        spec = st.StageSpec(st.LINEAR, 4, 3, {"append_sq_norm": True})
        assert (spec.append_sq_norm, spec.matrix_rows, spec.param_dim, spec.c_r) == (
            True, 2, 8, None)
        head = st.StageSpec(st.REG_LOGISTIC_LOSS, 2, 1, {"c_r": 0.25})
        assert (head.append_sq_norm, head.param_dim, head.c_r) == (False, 0, 0.25)
        affine = st.StageSpec(st.AFFINE_BIAS, 4, 3)
        assert (affine.matrix_rows, affine.param_dim) == (3, 15)


class TestStageBackward:
    def test_linear_identity_input_adjoint(self):
        spec = st.StageSpec(st.LINEAR, 2, 2)
        out = st.stage_backward_input(spec, np.zeros(2), np.eye(2).ravel(), np.ones(2))
        npt.assert_array_equal(out, [1.0, 1.0])

    def test_tanh_prime_at_zero(self):
        spec = st.StageSpec(st.TANH, 1, 1)
        out = st.stage_backward_input(spec, np.array([0.0]), np.zeros(0), np.array([1.0]))
        npt.assert_array_equal(out, [1.0])

    def test_random_linear_matches_finite_differences(self):
        spec = st.StageSpec(st.LINEAR, 3, 2)
        rng = named_stream(2, "fd")
        y, w = rng.standard_normal(3), rng.standard_normal(6)
        v = rng.standard_normal(2)
        bp = st.stage_backward_input(spec, y, w, v)
        fd = fd_input(spec, y, w, v)
        assert np.linalg.norm(bp - fd) / np.linalg.norm(fd) < 1e-6

    def test_tanh_and_relu_differentiate_from_their_output(self):
        tanh, relu = st.StageSpec(st.TANH, 4, 4), st.StageSpec(st.RELU, 4, 4)
        assert tanh.saves_output and relu.saves_output
        assert not any(st.StageSpec(k, 2, 2).saves_output for k in (st.LINEAR, st.AFFINE_BIAS))
        # the saved array is tanh's output t: the adjoint is v * (1 - t^2), exact here
        saved, v = np.array([0.0, 0.5, -0.25, 0.75]), np.array([2.0, 1.0, -4.0, 16.0])
        out = st.stage_backward_input(tanh, saved, np.zeros(0), v)
        npt.assert_array_equal(out, [2.0, 0.75, -3.75, 7.0])
        npt.assert_array_equal(saved, [0.0, 0.5, -0.25, 0.75])  # neither input is written
        npt.assert_array_equal(v, [2.0, 1.0, -4.0, 16.0])
        # relu's output max(y, 0) is positive exactly where y is
        out = st.stage_backward_input(relu, np.array([0.0, 0.0, 3.0, 1e-300]), np.zeros(0), v)
        npt.assert_array_equal(out, [0.0, 0.0, -4.0, 16.0])

    def test_tanh_weight_adjoint_is_empty(self):
        spec = st.StageSpec(st.TANH, 3, 3)
        out = st.stage_backward_weight(spec, np.ones(3), np.zeros(0), np.ones(3))
        assert out.shape == (0,)

    def test_linear_1x1_weight_adjoint(self):
        spec = st.StageSpec(st.LINEAR, 1, 1)
        out = st.stage_backward_weight(spec, np.array([3.0]), np.array([2.0]), np.array([1.0]))
        npt.assert_array_equal(out, [3.0])

    def test_affine_bias_weight_matches_finite_differences(self):
        spec = st.StageSpec(st.AFFINE_BIAS, 4, 3)
        rng = named_stream(3, "fd-w")
        y, w = rng.standard_normal(4), rng.standard_normal(spec.param_dim)
        v = rng.standard_normal(3)
        bp = st.stage_backward_weight(spec, y, w, v)
        fd = fd_weight(spec, y, w, v)
        assert np.linalg.norm(bp - fd) / np.linalg.norm(fd) < 1e-6

    @pytest.mark.parametrize("kind", st.STAGE_KINDS)
    def test_every_kind_matches_finite_differences(self, kind):
        rng = named_stream(4, f"fd-{kind}")
        for _ in range(25):
            if kind == st.LINEAR:
                spec = st.StageSpec(kind, 3, 3, {"append_sq_norm": True})
            elif kind == st.AFFINE_BIAS:
                spec = st.StageSpec(kind, 3, 2)
            elif kind in (st.TANH, st.RELU):
                spec = st.StageSpec(kind, 3, 3)
            elif kind == st.LOGISTIC_LOSS:
                spec = st.StageSpec(kind, 1, 1)
            else:
                spec = st.StageSpec(kind, 2, 1, {"c_r": 0.01})
            y = rng.standard_normal(spec.input_dim)
            if kind == st.RELU:
                y = np.where(np.abs(y) < 0.05, 0.5, y)
            w = rng.standard_normal(spec.param_dim)
            v = rng.standard_normal(spec.output_dim)
            fd_in = fd_input(spec, y, w, v)
            saved = st.stage_forward(spec, y, w) if spec.saves_output else y
            bp_in = st.stage_backward_input(spec, saved, w, v)
            assert np.linalg.norm(bp_in - fd_in) <= 1e-6 * max(np.linalg.norm(fd_in), 1e-3)
            if spec.param_dim:
                fd_w = fd_weight(spec, y, w, v)
                bp_w = st.stage_backward_weight(spec, y, w, v)
                assert np.linalg.norm(bp_w - fd_w) <= 1e-6 * max(np.linalg.norm(fd_w), 1e-3)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def input_tape_backward(stages, params, x, v, to_input):
    """The forward and backward loops as they were before tapes kept any
    stage's output: the affine bias added out of place, every stage's
    input on the tape, tanh' recomputed from the pre-activation and relu'
    read from it. Returns (output, weight adjoints, input adjoint)."""
    ys = [x]
    for stage, w in zip(stages, params):
        if stage.kind == st.AFFINE_BIAS:
            n = stage.output_dim * stage.input_dim
            ys.append(ys[-1] @ w[:n].reshape(stage.output_dim, stage.input_dim).T + w[n:])
        else:
            ys.append(st.stage_forward(stage, ys[-1], w))
    grads = [None] * len(stages)
    for i in reversed(range(len(stages))):
        stage, w, y = stages[i], params[i], ys[i]
        if stage.param_dim:
            grads[i] = st.stage_backward_weight(stage, y, w, v)
        if i == 0 and not to_input:
            break
        if stage.kind == st.TANH:
            v = v * (1.0 - np.tanh(y) ** 2)
        elif stage.kind == st.RELU:
            v = v * (y > 0.0)
        else:
            v = st.stage_backward_input(stage, y, w, v)
    return ys[-1], grads, v


@hs.composite
def small_chains(draw):
    """Stage tuples of linear (with or without the appended squared norm),
    affine, tanh and relu stages, a batch size (None for one 1-D row) and
    a seed for the values."""
    dim, stages = draw(hs.integers(1, 5)), []
    kinds = (st.LINEAR, st.AFFINE_BIAS, st.TANH, st.RELU)
    for kind in draw(hs.lists(hs.sampled_from(kinds), min_size=1, max_size=6)):
        if kind in (st.TANH, st.RELU):
            stages.append(st.StageSpec(kind, dim, dim))
            continue
        sq_norm = kind == st.LINEAR and draw(hs.booleans())
        out = draw(hs.integers(1, 5)) + sq_norm
        stages.append(st.StageSpec(kind, dim, out, {"append_sq_norm": True} if sq_norm else {}))
        dim = out
    return tuple(stages), draw(hs.sampled_from([None, 1, 3])), draw(hs.integers(0, 2**16))


EVERY_KIND = {
    "linear": st.StageSpec(st.LINEAR, 3, 2),
    "linear+sq_norm": st.StageSpec(st.LINEAR, 3, 3, {"append_sq_norm": True}),
    "affine": st.StageSpec(st.AFFINE_BIAS, 3, 2),
    "tanh": st.StageSpec(st.TANH, 3, 3),
    "relu": st.StageSpec(st.RELU, 3, 3),
    "logistic": st.StageSpec(st.LOGISTIC_LOSS, 1, 1),
    "regularized_logistic": st.StageSpec(st.REG_LOGISTIC_LOSS, 2, 1, {"c_r": 0.01}),
    "wide_affine": st.StageSpec(st.AFFINE_BIAS, 512, 512),  # its products run as halves
}


def read_only(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


class TestReadOnlyInputs:
    """The engine hands a receiving worker the link's cache array itself,
    and the tape keeps it: no stage function may write its inputs. Here
    every input is read-only, so a write would raise."""

    def test_every_kind_is_covered(self):
        assert {stage.kind for stage in EVERY_KIND.values()} == set(st.STAGE_KINDS)

    @pytest.mark.parametrize("rows", [None, 4, 128], ids=["vector", "batch", "wide_batch"])
    @pytest.mark.parametrize("name", sorted(EVERY_KIND))
    def test_no_stage_function_writes_its_inputs(self, name, rows, matmul_split):
        matmul_split(threads=1)  # wide products split where a helper can run
        stage = EVERY_KIND[name]
        rng = named_stream(23, f"read-only-{name}")
        lead = () if rows is None else (rows,)
        y, v = (read_only(rng.standard_normal(lead + (dim,)))
                for dim in (stage.input_dim, stage.output_dim))
        w = read_only(rng.standard_normal(stage.param_dim))
        out = st.stage_forward(stage, y, w)
        assert out.shape == lead + (stage.output_dim,)
        saved = read_only(out) if stage.saves_output else y
        st.stage_backward_input(stage, saved, w, v)
        st.stage_backward_weight(stage, y, w, v)


class TestModelChain:
    @pytest.mark.parametrize("kind, din, extra, says", [
        (st.LINEAR, 3, {"apend_sq_norm": True}, "linear stage does not read extra 'apend_sq_norm'"),
        (st.LINEAR, 3, {"append_sq_norm": "no"}, "linear append_sq_norm must be a bool, got 'no'"),
        (st.TANH, 3, {"append_sq_norm": True}, "tanh stage does not read extra 'append_sq_norm'"),
        (st.LINEAR, 3, {"c_r": 0.1}, "linear stage does not read extra 'c_r'"),
        (st.REG_LOGISTIC_LOSS, 2, {"c_r": "x"}, "c_r must be a finite real >= 0, got 'x'"),
        (st.REG_LOGISTIC_LOSS, 2, {"c_r": -0.5}, "c_r must be a finite real >= 0, got -0.5"),
        (st.REG_LOGISTIC_LOSS, 2, {"c_r": float("nan")}, "c_r must be a finite real >= 0, got nan"),
        (st.REG_LOGISTIC_LOSS, 2, {"c_r": float("inf")}, "c_r must be a finite real >= 0, got inf"),
        (st.REG_LOGISTIC_LOSS, 2, {"c_r": True}, "c_r must be a finite real >= 0, got True"),
        (st.LINEAR, 3, None, "linear stage: extra must be a mapping, got None"),
        (st.REG_LOGISTIC_LOSS, 2, [], "stage: extra must be a mapping, got []"),
    ], ids=["typo", "not-bool", "tanh-sq-norm", "linear-c_r", "c_r-str", "c_r-negative",
            "c_r-nan", "c_r-inf", "c_r-bool", "not-a-mapping", "head-not-a-mapping"])
    def test_an_extra_its_kind_does_not_read_as_given_is_refused(self, kind, din, extra, says):
        out = 1 if kind == st.REG_LOGISTIC_LOSS else 3
        with pytest.raises(ConfigurationError, match=re.escape(says)):
            st.StageSpec(kind, din, out, extra)

    def test_adjacent_dims_must_match(self):
        with pytest.raises(ConfigurationError):
            st.ModelChain((st.StageSpec(st.LINEAR, 2, 3), st.StageSpec(st.TANH, 2, 2)))

    def test_final_stage_must_be_scalar(self):
        with pytest.raises(ConfigurationError):
            st.ModelChain((st.StageSpec(st.LINEAR, 2, 3),))

    def test_boundaries_strictly_increasing(self):
        stages = st.tanh_mlp_chain((3, 3, 3), boundaries=(2,)).stages
        with pytest.raises(ConfigurationError):
            st.ModelChain(stages, boundaries=(2, 2))

    def test_worker_partition(self):
        chain = st.tanh_mlp_chain((4, 5, 3), boundaries=(2, 4))
        assert chain.num_workers == 3
        assert sum(len(chain.worker_stages(e)) for e in (1, 2, 3)) == len(chain.stages)
        assert chain.boundary_dim(0) == 5
        assert chain.boundary_dim(1) == 3

    def test_two_stage_chain_loss_at_zero(self):
        chain = st.ModelChain(
            (st.StageSpec(st.LINEAR, 2, 1), st.StageSpec(st.LOGISTIC_LOSS, 1, 1)),
            boundaries=(1,),
        )
        loss = st.chain_loss(chain, np.zeros(2), [np.array([1.0, 0.0]), np.zeros(0)])
        npt.assert_allclose(loss, np.log(2.0), rtol=1e-15)

    def test_logistic_chain_matches_scalar_oracle(self):
        # margin stage plus regularized head against a direct scalar
        # computation of ln(1+e^{-zeta(xi.w+b)}) + c_r(|w|^2 + b^2)
        c_r = 0.005
        chain = st.logistic_chain(4, c_r)
        rng = named_stream(5, "oracle")
        w, b = rng.standard_normal(4), float(rng.standard_normal())
        xi, zeta = rng.standard_normal(4), -1.0
        x = np.concatenate([-zeta * xi, [-zeta]])
        loss = st.chain_loss(chain, x, [np.concatenate([w, [b]]), np.zeros(0)])
        expected = np.log1p(np.exp(-zeta * (xi @ w + b))) + c_r * (w @ w + b * b)
        npt.assert_allclose(loss, expected, rtol=1e-14)

    def test_mlp_chain_matches_flat_reimplementation(self):
        # independently coded flat loss for affine+tanh blocks and a
        # softplus head, same weights
        chain = st.tanh_mlp_chain((3, 4), boundaries=(1,))
        rng = named_stream(6, "flat")
        w_all = [rng.standard_normal(s.param_dim) for s in chain.stages]
        x = rng.standard_normal(3)

        def flat_loss(x, w_all):
            W1 = w_all[0][:12].reshape(4, 3)
            b1 = w_all[0][12:]
            h = np.tanh(W1 @ x + b1)
            W2 = w_all[2][:4].reshape(1, 4)
            b2 = w_all[2][4:]
            z = W2 @ h + b2
            return float(np.logaddexp(0.0, z)[0])

        assert abs(st.chain_loss(chain, x, w_all) - flat_loss(x, w_all)) <= 1e-12

    def test_full_chain_backprop_matches_loss_finite_differences(self):
        chain = st.tanh_mlp_chain((4, 6, 3), boundaries=(2,))
        rng = named_stream(7, "chain-fd")
        w_all = [0.7 * rng.standard_normal(s.param_dim) for s in chain.stages]
        x = rng.standard_normal(4)
        _, u_all = st.chain_gradients(chain, x, w_all)
        h = 1e-5
        for si, w in enumerate(w_all):
            if not len(w):
                continue
            fd = np.zeros_like(w)
            for i in range(len(w)):
                up = [p.copy() for p in w_all]
                dn = [p.copy() for p in w_all]
                up[si][i] += h
                dn[si][i] -= h
                fd[i] = (st.chain_loss(chain, x, up) - st.chain_loss(chain, x, dn)) / (2 * h)
            assert np.linalg.norm(u_all[si] - fd) / max(np.linalg.norm(fd), 1e-8) < 1e-6

    def test_chain_gradients_skips_the_chain_input_adjoint(self, monkeypatch):
        chain = st.tanh_mlp_chain((4, 6, 3), boundaries=(2,))
        rng = named_stream(9, "chain-input")
        w_all = [rng.standard_normal(s.param_dim) for s in chain.stages]
        X = rng.standard_normal((5, 4))
        asked = []
        real = st.stage_backward_input

        def counting(stage, *args):
            asked.append(stage)
            return real(stage, *args)

        monkeypatch.setattr(st, "stage_backward_input", counting)
        _, u_all = st.chain_gradients(chain, X, w_all)
        assert len(asked) == len(chain.stages) - 1
        assert not any(stage is chain.stages[0] for stage in asked)
        assert len(u_all) == len(chain.stages)

    def test_chain_gradients_peak_stays_near_the_forward_tape(self):
        # the 4-worker width-512 MLP on 1024 rows, where one activation is
        # about 4.2 MB and the weight gradients about 8.4 MB. The tape holds
        # the four tanh outputs and no affine pre-activation; with the
        # gradients and two activations in flight (the adjoint and the one
        # being formed) the peak stays under the bound below, about 33.6 MB.
        # A tape of stage inputs, where tanh recomputes its output from the
        # pre-activation, peaks near 42.5 MB; a scaled copy of every stage's
        # activation gradient, as chain_gradients once kept, near 82 MB.
        chain = st.tanh_mlp_chain((512,) * 5, boundaries=(2, 4, 6))
        rng = named_stream(12, "chain-memory")
        w_all = [0.05 * rng.standard_normal(s.param_dim) for s in chain.stages]
        X = rng.standard_normal((1024, 512))
        tanh_outputs = sum(s.kind == st.TANH for s in chain.stages) * X.nbytes
        grads = sum(w.nbytes for w in w_all)
        in_flight = 2 * X.nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            st.chain_gradients(chain, X, w_all)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < tanh_outputs + grads + in_flight, (peak, tanh_outputs, grads)

    def test_tanh_tape_entry_is_its_output(self):
        chain = st.tanh_mlp_chain((4, 6, 5, 3), boundaries=(2, 4))
        rng = named_stream(13, "tape")
        w_all = [rng.standard_normal(s.param_dim) for s in chain.stages]
        X = rng.standard_normal((7, 4))
        tape = st.chain_forward(chain, X, w_all)
        assert len(tape) == len(chain.stages) + 1
        pre_activations, y = [], X
        for i, (stage, w) in enumerate(zip(chain.stages, w_all)):
            out = st.stage_forward(stage, y, w)
            if stage.kind == st.TANH:
                pre_activations.append(y)
                assert tape[i] is tape[i + 1]
                npt.assert_array_equal(tape[i], out)
            else:
                npt.assert_array_equal(tape[i], y)  # every other stage keeps its input
            y = out
        assert len(pre_activations) == 3
        assert not any(np.array_equal(entry, a) for entry in tape for a in pre_activations)

    @given(small_chains(), hs.booleans())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_pull_back_matches_the_input_tape_loop_bit_for_bit(self, case, to_input):
        stages, batch, seed = case
        rng = np.random.default_rng(seed)
        shape = (stages[0].input_dim,) if batch is None else (batch, stages[0].input_dim)
        x = rng.standard_normal(shape)
        params = [rng.standard_normal(s.param_dim) for s in stages]
        v = rng.standard_normal(shape[:-1] + (stages[-1].output_dim,))
        v_before = v.copy()
        want_out, want_grads, want_v = input_tape_backward(stages, params, x, v, to_input)

        tape = st.run_stages(stages, x, params)
        assert same_bits(tape.pop(), want_out)
        grads = [None] * len(stages)
        got_v = st.pull_back(stages, tape, params, v, grads, to_input)
        assert tape == []  # every entry popped
        assert same_bits(v, v_before)
        for stage, got, want in zip(stages, grads, want_grads):
            assert (got is None) if stage.param_dim == 0 else same_bits(got, want)
        assert (got_v is None) if not to_input else same_bits(got_v, want_v)
        # without grads only the adjoint is pulled back, to the same bits
        tape = st.run_stages(stages, x, params)[:-1]
        again = st.pull_back(stages, tape, params, v, to_input=to_input)
        assert (again is None) if not to_input else same_bits(again, want_v)

    def test_batched_loss_is_mean_of_rows(self):
        chain = st.logistic_chain(3, 0.01)
        rng = named_stream(8, "mean")
        w_all = [rng.standard_normal(s.param_dim) for s in chain.stages]
        X = rng.standard_normal((6, 4))
        per_row = [st.chain_loss(chain, X[i], w_all) for i in range(6)]
        npt.assert_allclose(st.chain_loss(chain, X, w_all), np.mean(per_row), rtol=1e-14)


# The linear and affine stage math before it shared one matrix view and
# one weight-adjoint formula, kept as the oracle for the stage functions.
def oracle_forward(stage, y, w):
    if stage.kind == st.LINEAR:
        mat = w.reshape(stage.matrix_rows, stage.input_dim)
        if not stage.append_sq_norm:
            return y @ mat.T
        out = np.empty(y.shape[:-1] + (stage.output_dim,))
        np.matmul(y, mat.T, out=out[..., :-1])
        out[..., -1] = w @ w
        return out
    mat = w[: stage.output_dim * stage.input_dim].reshape(stage.output_dim, stage.input_dim)
    out = y @ mat.T
    out += w[stage.output_dim * stage.input_dim :]
    return out


def oracle_backward_input(stage, y, w, v):
    if stage.kind == st.LINEAR:
        mat = w.reshape(stage.matrix_rows, stage.input_dim)
        return v[..., : stage.matrix_rows] @ mat
    mat = w[: stage.output_dim * stage.input_dim].reshape(stage.output_dim, stage.input_dim)
    return v @ mat


def oracle_outer_sum(v, y, batched, out):
    if batched:
        np.matmul(v.T, y, out=out)
    else:
        np.outer(v, y, out=out)


def oracle_backward_weight(stage, y, w, v):
    out = np.empty(stage.param_dim)
    batched = y.ndim == 2
    if stage.kind == st.LINEAR:
        rows = stage.matrix_rows
        oracle_outer_sum(v[..., :rows], y, batched, out.reshape(rows, stage.input_dim))
        if stage.append_sq_norm:
            v_sq = v[..., rows].sum() if batched else v[..., rows]
            out += 2.0 * float(v_sq) * w
        return out
    n_mat = stage.output_dim * stage.input_dim
    oracle_outer_sum(v, y, batched, out[:n_mat].reshape(stage.output_dim, stage.input_dim))
    if batched:
        v.sum(axis=0, out=out[n_mat:])
    else:
        out[n_mat:] = v
    return out


PARAMETRIC = {"linear": (st.LINEAR, {}), "linear+sq_norm": (st.LINEAR, {"append_sq_norm": True}),
              "affine": (st.AFFINE_BIAS, {})}


def signed_magnitudes(rng, shape):
    """Values of either sign with magnitudes from 1e-3 to 1e3, never zero."""
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3.0, 3.0, size=shape)


class TestParametricStagesMatchTheOracle:
    @given(hs.sampled_from(sorted(PARAMETRIC)), hs.integers(1, 6), hs.integers(0, 6),
           hs.one_of(hs.none(), hs.integers(1, 39)), hs.integers(0, 2**32 - 1))
    @settings(max_examples=400, derandomize=True, deadline=None)
    def test_all_three_functions_byte_for_byte(self, kind, d_in, rows, batch, seed):
        name, extra = PARAMETRIC[kind]
        # a linear stage may have no matrix rows and only its ||w||^2 output
        stage = st.StageSpec(name, d_in, rows + 1 if extra else max(rows, 1), extra)
        rng = np.random.default_rng(seed)
        rows = () if batch is None else (batch,)
        y = signed_magnitudes(rng, rows + (d_in,))
        w = signed_magnitudes(rng, (stage.param_dim,))
        v = signed_magnitudes(rng, rows + (stage.output_dim,))
        assert same_bits(st.stage_forward(stage, y, w), oracle_forward(stage, y, w))
        assert same_bits(st.stage_backward_input(stage, y, w, v),
                         oracle_backward_input(stage, y, w, v))
        assert same_bits(st.stage_backward_weight(stage, y, w, v),
                         oracle_backward_weight(stage, y, w, v))

    @pytest.mark.parametrize("kind", sorted(PARAMETRIC))
    def test_a_vector_is_a_one_row_batch_down_to_the_sign_of_zero(self, kind):
        """With zeros in the input, np.outer keeps a -0.0 product that the
        one-row matmul, like every batch, sums to +0.0: the same value."""
        name, extra = PARAMETRIC[kind]
        stage = st.StageSpec(name, 3, 2 + bool(extra), extra)
        y = np.array([0.0, -0.0, 2.0])
        v = np.array([-1.0, 0.0, -0.0][: stage.output_dim])
        w = np.arange(1.0, stage.param_dim + 1.0)
        got = st.stage_backward_weight(stage, y, w, v)
        assert same_bits(got, st.stage_backward_weight(stage, y[None], w, v[None]))
        want = oracle_backward_weight(stage, y, w, v)
        assert np.array_equal(got, want)
        assert np.signbit(want).any() and same_bits(got, want + 0.0)


def stage_products(rows, d_in, d_out, rng):
    """The operands of the three stage matrix products of a (d_out x d_in)
    weight matrix on a batch of ``rows``, as the stage functions pass them."""
    y = rng.standard_normal((rows, d_in))
    v = rng.standard_normal((rows, d_out))
    mat = rng.standard_normal((d_out, d_in))
    return {"forward": (y, mat.T), "input_adjoint": (v, mat), "weight_adjoint": (v.T, y)}


class TestSplitMatmul:
    """A product above ``_SPLIT_MACS`` runs as two halves, one on a helper
    thread; every bit must be that of the one call it replaces."""

    @pytest.mark.parametrize("rows", [128, 1024, 37])
    def test_halves_match_one_call_bit_for_bit(self, rows, matmul_split):
        matmul_split(threads=1)
        count = threading.active_count()
        rng = named_stream(20, "split")
        sides = {}
        for d_in, d_out in ((512, 512), (512, 256)):
            for name, (a, b) in stage_products(rows, d_in, d_out, rng).items():
                for a, b in ((a, b), (b.T, a.T)):  # and the transposed product
                    m, n = a.shape[0], b.shape[1]
                    assert m * a.shape[1] * n > st._SPLIT_MACS
                    sides.setdefault(name, set()).add("rows" if m >= n else "columns")
                    want = a @ b
                    assert np.array_equal(st._matmul(a, b).view(np.int64), want.view(np.int64))
                    out = np.full(m * n, np.nan)
                    got = st._matmul(a, b, out=out.reshape(m, n))
                    assert np.shares_memory(got, out)
                    assert np.array_equal(out.view(np.int64), want.ravel().view(np.int64))
        y = rng.standard_normal((rows, 512))  # y.T @ y, one call, runs as BLAS syrk
        assert np.array_equal(st._matmul(y.T, y).view(np.int64), (y.T @ y).view(np.int64))
        assert halves._helpers[os.getpid()] is not None  # the halves did run on the helper
        assert threading.active_count() == count + 1  # one helper for all of them
        assert sides == {name: {"rows", "columns"} for name in sides}, sides

    @pytest.mark.parametrize("kind", sorted(PARAMETRIC))
    def test_wide_stage_functions_match_the_oracle(self, kind, matmul_split):
        matmul_split(threads=1)
        name, extra = PARAMETRIC[kind]
        stage = st.StageSpec(name, 512, 512 + bool(extra), extra)
        rng = named_stream(21, "split-stage")
        y = rng.standard_normal((128, 512))
        w = rng.standard_normal(stage.param_dim)
        v = rng.standard_normal((128, stage.output_dim))
        assert same_bits(st.stage_forward(stage, y, w), oracle_forward(stage, y, w))
        assert same_bits(st.stage_backward_input(stage, y, w, v),
                         oracle_backward_input(stage, y, w, v))
        assert same_bits(st.stage_backward_weight(stage, y, w, v),
                         oracle_backward_weight(stage, y, w, v))

    @pytest.mark.parametrize("threads, cpus", [(1, (0,)), (1, None), (2, (0, 1))],
                             ids=["one-cpu", "no-sched-getaffinity", "two-blas-threads"])
    def test_where_a_split_cannot_pay_one_call_runs_and_no_thread_starts(
            self, threads, cpus, matmul_split):
        """One CPU allowed, an OS without sched_getaffinity, or a BLAS that
        spreads each product over the CPUs itself: no helper, same bits."""
        matmul_split(threads, cpus)
        count = threading.active_count()
        for a, b in stage_products(128, 512, 512, named_stream(22, "one-cpu")).values():
            assert np.array_equal(st._matmul(a, b).view(np.int64), (a @ b).view(np.int64))
        assert halves._helpers == {os.getpid(): None}
        assert threading.active_count() == count

    def test_the_blas_thread_count_is_read_from_the_library_numpy_loaded(self, matmul_split):
        """OPENBLAS_NUM_THREADS=1, as perfbench sets it, gives a helper where
        two CPUs are allowed; 2 gives none. (The fixture, left uncalled,
        only skips where numpy links another BLAS.)"""
        code = ("import os, numpy as np\n"
                "from clapping_sim import halves, stages\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "a = np.ones((128, 512))\n"
                "assert (stages._matmul(a, a.T) == 512).all()\n"
                "print(halves.helper() is not None)\n")
        got = {n: run_python(code, OPENBLAS_NUM_THREADS=n).split() for n in ("1", "2")}
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        # OpenBLAS starts at most one thread per CPU the process may run on
        assert got == {"1": ["True"], "2": [str(cpus < 2)]}

    def test_an_error_in_the_helpers_half_reaches_the_caller(self, matmul_split):
        """As one call's error: the whole product runs again, unsplit."""
        matmul_split(threads=1)
        a, b = stage_products(128, 512, 512, named_stream(23, "split-error"))["forward"]
        out = np.empty((128, 600))
        with pytest.raises(ValueError) as one_call:
            np.matmul(a, b, out=out)
        with pytest.raises(ValueError) as split:  # only the helper's column half is mis-shaped
            st._matmul(a, b, out=out)
        assert str(split.value) == str(one_call.value)
        assert np.array_equal(st._matmul(a, b).view(np.int64), (a @ b).view(np.int64))


def run_python(code: str, **env: str) -> str:
    """``code`` in a fresh interpreter that imports this checkout's package,
    with ``env`` added to the environment."""
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return done.stdout


def test_a_narrow_run_starts_no_thread(tmp_path):
    out = run_python(
        "import threading\n"
        "from clapping_sim import harness\n"
        "cfg = harness.logistic_benchmark_config('clapping_fu', total_steps=400, log_every=100)\n"
        f"harness.run_experiment(cfg, {str(tmp_path / 'm.csv')!r})\n"
        "print([t.name for t in threading.enumerate()])\n")
    assert out.split() == ["['MainThread']"]


def test_import_loads_no_executor_or_logging():
    out = run_python("import sys, clapping_sim\n"
                     "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    assert out.split() == ["[]"]
