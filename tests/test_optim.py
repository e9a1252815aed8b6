import numpy as np
import numpy.testing as npt
import pytest

from clapping_sim.errors import ConfigurationError
from clapping_sim.optim import MOMENTUM_SGD, OptimizerConfig, adam_update, momentum_update
from clapping_sim.rng import named_stream
from clapping_sim.sampling import Schedule


class TestMomentum:
    def test_m_one_takes_current_gradient(self):
        u, w = momentum_update(np.array([5.0]), np.array([0.0]), np.array([2.0]), 1.0, 0.1)
        npt.assert_array_equal(u, [2.0])
        npt.assert_array_equal(w, [-0.2])

    def test_pure_decay(self):
        u, _ = momentum_update(np.array([2.0]), np.zeros(1), np.zeros(1), 0.5, 0.1)
        npt.assert_array_equal(u, [1.0])

    def test_three_steps_reach_seven_eighths(self):
        u, w = np.zeros(1), np.zeros(1)
        g = np.array([1.0])
        for _ in range(3):
            u, w = momentum_update(u, w, g.copy(), 0.5, 0.1)  # grad is consumed
        npt.assert_array_equal(u, [0.875])

    def test_telescoping_closed_form(self):
        # constant gradient g from zero momentum: u_t = (1 - (1-m)^t) g
        m, g = 0.5, np.array([3.0, -1.0])
        u, w = np.zeros(2), np.zeros(2)
        for t in range(1, 12):
            u, w = momentum_update(u, w, g.copy(), m, 0.01)  # grad is consumed
            npt.assert_array_equal(u, (1 - (1 - m) ** t) * g)

    def test_matches_textbook_expression_bit_for_bit_and_is_in_place(self):
        rng = named_stream(2, "momentum-bits")
        for n, m, gamma in ((1, 0.1, 0.1), (257, 0.37, 0.0125), (4096, 0.9, 3.7)):
            u, w, g = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6) for _ in range(3))
            before = [a.copy() for a in (u, w, g)]
            u_new, w_new = momentum_update(u, w, g, m, gamma)
            want_u = (1 - m) * before[0] + m * before[2]
            assert u_new.tobytes() == want_u.tobytes()
            assert w_new.tobytes() == (before[1] - gamma * want_u).tobytes()
            assert u_new is u and w_new is w

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ConfigurationError):
            momentum_update(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, 0.1)
        with pytest.raises(ConfigurationError):
            momentum_update(np.zeros(1), np.zeros(1), np.zeros(1), 0.5, 0.0)


class TestOptimizerConfig:
    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -0.1])
    def test_step_sizes_must_be_positive_and_finite(self, gamma):
        with pytest.raises(ConfigurationError, match="optimizer.gamma"):
            OptimizerConfig(MOMENTUM_SGD, gamma=Schedule(((1, 0.1), (5, gamma))))


class TestAdam:
    def test_matches_textbook_expression_bit_for_bit_and_is_in_place(self):
        rng = named_stream(3, "adam-bits")
        cases = ((1, 0.1, 0.999, 1e-8, 0.1), (257, 0.9, 0.99, 1e-6, 0.0125),
                 (4096, 0.37, 0.5, 0.0, 3.7), (64, 1.0, 1.0, 1e-8, 0.5))
        for n, b1, b2, eps, gamma in cases:
            u, w, g = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6) for _ in range(3))
            s = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-6, 6)
            u0, s0, w0, g0 = (a.copy() for a in (u, s, w, g))
            out = adam_update(u, s, w, g, b1, b2, eps, gamma)
            want_u = (1.0 - b1) * u0 + b1 * g0
            want_s = (1.0 - b2) * s0 + b2 * g0**2
            want_w = w0 - gamma * want_u / np.sqrt(want_s + eps)
            assert [a.tobytes() for a in out] == [a.tobytes() for a in (want_u, want_s, want_w)]
            assert out[0] is u and out[1] is s and out[2] is w

    def test_zero_gradient_leaves_weights(self):
        u, s, w = adam_update(np.zeros(3), np.zeros(3), np.ones(3), np.zeros(3),
                              0.9, 0.99, 1e-8, 0.1)
        npt.assert_array_equal(w, np.ones(3))

    def test_degenerate_single_step_normalizes_by_magnitude(self):
        # with beta1 = beta2 = 1 and eps = 0 the update is
        # gamma * g / sqrt(g^2) = gamma * sign(g)
        gamma = 0.25
        u, s, w = adam_update(np.zeros(1), np.zeros(1), np.zeros(1), np.array([4.0]),
                              1.0, 1.0, 0.0, gamma)
        npt.assert_array_equal(u, [4.0])
        npt.assert_array_equal(s, [16.0])
        npt.assert_array_equal(w, [-gamma])

    def test_two_step_scalar_recurrence(self):
        # hand-rolled recurrence with g = 1 then g = -1
        b1 = b2 = 0.5
        eps, gamma = 1e-8, 0.1
        u = s = w = 0.0
        for g in (1.0, -1.0):
            u = (1 - b1) * u + b1 * g
            s = (1 - b2) * s + b2 * g * g
            w = w - gamma * u / np.sqrt(s + eps)
        u2, s2, w2 = adam_update(*adam_update(np.zeros(1), np.zeros(1), np.zeros(1),
                                              np.array([1.0]), b1, b2, eps, gamma),
                                 np.array([-1.0]), b1, b2, eps, gamma)
        npt.assert_allclose(u2, [u], rtol=1e-15)
        npt.assert_allclose(s2, [s], rtol=1e-15)
        npt.assert_allclose(w2, [w], rtol=1e-15)

    def test_no_bias_correction(self):
        # first step with small beta1 must NOT be rescaled by 1/(1-beta1^t)
        b1, b2, eps, gamma = 0.1, 0.1, 0.0, 1.0
        _, _, w = adam_update(np.zeros(1), np.zeros(1), np.zeros(1), np.array([2.0]),
                              b1, b2, eps, gamma)
        expected = -gamma * (b1 * 2.0) / np.sqrt(b2 * 4.0)
        npt.assert_allclose(w, [expected], rtol=1e-15)
