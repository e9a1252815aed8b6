import numpy as np
import numpy.testing as npt
import pytest

from clapping_sim import datasets as ds
from clapping_sim import stages as st
from clapping_sim.errors import ConfigurationError


@pytest.fixture(autouse=True)
def fresh_memo(monkeypatch):
    """Each test solves its optimum cold."""
    monkeypatch.setattr(ds, "_F_STAR", {})


class TestGeneration:
    def test_same_seed_same_dataset(self):
        a = ds.gen_logistic_dataset(100, 20, seed=5)
        b = ds.gen_logistic_dataset(100, 20, seed=5)
        assert a.features.tobytes() == b.features.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_different_seed_differs(self):
        a = ds.gen_logistic_dataset(100, 20, seed=5)
        b = ds.gen_logistic_dataset(100, 20, seed=6)
        assert a.features.tobytes() != b.features.tobytes()

    def test_feature_variance_is_sum_of_variances(self):
        data = ds.gen_logistic_dataset(10_000, 200, seed=1)
        var = data.features.var(axis=0).mean()
        assert abs(var - 0.8) / 0.8 < 0.05

    def test_std_interpretation_switch(self):
        data = ds.gen_logistic_dataset(10_000, 50, seed=1, second_param_is_std=True)
        var = data.features.var(axis=0).mean()
        expected = 0.5**2 + 0.3**2
        assert abs(var - expected) / expected < 0.05

    def test_labels_roughly_balanced(self):
        data = ds.gen_logistic_dataset(10_000, 200, seed=2)
        frac = np.mean(data.labels == 1.0)
        assert 0.4 < frac < 0.6

    def test_labels_are_signs(self):
        data = ds.gen_logistic_dataset(64, 10, seed=3)
        assert set(np.unique(data.labels)) <= {-1.0, 1.0}

    def test_chain_inputs_encode_label(self):
        data = ds.gen_logistic_dataset(8, 4, seed=4)
        X = data.chain_inputs()
        npt.assert_array_equal(X[:, -1], -data.labels)
        npt.assert_allclose(X[:, :-1], -data.labels[:, None] * data.features)

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ds.gen_logistic_dataset(0, 10, seed=0)


class TestFStar:
    def test_heavy_regularization_pins_optimum_near_log2(self):
        data = ds.gen_logistic_dataset(64, 8, seed=7, c_r=1000.0)
        f = ds.compute_f_star(data)
        assert abs(f - np.log(2.0)) < 1e-3

    def test_deterministic_across_calls(self):
        data = ds.gen_logistic_dataset(128, 16, seed=8)
        a = ds.compute_f_star(data)
        ds._F_STAR.clear()
        b = ds.compute_f_star(data)
        assert np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_below_loss_at_origin(self):
        data = ds.gen_logistic_dataset(128, 16, seed=9)
        f = ds.compute_f_star(data)
        assert f <= np.log(2.0)  # the all-zero iterate scores exactly log 2

    def test_gradient_norm_below_tolerance_at_optimum(self):
        data = ds.gen_logistic_dataset(64, 8, seed=10)
        f = ds.compute_f_star(data)
        # re-derive: rerun and confirm the returned value is a true local min
        chain = st.logistic_chain(8, data.c_r)
        loss0, _ = st.chain_gradients(chain, data.chain_inputs(),
                                      [np.zeros(s.param_dim) for s in chain.stages])
        assert f <= loss0

    def test_second_call_does_not_solve_again(self, monkeypatch):
        data = ds.gen_logistic_dataset(64, 8, seed=11)
        a = ds.compute_f_star(data)

        def solve(*args):
            raise AssertionError("the optimum was solved a second time")

        monkeypatch.setattr(st, "chain_gradients", solve)
        assert ds.compute_f_star(data) == a

    def test_writes_nothing_to_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        ds.compute_f_star(ds.gen_logistic_dataset(64, 8, seed=11))
        assert not list(tmp_path.iterdir())

    def test_budget_exhaustion_reports_gradient(self, monkeypatch):
        monkeypatch.setattr(ds, "MAX_ITERS", 3)
        data = ds.gen_logistic_dataset(64, 8, seed=12)
        with pytest.raises(ConfigurationError, match="in 3 iterations .*gradient norm"):
            ds.compute_f_star(data)
