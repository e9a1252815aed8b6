import re
from pathlib import Path

import numpy as np
import pytest

from clapping_sim import compressors as comp
from clapping_sim import harness as H
from clapping_sim import stages as st
from clapping_sim.engine import VARIANTS, AlgoConfig, PipelineEngine
from clapping_sim.errors import ConfigurationError
from clapping_sim.optim import MOMENTUM_SGD, OptimizerConfig
from clapping_sim.sampling import BATCH_BATCHWISE, Schedule

README = Path(__file__).resolve().parent.parent / "README.md"

CONFIG_TEXT = """
# minimal logistic run
dataset.kind = synthetic_logistic
dataset.n = 32
dataset.dim = 8
dataset.seed = 3
algo.variant = clapping_fc
algo.batch_size = 4
algo.total_steps = 12
algo.seed = 5
algo.sampler_rule = batch_batchwise
optimizer.gamma = 1:0.05,7:0.025
optimizer.momentum = 0.2
sampling.p = 0.5
compressor.forward = topk:2
compressor.backward = identity
run.log_every = 3
"""


class TestConfigParsing:
    def test_full_roundtrip(self):
        cfg = H.config_from_mapping(H.parse_config_text(CONFIG_TEXT))
        assert cfg.algo.variant == "clapping_fc"
        assert cfg.algo.batch_size == 4
        assert cfg.algo.optimizer.gamma.value_at(7) == 0.025
        assert cfg.algo.forward_compressors[0].kind == "topk"
        assert cfg.algo.p_schedule.value_at(3) == 0.5

    def test_error_names_field_path(self):
        raw = H.parse_config_text(CONFIG_TEXT)
        raw["algo.batch_size"] = "zero"
        with pytest.raises(ConfigurationError, match="algo.batch_size"):
            H.config_from_mapping(raw)

    def test_unknown_variant_rejected(self):
        raw = H.parse_config_text(CONFIG_TEXT)
        raw["algo.variant"] = "magic"
        with pytest.raises(ConfigurationError, match="algo.variant"):
            H.config_from_mapping(raw)

    def test_missing_required_key(self):
        with pytest.raises(ConfigurationError, match="algo.variant"):
            H.config_from_mapping({})

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            H.parse_config_text("a.b = 1\nnot a pair\n")

    def test_compose_compressor_syntax(self):
        spec = H.parse_compressor("k", "topk:10+quant:8")
        assert spec.kind == "compose"
        assert [m.kind for m in spec.inner] == ["topk", "uniform_quant"]

    @pytest.mark.parametrize("syntax, message", [
        ("bogus", "unknown compressor 'bogus'"),
        ("topk:2+sparse:3", "unknown compressor 'sparse'"),
        ("natural:", "natural takes no argument"),
        ("topk:1+identity:0", "identity takes no argument"),
        ("topk:x", "expected an integer, got 'x'"),
        ("quant:1", "uniform_quant bits must be in"),
    ])
    def test_bad_compressor_syntax_is_named(self, syntax, message):
        with pytest.raises(ConfigurationError, match=f"^k: {message}"):
            H.parse_compressor("k", syntax)

    def test_bad_schedule_entry(self):
        with pytest.raises(ConfigurationError, match="optimizer.gamma"):
            H.parse_schedule("optimizer.gamma", "1:0.1,oops")

    def test_unknown_key_suggests_the_closest_read_key(self):
        raw = H.parse_config_text(CONFIG_TEXT)
        raw["sampling.P"] = "0.5"
        with pytest.raises(ConfigurationError,
                           match=r"^sampling\.P: unknown or unused key; did you mean sampling\.p\?$"):
            H.config_from_mapping(raw)

    @pytest.mark.parametrize("key, value, setting", [
        ("optimizer.beta2", "0.9", "optimizer.kind = adam"),
        ("optimizer.eps", "1e-6", "optimizer.kind = adam"),
        ("model.dims", "8,8", "dataset.kind = synthetic_mlp"),
        ("model.boundaries", "2", "dataset.kind = synthetic_mlp"),
        ("dataset.dim", "64", "dataset.kind = synthetic_logistic"),
        ("dataset.feature_scale", "0.5", "dataset.kind = synthetic_logistic"),
        ("dataset.noise_scale", "0.3", "dataset.kind = synthetic_logistic"),
        ("dataset.second_param_is_std", "true", "dataset.kind = synthetic_logistic"),
        ("dataset.c_r", "3", "dataset.kind = synthetic_logistic"),
    ])
    def test_a_key_read_only_under_another_setting_names_that_setting(self, key, value, setting):
        other = {"optimizer.kind": "momentum_sgd", "dataset.kind": "synthetic_mlp"}
        if setting == "dataset.kind = synthetic_mlp":
            other["dataset.kind"] = "synthetic_logistic"
        raw = {"algo.variant": "no_comp", **other, key: value}
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)}: unknown or unused key; "
                                                     rf"read only when {re.escape(setting)}$"):
            H.config_from_mapping(raw)
        setting_key, setting_value = setting.split(" = ")
        H.config_from_mapping({**raw, setting_key: setting_value})  # read there

    def test_model_kind_may_restate_the_dataset_model(self):
        # the form the benchmark's MLP workload writes
        cfg = H.config_from_mapping({
            "dataset.kind": "synthetic_mlp", "model.kind": "tanh_mlp",
            "model.dims": "4,5,3", "model.boundaries": "2,4", "algo.variant": "clapping_fc",
        })
        assert cfg.model_dims == (4, 5, 3) and len(cfg.algo.forward_compressors) == 2

    @pytest.mark.parametrize("key, value", [
        ("dataset.dim", "64"), ("dataset.c_r", "3"), ("dataset.feature_scale", "0.5"),
        ("dataset.noise_scale", "0.3"), ("dataset.second_param_is_std", "true"),
    ])
    def test_logistic_only_keys_are_unknown_on_the_mlp_dataset(self, key, value):
        raw = {"dataset.kind": "synthetic_mlp", "algo.variant": "no_comp", key: value}
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)}: unknown or unused key"):
            H.config_from_mapping(raw)

    @pytest.mark.parametrize("key, value", [("optimizer.beta2", "5"), ("optimizer.eps", "-3"),
                                            ("optimizer.beta2", "0.9")])
    def test_adam_only_keys_are_unknown_under_momentum_sgd(self, key, value):
        raw = {"algo.variant": "no_comp", key: value}
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)}: unknown or unused key"):
            H.config_from_mapping(raw)
        raw["optimizer.kind"] = "adam"
        if value == "0.9":
            assert H.config_from_mapping(raw).algo.optimizer.beta2 == 0.9
        else:
            with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)}: must be"):
                H.config_from_mapping(raw)


class TestReadme:
    def test_config_example_reads_without_unknown_keys(self):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = H.config_from_mapping(H.parse_config_text(block))
        assert cfg == H.logistic_benchmark_config("clapping_fu")

    def test_documented_defaults_match_the_reader(self):
        rows = re.findall(r"^\| `([a-z_0-9.]+)` \| `([^`]+)` \|", README.read_text(), re.M)
        assert len(rows) >= 25
        for key, default in rows:
            base = {"algo.variant": "no_comp"}
            if key.startswith("model."):
                base["dataset.kind"] = "synthetic_mlp"
            if key in ("optimizer.beta2", "optimizer.eps"):
                base["optimizer.kind"] = "adam"
            assert H.config_from_mapping({**base, key: default}) == H.config_from_mapping(base), key


class TestRunExperiment:
    def test_zero_steps_writes_header_only(self, tmp_path):
        raw = H.parse_config_text(CONFIG_TEXT)
        raw["algo.total_steps"] = "0"
        cfg = H.config_from_mapping(raw)
        out = H.run_experiment(cfg, tmp_path / "m.csv")
        assert out.read_text() == ",".join(H.CSV_COLUMNS) + "\n"

    def test_metrics_file_is_reproducible_byte_for_byte(self, tmp_path):
        cfg = H.config_from_mapping(H.parse_config_text(CONFIG_TEXT))
        a = H.run_experiment(cfg, tmp_path / "a.csv").read_bytes()
        b = H.run_experiment(cfg, tmp_path / "b.csv").read_bytes()
        assert a == b

    def test_rows_strictly_increasing_and_loss_bounded_below(self, tmp_path):
        cfg = H.config_from_mapping(H.parse_config_text(CONFIG_TEXT))
        cols = H.read_metrics(H.run_experiment(cfg, tmp_path / "m.csv"))
        steps = cols["step"]
        assert np.all(np.diff(steps) > 0)
        assert steps[-1] == 12
        assert np.all(cols["loss_gap"] >= -1e-9)
        assert np.all(cols["fwd_bytes"] >= 0) and np.all(cols["bwd_bytes"] >= 0)
        assert np.all(np.diff(cols["fwd_bytes"]) >= 0)  # cumulative

    def test_non_finite_objective_raises_the_exported_divergence_error(self, tmp_path):
        # library callers catch it from the package, as the README names it
        from clapping_sim import DivergenceError, __all__
        assert "DivergenceError" in __all__
        raw = H.parse_config_text(CONFIG_TEXT)
        raw.update({"algo.variant": "no_comp", "optimizer.gamma": "1e300",
                    "algo.total_steps": "2", "run.log_every": "1"})
        with pytest.raises(DivergenceError, match="^step 1: non-finite logged objective"):
            H.run_experiment(H.config_from_mapping(raw), tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == ",".join(H.CSV_COLUMNS) + "\n"

    def test_engine_checks_run_before_the_optimum_solve(self, tmp_path, monkeypatch):
        raw = H.parse_config_text(CONFIG_TEXT)
        raw.update({"algo.variant": "no_comp", "compressor.forward": "topk:500"})

        def solve(*args, **kwargs):
            raise AssertionError("the optimum solve ran before the engine was built")

        monkeypatch.setattr(H.ds, "compute_f_star", solve)
        with pytest.raises(ConfigurationError, match="^boundary 0 forward: topk k=500"):
            H.run_experiment(H.config_from_mapping(raw), tmp_path / "m.csv")

    def test_mlp_dataset_kind_runs(self, tmp_path):
        raw = {
            "dataset.kind": "synthetic_mlp",
            "dataset.n": "16",
            "model.kind": "tanh_mlp",
            "model.dims": "4,5",
            "model.boundaries": "1",
            "algo.variant": "no_comp",
            "algo.total_steps": "5",
            "run.log_every": "1",
        }
        cfg = H.config_from_mapping(raw)
        cols = H.read_metrics(H.run_experiment(cfg, tmp_path / "mlp.csv"))
        assert len(cols["step"]) == 5 and np.all(np.isfinite(cols["loss"]))


class TestMemoryCalculator:
    def test_batch_cache_formula(self):
        out = H.memory_calculator(workers=2, batch=16, samples=45_600_000,
                                  seq_len=4096, hidden=4096)
        assert out["clapping_bytes"] == 4 * 1 * 16 * 4096 * 4096 * 2
        assert out["clapping_gib"] == pytest.approx(2.0)

    def test_sample_cache_formula(self):
        out = H.memory_calculator(workers=2, batch=16, samples=45_600_000,
                                  seq_len=4096, hidden=4096)
        assert out["aqsgd_bytes"] == 2 * 1 * 45_600_000 * 4096 * 4096 * 2

    def test_ratio_is_samples_over_twice_batch(self):
        out = H.memory_calculator(workers=3, batch=8, samples=8, seq_len=4, hidden=4)
        assert out["aqsgd_bytes"] / out["clapping_bytes"] == 8 / (2 * 8)

    def test_positive_inputs_required(self):
        with pytest.raises(ConfigurationError):
            H.memory_calculator(workers=0, batch=1, samples=1, seq_len=1, hidden=1)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("workers, batch, samples, seq_len, hidden",
                         [(2, 3, 10, 2, 3), (3, 4, 7, 1, 5), (4, 2, 9, 3, 2)])
def test_memory_calculator_counts_the_engine_caches(variant, workers, batch, samples, seq_len,
                                                    hidden):
    """The calculator's bytes at one byte per element are the elements a
    built engine caches, once per endpoint, with every boundary
    seq_len * hidden wide."""
    width = seq_len * hidden
    chain = st.tanh_mlp_chain((3,) + (width,) * (workers - 1), tuple(range(2, 2 * workers, 2)))
    assert [chain.boundary_dim(i) for i in range(workers - 1)] == [width] * (workers - 1)
    specs = (comp.identity_spec(),) * (workers - 1)
    opt = OptimizerConfig(MOMENTUM_SGD, gamma=Schedule.constant(0.1),
                          momentum=Schedule.constant(0.1))
    algo = AlgoConfig(variant, opt, specs, specs, batch_size=batch, sampler_rule=BATCH_BATCHWISE)
    engine = PipelineEngine(chain, algo, np.zeros((samples, chain.input_dim)))
    cached = sum(link.cache.size for links in engine.links for link in links
                 if link.cache is not None)
    out = H.memory_calculator(workers, batch, samples, seq_len, hidden, bytes_per_element=1)
    assert out[variant] == 2 * cached


class TestBenchmarkPreset:
    def test_shipped_config_matches_preset(self):
        from pathlib import Path

        shipped = H.load_config(Path(__file__).resolve().parent.parent
                                / "configs" / "benchmark_fu.cfg")
        preset = H.logistic_benchmark_config("clapping_fu")
        assert shipped.algo == preset.algo
        assert (shipped.dataset_n, shipped.dataset_dim, shipped.c_r) == (
            preset.dataset_n, preset.dataset_dim, preset.c_r)

    def test_halving_schedule_and_resets(self):
        cfg = H.logistic_benchmark_config("clapping_fu", total_steps=200_000)
        gamma = cfg.algo.optimizer.gamma
        assert gamma.value_at(1) == 0.1
        assert gamma.value_at(40_000) == 0.1
        assert gamma.value_at(40_001) == 0.05
        assert gamma.value_at(160_001) == pytest.approx(0.00625)
        assert cfg.algo.momentum_reset_steps == frozenset({40_001, 80_001, 120_001, 160_001})
        assert cfg.algo.optimizer.momentum.value_at(1) == 0.1  # decay factor 0.9

    def test_noise_on_forward_boundary_only(self):
        cfg = H.logistic_benchmark_config("direct")
        assert cfg.algo.forward_compressors[0].kind == "inject_uniform"
        assert cfg.algo.forward_compressors[0].amplitude == 0.2
        assert cfg.algo.backward_compressors[0].kind == "identity"
