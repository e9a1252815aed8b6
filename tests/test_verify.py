import hashlib
import json

import numpy as np
import pytest
from test_golden import blas_fingerprint

from clapping_sim import compressors as comp
from clapping_sim import stages as st
from clapping_sim import verify as vf
from clapping_sim.errors import ConfigurationError

# sha256 of what `clapping-sim verify all` prints at seed 0, by numpy and BLAS build
VERIFY_ALL_DIGESTS = {
    "numpy 2.4.6; OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY"
    " SkylakeX MAX_THREADS=64":
        "bd52f5bf3ac251a3696b55285d5bf933e3d050fa74ea7b9bbe14411d0b462508",
}


class TestCheckReport:
    def test_pass_iff_within_tolerance(self):
        assert vf.CheckReport("s", 1, 0.5, 1.0).passed
        assert not vf.CheckReport("s", 1, 2.0, 1.0).passed

    def test_json_is_machine_readable(self):
        rep = vf.CheckReport("suite-x", 3, 0.1, 0.2, ["note"])
        data = json.loads(rep.to_json())
        assert data["suite"] == "suite-x" and data["passed"] is True


class TestChainGradients:
    def test_default_suite_passes(self):
        rep = vf.check_chain_gradients(trials=30, chain_trials=5, seed=0)
        assert rep.passed
        assert rep.max_deviation < 1e-6

    def test_linear_only_chain_is_exact_to_rounding(self):
        chain = st.ModelChain(
            (st.StageSpec(st.LINEAR, 3, 2), st.StageSpec(st.LINEAR, 2, 1)),
            boundaries=(1,),
        )
        rep = vf.check_chain_gradients(chain=chain, trials=5, chain_trials=10, seed=1)
        assert rep.passed and rep.max_deviation < 1e-9


class TestEfDecay:
    def test_identity_reaches_zero_in_one_step(self):
        rep = vf.check_ef_decay(comp.identity_spec(), 8, steps=1, seed=0)
        assert rep.passed

    def test_topk_pins_coordinates_batch_by_batch(self):
        # d=2, k=1, target (1, 1): one coordinate per step, zero after two
        rep = vf.check_ef_decay(comp.topk_spec(1), 2, steps=2, seed=0)
        assert rep.passed

    def test_quant_decays_to_floor(self):
        rep = vf.check_ef_decay(comp.quant_spec(8), 32, steps=30, seed=0)
        assert rep.passed

    def test_stochastic_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            vf.check_ef_decay(comp.randk_spec(1), 8)


class TestIdentityEquivalence:
    def test_suite_passes_and_control_fails(self):
        rep = vf.check_identity_equivalence(steps=200, seed=0)
        assert rep.passed
        assert any("negative control deviated" in d for d in rep.diagnostics)

    def test_meta_check_fails_when_control_matches(self):
        # a doctored lossless "control" cannot deviate; the suite must
        # then report failure even though every main case agrees
        rep = vf.check_identity_equivalence(steps=50, seed=0,
                                            control_spec=comp.identity_spec())
        assert not rep.passed
        assert any("FAILED to deviate" in d for d in rep.diagnostics)

    def test_suite_without_control_still_passes(self):
        rep = vf.check_identity_equivalence(steps=50, seed=0, with_negative_control=False)
        assert rep.passed

    def test_two_worker_logistic_chain_1000_steps(self):
        rep = vf.check_identity_equivalence(chain=st.logistic_chain(8, 0.005),
                                            steps=1000, seed=1,
                                            with_negative_control=False)
        assert rep.passed and rep.max_deviation <= 1e-12

    def test_four_worker_mlp_chain_500_steps(self):
        chain = st.tanh_mlp_chain((4, 6, 5, 4), boundaries=(2, 4, 6))
        assert chain.num_workers == 4
        rep = vf.check_identity_equivalence(chain=chain, steps=500, seed=2,
                                            with_negative_control=False)
        assert rep.passed and rep.max_deviation <= 1e-12


class TestErrorPropagation:
    def test_two_worker_chain(self):
        rep = vf.check_error_propagation(
            st.tanh_mlp_chain((4, 5, 3), boundaries=(2,)),
            (comp.topk_spec(2),), (comp.topk_spec(1),), trials=40, seed=0,
        )
        assert rep.passed

    def test_three_worker_chain(self):
        rep = vf.check_error_propagation(
            st.tanh_mlp_chain((4, 6, 5, 3), boundaries=(2, 4)),
            (comp.topk_spec(2), comp.quant_spec(4)),
            (comp.quant_spec(4), comp.topk_spec(2)), trials=40, seed=1,
        )
        assert rep.passed

    def test_identity_compressors_have_zero_errors(self):
        rep = vf.check_error_propagation(
            st.tanh_mlp_chain((4, 5, 3), boundaries=(2,)),
            (comp.identity_spec(),), (comp.identity_spec(),), trials=10, seed=2,
        )
        assert rep.passed

    def test_two_stage_linear_injection_is_exact(self):
        # with exact forward and an error eps injected on the deeper
        # gradient exchange, the received gradient differs from the shadow
        # by exactly W^T eps
        s1 = st.StageSpec(st.LINEAR, 3, 2)
        s2 = st.StageSpec(st.LINEAR, 2, 2)
        s3 = st.StageSpec(st.LINEAR, 2, 1)
        chain = st.ModelChain((s1, s2, s3), boundaries=(1, 2))
        rng = np.random.default_rng(0)
        weights = [rng.standard_normal(chain.worker_param_dim(e)) for e in (1, 2, 3)]
        x = rng.standard_normal(3)
        eps = np.array([0.3, -0.1])
        W2 = weights[1].reshape(2, 2)
        W3 = weights[2].reshape(1, 2)
        v2_exact = W3.T @ np.ones(1)
        v1_received = W2.T @ (v2_exact + eps)
        v1_exact = W2.T @ v2_exact
        np.testing.assert_allclose(v1_received - v1_exact, W2.T @ eps, rtol=1e-14)
        norm_bound = np.linalg.norm(W2, 2) * np.linalg.norm(eps)
        assert np.linalg.norm(v1_received - v1_exact) <= norm_bound + 1e-12


class TestSamplerStats:
    def test_p_one_exact(self):
        rep = vf.check_sampler_stats(1.0, steps=2000, seed=0)
        assert rep.passed

    def test_p_zero_exact(self):
        rep = vf.check_sampler_stats(0.0, steps=2000, seed=0)
        assert rep.passed

    def test_p_04_within_three_sigma(self):
        rep = vf.check_sampler_stats(0.4, steps=10_000, seed=0)
        assert rep.passed


class TestSuiteRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigurationError):
            vf.run_suite("nope")

    @pytest.mark.parametrize("name, suites", [
        ("contraction", ["contraction"]),
        ("all", ["chain-gradients", "contraction"] + ["ef-decay"] * 4 + ["identity-equivalence"]
         + ["error-propagation"] * 2 + ["sampler-stats"] * 2),
    ])
    def test_named_suite_runs_and_passes(self, name, suites):
        reports = vf.run_suite(name, seed=0)
        assert [r.suite for r in reports] == suites
        assert all(r.passed for r in reports)
        if name != "all":
            return
        # the text the verify command prints, pinned where its digest is recorded
        lines = []
        for rep in reports:
            lines += [rep.summary()] + [f"    {line}" for line in rep.diagnostics]
        printed = "".join(f"{line}\n" for line in lines)
        recorded = VERIFY_ALL_DIGESTS.get(blas_fingerprint())
        if recorded is None:
            pytest.skip(f"no verify-all digest recorded for {blas_fingerprint()!r}")
        assert hashlib.sha256(printed.encode()).hexdigest() == recorded

    def test_reports_written_to_disk(self, tmp_path):
        reports = vf.run_suite("sampler", seed=0, out_dir=tmp_path)
        files = list(tmp_path.glob("*.json"))
        assert len(files) == len(reports)
        assert all(json.loads(f.read_text())["passed"] for f in files)
