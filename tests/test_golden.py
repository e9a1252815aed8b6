"""Golden metrics-CSV digests: the determinism contract as a regression gate.

Every config below must write a byte-identical metrics CSV across any
change that does not declare a change of semantics. The matrix covers the
six reference-benchmark variants, the shipped ``benchmark_fu.cfg`` and a
small three-worker MLP that exercises every exchange mode (dense, direct,
error feedback, per-sample error feedback, fresh rows dense with error
feedback on the rest) under sparse, quantized, composed and stochastic
compressors.

Float results depend on the numpy build and on the BLAS kernel, so the
digests are keyed by that fingerprint; on an unrecorded one the test
skips and names it. To record a new fingerprint, run

    PYTHONPATH=src python tests/test_golden.py

and add the printed entry to ``DIGESTS``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from clapping_sim import harness

ROOT = Path(__file__).resolve().parent.parent
STEPS = 2000

MLP_BASE = {
    "dataset.kind": "synthetic_mlp",
    "dataset.n": "48",
    "dataset.seed": "5",
    "model.dims": "6,10,8,4",
    "model.boundaries": "2,4",
    "algo.batch_size": "8",
    "algo.total_steps": "80",
    "algo.seed": "3",
    "algo.sampler_rule": "batch_samplewise",
    "optimizer.gamma": "1:0.05,41:0.02",
    "optimizer.momentum": "0.3",
    "optimizer.reset_steps": "41",
    "sampling.p": "0.4",
    "compressor.forward": "randk:3",
    "compressor.backward": "topk:3+quant:4",
    "run.log_every": "10",
}

MLP_CASES = {
    **{f"mlp/{v}": {"algo.variant": v} for v in
       ("no_comp", "direct", "forward_ef", "aq_sgd", "clapping_fc", "clapping_fu")},
    "mlp/clapping_fu-batchwise": {
        "algo.variant": "clapping_fu", "algo.sampler_rule": "batch_batchwise",
        "compressor.forward": "natural", "compressor.backward": "randk:2+natural",
    },
    "mlp/clapping_fc-quant-noise": {
        "algo.variant": "clapping_fc", "compressor.forward": "quant:6",
        "compressor.backward.1": "inject_uniform:0.1", "algo.force_fresh_step2": "true",
    },
    "mlp/aq_sgd-compose-adam": {
        "algo.variant": "aq_sgd", "compressor.forward": "topk:4+natural",
        "compressor.backward": "randk:4", "optimizer.kind": "adam",
    },
    "mlp/direct-identity-single": {
        "algo.variant": "direct", "algo.batch_size": "1", "algo.sampler_rule": "batch_batchwise",
        "compressor.forward": "identity", "compressor.backward": "topk:2",
    },
}

DIGESTS = {
    "numpy 2.4.6; OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY"
    " SkylakeX MAX_THREADS=64": {
        "benchmark_fu.cfg":
            "275503621781fe379055d5ab6054581d9bc55c2d46197e26dc770d7277480de5",
        "logistic/aq_sgd":
            "64b9383373d165111d9e4a01427136306d496443bdefc9dc39aec02e32a608c0",
        "logistic/clapping_fc":
            "6995c664fb2169a4f8732380fd40f5162ea6710753e0ab65bd5fcfd1aaf2d079",
        "logistic/clapping_fu":
            "2fe42d982a25d1e194eb31ca8ebba18685a79f49643c2bac0b132e71017aafce",
        "logistic/direct":
            "50763a1ba68934d1bc5efe1c02a9ccdc6c1b681112e243d94ef378d6db458ecc",
        "logistic/forward_ef":
            "8b837179a27ccd404fd9be6e13aa8f32bad5ecbeb42746b600835f5fef3c43c7",
        "logistic/no_comp":
            "dc9190b26a53068caa67e89dc68708813d22d5b610a655b0fd5b5b1d9a1c70bb",
        "mlp/aq_sgd":
            "47849efe3a3f8ea255fd6d7dcb7ccbe5fee122e1de57b1a8814a72926fb3252d",
        "mlp/aq_sgd-compose-adam":
            "a0043f4faa2c5b04e7a60de02b05d09122fd4e32b7d17a4bdc44b72835b4e77f",
        "mlp/clapping_fc":
            "fce33a3bb5e88f64e7813777af9370e1f7f7126983f2f79d969d8d95ea4c4cf1",
        "mlp/clapping_fc-quant-noise":
            "a0f1b2563572dcdf12b840d26d78363660b7b0ca619498d2408a219419bf87b1",
        "mlp/clapping_fu":
            "fe91ae41b2a4b856a1ef19b586615cd4f277bfc072fba828d845533ea4a4ffc0",
        "mlp/clapping_fu-batchwise":
            "137603a500dcaf1e0a2c2638ea0a161603328bb9cf57be05247ad3e654ddbb7c",
        "mlp/direct":
            "38ea64297597ea280ee7746b8affc96cfaf1938e5196531433804973bb7e21f6",
        "mlp/direct-identity-single":
            "37f4d53def496871560941dc55c6a3a8c56d1a415d170995347e0eb7c7ce6ff1",
        "mlp/forward_ef":
            "db6d6b05cd467a9d979ef6aa5b3942ba7340a238bf40af40953f2b3aabadd04a",
        "mlp/no_comp":
            "8910085fff2cdd39fcaee636a8b585226517bb4eb00e985b2e66c81552d904f0",
    },
}


def blas_fingerprint() -> str:
    """numpy version plus the OpenBLAS build and the core kernel it picked."""
    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh
                        if "openblas" in ln and ln.rstrip().endswith(".so")})
    for path in paths:
        get_config = getattr(ctypes.CDLL(path), "scipy_openblas_get_config64_", None)
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            return f"numpy {np.__version__}; {get_config().decode().strip()}"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"numpy {np.__version__}; {blas.get('name')} {blas.get('version')} (build info)"


def golden_configs() -> dict[str, harness.ExperimentConfig]:
    configs = {
        f"logistic/{v}": harness.logistic_benchmark_config(v, total_steps=STEPS, log_every=100)
        for v in ("no_comp", "direct", "forward_ef", "aq_sgd", "clapping_fc", "clapping_fu")
    }
    raw = harness.parse_config_text((ROOT / "configs" / "benchmark_fu.cfg").read_text())
    raw["algo.total_steps"] = str(STEPS)
    del raw["optimizer.reset_steps"]  # 40001, ...: past the shortened run, so refused
    configs["benchmark_fu.cfg"] = harness.config_from_mapping(raw)
    for name, case in MLP_CASES.items():
        configs[name] = harness.config_from_mapping({**MLP_BASE, **case})
    return configs


def csv_digests(out_dir: Path) -> dict[str, str]:
    out = {}
    for name, cfg in golden_configs().items():
        path = harness.run_experiment(cfg, out_dir / (name.replace("/", "-") + ".csv"))
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_metrics_csvs_match_recorded_digests(tmp_path):
    fingerprint = blas_fingerprint()
    recorded = DIGESTS.get(fingerprint)
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {fingerprint!r}")
    got = csv_digests(tmp_path)
    assert set(got) == set(recorded)
    changed = sorted(name for name in got if got[name] != recorded[name])
    assert not changed, f"metrics CSVs changed: {changed}"


@pytest.mark.parametrize("variant", ["clapping_fc", "clapping_fu"])
def test_batch_size_one_draws_alike_under_both_rules(tmp_path, variant):
    """At batch size 1 the sampler rule changes nothing: a lazy variant of
    the batch-size-1 MLP case writes the same bytes under either rule."""
    case = {**MLP_BASE, **MLP_CASES["mlp/direct-identity-single"], "algo.variant": variant}
    csvs = []
    for rule in ("batch_samplewise", "batch_batchwise"):
        cfg = harness.config_from_mapping({**case, "algo.sampler_rule": rule})
        csvs.append(harness.run_experiment(cfg, tmp_path / f"{rule}.csv").read_bytes())
    assert csvs[0] == csvs[1]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({blas_fingerprint(): csv_digests(Path(tmp))}, indent=1, sort_keys=True))
