import json

import pytest

from clapping_sim import harness
from clapping_sim.cli import main
from clapping_sim.engine import PipelineEngine

CONFIG = """
dataset.kind = synthetic_logistic
dataset.n = 32
dataset.dim = 6
dataset.seed = 2
algo.variant = clapping_fu
algo.batch_size = 4
algo.total_steps = 8
algo.sampler_rule = batch_batchwise
optimizer.gamma = 0.05
sampling.p = 0.5
compressor.forward = topk:2
run.log_every = 2
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(CONFIG)
    return path


def test_run_subcommand_writes_csv(config_path, tmp_path, capsys):
    out = tmp_path / "metrics.csv"
    assert main(["run", str(config_path), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("step,loss,loss_gap")
    assert len(lines) == 1 + 4  # log every 2 over 8 steps

    # --log-every and --seed are honored
    out2 = tmp_path / "metrics2.csv"
    assert main(["run", str(config_path), "--out", str(out2), "--log-every", "4",
                 "--seed", "9"]) == 0
    assert len(out2.read_text().splitlines()) == 1 + 2


def test_fstar_subcommand_prints_value(config_path, capsys):
    assert main(["fstar", str(config_path)]) == 0
    assert "f_star = " in capsys.readouterr().out


def test_verify_subcommand_writes_reports(tmp_path, capsys):
    out = tmp_path / "reports"
    assert main(["verify", "sampler", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "PASS sampler-stats" in printed
    reports = list(out.glob("*.json"))
    assert reports and all(json.loads(p.read_text())["passed"] for p in reports)


def test_mem_calc_subcommand(capsys):
    rc = main(["mem-calc", "--workers", "2", "--batch", "16", "--samples", "1000",
               "--seq", "4096", "--hidden", "4096"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "batch-cache overhead" in out and "per-sample-cache overhead" in out


MEM_CALC = ["mem-calc", "--batch", "4", "--seq", "2", "--hidden", "2"]


@pytest.mark.parametrize("argv, says", [
    (["run", "{missing}"], "{missing}: cannot read"),
    (["fstar", "{missing}"], "{missing}: cannot read"),
    (MEM_CALC + ["--workers", "1", "--samples", "8"], "memory calculator: needs workers >= 2"),
    (MEM_CALC + ["--workers", "2", "--samples", "1" + "0" * 400],  # bytes beyond float range
     "memory calculator: a cache size exceeds float range"),
    (["verify", "sampler", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["verify", "sampler", "--out", "{file}/reports"],
     "{file}/reports: cannot write report directory"),
], ids=["run-missing-config", "fstar-missing-config", "mem-calc-one-worker",
        "mem-calc-float-overflow", "verify-negative-seed", "verify-out-under-file"])
def test_bad_input_is_one_config_error_line(tmp_path, capsys, argv, says):
    paths = {"missing": tmp_path / "nope.cfg", "file": tmp_path / "file"}
    paths["file"].write_text("")
    assert main([arg.format(**paths) for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # refused before anything ran
    assert len(err.splitlines()) == 1 and err.startswith(f"config error: {says.format(**paths)}")


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("algo.variant = bogus\n")
    assert main(["run", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("line", [
    "model.dims = 4,x", "model.boundaries = 1.5", "optimizer.reset_steps = 10,later",
])
def test_bad_integer_list_is_config_error(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"dataset.kind = synthetic_mlp\nalgo.variant = no_comp\n{line}\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "expected an integer" in err


SMALL = "dataset.n = 16\ndataset.dim = 4\nalgo.total_steps = 3\nrun.log_every = 1\n"


@pytest.mark.parametrize("lines, flags, names", [
    ("algo.variant = clapping_fu\nsampling.P = 0.5", [], "sampling.P"),
    ("algo.variant = no_comp\nmodel.kind = tanh_mlp", [], "model.kind"),
    ("algo.variant = no_comp\ndataset.kind = synthetic_mlp\nmodel.kind = logistic", [],
     "model.kind"),
    ("algo.variant = no_comp\nmodel.dims = 4,4", [], "model.dims"),
    ("algo.variant = no_comp\ncompressor.forward.3 = topk:1", [], "compressor.forward.3"),
    ("algo.variant = no_comp\nsampling.p = 2", [], "sampling.p"),
    ("algo.variant = no_comp", ["--log-every", "0"], "run.log_every"),
    ("algo.variant = no_comp", ["--log-every", "-2"], "run.log_every"),
    ("algo.variant = no_comp", ["--seed", "-1"], "algo.seed"),
    ("algo.variant = no_comp\nalgo.seed = -1", [], "algo.seed"),
    ("algo.variant = no_comp\ndataset.seed = -3", [], "dataset.seed"),
    ("algo.variant = no_comp\nrun.latency_s = -1", [], "run.latency_s"),
    ("algo.variant = no_comp\nrun.bandwidth_bps = nan", [], "run.bandwidth_bps"),
    ("algo.variant = no_comp\nrun.bandwidth_bps = 0", [], "run.bandwidth_bps"),
    ("algo.variant = no_comp\ndataset.c_r = -1", [], "dataset.c_r"),
    ("algo.variant = no_comp\ndataset.feature_scale = -1", [], "dataset.feature_scale"),
    ("algo.variant = no_comp\ndataset.noise_scale = -1", [], "dataset.noise_scale"),
    ("algo.variant = no_comp\noptimizer.gamma = nan", [], "optimizer.gamma"),
    ("algo.variant = no_comp\noptimizer.gamma = inf", [], "optimizer.gamma"),
    ("algo.variant = no_comp\noptimizer.momentum = 2", [], "optimizer.momentum"),
    ("algo.variant = no_comp\noptimizer.beta2 = 5", [], "optimizer.beta2: unknown or unused key"),
    ("algo.variant = no_comp\noptimizer.eps = -3", [], "optimizer.eps: unknown or unused key"),
    ("algo.variant = no_comp\ncompressor.forward = topk:500", [], "boundary 0 forward"),
    ("algo.variant = no_comp\ncompressor.forward = identity:5", [], "compressor.forward"),
    ("algo.variant = no_comp\ncompressor.backward = natural:9", [], "compressor.backward"),
    ("algo.variant = direct\ncompressor.forward = inject_uniform:nan", [], "compressor.forward"),
    ("algo.variant = no_comp\ndataset.kind = synthetic_mlp", [], "dataset.dim"),
    ("algo.variant = no_comp\ndataset.kind = synthetic_mlp\nmodel.dims = 4,0", [],
     "model.dims"),
    ("algo.variant = no_comp\nalgo.batch_size = 4000", [], "algo.batch_size"),
    ("algo.variant = no_comp\ndataset.kind = synthetic_mlp\nmodel.dims = 4,4\n"
     "model.boundaries = 9", [], "model.boundaries"),
    ("algo.variant = no_comp\ndataset.kind = synthetic_mlp\nmodel.dims = 4,4\n"
     "model.boundaries = 2,1", [], "model.boundaries"),
    ("algo.variant = clapping_fu\nalgo.batch_size = 17\nalgo.sampler_rule = batch_batchwise",
     [], "algo.batch_size"),
    ("algo.variant = no_comp\nalgo.batch_size = 4\nalgo.sampler_rule = single", [],
     "algo.batch_size"),
    ("algo.variant = no_comp\noptimizer.reset_steps = 0,-4", [],
     "optimizer.reset_steps: must be >= 1, got -4, 0"),
    ("algo.variant = no_comp\noptimizer.reset_steps = 5,0", [],
     "optimizer.reset_steps: must be >= 1, got 0"),
    ("algo.variant = no_comp\noptimizer.reset_steps = 5000", [],
     "optimizer.reset_steps: must be <= algo.total_steps (3), got 5000"),
    ("algo.variant = no_comp\noptimizer.reset_steps = 9,2,4", [],
     "optimizer.reset_steps: must be <= algo.total_steps (3), got 4, 9"),
])
def test_bad_setting_is_one_config_error_line(tmp_path, capsys, lines, flags, names):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL + lines + "\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "m.csv")] + flags) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config error: {names}")
    assert not (tmp_path / "m.csv").exists()


DIVERGING = {"dataset.n": "16", "dataset.dim": "4", "algo.total_steps": "200",
             "optimizer.gamma": "1e6", "run.log_every": "10"}


@pytest.mark.parametrize("setting, reason, logged", [
    ({"algo.variant": "clapping_fc"},
     "step 52: non-finite forward message at boundary 0, sent by worker 1", [10, 20, 30, 40, 50]),
    # finite, but past what the quant scale can carry as a float32
    ({"algo.variant": "direct", "compressor.forward": "quant:8"},
     "step 7: forward message at boundary 0, sent by worker 1: uniform_quant: |x| = 5.763e+39 "
     "exceeds the float32 scale limit 3.403e+38", []),
    # the stage products overflow on the way to a non-finite message
    ({"dataset.n": "32", "dataset.dim": "5", "algo.variant": "direct",
      "compressor.forward": "topk:1", "optimizer.gamma": "1e300"},
     "step 2: non-finite forward message at boundary 0, sent by worker 1", []),
    # every message is finite, but the one logged objective is not
    ({"algo.variant": "no_comp", "algo.total_steps": "1", "run.log_every": "1",
      "optimizer.gamma": "1e300"},
     "step 1: non-finite logged objective (loss inf, gradient norm inf)", []),
], ids=["clapping_fc", "direct-quant", "direct-topk-overflow", "no_comp-one-step"])
def test_divergence_is_one_line_and_exit_code_3(tmp_path, capsys, setting, reason, logged):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**DIVERGING, **setting}.items()))
    assert main(["run", str(cfg), "--out", str(tmp_path / "m.csv")]) == 3
    assert capsys.readouterr().err.splitlines() == [f"diverged: {reason}"]
    # the rows logged before the blow-up are kept, and no row after it is written
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert lines[0].startswith("step,loss")
    assert [int(line.split(",")[0]) for line in lines[1:]] == logged


@pytest.mark.parametrize("setting, values", [
    ("run.bandwidth_bps = 1e-320", "run.bandwidth_bps = 1e-320 and run.latency_s = 0.0"),
    ("run.latency_s = 1e308", "run.bandwidth_bps = 100000000.0 and run.latency_s = 1e+308"),
])
def test_infinite_simulated_time_is_a_config_error(tmp_path, capsys, setting, values):
    cfg = tmp_path / "slow.cfg"
    cfg.write_text(SMALL + f"algo.variant = direct\n{setting}\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "m.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"config error: {values} give simulated time inf at step 1"]
    assert (tmp_path / "m.csv").read_text().splitlines() == [",".join(harness.CSV_COLUMNS)]


def test_run_writes_nothing_but_its_csv(tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    monkeypatch.setenv("HOME", str(blocker / "home"))  # nothing can be created there
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL + "algo.variant = clapping_fc\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "m.csv")]) == 0
    assert len((tmp_path / "m.csv").read_text().splitlines()) == 1 + 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file", "m.csv", "run.cfg"]


def test_unwritable_output_fails_before_the_first_step(config_path, tmp_path, capsys,
                                                         monkeypatch):
    steps = []
    real = PipelineEngine.run_iteration

    def counting(self):
        steps.append(self.t)
        return real(self)

    monkeypatch.setattr(PipelineEngine, "run_iteration", counting)
    assert main(["run", str(config_path), "--out", str(tmp_path)]) == 2  # a directory
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        f"config error: {tmp_path}: cannot write metrics file (")
    assert steps == []


HUGE = "9999999999999999999999"
MLP = {"dataset.kind": "synthetic_mlp", "model.boundaries": "1"}


@pytest.mark.parametrize("key, settings", [
    ("dataset.dim", {"dataset.dim": HUGE}),
    ("dataset.n", {"dataset.n": HUGE}),
    ("model.dims", {**MLP, "model.dims": f"4,{HUGE},4"}),
    ("dataset.n", {**MLP, "dataset.n": HUGE}),
    ("algo.batch_size", {"algo.batch_size": HUGE, "algo.sampler_rule": "batch_samplewise"}),
    ("dataset.n", {"dataset.n": "1099511627776", "dataset.dim": "1099511627776"}),
])
def test_a_size_numpy_cannot_describe_is_a_config_error(tmp_path, capsys, monkeypatch, key,
                                                        settings):
    def build(cfg):
        raise AssertionError("the problem was built")

    monkeypatch.setattr("clapping_sim.harness.build_problem", build)
    path = tmp_path / "huge.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {"algo.variant": "no_comp",
                                                          **settings}.items()))
    assert main(["run", str(path), "--out", str(tmp_path / "m.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("command, target", [
    ("run", "clapping_sim.harness.run_experiment"),
    ("fstar", "clapping_sim.harness.build_problem"),
])
def test_a_config_too_large_to_allocate_is_one_config_error_line(config_path, capsys,
                                                                 monkeypatch, command, target):
    def allocate(*args):
        raise MemoryError("Unable to allocate 14.2 PiB for an array")

    monkeypatch.setattr(target, allocate)
    assert main([command, str(config_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["config error: out of memory: Unable to allocate 14.2 PiB "
                                "for an array"]
