"""Run one clapping-sim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload logistic_ref --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every workload process pins the
BLAS/OpenMP thread count before numpy loads and gets a fresh
CLAPPING_SIM_CACHE_DIR under ``.perfbench_work/`` (removed on exit), so
set-up always includes the cold reference-optimum solve. Op and set-up
times are scaled to a reference machine speed by calibration slices run
between ops (see workloads.py); the wall-clock figures are printed too.

``--trace 0``: a few set-up-only processes plus one measured process;
prints the end-to-end metrics. ``--trace 1``: an untraced and a traced
process of ``--seconds / 2`` each; prints the per-layer metrics and the
tracing overhead. Each metric is printed as ``name value unit``; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_WORKLOADS = ("logistic_ref", "mlp_wide_topk")
WORKLOADS = RUN_WORKLOADS + ("wire_codec",)
SETUP_ONLY_RUNS = 8   # set-up samples per run, besides the measured process
SETUP_ALLOWANCE_S = 10.0  # time allowed for one worker's set-up
ROUND_ALLOWANCE_S = 20.0  # a run only stops at the end of a round


def budget_s(seconds: float) -> float:
    """Time allowed for the whole run, all worker processes included."""
    return (SETUP_ONLY_RUNS + 2) * SETUP_ALLOWANCE_S + seconds + 2 * ROUND_ALLOWANCE_S


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, seconds: float, mode: str, workdir: Path,
              deadline: float) -> dict:
    """One worker process; returns its JSON result."""
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["CLAPPING_SIM_CACHE_DIR"] = str(workdir / "cache")
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--mode", mode, "--workdir", str(workdir)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("out of time before starting a workload process")
    env["PERFBENCH_SPAWNED_AT"] = repr(time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process of {workload} timed out") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process of {workload} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{mode} process of {workload} printed no result")
    return json.loads(lines[-1])


def remove_workdir(work: Path) -> None:
    """Delete a run's scratch directory, and .perfbench_work if now empty."""
    shutil.rmtree(work, ignore_errors=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass  # another run is still using it, or it was never made


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "clapping_sim" / "__init__.py").is_file():
        print(f"perfbench: no clapping_sim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind so subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + budget_s(args.seconds)
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            half = args.seconds / 2
            plain = run_child(args.workload, args.seed, half, "measure", work / "plain", deadline)
            traced = run_child(args.workload, args.seed, half, "trace", work / "traced", deadline)
            children = [plain, traced]
            metrics = {name: metric(v, u) for name, (v, u) in traced["layers"].items()}
            metrics["trace.overhead_ratio"] = metric(traced["ops_per_s"] / plain["ops_per_s"], "ratio")
        else:
            setups = [run_child(args.workload, args.seed, args.seconds, "setup", work / f"setup{i}",
                                deadline)["setup_s"] for i in range(SETUP_ONLY_RUNS)]
            main_run = run_child(args.workload, args.seed, args.seconds, "measure", work / "main",
                                 deadline)
            setups.append(main_run["setup_s"])
            children = [main_run]
            attempted, failed = main_run["attempted"], main_run["failed"]
            metrics = {
                "ops_per_s": metric(main_run["ops_per_s"], "1/s"),
                "op_ms_p50": metric(main_run["op_ms_p50"], "ms"),
                "op_ms_p99": metric(main_run["op_ms_p99"], "ms"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
                "success_rate": metric((attempted - failed) / attempted, "ratio"),
            }
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        remove_workdir(work)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("machine " + json.dumps(children[0]["machine"]))
    for c in children:
        wall = c["wall"]
        print(f"ops {c['ops']}, attempted {c['attempted']}, failed {c['failed']}; wall clock: "
              f"{wall['ops_per_s']:.6g} ops/s, p50 {wall['op_ms_p50']:.6g} ms, "
              f"p99 {wall['op_ms_p99']:.6g} ms, setup {c['setup_wall_s']:.4g} s")
        print("calibration slice p5/p50/p95 " + " ".join(f"{x:.3f}" for x in c["cal_ms"])
              + f" ms (reference {c['ref_cal_ms']} ms)")
        print(f"cpu_share {c['cpu_share']:.3f}, machine steal {c['steal_s']:.2f} s since the first op")
        for reason in c["reasons"]:
            print(f"failure: {reason}")
    print(f"error_rate {failed / attempted!r} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
