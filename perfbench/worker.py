"""One workload process. Started by run.py as ``python -m perfbench.worker``
from the checkout root with ``src`` on PYTHONPATH.

Modes: ``setup`` stops at the first op and reports only the set-up time;
``measure`` runs untraced ops for ``--seconds``; ``trace`` does the same
under the span tracer and adds the per-layer figures. The result is one
JSON object on the last line of stdout.
"""

from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
THREADS = "1"


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pin")
    for var in THREAD_VARS:
        os.environ[var] = THREADS


def blas_runtime() -> tuple[str | None, int | None]:
    """(OpenBLAS config string with the kernel it picked, its thread
    count) from the library numpy loaded, or (None, None)."""
    import ctypes

    with open("/proc/self/maps") as fh:
        paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ln.rstrip().endswith(".so")})
    for path in paths:
        lib = ctypes.CDLL(path)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get_config is not None and get_threads is not None:
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return get_config().decode().strip(), int(get_threads())
    return None, None


def machine_info(cpus_seen) -> dict:
    import platform

    import numpy as np

    with open("/proc/cpuinfo") as fh:
        model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    config, blas_threads = blas_runtime()
    if config is None:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        config = f"{blas.get('name')} {blas.get('version')} (build info)"
    return {
        "threads_pinned": int(THREADS),
        "blas_threads": blas_threads,
        "blas": config,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpus_ran_on": sorted(cpus_seen),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM, in kB), in MB."""
    with open("/proc/self/status") as fh:
        kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    return kb * 1024 / 1e6


def main(argv: list[str]) -> int:
    import argparse
    import json
    from pathlib import Path

    spawned_at = float(os.environ.get("PERFBENCH_SPAWNED_AT", time.monotonic()))
    pin_threads()

    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workdir", required=True)
    args = p.parse_args(argv)

    import numpy as np

    from perfbench import tracer as tr
    from perfbench import workloads as wl

    ops = wl.OpLog(stop_at_first=args.mode == "setup")
    tracer = tr.Tracer() if args.mode == "trace" else None
    fingerprint = f"numpy {np.__version__}; {blas_runtime()[0]}; threads {THREADS}"
    try:
        outcome = wl.run_workload(args.workload, args.seed, args.seconds, Path(args.workdir), ops,
                                  fingerprint, tracer)
    except wl.SetupDone:
        outcome = None
    setup_wall_s = (ops.first_op_at or time.monotonic()) - spawned_at
    result = {"setup_s": setup_wall_s * ops.setup_scale(), "setup_wall_s": setup_wall_s}
    if outcome is not None:
        ops.finish()
        cal = np.array([c for _, c in ops.segments])
        result.update(
            attempted=outcome.attempted,
            failed=outcome.failed,
            reasons=outcome.reasons,
            ops=len(ops.durations),
            **wl.op_figures(ops.scaled()),
            wall=wl.op_figures(ops.durations),
            cal_ms=[float(np.percentile(cal, q)) * 1e3 for q in (5, 50, 95)],
            ref_cal_ms=wl.REF_CAL_S * 1e3,
            peak_rss_mb=peak_rss_mb(),
            # CPU time over wall time, and steal seconds, from the first op
            # to the end: a slow run at a full CPU share and no steal was
            # slowed on the CPU itself, not by being descheduled.
            cpu_share=(time.process_time() - ops.first_op_cpu) / (time.monotonic() - ops.first_op_at),
            steal_s=wl.steal_s() - ops.first_op_steal,
            machine=machine_info(ops.cpus),
            fingerprint=fingerprint,
            digests=outcome.digests,
        )
        if tracer is not None:
            result["layers"] = wl.layer_metrics(tracer, args.workload in wl.RUN_WORKLOADS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
