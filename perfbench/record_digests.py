"""Record the metrics-CSV digests the correctness gate compares against.

    python3 perfbench/record_digests.py

Runs one round of each run workload for seeds 0-9 in a pinned worker process
and adds the digests it has not seen before to digests.json, under the
numpy/BLAS/thread fingerprint of this machine. A digest that differs
from one already recorded is reported and left unchanged; the exit code
is then 1.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import ROOT, RUN_WORKLOADS, remove_workdir, run_child  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
SEEDS = range(10)


def main() -> int:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    work = ROOT / ".perfbench_work" / "record"
    remove_workdir(work)
    conflicts = 0
    try:
        for workload in RUN_WORKLOADS:
            for seed in SEEDS:
                res = run_child(workload, seed, 0.0, "measure", work / f"{workload}-{seed}",
                                time.monotonic() + 600)
                known = table.setdefault(res["fingerprint"], {})
                for key, digest in res["digests"].items():
                    if known.setdefault(key, digest) != digest:
                        conflicts += 1
                        print(f"{key}: recorded {known[key]}, now {digest}", file=sys.stderr)
                print(f"{workload} seed {seed}: {len(res['digests'])} digests", flush=True)
    finally:
        remove_workdir(work)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
