"""Test setup: the checkout root and ``src`` on sys.path, and the BLAS
thread pin applied before anything imports numpy, as in a worker."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench.worker import pin_threads  # noqa: E402

pin_threads()
