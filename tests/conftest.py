import ctypes
import os

import numpy as np
import pytest

from clapping_sim import stages


@pytest.fixture
def matmul_split(monkeypatch):
    """``matmul_split(threads, cpus)`` sets numpy's OpenBLAS to ``threads``
    and the CPUs ``os.sched_getaffinity`` reports to ``cpus`` (None removes
    it, as on an OS without it), then clears ``stages._helpers`` so that
    ``stages._matmul`` looks both up again. Undone after the test."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pytest.skip("numpy does not link the OpenBLAS of its wheels")
    before = get()

    def setup(threads=1, cpus=(0, 1)):
        put(threads)
        monkeypatch.setattr(stages, "_helpers", {})
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)

    yield setup
    put(before)
