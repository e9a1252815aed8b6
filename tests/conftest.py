import ctypes
import os
import threading

import numpy as np
import pytest

from clapping_sim import compressors as comp
from clapping_sim import engine, halves, optim


@pytest.fixture
def matmul_split(monkeypatch):
    """Whether work splits into halves: ``matmul_split(threads, cpus)`` sets
    numpy's OpenBLAS to ``threads`` and the CPUs ``os.sched_getaffinity``
    reports to ``cpus`` (None removes it, as on an OS without it), then
    clears ``halves._helpers`` so that ``halves.helper()`` looks both up
    again, and ``halves._deferred``, so that no job a failed test left
    queued is waited for. Undone after the test."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        pytest.skip("numpy does not link the OpenBLAS of its wheels")
    before = get()

    def setup(threads=1, cpus=(0, 1)):
        put(threads)
        monkeypatch.setattr(halves, "_helpers", {})
        monkeypatch.setattr(halves, "_deferred", [])
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)

    yield setup
    put(before)


@pytest.fixture
def half_calls(monkeypatch):
    """A list that gets ``(name, thread id)`` for every call of the private
    functions that may run on the helper: the optimizer updates and the
    engine's batch mean, which a wide engine defers whole
    (``optim._momentum``, ``optim._adam``, ``engine.itruediv``), and each
    kind's rows function, which ``compress_batch`` runs as halves."""
    calls = []

    def spy(name, fn):
        def spied(*args):
            calls.append((name, threading.get_ident()))
            return fn(*args)
        return spied

    for owner, name in ((optim, "_momentum"), (optim, "_adam"), (engine, "itruediv")):
        monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
    for kind, row in list(comp.KIND_TABLE.items()):
        monkeypatch.setitem(comp.KIND_TABLE, kind, row._replace(rows=spy(kind, row.rows)))
    return calls


def pytest_collection_modifyitems(items):
    """The slow tests run last, so that the fast tests run while the slow
    ones' runs fill the pool ``test_acceptance.slow_runs`` starts."""
    items.sort(key=lambda item: item.get_closest_marker("slow") is not None)
