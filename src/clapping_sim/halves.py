"""Two halves of one numpy job at once, the second on a helper thread.

Three kinds of work split this way: a wide stage matrix product
(``stages._matmul``), an optimizer update or gradient scaling over a long
parameter vector (``in_place``) and a deterministic compressor over a
large batch, with its error-feedback residual and cache update
(``compressors.compress_batch``). Each cuts its job where
every output element is computed as in one call, so the bits match one
call. ``helper()`` decides once per process whether anything splits.

The helper runs each half under the caller's numpy error state (numpy
keeps it per thread) and calls only numpy and private functions, never a
public name of the library, so a caller that wraps those sees every call
on its own thread.
"""

from __future__ import annotations

import ctypes
import os
import queue
import threading

import numpy as np

SPLIT_LEN = 1 << 17  # vector length above which callers hand an update to in_place
_helpers: dict = {}  # pid -> its helper's job queue, or None if it splits nothing


def helper() -> queue.SimpleQueue | None:
    """This process's helper job queue, set up once per process id, so a
    forked child starts its own. None, and no thread, unless two CPUs are
    allowed and numpy's OpenBLAS runs one thread: one that runs more
    spreads each product over the CPUs itself, and a split only slows it."""
    if os.getpid() not in _helpers:
        try:  # numpy's core module resolves the symbols of the BLAS it links
            lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
            threads = lib.scipy_openblas_get_num_threads64_()
        except (AttributeError, OSError):  # another BLAS, or another numpy layout
            threads = None
        cpus = getattr(os, "sched_getaffinity", lambda pid: ())(0)  # Linux only
        split = len(cpus) > 1 and threads == 1
        jobs = _helpers[os.getpid()] = queue.SimpleQueue() if split else None
        if jobs is not None:
            threading.Thread(target=_help, args=(jobs,), name="numpy-half", daemon=True).start()
    return _helpers[os.getpid()]


def _help(jobs: queue.SimpleQueue) -> None:
    while True:
        fn, args, err, call, done = jobs.get()
        try:
            with np.errstate(call=call, **err):
                done.put((fn(*args), None))
        except Exception as exc:  # raised again by the caller
            done.put((None, exc))
        del fn, args, done  # hold no array between jobs


def run(jobs: queue.SimpleQueue, fn, mine: tuple, theirs: tuple, whole: tuple | None = None):
    """(fn(*mine), fn(*theirs)), with fn(*theirs) on the helper thread at
    once. If a half raises, fn(*whole) then runs here: one unsplit call on
    what a single call of the caller would read, so the caller sees
    exactly one call's exception. Without ``whole`` (an update, whose
    halves have written its inputs by then) the caller gets the exception
    of a failing half, this thread's first: one call's exception, unless
    the two halves fail in different operations."""
    done: queue.SimpleQueue = queue.SimpleQueue()
    jobs.put((fn, theirs, np.geterr(), np.geterrcall(), done))
    try:
        ours, failed = fn(*mine), None
    except Exception as exc:
        failed = exc
    finally:  # the helper holds the arrays until it is done
        out, theirs_failed = done.get()
    if failed is None:
        failed = theirs_failed
    if failed is None:
        return ours, out
    if whole is not None:
        fn(*whole)
    raise failed


def in_place(fn, arrays: tuple, *args) -> None:
    """fn(*arrays, *args), an elementwise update that writes into the
    equal-length vectors ``arrays``: on their two halves at once, if they
    are separate buffers and ``helper()`` gives a helper. Callers hand over
    only vectors longer than SPLIT_LEN, so a short one's update costs them
    one comparison."""
    shape = arrays[0].shape
    if ((jobs := helper()) is None
            or any(type(a) is not np.ndarray or a.ndim != 1 or a.shape != shape for a in arrays)
            or any(np.may_share_memory(a, b) for i, a in enumerate(arrays) for b in arrays[:i])):
        fn(*arrays, *args)
        return
    h = shape[0] // 2
    run(jobs, fn, tuple(a[:h] for a in arrays) + args, tuple(a[h:] for a in arrays) + args)
