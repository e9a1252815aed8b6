"""Numpy jobs on a helper thread: two halves of one job at once, or whole
jobs queued behind the caller's own work.

Four kinds of work run there. Three split, each cut where every output
element is computed as in one call, so the bits match one call: a wide
stage matrix product (``stages._matmul``), an optimizer update or gradient
scaling over a long parameter vector (``in_place``) and a deterministic
compressor over a large batch, with its error-feedback residual and cache
update (``compressors.compress_batch``). The fourth is deferred: a whole
job the caller does not wait for (``defer``), run in the order it was
queued, until ``wait``. The engine defers each wide worker's weight side
(its weight adjoints, batch mean and update) while it goes on with the
input adjoints and the backward send. ``helper()`` decides once per
process whether anything runs on a helper at all. Nothing splits while
deferred jobs are pending, nor on the helper thread itself: a job there
runs whole.

The helper runs each job under the caller's numpy error state (numpy
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
_helpers: dict = {}  # pid -> its helper's job queue, or None if it has none
_deferred: list = []  # jobs deferred since the last wait(): [their done queue, count not yet
#                       waited for, the exception of the one that failed]


class _Thread(threading.local):
    helping = False  # set on the helper thread only


_thread = _Thread()


def _queue() -> queue.SimpleQueue | None:
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


def helper() -> queue.SimpleQueue | None:
    """The helper job queue to split a job on now: ``_queue()``'s, but None
    on the helper thread and while deferred jobs are pending, when the
    helper is not free to take a half."""
    return None if _deferred or _thread.helping else _queue()


def _help(jobs: queue.SimpleQueue) -> None:
    _thread.helping = True
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


def defer(fn, *args) -> None:
    """fn(*args) as one whole job on the helper thread, after every job
    deferred before it, without waiting for it; here and now where
    ``_queue()`` gives no helper. The caller must not write what the job
    reads, nor read what it writes, until ``wait()`` returns. Once a job
    raises, the later ones deferred before the next ``wait()`` are
    skipped: in one thread they would not have run."""
    if (jobs := _queue()) is None:
        fn(*args)
        return
    if not _deferred:
        _deferred[:] = [queue.SimpleQueue(), 0, []]
    done, _, failures = _deferred
    _deferred[1] += 1
    jobs.put((_unless_failed, (failures, fn, args), np.geterr(), np.geterrcall(), done))


def _unless_failed(failures: list, fn, args) -> None:
    if not failures:
        try:
            fn(*args)
        except Exception as exc:  # raised again by wait()
            failures.append(exc)


def wait() -> None:
    """Return once every deferred job has run, raising the exception of
    the one that failed, if any. Splitting is possible again after it."""
    if _deferred:
        done, _, failures = _deferred
        while _deferred[1]:  # counted down, so an interrupted wait can be resumed
            done.get()
            _deferred[1] -= 1
        _deferred.clear()
        if failures:
            raise failures[0]
