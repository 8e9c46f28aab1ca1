"""Worker threads for trial loops, with numpy's BLAS held to one thread.

``suppression_experiment``, ``success_rate_experiment`` and
``sample_overlaps`` hand ``_in_workers`` a block function, which it
calls once per span of their trials or samples. A trial's matrix
products are already large enough for OpenBLAS to run them on its own
helper threads, which then compete with the workers for the same CPUs,
so while more than one worker runs, numpy's BLAS is held to one thread
and its previous count is restored afterwards.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
import threading

# Threads that run the trials of one call.
_MAX_WORKERS = 2
# (get, set) entry points of OpenBLAS's thread count, in the spellings of
# the scipy-openblas wheels numpy links (``64_`` for the ILP64 build, none
# for LP64) and of a plain OpenBLAS build with and without that suffix.
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # no affinity call on this platform
        return os.cpu_count() or 1


@functools.cache
def _blas_threads():
    """``(get, set)`` of the thread count of the BLAS numpy calls, or None
    where no entry point resolves.

    numpy's compiled core links the BLAS, and ``dlsym`` on a library's
    handle also searches the libraries it depends on.
    """
    try:
        from numpy._core import _multiarray_umath as core   # numpy >= 2
    except ImportError:
        from numpy.core import _multiarray_umath as core    # numpy 1.x
    try:
        lib = ctypes.CDLL(core.__file__)
    except OSError:
        return None
    for get_name, set_name in _BLAS_THREAD_SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


class _BlasHold:
    """Context manager that holds numpy's BLAS to one thread.

    The thread count is process-wide, so there is one hold per process
    and it is reference-counted under a lock: the first section to enter
    saves the count and sets it to one, and the last to leave restores
    it, so an overlapping section never runs with the count restored.
    Where ``_blas_threads`` finds no entry point it does nothing.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None   # (set, count) to restore, or None

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                calls = _blas_threads()
                if calls is not None:
                    get, set_ = calls
                    self._saved = (set_, get())
                    set_(1)
            self._holders += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._holders -= 1
            if self._holders == 0 and self._saved is not None:
                set_, count = self._saved
                self._saved = None
                set_(count)


_BLAS_HOLD = _BlasHold()


def _in_workers(block, total, step) -> None:
    """Call ``block(lo, hi)`` once for each span ``[lo, min(lo + step,
    total))`` of ``[0, total)``, on ``min(_MAX_WORKERS, _cpu_count(),
    spans)`` workers: the calling thread, plus plain threads when there
    is more than one, with numpy's BLAS held to one thread
    (``_BLAS_HOLD``) until every worker is joined.

    Workers take spans from one shared iterator. After an error every
    worker stops before its next span; all are joined, then the first
    error is raised. Each thread runs in a copy of the caller's context,
    so the caller's ``np.errstate`` holds in every worker.
    """
    starts = range(0, total, step)
    count = min(_MAX_WORKERS, _cpu_count(), len(starts))
    pending = iter(starts)
    lock = threading.Lock()
    errors = []

    def run():
        try:
            while not errors:
                with lock:
                    lo = next(pending, None)
                if lo is None:
                    return
                block(lo, min(lo + step, total))
        except BaseException as exc:   # re-raised in the caller below
            errors.append(exc)

    threads = [threading.Thread(target=contextvars.copy_context().run,
                                args=(run,)) for _ in range(count - 1)]
    with _BLAS_HOLD if threads else contextlib.nullcontext():
        for thread in threads:
            thread.start()
        try:
            run()
        finally:
            for thread in threads:
                thread.join()
    if errors:
        raise errors[0]
