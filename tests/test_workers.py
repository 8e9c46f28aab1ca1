"""``_workers._in_workers``: each span called once, stop after an error,
and the BLAS hold (one BLAS thread while more than one worker runs, and
the caller's thread count afterwards)."""

import threading
import time

import numpy as np
import pytest

from quasiortho import _workers
from quasiortho._workers import _in_workers

# seconds any one wait of these tests may take
TIMEOUT = 10.0


class FakeBlas:
    """A thread count with get and set entry points, as OpenBLAS has."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def get(self):
        return self.count

    def set(self, count):
        self.sets.append(count)
        self.count = count


@pytest.fixture(params=["fake", "numpy"])
def blas(request, monkeypatch):
    """``(get, set)`` of a fake BLAS, or of numpy's own at 3 threads for
    the test (its count is put back afterwards); two CPUs either way."""
    monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
    if request.param == "fake":
        fake = FakeBlas(3)
        monkeypatch.setattr(_workers, "_blas_threads",
                            lambda: (fake.get, fake.set))
        yield fake.get, fake.set
        return
    calls = _workers._blas_threads()
    if calls is None:
        pytest.skip("no OpenBLAS thread entry point in numpy's BLAS")
    get, set_ = calls
    original = get()
    set_(3)
    try:
        yield get, set_
    finally:
        set_(original)


def counts_seen(get):
    """A block for ``_in_workers`` that records ``get()`` per span."""
    seen = []

    def block(lo, hi):
        seen.append(get())

    return block, seen


class TestSpans:
    def test_each_span_is_called_once(self, monkeypatch):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        calls = []
        _in_workers(lambda lo, hi: calls.append((lo, hi)), 10, 4)
        assert sorted(calls) == [(0, 4), (4, 8), (8, 10)]

    @pytest.mark.parametrize("total, step", [(5, 5), (3, 8)])
    def test_one_span_runs_in_the_caller_with_no_hold(self, total, step,
                                                      monkeypatch):
        fake = FakeBlas(3)
        monkeypatch.setattr(_workers, "_blas_threads",
                            lambda: (fake.get, fake.set))
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        calls = []

        def block(lo, hi):
            calls.append((lo, hi, threading.get_ident(), fake.get()))

        _in_workers(block, total, step)
        assert calls == [(0, total, threading.get_ident(), 3)]
        assert fake.sets == []

    @pytest.mark.parametrize("second", ["returns", "raises"])
    def test_an_error_stops_the_other_worker_first_error_raised(
            self, second, monkeypatch):
        # one worker fails in span 0 while the other is inside span 1;
        # the other finishes span 1 and takes no further span
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        other_in, failing = threading.Event(), threading.Event()
        calls = []

        def block(lo, hi):
            calls.append(lo)
            if lo == 0:
                assert other_in.wait(TIMEOUT)
                failing.set()
                raise ValueError("first")
            other_in.set()
            assert failing.wait(TIMEOUT)
            time.sleep(0.2)   # the first error is recorded meanwhile
            if second == "raises":
                raise RuntimeError("second")

        with pytest.raises(ValueError, match="first"):
            _in_workers(block, 50, 1)
        assert sorted(calls) == [0, 1]


class TestBlasHold:
    def test_one_thread_inside_and_the_count_restored_after(self, blas):
        get, _ = blas
        before = get()
        block, seen = counts_seen(get)
        _in_workers(block, 8, 1)
        assert seen == [1] * 8
        assert get() == before

    def test_restored_after_a_worker_raises(self, blas):
        get, _ = blas
        before = get()

        def block(lo, hi):
            if lo == 3:
                raise ValueError("worker failed")

        with pytest.raises(ValueError, match="worker failed"):
            _in_workers(block, 8, 1)
        assert get() == before

    def test_overlapping_calls_restore_only_after_the_last(self, blas):
        # call A ends while call B runs; B must still see one thread
        get, _ = blas
        before = get()
        a_in, b_in, a_done = (threading.Event() for _ in range(3))
        seen_by_b = []

        def block_a(lo, hi):
            a_in.set()
            assert b_in.wait(TIMEOUT)

        def block_b(lo, hi):
            b_in.set()
            assert a_done.wait(TIMEOUT)
            seen_by_b.append(get())

        call_a = threading.Thread(target=_in_workers, args=(block_a, 2, 1))
        call_b = threading.Thread(target=_in_workers, args=(block_b, 2, 1))
        call_a.start()
        assert a_in.wait(TIMEOUT)
        call_b.start()
        call_a.join(TIMEOUT)
        assert not call_a.is_alive()
        a_done.set()
        call_b.join(TIMEOUT)
        assert not call_b.is_alive()
        assert seen_by_b == [1, 1]
        assert get() == before

    def test_one_worker_leaves_the_count_alone(self, monkeypatch):
        fake = FakeBlas(3)
        monkeypatch.setattr(_workers, "_blas_threads",
                            lambda: (fake.get, fake.set))
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 1)
        block, seen = counts_seen(fake.get)
        _in_workers(block, 8, 1)
        assert seen == [3] * 8
        assert fake.sets == []

    def test_no_entry_point_means_no_hold(self, monkeypatch):
        monkeypatch.setattr(_workers, "_cpu_count", lambda: 2)
        real = _workers._blas_threads()
        monkeypatch.setattr(_workers, "_BLAS_THREAD_SYMBOLS",
                            (("no_such_get", "no_such_set"),))
        _workers._blas_threads.cache_clear()
        try:
            assert _workers._blas_threads() is None
            if real is None:
                _in_workers(lambda lo, hi: None, 8, 1)
                return
            get, _ = real
            before = get()
            block, seen = counts_seen(get)
            _in_workers(block, 8, 1)
        finally:
            # the next lookup finds the real entry points again
            _workers._blas_threads.cache_clear()
        assert seen == [before] * 8
        assert get() == before


def test_numpys_scipy_openblas_resolves():
    # a renamed entry point must fail here, not silently lose the hold
    try:
        config = np.show_config(mode="dicts")
    except TypeError:   # numpy before 1.26 has no mode
        pytest.skip("numpy cannot report its BLAS")
    if config["Build Dependencies"]["blas"].get("name") != "scipy-openblas":
        pytest.skip("numpy is not built on scipy-openblas")
    calls = _workers._blas_threads()
    assert calls is not None
    get, set_ = calls
    before = get()
    assert before >= 1
    set_(before)
    assert get() == before
