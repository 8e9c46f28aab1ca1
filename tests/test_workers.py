"""The BLAS hold of ``_workers._in_workers``: one BLAS thread while more
than one worker runs, and the caller's thread count afterwards."""

import threading

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
    """A ``work`` for ``_in_workers`` that records ``get()`` per claim."""
    seen = []

    def work(claims):
        for _ in claims:
            seen.append(get())

    return work, seen


class TestBlasHold:
    def test_one_thread_inside_and_the_count_restored_after(self, blas):
        get, _ = blas
        before = get()
        work, seen = counts_seen(get)
        _in_workers(work, range(8))
        assert seen == [1] * 8
        assert get() == before

    def test_restored_after_a_worker_raises(self, blas):
        get, _ = blas
        before = get()

        def work(claims):
            for item in claims:
                if item == 3:
                    raise ValueError("worker failed")

        with pytest.raises(ValueError, match="worker failed"):
            _in_workers(work, range(8))
        assert get() == before

    def test_overlapping_calls_restore_only_after_the_last(self, blas):
        # call A ends while call B runs; B must still see one thread
        get, _ = blas
        before = get()
        a_in, b_in, a_done = (threading.Event() for _ in range(3))
        seen_by_b = []

        def work_a(claims):
            for _ in claims:
                a_in.set()
                assert b_in.wait(TIMEOUT)

        def work_b(claims):
            for _ in claims:
                b_in.set()
                assert a_done.wait(TIMEOUT)
                seen_by_b.append(get())

        call_a = threading.Thread(target=_in_workers, args=(work_a, range(2)))
        call_b = threading.Thread(target=_in_workers, args=(work_b, range(2)))
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
        work, seen = counts_seen(fake.get)
        _in_workers(work, range(8))
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
                _in_workers(lambda claims: list(claims), range(8))
                return
            get, _ = real
            before = get()
            work, seen = counts_seen(get)
            _in_workers(work, range(8))
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
