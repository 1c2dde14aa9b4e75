import pytest


@pytest.fixture
def fake_pool(monkeypatch):
    """The (max_workers, parts) of each process pool started while the test
    runs.  The pools map their parts in-process, so no process starts."""
    import concurrent.futures
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            parts = list(parts)
            pools.append((self.max_workers, parts))
            return map(fn, parts)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return pools


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes k the number of CPUs this process may use."""
    import os

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return set_cpus
