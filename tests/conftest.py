"""Fixtures shared by the test modules."""

from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def counting_pools(monkeypatch):
    """Patch the package's one pool name; the returned list gains each pool's worker count."""
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr("qvibe.simulate.ThreadPoolExecutor", CountingPool)
    return started
