"""Benchmark-suite fixtures."""

from __future__ import annotations

import pytest


@pytest.fixture
def one_shot(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    ATPG runs are deterministic but expensive; one round is both honest
    and affordable.
    """
    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return runner
