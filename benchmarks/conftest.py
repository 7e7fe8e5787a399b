"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure from the paper, prints the
corresponding rows/series and asserts its *simulated* claims, so ``pytest
benchmarks/ --benchmark-only -s`` doubles as the artefact-regeneration entry
point.  The suite is part of tier-1 (pytest collects it first).  The
``benchmark`` fixture reports how long each artefact took to regenerate;
nothing here asserts on host time or memory — ``perfbench/`` is the one
instrument that measures and gates those.

All protocol runs route through one session-wide
:class:`~repro.runtime.executor.SweepExecutor` (the ``sweep_executor``
fixture) backed by a per-session :class:`~repro.runtime.cache.ResultCache`:
grids fan out over ``REPRO_BENCH_WORKERS`` processes (default 2) and cells
shared between artefacts execute once.
"""

import os

import pytest

from repro.runtime import ResultCache, SweepExecutor


def pytest_configure(config):
    config.addinivalue_line("markers", "paper_artifact(name): marks which paper artefact a benchmark regenerates")


@pytest.fixture(scope="session")
def sweep_cache(tmp_path_factory):
    """A result cache shared by every benchmark in the session."""
    return ResultCache(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="session")
def sweep_executor(sweep_cache):
    """The session-wide executor all artefact benchmarks run through."""
    workers = int(os.environ.get("REPRO_BENCH_WORKERS", "2"))
    return SweepExecutor(workers=workers, cache=sweep_cache)
