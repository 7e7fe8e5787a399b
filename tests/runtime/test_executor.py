"""SweepExecutor tests: serial/parallel equivalence, caching, determinism."""

import pytest

from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import RunSpec, SweepSpec

# Small, fast grid: tiny relay counts at generous bandwidth.
GRID = SweepSpec.grid(
    "executor-test",
    protocols=("current", "ours"),
    bandwidths_mbps=(50.0,),
    relay_counts=(150, 300),
    max_time=900.0,
)


def test_serial_and_parallel_runs_are_identical():
    serial = SweepExecutor(workers=1).run_summaries(GRID)
    parallel = SweepExecutor(workers=2).run_summaries(GRID)
    assert serial == parallel
    assert all(summary["success"] for summary in serial)


def test_seeds_are_deterministic_across_worker_counts():
    reference = SweepExecutor(workers=1).run_summaries(GRID)
    for workers in (2, 3):
        assert SweepExecutor(workers=workers).run_summaries(GRID) == reference


def test_results_come_back_in_submission_order():
    executor = SweepExecutor(workers=2)
    results = executor.run(GRID)
    assert [(r.protocol, r.relay_count) for r in results] == [
        (s.protocol, s.relay_count) for s in GRID
    ]


def test_warm_cache_performs_zero_executions(tmp_path):
    cache = ResultCache(tmp_path)
    cold = SweepExecutor(workers=2, cache=cache)
    first = cold.run_summaries(GRID)
    assert cold.executed_runs == len(GRID)
    assert cold.cache_hits == 0

    warm = SweepExecutor(workers=2, cache=cache)
    second = warm.run_summaries(GRID)
    assert warm.executed_runs == 0
    assert warm.cache_hits == len(GRID)
    assert second == first


def test_duplicate_specs_execute_once():
    spec = RunSpec(protocol="current", relay_count=150, max_time=900.0)
    executor = SweepExecutor()
    results = executor.run([spec, spec, spec])
    assert executor.executed_runs == 1
    assert len(results) == 3
    assert results[0].summary() == results[1].summary() == results[2].summary()


def test_run_one_full_keeps_the_trace_and_feeds_the_cache(tmp_path):
    cache = ResultCache(tmp_path)
    spec = RunSpec(protocol="current", relay_count=150, max_time=900.0)
    executor = SweepExecutor(cache=cache)
    full = executor.run_one(spec, full=True)
    assert len(full.trace) > 0
    assert spec in cache

    # The cached summary now serves compact reads without re-executing.
    again = SweepExecutor(cache=cache)
    compact = again.run_one(spec)
    assert again.executed_runs == 0
    assert compact.success == full.success
    assert compact.latency == full.latency
    assert len(compact.trace) == 0


def test_invalid_worker_count_rejected():
    with pytest.raises(Exception):
        SweepExecutor(workers=0)


@pytest.mark.parametrize("workers", (1, 2))
def test_on_result_fires_once_per_position_with_cached_flag(tmp_path, workers):
    cache = ResultCache(tmp_path)
    SweepExecutor(workers=1, cache=cache).run_summaries(list(GRID)[:2])  # warm 2 of 4

    events = []

    def on_result(index, spec, summary, cached):
        events.append((index, spec, summary["success"], cached))

    executor = SweepExecutor(workers=workers, cache=cache, on_result=on_result)
    summaries = executor.run_summaries(GRID)

    assert sorted(index for index, *_ in events) == list(range(len(GRID)))
    by_index = {index: (spec, success, cached) for index, spec, success, cached in events}
    for index, spec in enumerate(GRID):
        reported_spec, success, cached = by_index[index]
        assert reported_spec == spec
        assert success == summaries[index]["success"]
        assert cached == (index < 2)


def test_per_call_on_result_overrides_the_constructor_default():
    constructor_events, call_events = [], []
    executor = SweepExecutor(
        on_result=lambda *args: constructor_events.append(args)
    )
    specs = list(GRID)[:1]
    executor.run_summaries(specs)
    assert len(constructor_events) == 1
    executor.run_summaries(specs, on_result=lambda *args: call_events.append(args))
    assert len(call_events) == 1
    assert len(constructor_events) == 1  # not called again


def test_on_result_covers_duplicate_spec_positions():
    spec = RunSpec(protocol="current", relay_count=150, max_time=900.0)
    indexes = []
    executor = SweepExecutor(on_result=lambda index, *_: indexes.append(index))
    executor.run([spec, spec, spec])
    assert executor.executed_runs == 1
    assert sorted(indexes) == [0, 1, 2]
