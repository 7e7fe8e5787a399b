"""ResultCache tests: hit/miss round-trips and corruption tolerance."""

import json

import pytest

from repro.protocols.base import ProtocolRunResult
from repro.protocols.runner import execute_spec
from repro.runtime.cache import ResultCache
from repro.runtime.spec import RunSpec

SPEC = RunSpec(protocol="current", relay_count=200, max_time=700.0)


def test_miss_then_hit_round_trip(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    assert cache.get(SPEC) is None
    assert SPEC not in cache

    result = execute_spec(SPEC)
    cache.put(SPEC, result.summary())
    assert SPEC in cache
    assert len(cache) == 1

    restored = ProtocolRunResult.from_summary(cache.get(SPEC))
    assert restored.success == result.success
    assert restored.latency == result.latency
    assert restored.relay_count == result.relay_count
    assert restored.stats.total_bytes_delivered == result.stats.total_bytes_delivered
    assert restored.stats.bytes_by_type == result.stats.bytes_by_type
    assert {aid: o.completion_time for aid, o in restored.outcomes.items()} == {
        aid: o.completion_time for aid, o in result.outcomes.items()
    }
    # The trace is deliberately not cached.
    assert len(restored.trace) == 0


@pytest.mark.parametrize("transport", ["fair", "fifo", "tcp", "latency-only"])
def test_an_entry_is_named_by_its_spec_hash_alone(tmp_path, transport):
    cache = ResultCache(tmp_path)
    spec = SPEC.derive(transport=transport)
    digest = spec.spec_hash()
    assert cache.path_for(spec) == tmp_path / digest[:2] / (digest + ".json")


def test_different_specs_use_different_entries(tmp_path):
    cache = ResultCache(tmp_path)
    other = SPEC.derive(seed=99)
    assert cache.path_for(SPEC) != cache.path_for(other)
    cache.put(SPEC, {"version": 1, "marker": "a"})
    assert cache.get(other) is None


def test_corrupted_and_mismatched_entries_read_as_misses(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.path_for(SPEC)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{not json", encoding="utf-8")
    assert cache.get(SPEC) is None
    path.write_text(json.dumps({"format": 999, "summary": {}}), encoding="utf-8")
    assert cache.get(SPEC) is None


def test_clear_removes_all_entries(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(SPEC, {"k": 1})
    cache.put(SPEC.derive(seed=8), {"k": 2})
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0
    assert cache.get(SPEC) is None


def test_prune_is_a_no_op_at_or_under_the_limit(tmp_path):
    cache = ResultCache(tmp_path)
    for seed in range(3):
        cache.put(SPEC.derive(seed=seed), {"seed": seed})
    assert cache.prune(max_entries=3) == 0
    assert cache.prune(max_entries=10) == 0
    assert len(cache) == 3


def test_prune_evicts_oldest_entries_first(tmp_path):
    import os

    cache = ResultCache(tmp_path)
    specs = [SPEC.derive(seed=seed) for seed in range(5)]
    for age, spec in enumerate(specs):
        path = cache.put(spec, {"seed": spec.seed})
        # Deterministic mtimes: seed 0 oldest, seed 4 newest.
        os.utime(path, (1_000_000 + age, 1_000_000 + age))

    assert cache.prune(max_entries=2) == 3
    assert len(cache) == 2
    # The two newest survive.
    assert cache.get(specs[3]) == {"seed": 3}
    assert cache.get(specs[4]) == {"seed": 4}
    for old in specs[:3]:
        assert cache.get(old) is None


def test_put_refreshes_an_entry_against_pruning(tmp_path):
    import os

    cache = ResultCache(tmp_path)
    specs = [SPEC.derive(seed=seed) for seed in range(3)]
    for age, spec in enumerate(specs):
        path = cache.put(spec, {"seed": spec.seed})
        os.utime(path, (1_000_000 + age, 1_000_000 + age))
    # Rewriting the oldest entry makes it the newest.
    refreshed = cache.put(specs[0], {"seed": 0, "refreshed": True})
    os.utime(refreshed, (1_000_010, 1_000_010))

    assert cache.prune(max_entries=1) == 2
    assert cache.get(specs[0]) == {"seed": 0, "refreshed": True}


def test_prune_ignores_concurrent_writers_tmp_files(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(SPEC, {"k": 1})
    # A concurrent writer's staging file in the same shard directory.
    staging = path.parent / "inflight0123.tmp"
    staging.write_text("{}", encoding="utf-8")

    assert cache.prune(max_entries=0) == 1
    assert staging.exists()
    assert cache.get(SPEC) is None


def test_prune_rejects_negative_limits(tmp_path):
    with pytest.raises(Exception):
        ResultCache(tmp_path).prune(max_entries=-1)
