"""ResultCache tests: hit/miss round-trips and corruption tolerance."""

import json

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
    import pytest

    with pytest.raises(Exception):
        ResultCache(tmp_path).prune(max_entries=-1)


def test_pre_reno_tcp_entries_can_never_mis_hit_tcp_vector_runs(tmp_path):
    # Before tcp grew a vector policy, a vector request on a tcp spec ran —
    # and was cache-keyed as — the lazy engine: format-5 builds stored tcp
    # vector-request summaries at the *unsuffixed* path.  Two independent
    # layers must keep those Tahoe-era entries away from tcp-vector runs:
    # the path (vector runs now key under ``.vector``) and the format
    # version (Reno changed every lossy tcp trajectory, so v6 rejects v5).
    import json as _json

    from repro.simnet.flows import use_shared_engine
    from repro.simnet.vector_sched import vector_available

    cache = ResultCache(tmp_path)
    tcp_spec = RunSpec(protocol="current", relay_count=30, transport="tcp")
    # Forge the entry a format-5 build would have written for a vector
    # request under the old downgrade: lazy path, format 5.
    stale_path = cache.path_for(tcp_spec)
    stale_path.parent.mkdir(parents=True, exist_ok=True)
    stale_path.write_text(
        _json.dumps(
            {"format": 5, "spec": tcp_spec.to_dict(), "summary": {"era": "tahoe"}}
        ),
        encoding="utf-8",
    )
    # Layer 1 — the format gate: even at the same path, v5 reads as a miss.
    assert cache.get(tcp_spec) is None
    # Layer 2 — the path gate: a tcp vector run keys under ``.vector`` and
    # never even opens the stale lazy-keyed file.
    with use_shared_engine("vector"):
        if vector_available():
            assert cache.path_for(tcp_spec) != stale_path
        assert cache.get(tcp_spec) is None
        cache.put(tcp_spec, {"era": "reno"})
        assert cache.get(tcp_spec) == {"era": "reno"}
    # The fresh vector entry never leaks back into default (lazy) runs
    # (without numpy the "vector" run above *was* a default run).
    if vector_available():
        assert cache.get(tcp_spec) is None


def test_prune_treats_engine_suffixed_tcp_entries_as_first_class(tmp_path):
    # Stale unsuffixed tcp entries and fresh ``.vector``-suffixed ones live
    # in the same directory; prune must see both, evict by age (the stale
    # lazy-keyed file first), and never confuse the two paths.
    import time

    from repro.simnet.flows import use_shared_engine
    from repro.simnet.vector_sched import vector_available

    if not vector_available():
        import pytest

        pytest.skip("suffix split needs the vector engine (numpy)")
    cache = ResultCache(tmp_path)
    tcp_spec = RunSpec(protocol="current", relay_count=30, transport="tcp")
    lazy_path = cache.put(tcp_spec, {"engine": "lazy"})
    with use_shared_engine("vector"):
        vector_path = cache.put(tcp_spec, {"engine": "vector"})
    assert lazy_path != vector_path
    assert len(cache) == 2
    # Make the age order deterministic regardless of filesystem timestamp
    # granularity: the lazy entry is strictly older.
    now = time.time()
    import os as _os

    _os.utime(lazy_path, (now - 60.0, now - 60.0))
    _os.utime(vector_path, (now, now))
    assert cache.prune(1) == 1
    assert not lazy_path.exists()
    assert vector_path.exists()
    with use_shared_engine("vector"):
        assert cache.get(tcp_spec) == {"engine": "vector"}


def test_vector_engine_runs_cache_separately_from_default_runs(tmp_path):
    # The shared-scheduler engine is an execution flag, not a spec field,
    # but summaries differ between engines at rounding level — a vector run
    # must never be served a lazy-engine entry, nor poison the cache for
    # default runs.
    import pytest

    from repro.simnet.flows import use_shared_engine
    from repro.simnet.vector_sched import vector_available

    if not vector_available():
        pytest.skip("a vector request runs (and is keyed as) lazy without numpy")
    cache = ResultCache(tmp_path)
    default_path = cache.path_for(SPEC)
    cache.put(SPEC, {"engine": "lazy"})
    with use_shared_engine("vector"):
        assert cache.path_for(SPEC).name == default_path.stem + ".vector.json"
        assert cache.get(SPEC) is None
        cache.put(SPEC, {"engine": "vector"})
        assert cache.get(SPEC) == {"engine": "vector"}
    assert cache.get(SPEC) == {"engine": "lazy"}
    assert len(cache) == 2


def test_engine_switch_does_not_rekey_runs_it_does_not_apply_to(tmp_path):
    # latency-only runs the independent scheduler whatever the switch says:
    # a vector request must address the byte-identical default entry.
    from repro.simnet.flows import use_shared_engine

    cache = ResultCache(tmp_path)
    spec = SPEC.derive(transport="latency-only")
    default_path = cache.path_for(spec)
    cache.put(spec, {"engine": "default"})
    with use_shared_engine("vector"):
        assert cache.path_for(spec) == default_path
        assert cache.get(spec) == {"engine": "default"}
