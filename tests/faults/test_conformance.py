"""Cross-protocol conformance under seeded random FaultPlans.

Property-based: hypothesis draws seeds, and each seed deterministically
expands into a random :class:`FaultPlan` (partitions, crash windows, loss,
jitter, Byzantine modes).  The invariants hold for *every* protocol and
*every* plan:

* deterministic replay — same spec (including plan) ⇒ identical summary;
* fault accounting consistency — dropped ≤ sent, delivered + timed-out +
  dropped ≤ sent, and the injector's count matches the transport's;
* safety — no authority outputs a consensus while a quorum is fully
  partitioned;
* executor transparency — a faulted sweep is bit-identical at 1 and 2
  workers and round-trips through the ResultCache.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.plan import AuthorityFault, FaultPlan, LinkFault
from repro.protocols.runner import execute_spec
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec

#: Worker count for the parallel-determinism checks.
WORKERS = 2

#: Small-but-real run shape shared by every conformance property.
AUTHORITY_COUNT = 5
RELAY_COUNT = 30
MAX_TIME = 700.0

#: Every registered transport model; fault enforcement happens at the
#: network seams, so the invariants must hold under all of them.
TRANSPORTS = ("fair", "fifo", "tcp", "latency-only")

SLOW_PROPERTY = settings(
    max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def base_spec(protocol: str, seed: int, plan: FaultPlan, transport: str = "fair") -> RunSpec:
    return RunSpec(
        protocol=protocol,
        relay_count=RELAY_COUNT,
        authority_count=AUTHORITY_COUNT,
        seed=seed,
        max_time=MAX_TIME,
        transport=transport,
        fault_plan=plan,
    )


def random_window(rng: random.Random, horizon: float):
    start = rng.uniform(0.0, horizon * 0.6)
    return (start, start + rng.uniform(5.0, horizon * 0.4))


def random_fault_plan(seed: int, authority_count: int = AUTHORITY_COUNT) -> FaultPlan:
    """Expand a seed into a random-but-valid plan (the property-test generator)."""
    rng = random.Random("plan:%d" % seed)
    link_ids = rng.sample(range(authority_count), rng.randint(0, authority_count - 1))
    link_faults = []
    for authority_id in link_ids:
        kind = rng.choice(("partition", "loss", "jitter", "mixed"))
        link_faults.append(
            LinkFault(
                authority_id=authority_id,
                partition_windows=(random_window(rng, MAX_TIME),)
                if kind in ("partition", "mixed")
                else (),
                drop_probability=rng.uniform(0.0, 0.3) if kind in ("loss", "mixed") else 0.0,
                jitter_s=rng.uniform(0.0, 1.0) if kind in ("jitter", "mixed") else 0.0,
            )
        )
    authority_ids = rng.sample(range(authority_count), rng.randint(0, 2))
    authority_faults = []
    for authority_id in authority_ids:
        kind = rng.choice(("crash", "equivocate", "withhold"))
        if kind == "crash":
            first = random_window(rng, MAX_TIME * 0.5)
            windows = [first]
            if rng.random() < 0.5:
                offset = first[1] + rng.uniform(1.0, 50.0)
                windows.append((offset, offset + rng.uniform(5.0, 100.0)))
            authority_faults.append(
                AuthorityFault(authority_id=authority_id, crash_windows=tuple(windows))
            )
        else:
            authority_faults.append(
                AuthorityFault(authority_id=authority_id, byzantine=kind)
            )
    return FaultPlan(link_faults=tuple(link_faults), authority_faults=tuple(authority_faults))


@SLOW_PROPERTY
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    protocol=st.sampled_from(PROTOCOL_NAMES),
    transport=st.sampled_from(TRANSPORTS),
)
def test_random_plans_replay_deterministically_and_account_consistently(
    seed, protocol, transport
):
    plan = random_fault_plan(seed)
    spec = base_spec(protocol, seed=seed % 1000, plan=plan, transport=transport)
    first = execute_spec(spec).summary()
    second = execute_spec(spec).summary()
    assert first == second  # same spec + seed ⇒ identical summary

    stats = first["stats"]
    assert stats["messages_dropped"] <= stats["messages_sent"]
    assert (
        stats["messages_delivered"] + stats["messages_timed_out"] + stats["messages_dropped"]
        <= stats["messages_sent"]
    )
    if plan.is_empty:
        assert first["faults"] == {}
    else:
        faults = first["faults"]
        # The injector's ledger and the transport's ledger must agree.
        assert faults["messages_dropped"] == stats["messages_dropped"]
        assert sum(faults["drops_by_cause"].values()) == faults["messages_dropped"]
        assert faults["partition_seconds"] == plan.partition_seconds(first["end_time"])
        assert faults["authority_down_seconds"] == plan.down_seconds(first["end_time"])


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    protocol=st.sampled_from(PROTOCOL_NAMES),
)
def test_no_consensus_output_during_a_full_quorum_partition(seed, protocol):
    rng = random.Random("quorum:%d" % seed)
    quorum = AUTHORITY_COUNT // 2 + 1
    partitioned = rng.sample(range(AUTHORITY_COUNT), quorum)
    partition_end = 600.0
    plan = FaultPlan.partition(partitioned, start=0.0, end=partition_end)
    result = execute_spec(base_spec(protocol, seed=seed % 1000, plan=plan))
    # With a quorum unreachable from t=0, nobody may output a consensus
    # before the partition heals (and, votes being unretransmitted, the run
    # as a whole must fail).
    assert not result.success
    for outcome in result.outcomes.values():
        assert outcome.completion_time is None or outcome.completion_time >= partition_end


def test_faulted_sweep_is_identical_serial_and_parallel(tmp_path):
    plans = [
        random_fault_plan(101),
        FaultPlan.partition((0, 1), 5.0, 200.0),
        FaultPlan.byzantine(0, "equivocate") | FaultPlan.crash(2, [(20.0, 120.0)]),
    ]
    specs = [
        base_spec(protocol, seed=13, plan=plan, transport=transport)
        for plan in plans
        for protocol in ("current", "ours")
        for transport in TRANSPORTS
    ]
    serial = SweepExecutor(workers=1).run_summaries(specs)
    cache = ResultCache(tmp_path / "cache")
    parallel_executor = SweepExecutor(workers=WORKERS, cache=cache)
    parallel = parallel_executor.run_summaries(specs)
    assert parallel == serial
    assert parallel_executor.executed_runs == len(specs)

    warm = SweepExecutor(workers=WORKERS, cache=cache)
    assert warm.run_summaries(specs) == serial
    assert warm.executed_runs == 0
    assert warm.cache_hits == len(specs)


def test_faulted_spec_hashes_and_caches_independently_of_its_twin(tmp_path):
    plan = FaultPlan.partition((0, 1), 0.0, 120.0)
    faulted = base_spec("ours", seed=7, plan=plan)
    twin = faulted.derive(fault_plan=FaultPlan())
    assert faulted.spec_hash() != twin.spec_hash()

    cache = ResultCache(tmp_path / "cache")
    executor = SweepExecutor(workers=1, cache=cache)
    faulted_summary = executor.run_summaries([faulted])[0]
    twin_summary = executor.run_summaries([twin])[0]
    assert faulted_summary != twin_summary
    assert cache.get(faulted) == faulted_summary
    assert cache.get(twin) == twin_summary
    # Round-trip: the cached entry regenerates the same result object.
    rebuilt = SweepExecutor(workers=1, cache=cache)
    assert rebuilt.run_one(faulted).summary() == faulted_summary
    assert rebuilt.executed_runs == 0
