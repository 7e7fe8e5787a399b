"""Distribution-layer behaviour: hooks, serving, mirrors, state accounting."""

import pytest

from repro.clients.workload import ClientWorkload
from repro.experiments.figure13_clients import figure13_spec
from repro.protocols.runner import execute_spec
from repro.runtime.spec import BandwidthOverride, RunSpec


def small_spec(**workload_kwargs):
    defaults = dict(
        population=40,
        cohort_count=4,
        arrival="deterministic",
        wave_interval_s=20.0,
        retry_backoff_s=30.0,
    )
    defaults.update(workload_kwargs)
    return RunSpec(
        protocol="current",
        relay_count=30,
        authority_count=5,
        max_time=900.0,
        client_workload=ClientWorkload(**defaults),
    )


def client_block(spec):
    return execute_spec(spec).client_summary


def test_runs_without_a_workload_have_an_empty_clients_block():
    result = execute_spec(RunSpec(protocol="current", relay_count=30, max_time=700.0))
    assert result.client_summary == {}
    assert result.summary()["clients"] == {}


def test_clients_fetch_the_signed_consensus_after_publication():
    clients = client_block(small_spec())
    assert clients["population"] == 40
    assert clients["cohorts"] == 4
    # The current protocol publishes at the end of round 4 (600 s); every
    # attempt before that is answered "not ready", after it clients converge.
    assert clients["first_publish_time_s"] == pytest.approx(600.0)
    assert clients["states"]["fresh"] == 40
    assert clients["fresh_fraction"] == 1.0
    assert clients["fetch_not_ready"] > 0
    assert clients["time_to_fresh_p50_s"] > 600.0
    # Time-to-fresh and staleness coincide while everyone starts stale and
    # ends fresh.
    assert clients["mean_staleness_s"] == pytest.approx(
        clients["time_to_fresh_p50_s"], rel=0.2
    )


def test_state_counts_always_partition_the_population():
    for spec in (
        small_spec(),
        small_spec(arrival="poisson", fetch_interval_s=60.0),
        small_spec(mirror_count=2),
    ):
        clients = client_block(spec)
        assert sum(clients["states"].values()) == clients["population"]
        assert clients["fetch_successes"] <= clients["fetch_attempts"]
        assert (
            clients["fetch_successes"]
            + clients["fetch_timeouts"]
            + clients["fetch_not_ready"]
            <= clients["fetch_attempts"]
        )


def test_mirror_tier_obtains_and_serves_the_consensus():
    clients = client_block(small_spec(mirror_count=3))
    assert clients["mirror_count"] == 3
    assert clients["mirrors_serving"] == 3
    assert clients["states"]["fresh"] == 40


def test_clients_never_succeed_when_no_authority_publishes():
    # A DDoS-grade bandwidth floor on every authority with full-size votes:
    # the current protocol cannot produce a consensus, so every fetch fails
    # and all clients stay stale — the user-facing side of Figure 1.
    spec = small_spec()
    attacked = spec.derive(
        relay_count=800,
        bandwidth_overrides=tuple(
            BandwidthOverride(authority_id=authority_id, base_mbps=0.05)
            for authority_id in range(5)
        ),
        max_time=700.0,
    )
    result = execute_spec(attacked)
    clients = result.client_summary
    assert not result.success
    assert clients["first_publish_time_s"] is None
    assert clients["states"]["fresh"] == 0
    assert clients["fetch_successes"] == 0
    assert clients["fresh_fraction"] == 0.0
    assert clients["time_to_fresh_p50_s"] is None
    # Everyone was stale for the entire run.
    assert clients["mean_staleness_s"] == pytest.approx(result.end_time)


def test_client_metrics_survive_the_summary_round_trip():
    from repro.protocols.base import ProtocolRunResult

    result = execute_spec(small_spec())
    restored = ProtocolRunResult.from_summary(result.summary())
    assert restored.client_summary == result.client_summary


def test_weighted_fetches_join_transfer_accounting():
    spec = small_spec()
    result = execute_spec(spec)
    baseline = execute_spec(spec.derive(client_workload=None))
    # Weighted client messages count per client, so the run with 40 clients
    # must account many more messages than its client-free twin.
    extra = result.stats.messages_sent - baseline.stats.messages_sent
    assert extra >= result.client_summary["fetch_attempts"]


def test_heap_events_do_not_grow_with_the_population():
    # Cohort aggregation: cost tracks cohorts × waves, never clients.  On 4
    # cohorts / 16 mirrors under the Figure-1 attack, ``current`` executes
    # 24,270 heap events with 10k clients, 26,472 with 1M and 33,228 with
    # 100M, while the clients' fetch attempts grow 10,000-fold; an event per
    # client (or per fetch) would grow by that factor too.
    small, large = (
        execute_spec(figure13_spec("current", population, cohort_count=4, mirror_count=16))
        for population in (10_000, 100_000_000)
    )
    attempts = [run.client_summary["fetch_attempts"] for run in (small, large)]
    assert attempts[1] > 1000 * attempts[0]
    assert large.engine_counters["executed"] <= 2 * small.engine_counters["executed"]


@pytest.mark.parametrize("protocol, rated_per_admitted", [("current", 1.6), ("ours", 3.4)])
def test_same_instant_fetches_share_one_rate_pass(protocol, rated_per_admitted):
    # The same flood at 0.02 Mbit/s residual for 400 s (perfbench's smoke
    # ``clients_flood``).  A wave tick sends from every cohort at one instant
    # and a mirror answers a delivery batch request by request, so the lazy
    # engine's admission frontiers hold many sends each: 273 / 275 frontiers
    # for 4,028 / 4,031 flows on ``current`` / ``ours``, 1,468 / 1,437 rate
    # passes rating 5,588 / 12,206 flows (``ours`` rates its protocol traffic
    # over and over while the flood lasts).  A rate pass per send reads 5,097 /
    # 4,824 passes — more than one per flow, departures included — rating
    # 8,232 / 16,286 flows, each fetch rated once per sibling that follows it.
    spec = figure13_spec(
        protocol, 10_000, cohort_count=4, mirror_count=16,
        residual_bandwidth_mbps=0.02, max_time=400.0,
    )
    counters = execute_spec(spec).engine_counters
    admitted = counters["flows_admitted"]
    assert 10 * counters["admission_frontiers"] <= admitted
    assert counters["rate_passes"] <= 0.5 * admitted
    assert counters["flows_rated"] <= rated_per_admitted * admitted
