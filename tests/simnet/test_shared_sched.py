"""Lazy shared scheduler: reference conformance and edge-case regressions.

The lazy-advance engine (:mod:`repro.simnet.shared_sched`) chips progress at
rate changes only, not at every global event like the reference model
(``tests/simnet/reference_sched.py``), so its float *rounding* differs and
byte-identity with the reference is not the contract.  The contract,
enforced here, is **summary-level equivalence**: identical success flags,
message/round counts and dropped-by-cause accounting, with latencies (and
every other float) within 1e-6 relative.  Hypothesis drives it across seeded
random specs *including random fault plans*, for every protocol and both
shared transports.

The edge cases pin the failure modes a heap of per-flow estimates invites:

* a flow whose rate drops to zero mid-transfer — its stale completion
  estimate must fire harmlessly, never complete the flow;
* a deadline landing exactly on a bandwidth breakpoint — the timeout must
  win deterministically;
* a link re-rated to zero at the very instant a flow finishes — the flow
  must settle, not starve with nothing left to move;
* a completion-epsilon residual whose transfer time is below one ulp of
  virtual time — the PR-3 live-lock shape, now under the lazy path.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.runner import execute_spec
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.flows import use_shared_engine
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode

from tests.faults.test_conformance import random_fault_plan
from tests.simnet.reference_sched import use_engine, use_reference_scheduler
from tests.simnet.test_transport_golden import run_transport_workload

SHARED_TRANSPORTS = ("fair", "fifo")

#: Relative tolerance of the reference-vs-lazy equivalence gate.
REL_TOLERANCE = 1e-6


def assert_equivalent(old, new, path="summary"):
    """Structural equality with ``REL_TOLERANCE`` slack on floats only.

    Counts (ints), flags (bools), names and shapes must match exactly; only
    genuinely continuous values (latencies, byte totals, timestamps) may
    carry the lazy engine's rounding difference.
    """
    if isinstance(old, dict):
        assert isinstance(new, dict) and set(old) == set(new), path
        for key in old:
            assert_equivalent(old[key], new[key], "%s.%s" % (path, key))
    elif isinstance(old, (list, tuple)):
        assert len(old) == len(new), path
        for index, (a, b) in enumerate(zip(old, new)):
            assert_equivalent(a, b, "%s[%d]" % (path, index))
    elif isinstance(old, bool) or not isinstance(old, float):
        assert old == new, "%s: %r != %r" % (path, old, new)
    elif isinstance(new, float):
        assert math.isclose(old, new, rel_tol=REL_TOLERANCE, abs_tol=1e-9), (
            "%s: %r vs %r" % (path, old, new)
        )
    else:  # pragma: no cover - shape mismatch
        raise AssertionError("%s: %r vs %r" % (path, old, new))


def run_reference_and_lazy(spec: RunSpec):
    with use_reference_scheduler():
        reference = execute_spec(spec).summary()
    with use_shared_engine("lazy"):
        lazy = execute_spec(spec).summary()
    return reference, lazy


# -- conformance: reference model vs lazy engine -------------------------------

@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    protocol=st.sampled_from(PROTOCOL_NAMES),
    transport=st.sampled_from(SHARED_TRANSPORTS),
)
def test_lazy_engine_is_summary_equivalent_to_reference_under_random_fault_plans(
    seed, protocol, transport
):
    spec = RunSpec(
        protocol=protocol,
        relay_count=30,
        authority_count=5,
        seed=seed % 1000,
        max_time=700.0,
        transport=transport,
        fault_plan=random_fault_plan(seed),
    )
    reference, lazy = run_reference_and_lazy(spec)
    assert reference["success"] == lazy["success"]
    assert reference["stats"]["messages_sent"] == lazy["stats"]["messages_sent"]
    assert reference["stats"]["messages_delivered"] == lazy["stats"]["messages_delivered"]
    assert reference["stats"]["messages_timed_out"] == lazy["stats"]["messages_timed_out"]
    assert reference["stats"]["messages_dropped"] == lazy["stats"]["messages_dropped"]
    if reference["faults"]:
        assert reference["faults"]["drops_by_cause"] == lazy["faults"]["drops_by_cause"]
    assert_equivalent(reference, lazy)


@pytest.mark.parametrize("transport", SHARED_TRANSPORTS)
def test_lazy_engine_matches_reference_on_the_golden_workload(transport):
    # The canonical mixed workload (bursts, throttling window, mid-run
    # set_link, timeouts): every delivery/timeout must agree in kind, pair,
    # size and order, with timestamps within the float-rounding tolerance.
    with use_reference_scheduler():
        reference = run_transport_workload(transport)
    with use_shared_engine("lazy"):
        lazy = run_transport_workload(transport)
    assert reference["stats"] == lazy["stats"]
    assert len(reference["events"]) == len(lazy["events"])
    for expected, got in zip(reference["events"], lazy["events"]):
        assert expected[:5] == got[:5]
        assert math.isclose(expected[5], got[5], rel_tol=REL_TOLERANCE, abs_tol=1e-9)


# -- edge cases ----------------------------------------------------------------

class _Sink(ProtocolNode):
    def __init__(self, name, deliveries):
        super().__init__(name)
        self._deliveries = deliveries

    def on_message(self, message, now):
        self._deliveries.append((message.msg_type, now))


def _two_node_network(dst_schedule, transport="fair"):
    deliveries = []
    network = SimNetwork(transport=transport, default_latency_s=0.0)
    network.add_node(_Sink("src", deliveries), LinkConfig.symmetric_mbps(8.0))
    network.add_node(_Sink("dst", deliveries), LinkConfig.symmetric(dst_schedule))
    return network, deliveries


@pytest.mark.parametrize("transport", SHARED_TRANSPORTS)
def test_rate_dropping_to_zero_forever_strands_the_flow_without_completing_it(transport):
    # 1 MB/s for one second, then zero forever: the flow moves 1 MB of its
    # 2 MB and starves.  Its original completion estimate (t=2) is now a
    # stale heap entry — firing it must not complete the flow.
    schedule = BandwidthSchedule([0.0, 1.0], [1_000_000.0, 0.0])
    network, deliveries = _two_node_network(schedule, transport)
    timeouts = []
    network.send(
        "src", "dst", Message(msg_type="DOC", size_bytes=2_000_000),
        on_timeout=lambda message, dst: timeouts.append(network.simulator.now),
    )
    network.simulator.run_until_idle(max_events=1_000)
    assert deliveries == []
    assert timeouts == []
    assert network.active_flow_count() == 1  # stranded


@pytest.mark.parametrize("transport", SHARED_TRANSPORTS)
def test_rate_dropping_to_zero_mid_transfer_defers_completion_to_recovery(transport):
    # Zero capacity on [1, 100): the stale t=2 estimate fires during the
    # outage and must leave the flow incomplete; the remaining 1 MB moves
    # when capacity returns, finishing at t=101.
    schedule = BandwidthSchedule([0.0, 1.0, 100.0], [1_000_000.0, 0.0, 1_000_000.0])
    network, deliveries = _two_node_network(schedule, transport)
    network.send("src", "dst", Message(msg_type="DOC", size_bytes=2_000_000))
    network.simulator.run_until_idle(max_events=1_000)
    assert [kind for kind, _now in deliveries] == ["DOC"]
    assert deliveries[0][1] == pytest.approx(101.0, rel=1e-9)


@pytest.mark.parametrize("transport", SHARED_TRANSPORTS)
def test_deadline_exactly_on_a_bandwidth_breakpoint_times_out(transport):
    # Zero capacity until t=10, full capacity after — and the deadline is
    # exactly t=10.  The breakpoint watcher and the deadline event land on
    # the same instant; the timeout must win deterministically (the flow
    # never moved a byte).
    schedule = BandwidthSchedule([0.0, 10.0], [0.0, 1_000_000.0])
    network, deliveries = _two_node_network(schedule)
    timeouts = []
    network.send(
        "src", "dst", Message(msg_type="DOC", size_bytes=500_000),
        timeout=10.0,
        on_timeout=lambda message, dst: timeouts.append(network.simulator.now),
    )
    network.simulator.run_until_idle(max_events=1_000)
    assert deliveries == []
    assert timeouts == [10.0]
    assert network.stats.messages_timed_out == 1
    assert network.active_flow_count() == 0


@pytest.mark.parametrize("engine", ["lazy", "vector", "reference"])
@pytest.mark.parametrize("trigger", ["breakpoint", "set_link", "set_link_an_ulp_early"])
def test_a_link_rerated_to_zero_at_the_completion_instant_still_delivers(engine, trigger):
    # 1 MB at 1 MB/s is done at t=1.0 — the instant the sender's uplink drops
    # to zero, through a schedule breakpoint or a set_link that sits ahead of
    # the completion in the event order, or one ulp before it, where the
    # residual is already inside the byte epsilon.  The re-rate finds nothing
    # left to move, so the flow must settle there: dropping its completion
    # event with the rate would starve a finished transfer.
    deliveries = []
    with use_engine(engine):
        network = SimNetwork(transport="fair", default_latency_s=0.05)
    uplink = BandwidthSchedule.constant_mbps(8.0)
    if trigger == "breakpoint":
        uplink = uplink.with_window(1.0, 50.0, 0.0)
    else:
        when = 1.0 if trigger == "set_link" else math.nextafter(1.0, 0.0)
        network.simulator.schedule(when, network.set_link, "src", LinkConfig.symmetric_mbps(0.0))
    network.add_node(_Sink("src", deliveries), LinkConfig(uplink, uplink))
    network.add_node(_Sink("dst", deliveries), LinkConfig.symmetric_mbps(8.0))
    network.send("src", "dst", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run(until=10.0)
    assert deliveries == [("DOC", pytest.approx(1.05))]
    assert network.active_flow_count() == 0


def test_sub_ulp_residual_completes_instead_of_livelocking():
    # The PR-3 live-lock shape under the lazy path: a residual above the
    # byte epsilon whose transfer time is below one ulp of virtual time.
    # At t=2^20 one ulp is ~1.2e-10 s; 0.05 bytes at 1e9 B/s is 5e-11 s, so
    # the completion estimate rounds to *now* and the progress chip moves
    # nothing — `_is_complete`'s sub-ulp test must settle the flow.
    start = float(2**20)
    deliveries = []
    network = SimNetwork(transport="fair", default_latency_s=0.0)
    fast = LinkConfig.symmetric(BandwidthSchedule.constant(1e9))
    network.add_node(_Sink("src", deliveries), fast)
    network.add_node(_Sink("dst", deliveries), fast)
    network.simulator.schedule(
        start,
        lambda: network.send("src", "dst", Message(msg_type="DOC", size_bytes=0.05)),
    )
    network.simulator.run_until_idle(max_events=1_000)
    assert [kind for kind, _now in deliveries] == ["DOC"]
    assert deliveries[0][1] == start
    assert network.active_flow_count() == 0


def test_fifo_queued_flow_expiring_mid_queue_never_disturbs_the_served_flow():
    # Three flows on one uplink: the head transfers, the second expires
    # while queued (lazy deletion in the rater's arrival queue), the third
    # is promoted when the head finishes.  10 Mbit/s uplink -> 1.25 MB/s.
    deliveries = []
    network = SimNetwork(transport="fifo", default_latency_s=0.0)
    network.add_node(_Sink("a", deliveries), LinkConfig.symmetric_mbps(10.0))
    network.add_node(_Sink("b", deliveries), LinkConfig.symmetric_mbps(10.0))
    network.add_node(_Sink("c", deliveries), LinkConfig.symmetric_mbps(10.0))
    timeouts = []
    network.send("a", "b", Message(msg_type="FIRST", size_bytes=2_500_000))  # 2 s
    network.send(
        "a", "c", Message(msg_type="SECOND", size_bytes=1_250_000),
        timeout=1.0,  # expires at t=1, still queued
        on_timeout=lambda message, dst: timeouts.append(network.simulator.now),
    )
    network.send("a", "b", Message(msg_type="THIRD", size_bytes=1_250_000))  # 2..3 s
    network.simulator.run_until_idle(max_events=1_000)
    assert timeouts == [1.0]
    assert [(kind, now) for kind, now in deliveries] == [
        ("FIRST", pytest.approx(2.0)),
        ("THIRD", pytest.approx(3.0)),
    ]
    assert network.active_flow_count() == 0
