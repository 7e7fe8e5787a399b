"""Vector-engine conformance: SoA batch scheduling ≡ lazy, summary-level.

The vectorized shared-link scheduler (:mod:`repro.simnet.vector_sched`)
coalesces same-instant work and recomputes rates over numpy slot arrays, so
it does *not* reproduce the lazy engine's event order or float rounding —
flows chip progress at recompute instants rather than per flow event, and
same-instant completions settle in flow-id batches.  Its contract is
therefore pinned one level up, exactly where the lazy/reference contract
lives: **summary equivalence** — integer accounting (deliveries, timeouts,
drops, per-phase message counts) equal exactly, continuous values (bytes,
timestamps, latencies) within ``REL_TOLERANCE`` — plus the canonical
transport workload compared as an event *multiset* (never order) and the
full edge-case battery re-run under the vector engine.

Everything here degrades gracefully on a numpy-less install: the engine
seam downgrades ``vector`` to ``lazy`` (pinned by the fallback test, which
is what the no-numpy CI leg exercises), and the numpy-only tests skip.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.runner import execute_spec
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.engine import Simulator
from repro.simnet.flows import (
    effective_shared_engine,
    make_flow_scheduler,
    use_shared_engine,
)
from repro.simnet.linkmodel import get_link_model
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode
from repro.simnet.shared_sched import LazySharedLinkScheduler
from repro.simnet.vector_sched import VectorSharedLinkScheduler, vector_available
from tests.faults.test_conformance import random_fault_plan
from tests.simnet.reference_sched import ReferenceFlowScheduler, use_reference_scheduler
from tests.simnet.test_shared_sched import (
    REL_TOLERANCE,
    SHARED_TRANSPORTS,
    assert_equivalent,
)
from tests.simnet.test_transport_golden import run_transport_workload

needs_numpy = pytest.mark.skipif(
    not vector_available(), reason="numpy not installed (the [perf] extra)"
)


# -- engine selection seam -----------------------------------------------------

def test_vector_request_selects_vector_or_falls_back_to_lazy():
    # The one test that must pass WITH and WITHOUT numpy: requesting the
    # vector engine yields the vectorized scheduler when numpy is importable
    # and silently downgrades to the (golden-pinned) lazy engine otherwise.
    with use_shared_engine("vector"):
        assert effective_shared_engine("fair") == (
            "vector" if vector_available() else "lazy"
        )
        scheduler = make_flow_scheduler(
            get_link_model("fair"),
            Simulator(),
            {},
            lambda flow: None,
            lambda flow: None,
        )
    expected = VectorSharedLinkScheduler if vector_available() else LazySharedLinkScheduler
    assert type(scheduler) is expected


def test_non_vector_engines_are_unaffected_by_numpy_availability():
    with use_shared_engine("lazy"):
        assert effective_shared_engine("fair") == "lazy"
    # The reference model is not an engine request: it stands in whatever
    # the switch says.
    with use_shared_engine("vector"), use_reference_scheduler():
        assert type(SimNetwork(transport="fair")._scheduler) is ReferenceFlowScheduler


# -- conformance: vector engine vs lazy engine ---------------------------------

def run_vector_and_lazy(spec: RunSpec):
    with use_shared_engine("lazy"):
        lazy = execute_spec(spec).summary()
    with use_shared_engine("vector"):
        vector = execute_spec(spec).summary()
    return lazy, vector


@needs_numpy
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    protocol=st.sampled_from(PROTOCOL_NAMES),
    transport=st.sampled_from(SHARED_TRANSPORTS),
)
def test_vector_engine_is_summary_equivalent_to_lazy_under_random_fault_plans(
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
    lazy, vector = run_vector_and_lazy(spec)
    assert lazy["success"] == vector["success"]
    assert lazy["stats"]["messages_sent"] == vector["stats"]["messages_sent"]
    assert lazy["stats"]["messages_delivered"] == vector["stats"]["messages_delivered"]
    assert lazy["stats"]["messages_timed_out"] == vector["stats"]["messages_timed_out"]
    assert lazy["stats"]["messages_dropped"] == vector["stats"]["messages_dropped"]
    if lazy["faults"]:
        assert lazy["faults"]["drops_by_cause"] == vector["faults"]["drops_by_cause"]
    assert_equivalent(lazy, vector)


@needs_numpy
@pytest.mark.parametrize("transport", SHARED_TRANSPORTS)
def test_vector_engine_matches_lazy_on_the_golden_workload_as_a_multiset(transport):
    # The canonical mixed workload: the vector engine settles same-instant
    # completions in flow-id batches, so event ORDER may legitimately differ
    # from lazy — the comparison sorts both streams by a timestamp-free key
    # and checks each matched pair's timestamp to tolerance.
    with use_shared_engine("lazy"):
        lazy = run_transport_workload(transport)
    with use_shared_engine("vector"):
        vector = run_transport_workload(transport)
    assert lazy["stats"] == vector["stats"]
    assert len(lazy["events"]) == len(vector["events"])

    def keyed(record):
        kind, msg_type, sender, dst, size, now = record
        return ((kind, msg_type, sender, dst, size), now)

    old = sorted(map(keyed, lazy["events"]))
    new = sorted(map(keyed, vector["events"]))
    for (old_key, old_now), (new_key, new_now) in zip(old, new):
        assert old_key == new_key
        assert math.isclose(old_now, new_now, rel_tol=REL_TOLERANCE, abs_tol=1e-9)


# -- edge cases, re-run under the vector engine --------------------------------

class _Sink(ProtocolNode):
    def __init__(self, name, deliveries):
        super().__init__(name)
        self._deliveries = deliveries

    def on_message(self, message, now):
        self._deliveries.append((message.msg_type, now))


def _two_node_network(dst_schedule, transport="fair"):
    deliveries = []
    network = SimNetwork(
        transport=transport, shared_engine="vector", default_latency_s=0.0
    )
    network.add_node(_Sink("src", deliveries), LinkConfig.symmetric_mbps(8.0))
    network.add_node(_Sink("dst", deliveries), LinkConfig.symmetric(dst_schedule))
    return network, deliveries


@needs_numpy
@pytest.mark.parametrize("transport", SHARED_TRANSPORTS)
def test_vector_strands_a_flow_whose_rate_drops_to_zero_forever(transport):
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
    assert network.active_flow_count() == 1


@needs_numpy
@pytest.mark.parametrize("transport", SHARED_TRANSPORTS)
def test_vector_defers_completion_across_an_outage_window(transport):
    schedule = BandwidthSchedule([0.0, 1.0, 100.0], [1_000_000.0, 0.0, 1_000_000.0])
    network, deliveries = _two_node_network(schedule, transport)
    network.send("src", "dst", Message(msg_type="DOC", size_bytes=2_000_000))
    network.simulator.run_until_idle(max_events=1_000)
    assert [kind for kind, _now in deliveries] == ["DOC"]
    assert deliveries[0][1] == pytest.approx(101.0, rel=1e-9)


@needs_numpy
def test_vector_deadline_exactly_on_a_bandwidth_breakpoint_times_out():
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
    assert network.active_flow_count() == 0


@needs_numpy
def test_vector_sub_ulp_residual_completes_instead_of_livelocking():
    start = float(2**20)
    deliveries = []
    network = SimNetwork(
        transport="fair", shared_engine="vector", default_latency_s=0.0
    )
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


@needs_numpy
def test_vector_fifo_mid_queue_expiry_never_disturbs_the_served_flow():
    deliveries = []
    network = SimNetwork(
        transport="fifo", shared_engine="vector", default_latency_s=0.0
    )
    network.add_node(_Sink("a", deliveries), LinkConfig.symmetric_mbps(10.0))
    network.add_node(_Sink("b", deliveries), LinkConfig.symmetric_mbps(10.0))
    network.add_node(_Sink("c", deliveries), LinkConfig.symmetric_mbps(10.0))
    timeouts = []
    network.send("a", "b", Message(msg_type="FIRST", size_bytes=2_500_000))
    network.send(
        "a", "c", Message(msg_type="SECOND", size_bytes=1_250_000),
        timeout=1.0,
        on_timeout=lambda message, dst: timeouts.append(network.simulator.now),
    )
    network.send("a", "b", Message(msg_type="THIRD", size_bytes=1_250_000))
    network.simulator.run_until_idle(max_events=1_000)
    assert timeouts == [1.0]
    assert [(kind, now) for kind, now in deliveries] == [
        ("FIRST", pytest.approx(2.0)),
        ("THIRD", pytest.approx(3.0)),
    ]
    assert network.active_flow_count() == 0
