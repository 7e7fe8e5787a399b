"""Broadcast-path conformance: batched dispatch vs the per-message reference.

``PerMessageNetwork`` (``per_message.py``) is the network that batches
nothing — one admission per destination, one delivery event per message — so
the production path (``send_many`` admission, batched lazy flow starts,
coalesced same-instant deliveries) is checked against it at two levels:

* **Summary equality to float tolerance.**  The batched path changes which
  pending-event serials stale re-aims consume, which permutes same-instant
  tie-breaks; final rates are a pure function of final link occupancy, so
  everything integer (success, digests, signature counts, message counts,
  byte accounting) must agree **exactly**, and derived times to 1-ulp-level
  float tolerance.  Hypothesis drives seeds and sizes across all three
  protocols, the shared engines and the flow-scheduler reference model.
* **Mechanism units.**  ``Simulator.schedule_batch`` drains in append order
  and survives re-entrant appends; a burst admitted whole on the lazy engine
  lands the same final rates as the same flows admitted one by one;
  ``SharedPayload`` prices a message once and unwraps.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec
from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow, make_flow_scheduler
from repro.simnet.linkmodel import FairShareLinkModel
from repro.simnet.message import Message, SharedPayload
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode
from repro.utils import phases

from tests.simnet.per_message import PerMessageNetwork, use_per_message_network
from tests.simnet.reference_sched import RUN_CASES, use_engine

#: Tolerance for derived time metrics: the batched path re-bases residual
#: arithmetic differently from stale-event re-aims (algebraically equal,
#: not bit-equal), so completion/latency floats may drift by ~1 ulp.
REL_TOLERANCE = 1e-9

#: Outcome fields that must match exactly across dispatch paths.
EXACT_OUTCOME_KEYS = (
    "authority_id",
    "success",
    "consensus_digest",
    "signature_count",
    "votes_held",
    "failure_reason",
)

#: Outcome fields compared to float tolerance.
FLOAT_OUTCOME_KEYS = ("completion_time", "network_latency")


def assert_summaries_conformant(batched: dict, reference: dict) -> None:
    for key in ("version", "protocol", "success", "relay_count", "start_time"):
        assert batched[key] == reference[key], key
    assert batched["stats"] == reference["stats"]
    assert batched["faults"] == reference["faults"]
    assert batched["clients"] == reference["clients"]
    for key in ("latency", "end_time"):
        a, b = batched[key], reference[key]
        if a is None or b is None:
            assert a == b, (key, a, b)
        else:
            assert math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=1e-9), (key, a, b)
    assert len(batched["outcomes"]) == len(reference["outcomes"])
    for ours, theirs in zip(batched["outcomes"], reference["outcomes"]):
        for key in EXACT_OUTCOME_KEYS:
            assert ours[key] == theirs[key], (key, ours[key], theirs[key])
        for key in FLOAT_OUTCOME_KEYS:
            a, b = ours[key], theirs[key]
            if a is None or b is None:
                assert a == b, (key, a, b)
            else:
                assert math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=1e-9), (
                    key,
                    a,
                    b,
                )


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    protocol=st.sampled_from(("current", "ours", "synchronous")),
    authorities=st.sampled_from((5, 9, 13)),
    engine_transport=st.sampled_from(RUN_CASES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_batched_dispatch_summary_conformance(protocol, authorities, engine_transport, seed):
    engine, transport = engine_transport
    spec = RunSpec(
        protocol=protocol,
        relay_count=25,
        authority_count=authorities,
        seed=seed,
        transport=transport,
        max_time=600.0,
    )
    with use_engine(engine):
        batched = execute_spec(spec).summary()
        with use_per_message_network():
            per_message = execute_spec(spec).summary()
    assert_summaries_conformant(batched, per_message)


# -- schedule_batch mechanism ------------------------------------------------


def test_schedule_batch_drains_in_append_order():
    simulator = Simulator()
    drained = []
    for item in ("a", "b", "c"):
        simulator.schedule_batch(1.0, "node", drained.extend, item)
    simulator.schedule_batch(1.0, "other", drained.extend, "x")
    simulator.run()
    # Same (time, key) appends coalesce into one drain, preserving order;
    # the distinct key drains separately.
    assert drained == ["a", "b", "c", "x"]


def test_schedule_batch_distinct_times_do_not_coalesce():
    simulator = Simulator()
    drained = []
    simulator.schedule_batch(2.0, "n", drained.append, "late")
    simulator.schedule_batch(1.0, "n", drained.append, "early")
    simulator.run()
    assert drained == [["early"], ["late"]]


def test_schedule_batch_reentrant_append_creates_fresh_batch():
    simulator = Simulator()
    drained = []

    def drain(items):
        drained.append(list(items))
        if len(drained) == 1:
            # Appending for the same slot *during* the drain must start a
            # fresh batch (the old one was popped), not resurrect the one
            # being drained.
            simulator.schedule_batch(simulator.now, "n", drain, "again")

    simulator.schedule_batch(0.5, "n", drain, "first")
    simulator.run()
    assert drained == [["first"], ["again"]]


# -- batched flow starts on the lazy engine ---------------------------------


def _lazy_fixture():
    simulator = Simulator()
    links = {name: LinkConfig.symmetric_mbps(8.0) for name in ("a", "b", "c", "d")}
    scheduler = make_flow_scheduler(
        FairShareLinkModel(),
        simulator,
        links,
        complete=lambda flow: None,
        expire=lambda flow: None,
        shared_engine="lazy",
    )
    return simulator, scheduler


def _mk_flow(simulator, src, dst, size=1_000_000):
    return Flow(
        flow_id=simulator.next_serial(),
        src=src,
        dst=dst,
        message=Message(msg_type="T", size_bytes=size),
        start_time=0.0,
        deadline=None,
        on_timeout=None,
        on_delivered=None,
    )


def test_start_flows_matches_sequential_rates():
    sim_a, sched_a = _lazy_fixture()
    flows_a = [_mk_flow(sim_a, "a", dst) for dst in ("b", "c", "d")]
    for flow in flows_a:
        sched_a.start_flows([flow], now=0.0)
        sim_a.run(until=0.0)  # rated alone, before the next one arrives

    sim_b, sched_b = _lazy_fixture()
    flows_b = [_mk_flow(sim_b, "a", dst) for dst in ("b", "c", "d")]
    sched_b.start_flows(flows_b, now=0.0)
    sim_b.run(until=0.0)

    assert [f.flow_id for f in flows_b] == [f.flow_id for f in flows_a]
    # Rates are a pure function of final occupancy: the uplink of "a" is
    # shared three ways either way.
    assert [f.rate for f in flows_b] == [f.rate for f in flows_a] == [1_000_000.0 / 3] * 3
    assert sched_a.counters()["rate_passes"] == 3
    assert sched_b.counters()["rate_passes"] == 1


# -- shared payload flyweight ------------------------------------------------


def test_shared_payload_sizes_message_once_and_unwraps():
    calls = []

    class Priced:
        @property
        def size_bytes(self):
            calls.append(1)
            return 4096

    payload = Priced()
    handle = SharedPayload(payload, payload.size_bytes)
    messages = [Message(msg_type="T", payload=handle) for _ in range(5)]
    assert len(calls) == 1
    assert all(message.size_bytes == 4096 for message in messages)
    assert all(message.payload is payload for message in messages)


def test_shared_payload_rejects_negative_size():
    with pytest.raises(Exception):
        SharedPayload(object(), -1)


# -- broadcast_message plumbing ----------------------------------------------


class _Recorder(ProtocolNode):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, message, now):
        self.received.append((message.msg_type, message.payload, now))


def _network(network_class):
    network = network_class(Simulator())
    nodes = [_Recorder("n%d" % index) for index in range(4)]
    for node in nodes:
        network.add_node(node, LinkConfig.symmetric_mbps(10.0))
    return network, nodes


@pytest.mark.parametrize("network_class", [SimNetwork, PerMessageNetwork])
def test_broadcast_message_reaches_every_peer(network_class):
    network, nodes = _network(network_class)
    sender = nodes[0]
    sender.broadcast_message(Message(msg_type="HELLO", payload="x", size_bytes=512))
    network.simulator.run()
    for node in nodes[1:]:
        assert [entry[0] for entry in node.received] == ["HELLO"]
        assert all(entry[1] == "x" for entry in node.received)
    assert sender.received == []


def test_broadcast_message_respects_targets():
    network, nodes = _network(SimNetwork)
    nodes[0].broadcast_message(
        Message(msg_type="HELLO", size_bytes=256), targets=["n2"]
    )
    network.simulator.run()
    assert [entry[0] for entry in nodes[2].received] == ["HELLO"]
    assert nodes[1].received == []
    assert nodes[3].received == []


def test_send_many_returns_flow_ids_matching_sequential_send():
    network_a, nodes_a = _network(SimNetwork)
    ids_batched = network_a.send_many(
        "n0",
        ["n1", "n2", "n3"],
        Message(msg_type="M", size_bytes=100_000),
    )
    network_b, nodes_b = _network(PerMessageNetwork)
    ids_loop = network_b.send_many(
        "n0",
        ["n1", "n2", "n3"],
        Message(msg_type="M", size_bytes=100_000),
    )
    # Ids are identities, not trajectory: the sequential path interleaves
    # per-send event serials between flow-id allocations, the batched path
    # allocates the burst's ids consecutively.  Both must hand back one
    # distinct id per destination, in destination order.
    assert len(ids_batched) == len(ids_loop) == 3
    assert len(set(ids_batched)) == 3
    assert ids_batched == sorted(ids_batched)
    network_a.simulator.run()
    network_b.simulator.run()
    for node_a, node_b in zip(nodes_a, nodes_b):
        assert len(node_a.received) == len(node_b.received)


# -- phase accounting --------------------------------------------------------


def test_phases_disabled_by_default_and_exclusive_accounting():
    assert not phases.ENABLED
    with phases.measuring():
        phases.enter(phases.TRANSPORT)
        phases.enter(phases.PROTOCOL)
        phases.leave()
        phases.leave()
        buckets = phases.snapshot()
    assert set(buckets) == {phases.TRANSPORT, phases.PROTOCOL}
    assert all(value >= 0.0 for value in buckets.values())
    assert not phases.ENABLED
    phases.reset()


def test_phases_profile_includes_other_and_sums_to_wall():
    def work():
        phases.enter(phases.CRYPTO)
        phases.leave()
        return 42

    result, buckets, wall = phases.profile(work)
    assert result == 42
    assert "other" in buckets
    assert sum(buckets.values()) <= wall + 1e-6


def test_phases_instrumented_run_attributes_buckets():
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        seed=3,
        transport="fair",
        max_time=600.0,
    )
    result, buckets, wall = phases.profile(execute_spec, spec)
    assert result.success
    assert buckets.get(phases.TRANSPORT, 0.0) > 0.0
    assert buckets.get(phases.PROTOCOL, 0.0) > 0.0
    assert phases.non_transport_total(buckets) < wall
