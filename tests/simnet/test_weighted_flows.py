"""Weighted flows and aggregate endpoints at the transport layer.

The consensus-distribution layer's correctness rests on one transport
property: a flow of weight ``w`` carrying ``w × size`` bytes behaves exactly
like ``w`` unit flows of ``size`` bytes started at the same instant.  These
tests pin that equivalence directly on :class:`SimNetwork` — no protocol or
client code — across the shared models on the lazy engine, the reference
model and (numpy present) the vector engine, and the independent model,
plus the aggregate-endpoint semantics (per-client capacity, no sharing) and
the weighted message accounting.
"""

import pytest

from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode

from tests.simnet.reference_sched import VECTOR, engine_cases, use_engine

ENGINES = ("lazy", "reference")

#: An aggregate cohort the size of the extreme Figure-13 rows: one flow
#: standing in for ten million clients.
EXTREME_WEIGHT = 10_000_000


class Recorder(ProtocolNode):
    def __init__(self, name, log):
        super().__init__(name)
        self._log = log

    def on_message(self, message, now):
        self._log.append((message.msg_type, message.sender, self.name, now))


def build_network(transport, engine, receiver_aggregate=False, receiver_mbps=80.0):
    log = []
    with use_engine(engine):
        network = SimNetwork(transport=transport, default_latency_s=0.0)
    network.add_node(
        Recorder("server", log), LinkConfig.symmetric(BandwidthSchedule.constant_mbps(100.0))
    )
    network.add_node(
        Recorder("sink", log),
        LinkConfig(
            uplink=BandwidthSchedule.constant_mbps(receiver_mbps),
            downlink=BandwidthSchedule.constant_mbps(receiver_mbps),
            aggregate=receiver_aggregate,
        ),
    )
    network.add_node(
        Recorder("other", log), LinkConfig.symmetric(BandwidthSchedule.constant_mbps(100.0))
    )
    return network, log


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("transport", ("fair", "latency-only"))
def test_weighted_flow_equals_parallel_unit_flows(transport, engine):
    # Run A: one weight-5 flow of 5×200kB to an aggregate sink, competing
    # with a unit flow to a third node.  Run B: five unit flows of 200kB.
    def run(weighted):
        network, log = build_network(transport, engine, receiver_aggregate=True)
        if weighted:
            network.send(
                "server", "sink", Message(msg_type="DOC", size_bytes=5 * 200_000), weight=5
            )
        else:
            for _ in range(5):
                network.send("server", "sink", Message(msg_type="DOC", size_bytes=200_000))
        network.send("server", "other", Message(msg_type="VOTE", size_bytes=100_000))
        network.run(until=100.0)
        return network, log

    weighted_net, weighted_log = run(True)
    unit_net, unit_log = run(False)

    # All five unit deliveries land at one instant (equal shares, equal
    # sizes) — the same instant the weighted flow delivers.
    unit_doc_times = sorted(now for m, _s, _d, now in unit_log if m == "DOC")
    weighted_doc_times = [now for m, _s, _d, now in weighted_log if m == "DOC"]
    assert len(unit_doc_times) == 5
    assert len(weighted_doc_times) == 1
    assert unit_doc_times[0] == pytest.approx(unit_doc_times[-1], rel=1e-12)
    assert weighted_doc_times[0] == pytest.approx(unit_doc_times[0], rel=1e-9)

    # The competing unit flow saw the same contention in both runs.
    unit_vote = [now for m, _s, _d, now in unit_log if m == "VOTE"]
    weighted_vote = [now for m, _s, _d, now in weighted_log if m == "VOTE"]
    assert weighted_vote[0] == pytest.approx(unit_vote[0], rel=1e-9)

    # Accounting matches: 5 messages, identical bytes.
    assert weighted_net.stats.messages_sent == unit_net.stats.messages_sent == 6
    assert weighted_net.stats.messages_delivered == unit_net.stats.messages_delivered == 6
    assert weighted_net.stats.total_bytes_delivered == pytest.approx(
        unit_net.stats.total_bytes_delivered
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_aggregate_endpoint_gives_per_client_capacity(engine):
    # A weight-4 flow into an aggregate 10 Mbit/s sink moves at 4×10 Mbit/s;
    # the same flow into a shared sink is capped at the sink's 10 Mbit/s.
    def completion_time(aggregate):
        network, log = build_network(
            "fair", engine, receiver_aggregate=aggregate, receiver_mbps=10.0
        )
        network.send(
            "server", "sink", Message(msg_type="DOC", size_bytes=4 * 125_000), weight=4
        )
        network.run(until=100.0)
        return log[0][3]

    # 4 × 125 kB = 500 kB: 0.1 s at 4 × 1.25 MB/s aggregate; 0.4 s when the
    # sink's single 1.25 MB/s downlink is the bottleneck.
    assert completion_time(True) == pytest.approx(0.1, rel=1e-6)
    assert completion_time(False) == pytest.approx(0.4, rel=1e-6)


@pytest.mark.parametrize("engine", ENGINES)
def test_fifo_weighted_flow_conserves_total_service(engine):
    # Under fifo a weight-w flow is served like w queued unit transfers:
    # the last byte lands at the same instant either way.
    def last_delivery(weighted):
        network, log = build_network("fifo", engine, receiver_aggregate=True)
        if weighted:
            network.send(
                "server", "sink", Message(msg_type="DOC", size_bytes=3 * 300_000), weight=3
            )
        else:
            for _ in range(3):
                network.send("server", "sink", Message(msg_type="DOC", size_bytes=300_000))
        network.run(until=100.0)
        return max(now for _m, _s, _d, now in log)

    assert last_delivery(True) == pytest.approx(last_delivery(False), rel=1e-9)


@pytest.mark.parametrize("engine", ENGINES)
def test_weighted_timeout_counts_every_aggregated_transfer(engine):
    network, _log = build_network("fair", engine, receiver_aggregate=True, receiver_mbps=0.001)
    timeouts = []
    network.send(
        "server",
        "sink",
        Message(msg_type="DOC", size_bytes=7 * 1_000_000),
        timeout=1.0,
        on_timeout=lambda message, dst: timeouts.append(dst),
        weight=7,
    )
    network.run(until=10.0)
    assert timeouts == ["sink"]
    assert network.stats.messages_timed_out == 7
    assert network.stats.messages_sent == 7
    assert network.stats.messages_delivered == 0


@pytest.mark.parametrize(
    "engine, transport", engine_cases(("lazy", "reference", "vector"), ("fair", "fifo"))
)
def test_extreme_weight_flow_is_not_stranded(engine, transport):
    # A weight-10^7 flow (the 100M-client rows split across ~10 cohorts)
    # pushes per-transfer byte counts small enough that naive float
    # accumulation of remaining bytes could strand a residual below one
    # rate quantum.  The flow must drain completely and on schedule.
    network, log = build_network(transport, engine, receiver_aggregate=True, receiver_mbps=80.0)
    per_transfer = 1_000  # 1 kB per aggregated client
    network.send(
        "server",
        "sink",
        Message(msg_type="DOC", size_bytes=EXTREME_WEIGHT * per_transfer),
        weight=EXTREME_WEIGHT,
    )
    network.run(until=10_000.0)

    # Delivered exactly once, with every byte accounted for.
    doc_times = [now for m, _s, _d, now in log if m == "DOC"]
    assert len(doc_times) == 1
    assert network.stats.messages_sent == EXTREME_WEIGHT
    assert network.stats.messages_delivered == EXTREME_WEIGHT
    assert network.stats.total_bytes_delivered == pytest.approx(
        float(EXTREME_WEIGHT) * per_transfer, rel=1e-9
    )

    # On schedule.  Under fair the flow's weight claims the server's whole
    # 100 Mbit/s uplink (the aggregate sink offers 80 Mbit/s x weight), so
    # 10 GB at 12.5 MB/s.  Under fifo a queued uplink serves one transfer
    # at a time (concurrency 1), so the sink's per-client 80 Mbit/s
    # downlink binds instead.
    bottleneck = 12.5e6 if transport == "fair" else 10e6
    expected = (EXTREME_WEIGHT * per_transfer) / bottleneck
    assert doc_times[0] == pytest.approx(expected, rel=1e-6)

    # No float-precision stranding: nothing is left on the scheduler.
    assert network.active_flow_count() == 0


@pytest.mark.parametrize("engine", [*ENGINES, VECTOR])
def test_extreme_weight_flow_shares_fairly_with_unit_flow(engine):
    # Under fair sharing a weight-10^7 flow must not starve (or be starved
    # by) a competing unit flow, and neither may strand bytes.
    network, log = build_network("fair", engine, receiver_aggregate=True)
    network.send(
        "server",
        "sink",
        Message(msg_type="DOC", size_bytes=EXTREME_WEIGHT * 100),
        weight=EXTREME_WEIGHT,
    )
    network.send("server", "other", Message(msg_type="VOTE", size_bytes=100_000))
    network.run(until=10_000.0)

    kinds = sorted(m for m, _s, _d, _now in log)
    assert kinds == ["DOC", "VOTE"]
    # The unit flow's share is weight/(weight+1) ≈ 1/weight of the uplink —
    # tiny but nonzero; it still finishes once the giant flow drains.
    doc_time = next(now for m, _s, _d, now in log if m == "DOC")
    vote_time = next(now for m, _s, _d, now in log if m == "VOTE")
    assert vote_time >= doc_time
    assert network.active_flow_count() == 0
    assert network.stats.messages_delivered == EXTREME_WEIGHT + 1


def test_invalid_weight_rejected():
    network, _log = build_network("fair", "lazy")
    with pytest.raises(Exception):
        network.send("server", "sink", Message(msg_type="X", size_bytes=10), weight=0)


def test_per_client_link_config_constructor():
    link = LinkConfig.per_client(uplink_mbps=10.0, downlink_mbps=50.0)
    assert link.aggregate
    assert link.uplink.rate_at(0.0) == pytest.approx(1.25e6)
    assert link.downlink.rate_at(0.0) == pytest.approx(6.25e6)
    assert not LinkConfig.symmetric_mbps(10.0).aggregate
