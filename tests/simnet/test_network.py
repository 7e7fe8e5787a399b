"""Flow-transport tests: bandwidth sharing, latency, timeouts, DDoS windows."""

import pytest

from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork, UnknownNodeError
from repro.simnet.node import ProtocolNode
from repro.utils.validation import ValidationError

ALL_TRANSPORTS = ("fair", "fifo", "latency-only")


class Recorder(ProtocolNode):
    """Node that records every delivery."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def on_message(self, message, now):
        self.received.append((message.msg_type, message.sender, now, message.size_bytes))


def make_network(node_names, mbps=8.0, latency=0.0, transport="fair"):
    network = SimNetwork(transport=transport, default_latency_s=latency)
    nodes = {}
    for name in node_names:
        node = Recorder(name)
        network.add_node(node, LinkConfig.symmetric_mbps(mbps))
        nodes[name] = node
    return network, nodes


def test_single_transfer_time_matches_bandwidth():
    # 8 Mbit/s = 1 MB/s; a 2 MB message takes 2 seconds plus latency.
    network, nodes = make_network(["a", "b"], mbps=8.0, latency=0.5)
    network.send("a", "b", Message(msg_type="DOC", size_bytes=2_000_000))
    network.run()
    (_type, sender, arrival, _size) = nodes["b"].received[0]
    assert sender == "a"
    assert arrival == pytest.approx(2.5, abs=1e-6)


def test_zero_size_message_takes_only_latency():
    network, nodes = make_network(["a", "b"], mbps=8.0, latency=0.25)
    network.send("a", "b", Message(msg_type="PING", size_bytes=0))
    network.run()
    assert nodes["b"].received[0][2] == pytest.approx(0.25)


def test_fair_sharing_splits_uplink():
    # Two concurrent 1 MB transfers over a 1 MB/s uplink finish together at ~2 s.
    network, nodes = make_network(["a", "b", "c"], mbps=8.0)
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000_000))
    network.send("a", "c", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    assert nodes["b"].received[0][2] == pytest.approx(2.0, abs=1e-6)
    assert nodes["c"].received[0][2] == pytest.approx(2.0, abs=1e-6)


def test_fifo_serves_uplink_in_order():
    network, nodes = make_network(["a", "b", "c"], mbps=8.0, transport="fifo")
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000_000))
    network.send("a", "c", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    assert nodes["b"].received[0][2] == pytest.approx(1.0, abs=1e-6)
    assert nodes["c"].received[0][2] == pytest.approx(2.0, abs=1e-6)


def test_downlink_is_also_a_bottleneck():
    # Two senders into one receiver share the receiver's downlink.
    network, nodes = make_network(["a", "b", "c"], mbps=8.0)
    network.send("a", "c", Message(msg_type="DOC", size_bytes=1_000_000))
    network.send("b", "c", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    arrivals = sorted(record[2] for record in nodes["c"].received)
    assert arrivals[-1] == pytest.approx(2.0, abs=1e-6)


def test_flow_timeout_aborts_and_notifies_sender():
    network, nodes = make_network(["a", "b"], mbps=0.008)  # 1 kB/s
    timed_out = []
    network.send(
        "a",
        "b",
        Message(msg_type="DOC", size_bytes=1_000_000),
        timeout=5.0,
        on_timeout=lambda message, dst: timed_out.append(dst),
    )
    network.run()
    assert timed_out == ["b"]
    assert nodes["b"].received == []
    assert network.stats.messages_timed_out == 1


def test_ddos_window_stalls_then_recovers():
    # 1 MB at 1 MB/s, but the sender is throttled to ~zero during [0, 10):
    # the transfer completes shortly after the window lifts.
    network = SimNetwork(default_latency_s=0.0)
    attacked = BandwidthSchedule.constant(1_000_000.0).with_window(0, 10, 1.0)
    sender, receiver = Recorder("a"), Recorder("b")
    network.add_node(sender, LinkConfig.symmetric(attacked))
    network.add_node(receiver, LinkConfig.symmetric_mbps(8.0))
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    arrival = receiver.received[0][2]
    assert 10.0 < arrival < 11.1


def test_on_delivered_callback_and_stats():
    network, nodes = make_network(["a", "b"], mbps=8.0)
    delivered = []
    network.send(
        "a",
        "b",
        Message(msg_type="DOC", size_bytes=500_000),
        on_delivered=lambda message, dst, when: delivered.append((dst, when)),
    )
    network.run()
    assert delivered and delivered[0][0] == "b"
    assert network.stats.messages_sent == 1
    assert network.stats.messages_delivered == 1
    assert network.stats.bytes_delivered["a"] == 500_000
    assert network.stats.bytes_by_type["DOC"] == 500_000


def test_pairwise_latency_override():
    network, nodes = make_network(["a", "b"], mbps=8.0, latency=0.05)
    network.set_latency("a", "b", 0.4)
    network.send("a", "b", Message(msg_type="PING", size_bytes=0))
    network.run()
    assert nodes["b"].received[0][2] == pytest.approx(0.4)


def test_errors_for_bad_usage():
    network, nodes = make_network(["a", "b"])
    with pytest.raises(UnknownNodeError):
        network.send("a", "zzz", Message(msg_type="X", size_bytes=1))
    with pytest.raises(UnknownNodeError):
        network.send("zzz", "a", Message(msg_type="X", size_bytes=1))
    with pytest.raises(ValidationError):
        network.send("a", "a", Message(msg_type="X", size_bytes=1))
    with pytest.raises(ValidationError):
        network.add_node(Recorder("a"), LinkConfig.symmetric_mbps(1))
    with pytest.raises(ValidationError):
        SimNetwork(transport="weighted")


def test_broadcast_helper_sends_to_all_peers():
    network, nodes = make_network(["a", "b", "c", "d"], mbps=80.0)
    count = nodes["a"].broadcast(lambda dst: Message(msg_type="HELLO", size_bytes=1000))
    network.run()
    assert count == 3
    for name in ("b", "c", "d"):
        assert len(nodes[name].received) == 1


def test_set_link_mid_run_affects_future_transfers():
    network, nodes = make_network(["a", "b"], mbps=8.0)
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    first_arrival = nodes["b"].received[0][2]
    # Throttle and send again: the second transfer is much slower.
    network.set_link("a", LinkConfig.symmetric_mbps(0.8))
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    second_arrival = nodes["b"].received[1][2]
    assert second_arrival - first_arrival > 9.0


# -- the latency-only fast model ----------------------------------------------

def test_latency_only_flows_do_not_share_bandwidth():
    # Two concurrent 1 MB transfers over one 1 MB/s uplink BOTH finish at
    # ~1 s: the whole point of the model is that concurrency is free.
    network, nodes = make_network(["a", "b", "c"], mbps=8.0, transport="latency-only")
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000_000))
    network.send("a", "c", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    assert nodes["b"].received[0][2] == pytest.approx(1.0, abs=1e-6)
    assert nodes["c"].received[0][2] == pytest.approx(1.0, abs=1e-6)


def test_latency_only_respects_the_slower_link_side():
    network = SimNetwork(transport="latency-only", default_latency_s=0.0)
    fast, slow = Recorder("fast"), Recorder("slow")
    network.add_node(fast, LinkConfig.symmetric_mbps(8.0))  # 1 MB/s
    network.add_node(slow, LinkConfig.symmetric_mbps(4.0))  # 500 kB/s
    network.send("fast", "slow", Message(msg_type="DOC", size_bytes=1_000_000))
    network.run()
    assert slow.received[0][2] == pytest.approx(2.0, abs=1e-6)


def test_latency_only_timeouts_and_throttling_windows_still_apply():
    # Destination throttled to ~zero on [0, 10): the transfer stalls through
    # the window and completes shortly after it lifts; a tighter deadline
    # aborts a second transfer inside the window.
    network = SimNetwork(transport="latency-only", default_latency_s=0.0)
    sender, receiver = Recorder("a"), Recorder("b")
    throttled = BandwidthSchedule.constant(1_000_000.0).with_window(0, 10, 1.0)
    network.add_node(sender, LinkConfig.symmetric_mbps(80.0))
    network.add_node(receiver, LinkConfig.symmetric(throttled))
    timed_out = []
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000_000))
    network.send(
        "a",
        "b",
        Message(msg_type="DOC", size_bytes=1_000_000),
        timeout=5.0,
        on_timeout=lambda message, dst: timed_out.append(dst),
    )
    network.run()
    assert timed_out == ["b"]
    assert len(receiver.received) == 1
    assert 10.0 < receiver.received[0][2] < 11.1
    assert network.stats.messages_timed_out == 1


def test_latency_only_set_link_rerates_in_flight_flows():
    network, nodes = make_network(["a", "b"], mbps=8.0, transport="latency-only")
    network.send("a", "b", Message(msg_type="DOC", size_bytes=2_000_000))
    # Halfway through (1 s in, 1 MB left), throttle the uplink 10x: the
    # remainder takes 10 s instead of 1 s.
    network.simulator.schedule(1.0, network.set_link, "a", LinkConfig.symmetric_mbps(0.8))
    network.run()
    assert nodes["b"].received[0][2] == pytest.approx(11.0, abs=1e-6)


def test_zero_rate_flow_without_deadline_hangs_not_crashes():
    network = SimNetwork(transport="latency-only", default_latency_s=0.0)
    network.add_node(Recorder("a"), LinkConfig.symmetric(BandwidthSchedule.constant(0.0)))
    network.add_node(Recorder("b"), LinkConfig.symmetric_mbps(8.0))
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000))
    network.run()
    assert network.active_flow_count() == 1  # starved forever, like "fair"


# -- residual-byte clamping (float-drift regression) ---------------------------

@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_flows_never_deliver_with_negative_residual(transport):
    """Completing flows must hand a residual of exactly 0.0 to delivery.

    Guards the float-drift clamp: accumulated ``remaining -= rate * elapsed``
    chips may leave epsilon-scale residue (of either sign) at the completion
    instant, and the scheduler clamps it exactly once before delivery.
    """
    network, nodes = make_network(["a", "b", "c"], mbps=8.0, transport=transport)
    residuals = []
    completer = network._complete_flow

    def spying_complete(flow, at=None):
        residuals.append(flow.remaining)
        return completer(flow, at)

    network._scheduler._complete = spying_complete
    # Awkward sizes and competing flows maximise float chipping.
    for size in (999_983, 333_331, 123_457, 777_773):
        network.send("a", "b", Message(msg_type="DOC", size_bytes=size))
        network.send("a", "c", Message(msg_type="DOC", size_bytes=size // 3))
        network.send("c", "b", Message(msg_type="DOC", size_bytes=size // 7))
    network.run()
    assert len(residuals) == network.stats.messages_delivered
    assert residuals == [0.0] * len(residuals)


@pytest.mark.parametrize("transport", ALL_TRANSPORTS)
def test_late_virtual_time_completions_do_not_overshoot(transport):
    """Transfers started deep into a run complete cleanly under every model.

    At large virtual times the completion event's float rounding error grows
    with ``ulp(now)``; an unclamped progress chip then advances a flow past
    its residual and trips the negative-residual guard (a crash observed
    with latency-only sends scheduled from t = 3000 s).
    """
    network, nodes = make_network(["a", "b", "c"], mbps=250.0, transport=transport)
    for i in range(40):
        network.simulator.schedule(
            3000.0 + 0.37 * i,
            network.send, "a", "b", Message(msg_type="DOC", size_bytes=1_000_000 + i),
        )
        network.simulator.schedule(
            3000.0 + 0.53 * i,
            network.send, "c", "b", Message(msg_type="DOC", size_bytes=777_777 + i),
        )
    network.run()
    assert network.stats.messages_delivered == 80
    assert network.active_flow_count() == 0


def test_sub_ulp_residual_counts_as_complete():
    """Regression for a live-lock found by the conformance properties.

    A flow can strand with a residual microscopically above the byte epsilon
    whose transfer time is below the float resolution of the current virtual
    time: its completion event then lands *at* ``now``, the zero-width
    progress chip moves nothing, and the recompute loop spins forever.  Such
    a flow must count as complete.
    """
    from repro.simnet.flows import Flow, FlowScheduler

    flow = Flow(
        flow_id=1, src="a", dst="b",
        message=Message(msg_type="DOC", size_bytes=1),
        start_time=0.0, deadline=None, on_timeout=None, on_delivered=None,
    )
    flow.rate = 31_250_000.0
    flow.remaining = 1.5e-6  # above the 1e-6 byte epsilon
    # Early in the run the residual still advances time: not complete.
    assert not FlowScheduler._is_complete(flow, now=0.0)
    # Late in the run (2e-6 / 31.25e6 s is below one ulp of `now`) it cannot:
    # the flow is done, not live-locked.
    assert FlowScheduler._is_complete(flow, now=623.437570784)
    # The plain byte-epsilon case is unchanged.
    flow.remaining = 5e-7
    assert FlowScheduler._is_complete(flow, now=0.0)
