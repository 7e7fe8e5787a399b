"""Planned transfers on ``latency-only``: re-plans and the event-count floor.

The independent scheduler plans each flow when it is admitted: the network
queues a completing flow's delivery at once, and an expiring flow gets one
heap event at its deadline.  These tests pin what planning must not change —
a flow whose link is replaced, that expires or that hangs does so alone, at
the instant an event per step would give — and what it must deliver: one
heap event per message, its delivery, counted, not timed.

The counting tests run each wave twice, on ``SimNetwork`` and on the
``PerMessageNetwork`` fixture (``per_message.py``: an admission per
destination, an event per delivery), and require the same deliveries from
both.

The last test carries the same idea over to whole protocol runs and to the
shared transports: heap events, flows rated, tcp ack ticks, tcp heap pushes
and neighbours visited by departure walks per message on the lazy engine, and
the share of the rated flows whose rate moved, which is what a seconds budget
on such a run stands for.  The rate passes, flows rated, ticks and heap
pushes of its seed-7 runs are pinned exactly.
"""

import functools
from collections import Counter

import pytest

from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow, make_flow_scheduler
from repro.simnet.linkmodel import LINK_MODELS, get_link_model
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode

from tests.simnet.per_message import PerMessageNetwork

MB = 1_000_000


class _Recorder(ProtocolNode):
    def __init__(self, name, log):
        super().__init__(name)
        self.log = log

    def on_message(self, message, now):
        self.log.append((now, message.sender, self.name, message.msg_id))


def _network(names, latency=0.0, network_class=SimNetwork):
    """``latency-only`` nodes on 8 Mbit/s (1 MB/s) links, one shared log."""
    network = network_class(transport="latency-only", default_latency_s=latency)
    log = []
    for name in names:
        network.add_node(_Recorder(name, log), LinkConfig.symmetric_mbps(8.0))
    return network, log


def _arrivals(log):
    return {destination: time for time, _src, destination, _id in log}


# -- re-plans: a sibling's fate is its own ---------------------------------------


def test_set_link_mid_burst_replans_only_the_replaced_nodes_flows():
    network, log = _network("abcd")
    network.send_many("a", ["b", "c", "d"], Message("DOC", size_bytes=MB))
    # Half way through, b's link drops to 0.1 MB/s: 0.5 MB left takes 5 s.
    network.simulator.schedule(0.5, network.set_link, "b", LinkConfig.symmetric_mbps(0.8))
    network.run(until=0.75)
    assert network.active_flow_count() == 3
    network.run(until=2.0)  # past the burst's planned instant, not b's new one
    assert network.active_flow_count() == 1
    network.run()
    assert _arrivals(log) == {
        "b": pytest.approx(5.5),
        "c": pytest.approx(1.0),
        "d": pytest.approx(1.0),
    }
    assert network.active_flow_count() == 0
    counters = network.engine_counters()
    assert (counters["planned"], counters["replanned"]) == (3, 1)


def test_replacing_the_senders_link_replans_the_whole_burst_and_leaves_no_stale_event():
    network, log = _network("a")
    for name in "bc":
        network.add_node(_Recorder(name, log), LinkConfig.symmetric_mbps(32.0))
    network.send_many("a", ["b", "c"], Message("DOC", size_bytes=MB))
    # The sender's link (the bottleneck) speeds up 4x at 0.5 s: 0.5 MB left
    # takes 0.125 s.
    network.simulator.schedule(0.5, network.set_link, "a", LinkConfig.symmetric_mbps(32.0))
    # Nothing may keep the loop alive until the withdrawn deliveries (1.0 s).
    assert network.simulator.run_until_idle() == pytest.approx(0.625)
    assert _arrivals(log) == {"b": pytest.approx(0.625), "c": pytest.approx(0.625)}
    assert network.simulator.pending_events == 0
    assert network.engine_counters()["replanned"] == 2


def test_a_deadline_bound_flow_expires_alone_at_its_deadline():
    network, log = _network("abcd")
    timed_out = []
    network.send_many(
        "a",
        ["b", "c", "d"],
        Message("DOC", size_bytes=MB),
        timeout=2.0,
        on_timeout=lambda message, destination: timed_out.append(
            (destination, network.simulator.now)
        ),
    )
    # c slows to a crawl mid-transfer: its completion moves past the 2 s
    # deadline, so it is re-planned to expire there; b and d are untouched.
    network.simulator.schedule(0.5, network.set_link, "c", LinkConfig.symmetric_mbps(0.8))
    network.run()
    assert timed_out == [("c", 2.0)]
    assert _arrivals(log) == {"b": pytest.approx(1.0), "d": pytest.approx(1.0)}
    assert network.stats.messages_timed_out == 1
    assert network.active_flow_count() == 0
    assert network.engine_counters()["planned_expiries"] == 1


def test_a_starved_flow_is_replanned_when_its_link_comes_back():
    network, log = _network("ab")
    network.add_node(_Recorder("c", log), LinkConfig.symmetric(BandwidthSchedule.constant(0.0)))
    network.send_many("a", ["b", "c"], Message("DOC", size_bytes=MB))
    network.simulator.schedule(3.0, network.set_link, "c", LinkConfig.symmetric_mbps(8.0))
    network.run(until=2.0)
    assert network.active_flow_count() == 1
    assert network.run() == pytest.approx(4.0)
    assert _arrivals(log) == {"b": pytest.approx(1.0), "c": pytest.approx(4.0)}
    assert network.active_flow_count() == 0


def _bare_scheduler():
    """The independent scheduler without a network: per-flow deadlines in one
    ``start_flows`` pass (``send_many`` gives a burst one timeout) and a log
    of what settled when.  A planned completion is logged by an event at its
    instant, scheduled when it is planned, as the network queues a delivery."""
    simulator = Simulator()
    links = {name: LinkConfig.symmetric_mbps(8.0) for name in "abcd"}
    log = []
    scheduler = make_flow_scheduler(
        get_link_model("latency-only"),
        simulator,
        links,
        lambda flow, at: simulator.schedule(at, log.append, ("done", flow.dst, at)),
        lambda flow: flow.on_timeout(flow.message, flow.dst),
    )
    return simulator, scheduler, log


def _flows(simulator, deadlines, on_timeout):
    message = Message("DOC", size_bytes=MB)
    return [
        Flow(simulator.next_serial(), "a", dst, message, 0.0, deadline, on_timeout, None)
        for dst, deadline in deadlines.items()
    ]


def test_a_shorter_deadline_in_the_same_burst_expires_alone():
    simulator, scheduler, log = _bare_scheduler()
    flows = _flows(
        simulator,
        {"b": None, "c": 0.4, "d": 3.0},
        lambda message, dst: log.append(("expired", dst, simulator.now)),
    )
    scheduler.start_flows(flows, 0.0)
    assert scheduler.active_count() == 3
    simulator.run(until=0.5)
    assert log == [("expired", "c", 0.4)]
    assert scheduler.active_count() == 2
    simulator.run()
    assert log[1:] == [("done", "b", 1.0), ("done", "d", 1.0)]
    assert scheduler.active_count() == 0


def test_a_flow_settling_inside_the_pass_keeps_its_place_in_the_event_order():
    # c's deadline has already passed when the burst starts, and its timeout
    # handler schedules for the instant b and d complete.  b's and d's
    # completions are planned in burst order around c's expiry, so the
    # handler's event runs between them — as with one admission per flow.
    def run(start):
        simulator, scheduler, log = _bare_scheduler()
        flows = _flows(
            simulator,
            {"b": None, "c": 0.0, "d": None},
            lambda message, dst: simulator.schedule(1.0, log.append, ("handler", dst, 1.0)),
        )
        start(scheduler, flows)
        simulator.run()
        return log

    def one_by_one(scheduler, flows):
        for flow in flows:
            scheduler.start_flows([flow], 0.0)

    grouped = run(lambda scheduler, flows: scheduler.start_flows(flows, 0.0))
    assert grouped == [("done", "b", 1.0), ("handler", "c", 1.0), ("done", "d", 1.0)]
    assert grouped == run(one_by_one)


def test_a_zero_rate_sibling_hangs_without_blocking_the_group():
    network, log = _network("abd")
    network.add_node(
        _Recorder("c", log), LinkConfig.symmetric(BandwidthSchedule.constant(0.0))
    )
    network.send_many("a", ["b", "c", "d"], Message("DOC", size_bytes=MB))
    assert network.simulator.run_until_idle() == pytest.approx(1.0)
    assert _arrivals(log) == {"b": pytest.approx(1.0), "d": pytest.approx(1.0)}
    # The starved transfer is still in flight, with no event to wake it.
    assert network.active_flow_count() == 1
    assert network.simulator.pending_events == 0


def test_active_flow_count_is_exact_around_the_planned_completion():
    network, _log = _network("abcd", latency=0.25)
    network.send_many("a", ["b", "c", "d"], Message("DOC", size_bytes=MB))
    assert network.active_flow_count() == 3
    network.run(until=0.999)
    assert network.active_flow_count() == 3
    network.run(until=1.0)  # transfers done, deliveries still in the air
    assert network.active_flow_count() == 0
    assert network.stats.messages_delivered == 0
    network.run()
    assert network.stats.messages_delivered == 3


def test_a_breakpoint_crossing_burst_lands_together_at_its_new_instant():
    # 1 MB/s until t=0.5, then 0.25 MB/s: the plan steps through the
    # breakpoint and the burst lands together at 0.5 + 0.5/0.25 = 2.5 s.
    network, log = _network("bcd")
    throttled = BandwidthSchedule.constant_mbps(8.0).with_window_mbps(0.5, 100.0, 2.0)
    network.add_node(_Recorder("a", log), LinkConfig.symmetric(throttled))
    network.send_many("a", ["b", "c", "d"], Message("DOC", size_bytes=MB))
    network.run()
    assert _arrivals(log) == {name: pytest.approx(2.5) for name in "bcd"}


# -- the floor, counted ----------------------------------------------------------


def _all_pairs_wave(network_class, nodes, distinct_latencies):
    """Every node broadcasts one equal-size message to every other at t=0."""
    names = ["n%02d" % index for index in range(nodes)]
    network, log = _network(names, latency=0.05, network_class=network_class)
    if distinct_latencies:
        # No two messages reach a node at the same instant, so deliveries
        # cannot coalesce and every one of them is its own heap event.
        for i, a in enumerate(names):
            for j, b in enumerate(names[i + 1 :], start=i + 1):
                network.set_latency(a, b, 0.01 + 0.001 * (i * nodes + j))
    for index, name in enumerate(names):
        others = [other for other in names if other != name]
        network.send_many(name, others, Message("WAVE", size_bytes=64_000, msg_id=index))
    network.run()
    assert network.stats.messages_delivered == nodes * (nodes - 1)
    return network.simulator.processed_events, log


@pytest.mark.parametrize("nodes", [2, 7, 24])
def test_a_broadcast_wave_costs_one_event_per_delivery(nodes):
    messages = nodes * (nodes - 1)
    events, grouped = _all_pairs_wave(SimNetwork, nodes, distinct_latencies=True)
    assert events == messages  # no completion events: deliveries only
    # The per-message reference: the same deliveries, an admission per flow.
    events, sequential = _all_pairs_wave(PerMessageNetwork, nodes, distinct_latencies=True)
    assert events == messages
    assert grouped == sequential


def test_same_instant_deliveries_coalesce_into_one_event_per_node():
    nodes = 12
    events, grouped = _all_pairs_wave(SimNetwork, nodes, distinct_latencies=False)
    assert events == nodes  # one delivery event per node, nothing else
    _events, sequential = _all_pairs_wave(PerMessageNetwork, nodes, distinct_latencies=False)
    assert sorted(grouped) == sorted(sequential)


def _counting_moved(rates_of, counts):
    """A link model's ``rates_of``, counting the rates that differ from the stored
    one (or belong to a flow with no event yet): what the pass is about to
    apply."""

    def counted_rates_of(self, flows, now):
        rates = rates_of(self, flows, now)
        counts["moved"] += sum(
            1 for flow, rate in zip(flows, rates) if rate != flow.rate or flow.pending is None
        )
        return rates

    return counted_rates_of


@functools.lru_cache(maxsize=None)
def _counted_run(protocol, transport, authorities):
    """One loss-free run on the lazy engine, its work counted instead of timed.

    Memoised: the ``latency-only`` run of a spec is the message-count
    reference of every shared transport of that spec.
    """
    counts = Counter()
    with pytest.MonkeyPatch.context() as patch:
        # The run's own model class: one ``rates_of`` call per pass (tcp's
        # rates the fair shares and the window caps in one loop).
        model_class = LINK_MODELS[transport]
        if model_class.shared:
            patch.setattr(model_class, "rates_of", _counting_moved(model_class.rates_of, counts))
        result = execute_spec(
            RunSpec(
                protocol=protocol,
                relay_count=200,
                bandwidth_mbps=250.0,
                seed=7,
                transport=transport,
                authority_count=authorities,
                max_time=600.0,
            )
        )
    assert result.success
    counters = result.engine_counters
    counts["messages"] = result.stats.messages_sent
    counts["events"] = counters["executed"]
    counts["pushes"] = counters["scheduled"] + counters["rescheduled"]
    # Counted by the scheduler itself; the uncoupled path has no rate passes,
    # no wakes and no departure walks.
    counts["rated"] = counters.get("flows_rated", 0)
    counts["ticks"] = counters.get("wakes", 0)
    for name in ("departure_scans", *_PINNED_COUNTERS):
        counts[name] = counters.get(name, 0)
    return counts


#: Per-message ceilings, (heap events, ack ticks), a notch above what the
#: seed-7 runs measure.  latency-only: 1.09 / 1.04 / 1.02 events at 15 / 30 /
#: 60 authorities on ``current``, 1.06–1.02 on ``ours`` — a planned transfer
#: costs its delivery event only (1.39 / 1.32 / 1.28 and 1.17–1.04 with a
#: completion event per burst, 2.04 with one per flow).  fair: 1.49 / 1.43 /
#: 1.40 and 1.29–1.17.  tcp adds the ack ticks:
#: 3.47 / 3.42 events with 1.25 ticks on ``current``, 4.20 / 4.64 with 2.06 /
#: 2.55 on ``ours`` at 15 / 30.  The shared transports pay one heap event per
#: admission frontier: with a rate pass inside every ``start_flows`` call they
#: read 1.36 / 1.30 / 1.28 and 1.22–1.15 on fair, 3.34 / 3.29 and 4.12 / 4.62
#: on tcp — 0.02–0.13 events per message fewer, for the 0.4–0.7 more flows
#: rated per message the bounds below would catch.
_PER_MESSAGE_CEILING = {
    ("current", "latency-only"): (1.1, 0.0),
    ("current", "fair"): (1.55, 0.0),
    ("current", "tcp"): (3.6, 1.4),
    ("ours", "latency-only"): (1.1, 0.0),
    ("ours", "fair"): (1.35, 0.0),
    ("ours", "tcp"): (5.0, 2.8),
}


#: Ceilings on heap pushes (``scheduled + rescheduled``) per message on tcp.
#: A tcp flow keeps one pending event, aimed at the earliest of completion,
#: deadline and next ack tick, and a re-aim moves it in place: the seed-7
#: runs push 3.47 / 3.42 on ``current`` and 4.20 / 5.26 on ``ours`` at 15 /
#: 30.  A separate tick event per flow, with a completion event cancelled
#: and pushed again on every share rise, pushed 5.72 / 5.67 and 7.26 / 9.77.
_PUSH_CEILING = {
    ("current", 15): 3.6,
    ("current", 30): 3.6,
    ("ours", 15): 4.4,
    ("ours", 30): 5.5,
}


#: Rate-pass bounds on the shared transports: (ceiling on flows rated per
#: message, floor on rates moved ÷ flows rated), a notch off the seed-7 runs.
#: A pass rates the flows the moved link sides can bind, not the links' whole
#: neighbourhoods, and the sends of one instant share one pass: ``current``'s
#: uplink-bound waves read 1.24–1.25 per message on fair and 2.25 on tcp
#: whatever the size; ``ours`` reads 1.39 / 2.29 / 4.02 on fair at 15 / 30 / 60
#: and 3.06 / 6.04 on tcp at 15 / 30.  Of the flows rated, 0.78–0.87 move on
#: fair and 0.98–1.00 on tcp.  A pass per ``start_flows`` call reads 1.94–1.99
#: on ``current`` fair (0.51–0.52 of them moving) and 1.66 / 2.61 / 4.40 on
#: ``ours`` — tcp, whose flows are window-bound on admission, reads the same
#: either way.  Whole-link touched sets on arrival or on departure alone read
#: 3.3–40 per message and move at most 0.43 of what they rate (0.03–0.17 with
#: both: 7.5–50 per message).
_RATE_PASS_BOUNDS = {
    ("current", "fair", 15): (1.4, 0.75),
    ("current", "fair", 30): (1.4, 0.75),
    ("current", "fair", 60): (1.4, 0.75),
    ("current", "tcp", 15): (2.5, 0.95),
    ("current", "tcp", 30): (2.5, 0.95),
    ("ours", "fair", 15): (1.55, 0.75),
    ("ours", "fair", 30): (2.5, 0.8),
    ("ours", "fair", 60): (4.3, 0.72),
    ("ours", "tcp", 15): (3.5, 0.9),
    ("ours", "tcp", 30): (7.0, 0.9),
}


#: Ceilings on neighbours visited by departure walks per message on the
#: shared transports, a notch above the seed-7 runs.  A batch visits each of
#: its link sides once, claiming and collecting movers in one pass:
#: ``current`` reads 2.79 / 4.38 / 7.07 on fair at 15 / 30 / 60 and 11.26 /
#: 24.67 on tcp at 15 / 30; ``ours`` 3.79 / 9.43 / 18.78 and 13.68 / 37.17.
#: A join scan followed by a second scan for movers read 3.99 / 7.36 / 13.69,
#: 22.52 / 49.35, 6.69 / 18.43 / 38.07 and 27.13 / 73.86.
_DEPARTURE_SCAN_CEILING = {
    ("current", "fair", 15): 3.0,
    ("current", "fair", 30): 4.6,
    ("current", "fair", 60): 7.4,
    ("current", "tcp", 15): 12.0,
    ("current", "tcp", 30): 26.0,
    ("ours", "fair", 15): 4.0,
    ("ours", "fair", 30): 10.0,
    ("ours", "fair", 60): 20.0,
    ("ours", "tcp", 15): 14.5,
    ("ours", "tcp", 30): 39.0,
}


#: Counters a change to how a departure is walked must leave exactly as they
#: are, and their seed-7 values: the same flows rated in the same passes, the
#: same ack ticks, the same heap pushes.
_PINNED_COUNTERS = ("rate_passes", "flows_rated", "wakes", "scheduled", "rescheduled")
_SEED7_COUNTERS = {
    ("current", "fair", 15): (335, 1043, 0, 1867, 4),
    ("current", "fair", 30): (1337, 4332, 0, 7554, 6),
    ("current", "fair", 60): (5362, 17736, 0, 30441, 48),
    ("current", "tcp", 15): (1998, 1890, 1050, 2913, 0),
    ("current", "tcp", 30): (8268, 7840, 4350, 11898, 2),
    ("ours", "fair", 15): (145, 1049, 0, 1650, 56),
    ("ours", "fair", 30): (285, 6899, 0, 6599, 1044),
    ("ours", "fair", 60): (567, 48326, 0, 25814, 11096),
    ("ours", "tcp", 15): (2375, 2310, 1554, 3176, 0),
    ("ours", "tcp", 30): (10834, 18217, 7689, 13986, 1886),
}


@pytest.mark.parametrize("protocol", ["current", "ours"])
@pytest.mark.parametrize(
    "transport, authorities",
    [
        ("latency-only", 30),
        ("fair", 15),
        ("fair", 30),
        ("fair", 60),
        ("tcp", 15),
        ("tcp", 30),
    ],
)
def test_a_run_stays_under_its_counted_floor(protocol, transport, authorities):
    run = _counted_run(protocol, transport, authorities)
    messages = run["messages"]
    # The transport decides when a message arrives, never whether it is sent.
    assert messages == _counted_run(protocol, "latency-only", authorities)["messages"]
    events, ticks = _PER_MESSAGE_CEILING[protocol, transport]
    assert run["events"] <= events * messages
    assert run["ticks"] <= ticks * messages
    if transport == "tcp":
        assert run["pushes"] <= _PUSH_CEILING[protocol, authorities] * messages
    if transport == "latency-only":
        assert run["rated"] == 0  # flows never interact: nothing to rate
        assert run["departure_scans"] == 0
        return
    case = protocol, transport, authorities
    assert run["departure_scans"] <= _DEPARTURE_SCAN_CEILING[case] * messages
    assert tuple(run[name] for name in _PINNED_COUNTERS) == _SEED7_COUNTERS[case]
    rated_per_message, moved_per_rated = _RATE_PASS_BOUNDS[case]
    assert run["rated"] <= rated_per_message * messages
    # The useful-work ratio: a pass that rates flows whose rate cannot have
    # moved shows here before it shows in seconds.
    assert run["moved"] >= moved_per_rated * run["rated"]
