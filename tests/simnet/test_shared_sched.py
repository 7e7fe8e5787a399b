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

The edge cases pin the failure modes a heap of per-flow estimates invites,
on the lazy engine and (numpy present) the vector engine alike:

* a flow whose rate drops to zero mid-transfer — its stale completion
  estimate must fire harmlessly, never complete the flow;
* a deadline landing exactly on a bandwidth breakpoint — the timeout must
  win deterministically;
* a link re-rated to zero at the very instant a flow finishes — the flow
  must settle, not starve with nothing left to move;
* a completion-epsilon residual whose transfer time is below one ulp of
  virtual time — the PR-3 live-lock shape, now under the lazy path.

The next section pins the edges of the fair model's share-aware touched sets
(``FairShareLinkModel.on_flows_added`` / ``on_flows_removed``): a bare lazy
scheduler whose every in-flight rate must equal the reference's ``fair_rates``,
recounted from the flow list, after each admission and each settlement, with
the flows each step rated counted — and the order a symmetric wave's one
batch is claimed in.

The last section pins the admission frontier on the same bare scheduler:
same-instant ``start_flows`` calls are indexed at once and rated in one pass,
by their own event or by whichever scheduler transition comes first — a
completion, a ``set_link``, a breakpoint, a tcp ack tick — each of which
settles them before its own work; callbacks fire in the order the per-call
``EagerAdmission`` fixture (``eager_admission.py``) fires them.
"""

import contextlib
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.runner import execute_spec
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow, make_flow_scheduler
from repro.simnet.linkmodel import TCP_DEFAULT_RTT_S, get_link_model
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode

from tests.faults.test_conformance import random_fault_plan
from tests.simnet.eager_admission import use_eager_admission
from tests.simnet.reference_sched import (
    VECTOR,
    engine_cases,
    fair_rates,
    use_engine,
    use_reference_scheduler,
)
from tests.simnet.test_transport_golden import run_transport_workload

SHARED_TRANSPORTS = ("fair", "fifo")

#: Relative tolerance of the reference-vs-lazy equivalence gate.
REL_TOLERANCE = 1e-6


def assert_equivalent(old, new, path="summary", rel_tol=REL_TOLERANCE):
    """Structural equality with ``rel_tol`` slack on floats only.

    Counts (ints), flags (bools), names and shapes must match exactly; only
    genuinely continuous values (latencies, byte totals, timestamps) may
    carry the lazy engine's rounding difference.
    """
    if isinstance(old, dict):
        assert isinstance(new, dict) and set(old) == set(new), path
        for key in old:
            assert_equivalent(old[key], new[key], "%s.%s" % (path, key), rel_tol)
    elif isinstance(old, (list, tuple)):
        assert len(old) == len(new), path
        for index, (a, b) in enumerate(zip(old, new)):
            assert_equivalent(a, b, "%s[%d]" % (path, index), rel_tol)
    elif isinstance(old, bool) or not isinstance(old, float):
        assert old == new, "%s: %r != %r" % (path, old, new)
    elif isinstance(new, float):
        assert math.isclose(old, new, rel_tol=rel_tol, abs_tol=1e-9), (
            "%s: %r vs %r" % (path, old, new)
        )
    else:  # pragma: no cover - shape mismatch
        raise AssertionError("%s: %r vs %r" % (path, old, new))


def run_reference_and_lazy(spec: RunSpec):
    with use_reference_scheduler():
        reference = execute_spec(spec).summary()
    return reference, execute_spec(spec).summary()


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


def _two_node_network(dst_schedule, transport, engine):
    deliveries = []
    network = SimNetwork(transport=transport, shared_engine=engine, default_latency_s=0.0)
    network.add_node(_Sink("src", deliveries), LinkConfig.symmetric_mbps(8.0))
    network.add_node(_Sink("dst", deliveries), LinkConfig.symmetric(dst_schedule))
    return network, deliveries


@pytest.mark.parametrize("engine, transport", engine_cases(("lazy", "vector"), SHARED_TRANSPORTS))
def test_rate_dropping_to_zero_forever_strands_the_flow_without_completing_it(engine, transport):
    # 1 MB/s for one second, then zero forever: the flow moves 1 MB of its
    # 2 MB and starves.  Its original completion estimate (t=2) is now a
    # stale heap entry — firing it must not complete the flow.
    schedule = BandwidthSchedule([0.0, 1.0], [1_000_000.0, 0.0])
    network, deliveries = _two_node_network(schedule, transport, engine)
    timeouts = []
    network.send(
        "src", "dst", Message(msg_type="DOC", size_bytes=2_000_000),
        on_timeout=lambda message, dst: timeouts.append(network.simulator.now),
    )
    network.simulator.run_until_idle(max_events=1_000)
    assert deliveries == []
    assert timeouts == []
    assert network.active_flow_count() == 1  # stranded


@pytest.mark.parametrize("engine, transport", engine_cases(("lazy", "vector"), SHARED_TRANSPORTS))
def test_rate_dropping_to_zero_mid_transfer_defers_completion_to_recovery(engine, transport):
    # Zero capacity on [1, 100): the stale t=2 estimate fires during the
    # outage and must leave the flow incomplete; the remaining 1 MB moves
    # when capacity returns, finishing at t=101.
    schedule = BandwidthSchedule([0.0, 1.0, 100.0], [1_000_000.0, 0.0, 1_000_000.0])
    network, deliveries = _two_node_network(schedule, transport, engine)
    network.send("src", "dst", Message(msg_type="DOC", size_bytes=2_000_000))
    network.simulator.run_until_idle(max_events=1_000)
    assert [kind for kind, _now in deliveries] == ["DOC"]
    assert deliveries[0][1] == pytest.approx(101.0, rel=1e-9)


@pytest.mark.parametrize(
    "engine, transport", engine_cases(("lazy", "vector"), ("fair", "fifo", "tcp"))
)
def test_deadline_exactly_on_a_bandwidth_breakpoint_times_out(engine, transport):
    # Zero capacity until t=10, full capacity after — and the deadline is
    # exactly t=10.  The breakpoint watcher and the deadline event land on
    # the same instant; the timeout must win deterministically (the flow
    # never moved a byte).
    schedule = BandwidthSchedule([0.0, 10.0], [0.0, 1_000_000.0])
    network, deliveries = _two_node_network(schedule, transport, engine)
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


@pytest.mark.parametrize("engine", ["lazy", VECTOR, "reference"])
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


@pytest.mark.parametrize("engine", ["lazy", VECTOR])
def test_sub_ulp_residual_completes_instead_of_livelocking(engine):
    # The PR-3 live-lock shape under the shared engines: a residual above the
    # byte epsilon whose transfer time is below one ulp of virtual time.
    # At t=2^20 one ulp is ~1.2e-10 s; 0.05 bytes at 1e9 B/s is 5e-11 s, so
    # the completion estimate rounds to *now* and the progress chip moves
    # nothing — `_is_complete`'s sub-ulp test must settle the flow.
    start = float(2**20)
    deliveries = []
    network = SimNetwork(transport="fair", shared_engine=engine, default_latency_s=0.0)
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
    # while queued (lazy deletion in the model's arrival queue), the third
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


# -- share-aware touched sets: the rule's edges ---------------------------------

MB = 1_000_000.0


def _link(up, down=None, aggregate=False):
    """Constant capacities in bytes/s (``down`` defaults to ``up``)."""
    down = up if down is None else down
    return LinkConfig(BandwidthSchedule.constant(up), BandwidthSchedule.constant(down), aggregate)


#: What an admission-frontier test reads off ``counters()``, in this order.
FRONTIER_COUNTERS = ("admission_frontiers", "flows_admitted", "rate_passes", "flows_rated")


class _CheckedScheduler:
    """A bare lazy scheduler held to the reference's rates at every step.

    ``admit`` and ``run`` return how many flows the step handed to
    ``rates_of``; each admission (once its instant is drained: the frontier
    rates it) and each settlement callback (which fires once the pass is
    applied) compares every in-flight rate, exactly, with ``fair_rates``
    recounted from the flow list — capped by the congestion window on
    ``tcp``.  ``start`` is ``admit`` without the drain: the burst is indexed
    and waits for its frontier.  ``eager`` builds the per-call
    ``EagerAdmission`` fixture instead.
    """

    def __init__(self, links, transport="fair", eager=False):
        self.simulator, self.links = Simulator(), links
        self.model = get_link_model(transport)
        self.settled = []
        with use_eager_admission() if eager else contextlib.nullcontext():
            self.scheduler = make_flow_scheduler(
                self.model, self.simulator, links, self._settle, self._settle, shared_engine="lazy"
            )

    def _settle(self, flow):
        self.settled.append((flow.src, flow.dst, self.simulator.now))
        self.check()

    def _rated(self):
        return self.scheduler.counters()["flows_rated"]

    def check(self):
        now = self.simulator.now
        flows = list(self.scheduler._flows.values())
        expected = fair_rates(flows, self.links, now)
        for flow in flows:
            rate = expected[flow.flow_id]
            if self.model.name == "tcp":
                rate = min(rate, self.model.state_of(flow, now).window_rate(flow.weight))
            assert flow.rate == rate, (flow.src, flow.dst, flow.rate, rate)
            # A moving flow is aimed at its completion; only a starved one
            # with no deadline waits on nothing.
            assert flow.pending is not None or (rate == 0.0 and flow.deadline is None)

    def counts(self, *names):
        counters = self.scheduler.counters()
        return tuple(counters[name] for name in names or FRONTIER_COUNTERS)

    def since(self, before):
        """What the ``FRONTIER_COUNTERS`` have added to a ``counts()`` reading."""
        return tuple(now - was for now, was in zip(self.counts(), before))

    def start(self, *transfers, timeout=None):
        """One ``start_flows`` call with ``(src, dst, size[, weight])`` flows,
        left to its admission frontier."""
        now = self.simulator.now
        flows = [
            Flow(
                self.simulator.next_serial(), src, dst, Message("DOC", size_bytes=size),
                now, None if timeout is None else now + timeout, None, None, *weight,
            )
            for src, dst, size, *weight in transfers
        ]
        self.scheduler.start_flows(flows, now)

    def admit(self, *transfers, timeout=None):
        """One same-instant burst, its instant drained: the frontier rates it."""
        before = self._rated()
        self.start(*transfers, timeout=timeout)
        self.simulator.run(until=self.simulator.now)
        self.check()
        return self._rated() - before

    def run(self, until=None):
        before = self._rated()
        self.simulator.run(until=until)
        self.check()
        return self._rated() - before

    def run_to_next_settlement(self):
        """Flows rated by the event that settles next (an estimate that fires
        early only re-aims: it rates nothing)."""
        settled = len(self.settled)
        while len(self.settled) == settled:
            before = self._rated()
            assert self.simulator.step()
        return self._rated() - before

    def rates(self):
        return {(f.src, f.dst): f.rate for f in self.scheduler._flows.values()}


def test_an_uplink_bound_wave_rates_each_burst_alone_and_no_departure():
    # Six nodes, downlinks twice the uplinks: every flow is bound at up/5 by
    # its sender's uplink and no downlink ever offers less than 2·up/5.
    names = ["n%d" % index for index in range(6)]
    checked = _CheckedScheduler({name: _link(MB, 2 * MB) for name in names})
    for index, sender in enumerate(names):
        burst = [(sender, other, 100_000 * (index + 1)) for other in names if other != sender]
        # The burst joins five downlinks that carry ``index`` flows each and
        # re-rates none of them: it rates its own five flows.
        assert checked.admit(*burst) == 5
    assert set(checked.rates().values()) == {MB / 5}
    # Senders finish one after another (sizes differ); each departing burst
    # relaxes five downlinks that bind nobody.
    assert checked.run() == 0
    assert len(checked.settled) == 30
    assert [time for _s, _d, time in checked.settled] == sorted(
        time for _s, _d, time in checked.settled
    )


def test_a_downlink_bound_fan_in_rerates_the_whole_downlink_each_time():
    senders = ["s%d" % index for index in range(5)]
    checked = _CheckedScheduler({name: _link(MB) for name in senders + ["sink"]})
    for count, sender in enumerate(senders, start=1):
        # Every flow sits at sink/count after the arrival: all of them move.
        assert checked.admit((sender, "sink", 100_000 * count)) == count
        assert set(checked.rates().values()) == {MB / count}
    # Each completion lifts every remaining flow (rate == floor on the way up:
    # the departed flow's peers were bound at exactly sink/before).
    for remaining in (4, 3, 2, 1):
        assert checked.run_to_next_settlement() == remaining
        assert set(checked.rates().values()) == {MB / remaining}


def test_a_flow_tied_between_both_its_links_follows_whichever_relaxes_last():
    # ``hub -> sink`` shares hub's uplink with three flows and sink's downlink
    # with three others: four on either side, rate == cap/4 == floor on both.
    leaves, feeders = ["l0", "l1", "l2"], ["f0", "f1", "f2"]
    checked = _CheckedScheduler(
        {name: _link(MB) for name in ["hub", "sink", *leaves, *feeders]}
    )
    burst = [("hub", "sink", 1_000_000)] + [("hub", leaf, 100_000) for leaf in leaves]
    assert checked.admit(*burst) == 4
    for count, feeder in enumerate(feeders, start=2):
        # sink's downlink goes to ``count`` flows; hub -> sink, bound at MB/4 by
        # its uplink, is below the floor MB/count until the last arrival ties.
        assert checked.admit((feeder, "sink", 100_000)) == (count if count == 4 else count - 1)
    assert set(checked.rates().values()) == {MB / 4}
    # The six short flows finish around t=0.4, the hub's by its uplink's
    # neighbourhood and the feeders' by the sink's downlink's: the tied flow
    # is a candidate of both — unchanged while either side still holds it at
    # MB/4, freed by whichever relaxes last.
    checked.run(until=0.41)
    assert len(checked.settled) == 6
    assert checked.rates() == {("hub", "sink"): MB}


def test_unit_and_weight_three_flows_split_one_downlink_by_weight():
    checked = _CheckedScheduler({name: _link(MB) for name in "abcd"} | {"sink": _link(MB)})
    assert checked.admit(("a", "sink", 300_000), ("b", "sink", 900_000, 3)) == 2
    assert checked.rates() == {("a", "sink"): MB / 4, ("b", "sink"): 3 * MB / 4}
    # A weight-3 flow bound elsewhere: d's uplink is shared four ways, so
    # d -> a (a's downlink is idle) keeps its rate whatever the sink does.
    assert checked.admit(("d", "a", 500_000, 3), ("d", "b", 500_000)) == 2
    assert checked.admit(("c", "sink", 100_000)) == 3
    assert checked.rates()[("b", "sink")] == 3 * MB / 5
    assert checked.run_to_next_settlement() == 2  # c -> sink done: a's and b's lifted
    assert checked.settled[0][:2] == ("c", "sink")
    assert checked.rates()[("b", "sink")] == 3 * MB / 4
    checked.run()
    assert len(checked.settled) == 5


def test_an_arrival_at_an_aggregate_endpoint_rerates_no_sibling():
    links = {name: _link(MB) for name in "abc"}
    links["agg"] = _link(MB / 4, MB / 2, aggregate=True)
    checked = _CheckedScheduler(links)
    assert checked.admit(("a", "agg", 400_000, 2)) == 1
    # Per-client capacity: the second fetch into the cohort shares nothing.
    assert checked.admit(("b", "agg", 400_000)) == 1
    assert checked.admit(("agg", "c", 100_000), ("agg", "a", 100_000)) == 2
    assert checked.admit(("agg", "b", 100_000)) == 1
    assert checked.rates() == {
        ("a", "agg"): MB, ("b", "agg"): MB / 2,
        ("agg", "c"): MB / 4, ("agg", "a"): MB / 4, ("agg", "b"): MB / 4,
    }
    assert checked.run() == 0  # nor does a departure from it
    assert len(checked.settled) == 5


def test_a_zero_capacity_link_gets_the_whole_link_pass():
    links = {name: _link(MB) for name in "abc"}
    links["dead"] = _link(0.0, MB)
    checked = _CheckedScheduler(links)
    assert checked.admit(("dead", "a", 100_000), timeout=1.0) == 1
    # Floor 0.0: every flow on the dead uplink is a candidate, at rate 0.0.
    assert checked.admit(("dead", "b", 100_000), ("dead", "c", 100_000)) == 3
    assert set(checked.rates().values()) == {0.0}
    # The expiry leaves a zero-capacity side too: both stranded flows rated.
    assert checked.run() == 2
    assert checked.settled == [("dead", "a", 1.0)]
    assert checked.scheduler.active_count() == 2


def test_a_burst_onto_idle_links_rates_itself():
    checked = _CheckedScheduler({name: _link(MB) for name in "abcd"})
    assert checked.admit(("a", "b", 90_000), ("a", "c", 90_000), ("a", "d", 90_000)) == 3
    assert set(checked.rates().values()) == {MB / 3}
    assert checked.run() == 0
    assert [time for _s, _d, time in checked.settled] == [pytest.approx(0.27)] * 3


def test_a_symmetric_wave_finishes_as_one_batch_in_discovery_order():
    # Every node sends one equal message to every other, on equal links:
    # twelve flows at MB/3, aimed at one bit-identical instant.  The first to
    # fire claims the rest through its uplink, then its downlink, and so on
    # in claim order; the callbacks fire in that order, which is the order
    # every delivery of a broadcast wave is handed to the network in.
    names = "abcd"
    checked = _CheckedScheduler({name: _link(MB) for name in names})
    checked.start(*((src, dst, 100_000) for src in names for dst in names if src != dst))
    assert checked.run() == 12  # the frontier's pass; the batch has no movers
    assert len({time for *_pair, time in checked.settled}) == 1
    assert ["".join(pair) for *pair, _time in checked.settled] == [
        "ab", "ac", "ad", "cb", "db", "bc", "dc", "bd", "cd", "ca", "da", "ba",
    ]


def test_a_window_limited_tcp_flow_sits_out_an_occupancy_change_on_its_link():
    checked = _CheckedScheduler({name: _link(MB) for name in "abc"}, transport="tcp")
    assert checked.admit(("a", "b", 600_000)) == 1
    window = checked.rates()[("a", "b")]
    assert window < MB / 2  # one segment per RTT: far below any share
    # a's uplink goes 1 -> 2: the share halves, the window still binds.
    assert checked.admit(("a", "c", 20_000)) == 1
    assert checked.rates()[("a", "b")] == window
    # Slow start opens both windows tick by tick (each tick re-rates its own
    # flow) until the share binds; the short flow leaves and frees it again.
    while checked.scheduler.active_count() == 2:
        assert checked.simulator.step()
        checked.check()
    assert checked.rates()[("a", "b")] > window
    checked.run()
    assert [pair[:2] for pair in checked.settled] == [("a", "c"), ("a", "b")]


# -- the admission frontier ------------------------------------------------------


def test_same_instant_admissions_onto_one_downlink_are_one_pass():
    senders = ["s%d" % index for index in range(6)]
    checked = _CheckedScheduler({name: _link(MB) for name in senders + ["sink"]})
    for count, sender in enumerate(senders, start=1):
        checked.start((sender, "sink", 100_000 * count))
    # Indexed at once — occupancy is current for whoever looks — but not
    # rated: no pass yet, no rate, no event but the frontier's own.
    assert checked.scheduler.active_count() == 6
    assert checked.scheduler._dst_weight == {"sink": 6}
    assert checked.counts() == (0, 0, 0, 0)
    assert set(checked.rates().values()) == {0.0}
    assert checked.simulator.pending_events == 1
    assert checked.run(until=0.0) == 6
    # One frontier, one pass, six flows — where a pass per call rates
    # 1 + 2 + ... + 6 (the fan-in test above, which drains after each).
    assert checked.counts() == (1, 6, 1, 6)
    assert set(checked.rates().values()) == {MB / 6}
    # Each flow was aimed once, against final occupancy: no estimate fires
    # early, so the run is the frontier plus one event per completion.
    checked.run()
    assert len(checked.settled) == 6
    assert checked.simulator.processed_events == 7


def test_a_completion_between_two_admissions_finds_the_first_one_settled():
    def scenario(eager):
        links = {name: _link(MB) for name in ("a", "b", "c", "sink")}
        checked = _CheckedScheduler(links, eager=eager)
        # Scheduled ahead of the flow whose completion it will precede at 0.25.
        checked.simulator.schedule(0.25, checked.start, ("b", "sink", 100_000))
        assert checked.admit(("a", "sink", 250_000)) == 1  # alone at MB: done at 0.25
        checked.simulator.schedule(0.25, checked.start, ("c", "sink", 150_000))
        return checked

    checked = scenario(eager=False)
    checked.run(until=0.2)
    assert checked.simulator.step()  # first admission: indexed, waiting
    assert checked.counts("admission_frontiers") == (1,)
    assert checked.rates()[("b", "sink")] == 0.0
    # a -> sink's own event: it settles the admission first — which halves
    # a -> sink's rate under the very event that is firing — then finishes
    # the flow, and the callback (``check`` inside it) finds b -> sink rated.
    assert checked.simulator.step()
    assert checked.counts("admission_frontiers") == (2,)
    assert checked.settled == [("a", "sink", 0.25)]
    assert checked.rates() == {("b", "sink"): MB}
    assert checked.simulator.step()  # second admission opens a frontier of its own
    assert checked.counts("admission_frontiers") == (2,)
    assert checked.rates()[("c", "sink")] == 0.0
    # The first frontier's event is still in the heap, overtaken by the
    # completion: it rates whatever waits now, and the second's finds nothing.
    assert checked.simulator.step()
    assert checked.counts("admission_frontiers") == (3,)
    assert checked.rates() == {("b", "sink"): MB / 2, ("c", "sink"): MB / 2}
    before = checked.counts()
    assert checked.simulator.step() and checked.simulator.now == 0.25
    assert checked.since(before) == (0, 0, 0, 0)
    checked.run()
    assert [pair[:2] for pair in checked.settled] == [("a", "sink"), ("b", "sink"), ("c", "sink")]
    assert checked.simulator.pending_events == 0  # no event outlived its flow

    eager = scenario(eager=True)
    eager.run()
    assert [pair[:2] for pair in eager.settled] == [pair[:2] for pair in checked.settled]
    assert [time for *_pair, time in eager.settled] == pytest.approx(
        [time for *_pair, time in checked.settled], rel=1e-12
    )


@pytest.mark.parametrize("order", ["admission_first", "set_link_first"])
def test_a_set_link_at_the_admission_instant_settles_the_admission_first(order):
    checked = _CheckedScheduler({name: _link(MB) for name in "abc"})
    assert checked.admit(("a", "b", 500_000)) == 1
    checked.run(until=0.1)
    before = checked.counts()

    def replace():
        checked.links["a"] = _link(MB / 2)
        checked.scheduler.on_link_replaced("a", checked.simulator.now)

    if order == "admission_first":
        checked.start(("a", "c", 100_000))
        replace()
        # The frontier (one pass over both of a's flows), then the replaced
        # link's whole-link pass over the same two.
        assert checked.since(before) == (1, 1, 2, 4)
        checked.check()
        assert checked.run(until=0.1) == 0  # the overtaken frontier event
        assert checked.since(before) == (1, 1, 2, 4)
    else:
        replace()
        checked.start(("a", "c", 100_000))
        assert checked.run(until=0.1) == 2
    assert checked.rates() == {("a", "b"): MB / 4, ("a", "c"): MB / 4}
    checked.run()
    assert len(checked.settled) == 2


@pytest.mark.parametrize("order", ["admission_first", "breakpoint_first"])
def test_a_breakpoint_to_zero_at_the_admission_instant_starves_the_burst_too(order):
    links = {name: _link(MB) for name in "bcd"}
    outage = BandwidthSchedule([0.0, 0.1], [MB, 0.0])
    links["a"] = LinkConfig(outage, BandwidthSchedule.constant(MB))
    checked = _CheckedScheduler(links)
    burst = [("a", "c", 100_000), ("d", "b", 100_000)]
    if order == "admission_first":
        # Ahead of the watcher, which a -> b's admission arms.
        checked.simulator.schedule(0.1, checked.start, *burst)
    assert checked.admit(("a", "b", 500_000)) == 1
    if order == "breakpoint_first":
        checked.simulator.schedule(0.1, checked.start, *burst)
    if order == "admission_first":
        before = checked.counts()
        assert checked.simulator.step()  # the burst: indexed, waiting
        assert checked.since(before) == (0, 0, 0, 0)
        # The watcher settles the burst against the capacity it was indexed
        # under (a zero-width rate), then re-rates a's uplink at zero; the
        # frontier's own event, still to come, finds nothing.
        assert checked.simulator.step()
        assert checked.since(before)[::2] == (1, 2)  # frontiers, rate passes
        checked.check()
        assert checked.run(until=0.1) == 0
    else:
        # The watcher rates a -> b; the frontier rates the burst and, a's
        # uplink being at zero (floor 0.0), a -> b again.
        assert checked.run(until=0.1) == 1 + 3
    # a's flows starve without an event; d -> b holds half of b's downlink
    # (fair shares are not work-conserving) and is aimed at its completion.
    assert checked.rates() == {("a", "b"): 0.0, ("a", "c"): 0.0, ("d", "b"): MB / 2}
    flows = checked.scheduler._flows.values()
    assert [flow.pending is None for flow in flows] == [True, True, False]
    checked.run()
    assert checked.settled == [("d", "b", pytest.approx(0.3))]
    assert checked.scheduler.active_count() == 2


def test_a_tcp_ack_tick_at_the_admission_instant_settles_the_admission_first():
    checked = _CheckedScheduler({name: _link(MB) for name in "abc"}, transport="tcp")
    # Ahead of a -> b's first ack tick, one default RTT after its admission.
    checked.simulator.schedule(TCP_DEFAULT_RTT_S, checked.start, ("a", "c", 20_000))
    assert checked.admit(("a", "b", 600_000)) == 1
    window = checked.rates()[("a", "b")]
    assert checked.simulator.step()  # the admission: indexed, waiting
    assert checked.simulator.now == TCP_DEFAULT_RTT_S
    before = checked.counts()
    assert checked.simulator.step()  # the tick: the frontier's pass, then its own
    assert checked.since(before) == (1, 1, 2, 2)
    checked.check()
    assert checked.rates()[("a", "b")] > window  # slow start doubled it
    assert checked.rates()[("a", "c")] == window  # one segment per RTT, tick armed
    assert checked.run(until=TCP_DEFAULT_RTT_S) == 0  # the overtaken frontier event
    checked.run()
    assert [pair[:2] for pair in checked.settled] == [("a", "c"), ("a", "b")]


def test_a_timeout_callback_that_resends_opens_a_frontier_of_its_own():
    checked = _CheckedScheduler({name: _link(MB) for name in "abc"})

    def resend(flow):
        checked.settled.append(("late", flow.src, flow.dst, checked.simulator.now))
        checked.start((flow.src, flow.dst, 50_000))

    checked.scheduler._expire = resend
    assert checked.admit(("a", "b", 2_000_000), timeout=0.5) == 1
    assert checked.admit(("a", "c", 400_000)) == 2
    # The expiry re-rates a -> c and calls back from inside ``_finish_expired``;
    # the re-sent flow is indexed there and rated by the frontier it opened.
    checked.run_to_next_settlement()
    assert checked.settled == [("late", "a", "b", 0.5)]
    assert checked.rates() == {("a", "c"): MB, ("a", "b"): 0.0}
    assert checked.counts("admission_frontiers", "flows_admitted") == (2, 2)
    assert checked.run(until=0.5) == 2
    assert checked.counts("admission_frontiers", "flows_admitted") == (3, 3)
    assert checked.rates() == {("a", "c"): MB / 2, ("a", "b"): MB / 2}
    checked.run()
    assert [entry[:2] for entry in checked.settled[1:]] == [("a", "b"), ("a", "c")]


def test_draining_the_instant_leaves_no_sent_message_unrated():
    deliveries = []
    network = SimNetwork(transport="fair", default_latency_s=0.05)
    for name in "abcd":
        network.add_node(_Sink(name, deliveries), LinkConfig.symmetric_mbps(8.0))
    network.add_node(_Sink("dead", deliveries), LinkConfig.symmetric_mbps(0.0))
    network.run(until=3.0)
    network.send("a", "b", Message(msg_type="DOC", size_bytes=100_000))
    network.send_many("c", ["a", "b", "d"], Message(msg_type="DOC", size_bytes=100_000))
    network.send("d", "dead", Message(msg_type="DOC", size_bytes=100_000))
    flows = list(network._scheduler._flows.values())
    assert len(flows) == network.active_flow_count() == 5
    assert all(flow.rate == 0.0 and flow.pending is None for flow in flows)
    network.run(until=3.0)
    for flow in flows:
        if flow.dst == "dead":
            assert flow.rate == 0.0 and flow.pending is None  # nothing to wait for
        else:
            assert flow.rate > 0.0 and flow.pending is not None
    counters = network.engine_counters()
    assert (counters["admission_frontiers"], counters["flows_admitted"]) == (1, 5)
    network.run()
    assert len(deliveries) == 4
