"""The flow schedulers against the executable reference model.

``ReferenceFlowScheduler`` (``reference_sched.py``) advances every flow and
rates every flow from a fresh occupancy recount at every event.  The stateful
test drives it, the lazy engine and (numpy present, on ``fair``) the vector
engine — or, on ``latency-only``, the planner, whose completions are queued
when they are planned and withdrawn when a link swap re-plans them — with the
same random sequence of same-instant admission bursts (up to eight random
transfers, or one node's broadcast to / fan-in from up to seven others;
weights 1–3, two aggregate endpoints, deadlines; in one ``start_flows`` call,
in several with nothing between them — one admission frontier on the lazy
engine — or with a follow-up scheduled ahead of them for the reference's next
event, so a lazy transition finds a frontier waiting), link replacements
(constant rates, outages, schedules with a future breakpoint) and clock
advances (to the reference's next event, or by a fixed step), on ``fair``, on
``fifo`` and on ``latency-only``.  Eight nodes start on unequal, partly asymmetric capacities, so
link buckets of five and more flows and flows whose binding side flips
between uplink and downlink are routine — the ground the fair model's
share-aware touched sets have to hold.  After every step it requires of each
production engine:

* the same flows settled, each the same way (completed / expired) and at the
  same instant within 1e-6 relative, in time order.  Flows settling within
  that tolerance of one instant have no defined order across engines (lazy
  finishes them in discovery order, vector in flow-id order), and a flow
  settling within it of the current clock may be counted by one side only;
* while the settled sets agree, the same rate on every in-flight flow (lazy
  only — the vector engine keeps rates in its slot arrays);
* every admitted flow exactly one of completed, expired or in flight — so
  bytes completed + expired + in flight = bytes admitted — with every
  residual inside ``[0, size]``;
* on the shared engines, ``_src_weight`` / ``_dst_weight`` equal to a
  from-scratch recount.
"""

import math

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow, make_flow_scheduler
from repro.simnet.linkmodel import get_link_model
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig
from repro.simnet.vector_sched import vector_available

from tests.simnet.reference_sched import ReferenceFlowScheduler, occupancy

REL_TOLERANCE = 1e-6

#: Node -> starting (uplink, downlink) capacity in bytes/s; the ``agg`` nodes
#: are aggregate endpoints (per-client capacity, never shared).
START_CAPACITY = {
    "a": (1e6, 1e6),
    "b": (2.5e5, 1e6),
    "c": (1e6, 2.5e5),
    "d": (5e5, 5e5),
    "e": (1e6, 1e5),
    "f": (1e5, 1e6),
    "agg1": (2.5e5, 2.5e5),
    "agg2": (1e6, 1e5),
}
NODES = tuple(START_CAPACITY)
RATES = st.sampled_from([0.0, 1e5, 2.5e5, 1e6])  # bytes/s; 0.0 is an outage
PAIRS = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(lambda p: p[0] != p[1])
# Repeated sizes and round rates make same-instant completions common;
# timeouts that are no multiple of a size/rate quotient keep an expiry from
# landing exactly on a completion, where rounding alone picks the winner.
SIZES = st.sampled_from([40_000, 100_000, 100_000, 250_000, 1_000_000])
WEIGHTS = st.integers(1, 3)
TIMEOUTS = st.sampled_from([None, None, 0.37, 1.9, 11.3])
TRANSFERS = st.tuples(PAIRS, SIZES, WEIGHTS, TIMEOUTS)


def close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=1e-9)


class _Side:
    """One scheduler on its own simulator and link table, with its settle log."""

    def __init__(self, engine, transport):
        self.engine, self.simulator, self.links = engine, Simulator(), {}
        for name, (up, down) in START_CAPACITY.items():
            self.links[name] = LinkConfig(
                BandwidthSchedule.constant(up), BandwidthSchedule.constant(down), name.startswith("agg")
            )
        self.log, self.settled, self.admitted = [], {}, {}
        callbacks = (self.complete, lambda flow: self.settle("late", flow))
        model = get_link_model(transport)
        if engine == "reference":
            self.scheduler = ReferenceFlowScheduler(model, self.simulator, self.links, *callbacks)
        elif engine == "planner":
            self.scheduler = make_flow_scheduler(model, self.simulator, self.links, *callbacks)
        else:
            self.scheduler = make_flow_scheduler(
                model, self.simulator, self.links, *callbacks, shared_engine=engine
            )

    def complete(self, flow, at=None):
        if at is None:
            self.settle("done", flow)
            return None
        # Planned ahead: settle at ``at`` through a batch of its own, which a
        # re-plan withdraws, as the network queues a delivery.
        drain = lambda flows: self.settle("done", flows[0])  # noqa: E731
        return self.simulator.schedule_batch(at, flow.flow_id, drain, flow), flow

    def settle(self, kind, flow):
        assert flow.flow_id not in self.settled
        self.settled[flow.flow_id] = (kind, self.simulator.now)
        self.log.append(self.simulator.now)

    def in_flight(self):
        """Admitted flows that have not settled, by id."""
        if self.engine != "planner":
            return self.scheduler._flows
        now = self.simulator.now
        return {
            flow.flow_id: flow
            for _latest, flows in self.scheduler._bursts
            for flow in flows
            if self.scheduler._settles_after(flow, now)
        }

    def admit(self, transfers, first_id, now):
        flows = []
        for offset, ((src, dst), size, weight, timeout) in enumerate(transfers):
            message = Message(msg_type="DOC", size_bytes=size)
            deadline = None if timeout is None else now + timeout
            flows.append(
                Flow(first_id + offset, src, dst, message, now, deadline, None, None, weight)
            )
            self.admitted[first_id + offset] = size
        self.scheduler.start_flows(flows, now)

    def replace_link(self, name, schedule, now):
        self.scheduler.before_link_replaced(name, now)
        self.links[name] = LinkConfig(schedule, schedule, name.startswith("agg"))
        self.scheduler.on_link_replaced(name, now)


class FlowSchedulersAgainstReference(RuleBasedStateMachine):
    @initialize(transport=st.sampled_from(["fair", "fifo", "latency-only"]))
    def build(self, transport):
        if transport == "latency-only":
            engines = ["reference", "planner"]
        else:
            vector = vector_available() and transport == "fair"
            engines = ["reference", "lazy"] + (["vector"] if vector else [])
        self.reference, *self.engines = [_Side(engine, transport) for engine in engines]
        self.now, self.next_id = 0.0, 1

    def everywhere(self, call):
        """Apply ``call`` to every side, then drain the events due at ``now``."""
        for side in (self.reference, *self.engines):
            call(side)
            side.simulator.run(until=self.now)

    @rule(transfers=st.lists(TRANSFERS, min_size=1, max_size=8))
    def admit(self, transfers):
        self.everywhere(lambda side: side.admit(transfers, self.next_id, self.now))
        self.next_id += len(transfers)

    @rule(
        hub=st.sampled_from(NODES),
        others=st.sets(st.sampled_from(NODES), min_size=3, max_size=8),
        fan_in=st.booleans(),
        size=SIZES,
        weight=WEIGHTS,
        timeout=TIMEOUTS,
    )
    def admit_wave(self, hub, others, fan_in, size, weight, timeout):
        """One node's broadcast (or the fan-in into it): equal transfers that
        load one link side with the whole burst."""
        pairs = [(other, hub) if fan_in else (hub, other) for other in sorted(others - {hub})]
        self.admit([(pair, size, weight, timeout) for pair in pairs])

    @rule(bursts=st.lists(st.lists(TRANSFERS, min_size=1, max_size=3), min_size=2, max_size=4))
    def admit_in_several_calls(self, bursts):
        """Same-instant ``start_flows`` calls with nothing between them: one
        admission frontier on the lazy engine, one recompute each on the
        reference."""

        def calls(side):
            first_id = self.next_id
            for burst in bursts:
                side.admit(burst, first_id, self.now)
                first_id += len(burst)

        self.everywhere(calls)
        self.next_id += sum(len(burst) for burst in bursts)

    @rule(
        transfers=st.lists(TRANSFERS, min_size=1, max_size=4),
        follow_up=st.lists(TRANSFERS, min_size=1, max_size=3),
    )
    def admit_with_a_follow_up_at_the_next_event(self, transfers, follow_up):
        """A burst now and a second one at the instant the reference acts next
        (a completion, a deadline, a breakpoint), scheduled *before* the first
        is admitted: on the engines it is ahead of the burst's own events in
        the heap, so the lazy engine's flow event finds a frontier waiting."""
        first_id, follow_id = self.next_id, self.next_id + len(transfers)
        self.next_id = follow_id + len(follow_up)
        self.reference.admit(transfers, first_id, self.now)
        pending = self.reference.scheduler._event
        when = self.now + 1.0 if pending is None else pending.time
        for side in (self.reference, *self.engines):
            side.simulator.schedule(when, side.admit, follow_up, follow_id, when)

        def burst(side):
            if side is not self.reference:
                side.admit(transfers, first_id, self.now)

        self.everywhere(burst)

    @rule(name=st.sampled_from(NODES), rate=RATES)
    def set_link_rate(self, name, rate):
        schedule = BandwidthSchedule.constant(rate)
        self.everywhere(lambda side: side.replace_link(name, schedule, self.now))

    @rule(
        name=st.sampled_from(NODES),
        before=RATES,
        after=RATES,
        # Size/rate quotients on purpose: a breakpoint to zero landing on a
        # completion must settle the flow on every engine, not starve it.
        delay=st.sampled_from([0.25, 1.0, 4.0]),
    )
    def set_link_breakpoint(self, name, before, after, delay):
        schedule = BandwidthSchedule([0.0, self.now + delay], [before, after])
        self.everywhere(lambda side: side.replace_link(name, schedule, self.now))

    @rule()
    def run_to_next_event(self):
        pending = self.reference.scheduler._event
        if pending is not None:
            self.now = max(self.now, pending.time)
            self.everywhere(lambda side: None)

    @rule(step=st.sampled_from([0.1, 0.5, 3.0]))
    def run_for(self, step):
        self.now += step
        self.everywhere(lambda side: None)

    @invariant()
    def engines_match_the_reference(self):
        reference = self.reference
        for side in self.engines:
            assert side.log == sorted(side.log), side.engine
            for flow_id in reference.settled.keys() | side.settled.keys():
                expected, got = reference.settled.get(flow_id), side.settled.get(flow_id)
                if expected is None or got is None:
                    lone_time = (expected or got)[1]
                    assert close(lone_time, self.now), (side.engine, flow_id, expected, got)
                else:
                    assert expected[0] == got[0] and close(expected[1], got[1]), (
                        side.engine, flow_id, expected, got,
                    )
            if side.engine == "lazy" and side.settled.keys() == reference.settled.keys():
                for flow_id, flow in reference.scheduler._flows.items():
                    assert close(flow.rate, side.scheduler._flows[flow_id].rate), (flow_id,)

    @invariant()
    def bytes_and_occupancy_are_conserved(self):
        for side in (self.reference, *self.engines):
            in_flight = side.in_flight()
            assert side.settled.keys() | in_flight.keys() == side.admitted.keys(), side.engine
            assert not side.settled.keys() & in_flight.keys(), side.engine
            for flow_id, flow in in_flight.items():
                assert 0.0 <= flow.remaining <= side.admitted[flow_id], (side.engine, flow_id)
        for side in self.engines:
            if side.engine == "planner":
                continue  # nothing shared, so no occupancy to keep
            up, down = occupancy(side.scheduler._flows.values())
            assert side.scheduler._src_weight == up, side.engine
            assert side.scheduler._dst_weight == down, side.engine


FlowSchedulersAgainstReference.TestCase.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None
)
TestFlowSchedulersAgainstReference = FlowSchedulersAgainstReference.TestCase
