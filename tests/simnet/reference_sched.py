"""The flow-scheduler reference model: every flow, from scratch, every event.

This is the specification of the shared-regime schedulers
(:mod:`repro.simnet.shared_sched`, :mod:`repro.simnet.vector_sched`), and of
the ``latency-only`` planner, in the plainest form that can run.  At each
transport event it advances *every* active flow to ``now``, settles the
finished and the expired, recounts link occupancy from the flow list, rates
*every* remaining flow from that recount, and keeps one simulator event at
the earliest instant anything can change — a completion, a deadline, a
bandwidth breakpoint, a tcp ack tick.  Nothing is scoped, cached or
incremental, so there is nothing to get out of sync; it is O(F) per event
and O(F²) per run, which is why it lives here and not in ``src/``.

The rate functions state each link model's arithmetic once, readably:
``fair``, ``fifo`` and ``latency-only`` are pure functions of the flow list;
``tcp`` is the fair share capped by the window rate of the production Reno machine
(:meth:`repro.simnet.linkmodel.TcpLinkModel.advance_flow`, the single
definition of per-flow congestion dynamics), advanced here whenever a flow's
ack tick is due at a recompute.

:func:`two_pass_departure` is narrower: the lazy engine's departure batch
stated as two plain passes over one bucket state, the specification of the
single walk ``FairShareLinkModel.on_flows_removed`` makes
(``test_departure_walk.py``).

Tests select the model with :func:`use_reference_scheduler` (or
:func:`use_engine` in an engine parametrisation, which reaches the vector
engine the same way); production code has no switch for it.
"""

from contextlib import contextmanager, nullcontext
from functools import partial
from unittest import mock

import pytest

from repro.simnet import network as network_module
from repro.simnet.flows import _COMPLETION_EPSILON_BYTES, _TIME_EPSILON, make_flow_scheduler
from repro.simnet.linkmodel import _TICK_EPSILON
from repro.simnet.vector_sched import VECTOR_POLICIES, vector_available

#: Skips a test, or one parametrisation value, on an install without numpy.
needs_numpy = pytest.mark.skipif(
    not vector_available(), reason="numpy not installed (the [perf] extra)"
)

#: The vector engine as a parametrisation value: skipped without numpy.
VECTOR = pytest.param("vector", marks=needs_numpy)

#: ``(engine, transport)`` pairs for hypothesis strategies over whole runs:
#: every engine :func:`use_engine` can run here, the vector engine only on
#: the transports it has a policy for.
RUN_CASES = [
    (engine, transport)
    for engine in ("lazy", "reference") + (("vector",) if vector_available() else ())
    for transport in ("fair", "fifo", "latency-only")
    if engine != "vector" or transport in VECTOR_POLICIES
]


def engine_cases(engines, transports):
    """``(engine, transport)`` parametrisation cases: the vector engine only
    on the transports it has a policy for, and skipped without numpy."""
    return [
        pytest.param(engine, transport, marks=needs_numpy)
        if engine == "vector"
        else (engine, transport)
        for engine in engines
        for transport in transports
        if engine != "vector" or transport in VECTOR_POLICIES
    ]


def occupancy(flows):
    """Weighted occupancy per uplink and per downlink, recounted from ``flows``."""
    up, down = {}, {}
    for flow in flows:
        up[flow.src] = up.get(flow.src, 0) + flow.weight
        down[flow.dst] = down.get(flow.dst, 0) + flow.weight
    return up, down


def _share(rate, aggregate, units, sharers):
    """``units`` shares of a link: split among ``sharers`` unless the link is
    an aggregate endpoint (per-client capacity, never shared)."""
    return rate * units if aggregate else rate * units / sharers


def fair_rates(flows, links, now):
    """``fair``: weighted equal split per link; the minimum of the two shares."""
    up, down = occupancy(flows)
    rates = {}
    for flow in flows:
        src, dst = links[flow.src], links[flow.dst]
        rates[flow.flow_id] = min(
            _share(src.uplink.rate_at(now), src.aggregate, flow.weight, up[flow.src]),
            _share(dst.downlink.rate_at(now), dst.aggregate, flow.weight, down[flow.dst]),
        )
    return rates


def fifo_rates(flows, links, now):
    """``fifo``: each uplink serves its oldest arrival at full rate; a downlink
    is split among the flows being served into it.

    A flow served from a queued uplink is one transfer whatever its weight;
    flows from an aggregate uplink never queue and stand for ``weight``
    parallel per-client transfers.
    """
    head = {}
    for flow in flows:
        if not links[flow.src].aggregate:
            first = head.get(flow.src)
            if first is None or flow.arrival_seq < first.arrival_seq:
                head[flow.src] = flow
    served = [f for f in flows if links[f.src].aggregate or head[f.src] is f]
    units = {f.flow_id: f.weight if links[f.src].aggregate else 1 for f in served}
    serving = {}
    for flow in served:
        serving[flow.dst] = serving.get(flow.dst, 0) + units[flow.flow_id]
    rates = {flow.flow_id: 0.0 for flow in flows}
    for flow in served:
        dst, n = links[flow.dst], units[flow.flow_id]
        rates[flow.flow_id] = min(
            links[flow.src].uplink.rate_at(now) * n,
            _share(dst.downlink.rate_at(now), dst.aggregate, n, serving[flow.dst]),
        )
    return rates


def tcp_rates(flows, links, now, model):
    """``tcp``: the fair share capped by each flow's congestion window.

    A flow whose ack tick is due advances through the production Reno machine
    first, fed the rate it was granted over the round (``flow.rate``).
    """
    rates = fair_rates(flows, links, now)
    for flow in flows:
        state = model.state_of(flow, now)
        if state.next_tick <= now + _TICK_EPSILON:
            model.advance_flow(flow, state, now)
        rates[flow.flow_id] = min(rates[flow.flow_id], state.window_rate(flow.weight))
    return rates


def latency_only_rates(flows, links, now):
    """``latency-only``: every flow at the slower of its own two links, unshared."""
    return {
        flow.flow_id: flow.weight
        * min(links[flow.src].uplink.rate_at(now), links[flow.dst].downlink.rate_at(now))
        for flow in flows
    }


REFERENCE_RATES = {"fair": fair_rates, "fifo": fifo_rates, "latency-only": latency_only_rates}


def two_pass_departure(trigger, flows, links, up_cap, down_cap, now):
    """The lazy engine's ``fair`` departure batch in two plain passes.

    The specification of ``FairShareLinkModel.on_flows_removed``'s one walk,
    stated the way the engine used to run it: a *frontier loop* drops a
    frontier from the indexes, gathers its link sides' whole remaining
    neighbourhood, and claims each neighbour whose event is due at ``now``
    and whose transfer is done — advancing every due one it visits — into
    the next frontier, keeping the rest as ``survivors``; then a *second
    scan* of every link side the batch left finds the movers: on a
    non-aggregate side of capacity ``c``, the flows with ``rate >= c /
    occupancy before the batch``.

    ``flows`` are the in-flight flows in admission order, ``trigger`` among
    them (its own event has fired: it is not offered again).  A flow's event
    is due when ``flow.pending.time == now``.  Nothing is mutated.  Returns
    ``(batch, movers, residuals)``: the batch's flow ids in claim order, the
    set of mover ids, and every flow's ``(last_update, remaining)`` after the
    loop's advances.
    """
    residuals = {flow.flow_id: (flow.last_update, flow.remaining) for flow in flows}
    due = {f.flow_id for f in flows if f is not trigger and f.pending is not None and f.pending.time == now}
    by_src, by_dst = {}, {}
    for flow in flows:
        by_src.setdefault(flow.src, {})[flow.flow_id] = flow
        by_dst.setdefault(flow.dst, {})[flow.flow_id] = flow
    up, down = occupancy(flows)

    def claim(flow):
        """Advance a due flow to ``now``; whether it is done (the scheduler's
        ``_advance`` and ``_is_complete``)."""
        last, remaining = residuals[flow.flow_id]
        if now - last > 0 and flow.rate > 0:
            remaining = max(0.0, remaining - flow.rate * (now - last))
        residuals[flow.flow_id] = (now, remaining)
        return remaining <= _COMPLETION_EPSILON_BYTES or (
            flow.rate > 0 and now + remaining / flow.rate <= now
        )

    batch, frontier, survivors = [trigger], [trigger], {}
    while frontier:
        for flow in frontier:
            del by_src[flow.src][flow.flow_id]
            del by_dst[flow.dst][flow.flow_id]
        touched, seen_src, seen_dst = {}, set(), set()
        for flow in frontier:
            if flow.src not in seen_src:
                seen_src.add(flow.src)
                touched.update(by_src[flow.src])
            if flow.dst not in seen_dst:
                seen_dst.add(flow.dst)
                touched.update(by_dst[flow.dst])
        frontier = []
        for other in touched.values():
            if other.flow_id in due and claim(other):
                due.discard(other.flow_id)  # its event is cancelled
                frontier.append(other)
                survivors.pop(other.flow_id, None)
            else:
                survivors[other.flow_id] = other
        batch.extend(frontier)

    movers = set()
    for side, index, before, cap in (
        ("src", by_src, up, up_cap),
        ("dst", by_dst, down, down_cap),
    ):
        for name in dict.fromkeys(getattr(flow, side) for flow in batch):
            if not links[name].aggregate:
                floor = cap[name] / before[name]
                movers.update(fid for fid, flow in index[name].items() if flow.rate >= floor)
    # Every mover is a survivor: the second scan reads the sides the first
    # one gathered.
    assert movers <= set(survivors)
    return [flow.flow_id for flow in batch], movers, residuals


class ReferenceFlowScheduler:
    """Global-recompute scheduler with the ``FlowScheduler`` interface."""

    def __init__(self, model, simulator, links, complete, expire):
        self.simulator, self._links = simulator, links
        self._complete, self._expire = complete, expire
        self._tcp = model if model.name == "tcp" else None
        self._rate = (
            partial(tcp_rates, model=model) if self._tcp else REFERENCE_RATES[model.name]
        )
        self._flows = {}  # flow_id -> Flow, in admission order
        self._arrivals = 0
        self._advanced_to = 0.0
        self._event = None

    def active_count(self):
        return len(self._flows)

    def counters(self):
        return {}

    def start_flows(self, flows, now):
        self._advance(now)  # the admitted flows have moved nothing before now
        for flow in flows:
            flow.arrival_seq = self._arrivals
            self._arrivals += 1
            self._flows[flow.flow_id] = flow
        self._recompute()

    def before_link_replaced(self, name, now):
        pass

    def on_link_replaced(self, name, now):
        self._recompute()

    def _advance(self, now):
        elapsed = now - self._advanced_to
        if elapsed > 0:
            for flow in self._flows.values():
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        self._advanced_to = now

    def _recompute(self):
        now = self.simulator.now
        self._advance(now)
        done = [
            f for f in self._flows.values()
            if f.remaining <= _COMPLETION_EPSILON_BYTES
            # A residual whose transfer time is below one ulp of virtual time
            # can never be chipped away: now + remaining/rate == now.
            or (f.rate > 0 and now + f.remaining / f.rate <= now)
        ]
        late = [
            f for f in self._flows.values()
            if f not in done and f.deadline is not None and now >= f.deadline - _TIME_EPSILON
        ]
        for flow in done + late:
            del self._flows[flow.flow_id]
            if self._tcp:
                self._tcp.drop_state(flow.flow_id)

        flows = list(self._flows.values())
        rates = self._rate(flows, self._links, now)
        for flow in flows:
            flow.rate = rates[flow.flow_id]

        moments = [now + f.remaining / f.rate for f in flows if f.rate > 0]
        moments += [f.deadline for f in flows if f.deadline is not None]
        for flow in flows:
            moments.append(self._links[flow.src].uplink.next_change_after(now))
            moments.append(self._links[flow.dst].downlink.next_change_after(now))
            if self._tcp:
                moments.append(self._tcp.state_of(flow, now).next_tick)
        moments = [moment for moment in moments if moment is not None]
        if self._event is not None:
            self._event.cancel()
        self._event = (
            self.simulator.schedule(max(min(moments), now), self._recompute) if moments else None
        )

        # Callbacks last, against consistent rates: one that sends re-enters
        # start_flows and simply recomputes again.
        for flow in done:
            flow.remaining = 0.0
            self._complete(flow)
        for flow in late:
            self._expire(flow)


@contextmanager
def use_reference_scheduler():
    """Run shared link models on the reference scheduler inside the block.

    Patches the factory :class:`~repro.simnet.network.SimNetwork` calls;
    uncoupled models keep the production independent scheduler.
    """

    def factory(model, simulator, links, complete, expire, shared_engine=None):
        if not model.shared:
            return make_flow_scheduler(model, simulator, links, complete, expire)
        return ReferenceFlowScheduler(model, simulator, links, complete, expire)

    with mock.patch.object(network_module, "make_flow_scheduler", factory):
        yield


@contextmanager
def use_vector_engine():
    """Build every network inside the block with ``shared_engine="vector"``.

    ``SimNetwork`` passes ``shared_engine=None`` explicitly, so the wrapper
    overrides the argument rather than defaulting it.
    """

    def factory(model, simulator, links, complete, expire, shared_engine=None):
        return make_flow_scheduler(
            model, simulator, links, complete, expire, shared_engine="vector"
        )

    with mock.patch.object(network_module, "make_flow_scheduler", factory):
        yield


def use_engine(engine):
    """Networks built inside the block run ``engine``: ``"lazy"`` (the
    default), ``"vector"`` or ``"reference"``."""
    if engine == "reference":
        return use_reference_scheduler()
    if engine == "vector":
        return use_vector_engine()
    assert engine == "lazy", engine
    return nullcontext()
