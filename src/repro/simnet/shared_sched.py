"""Lazy-advance scheduling for shared link models (fair, fifo, tcp).

The plainest correct scheduler for occupancy-coupled rates keeps one global
recompute event and, when it fires, advances *every* active flow and scans
*every* completion/deadline/breakpoint candidate to find the next recompute
instant — O(all active flows) per transport event.  That loop is the
test-side reference model (``tests/simnet/reference_sched.py``);
:class:`LazySharedLinkScheduler` replaces both global passes:

* **Lazy progress.**  Each flow carries ``(last_update, rate)`` and its
  ``remaining`` bytes are only advanced when something actually touches the
  flow — its own event fires, or its rate changes because a neighbouring flow
  started/finished or a link capacity moved.  Between touches the rate is
  constant, so one multiply covers the whole untouched span.
* **Heap-driven next events.**  Every flow owns at most one pending simulator
  event at ``min(completion estimate, deadline)``; every link side with
  active flows owns one *watcher* event at its next bandwidth breakpoint.
  When a flow's rate changes, its estimate is invalidated (the engine's O(1)
  ``EventHandle.cancel``) and a fresh one is pushed; stale heap entries are
  skipped like any cancelled event, and the engine compacts the heap once
  corpses dominate.
* **Same-instant batches.**  Arrivals and departures are each rated once per
  *frontier*, against final occupancy.  ``start_flows`` only indexes its
  burst; the first admission of an instant schedules one event at ``now``,
  later ones extend its list, and that event — or whichever scheduler
  transition comes first, each of which settles pending admissions before
  its own work — rates them all in one pass (``_settle_admissions``).  So 32
  cohorts fetching on one wave tick, or a mirror answering a delivery batch
  request by request, cost one rate pass, not one per send — held equal to
  per-call rating through the ``EagerAdmission`` test fixture
  (``tests/simnet/eager_admission.py``) and to flow-by-flow admission through
  ``PerMessageNetwork`` (``tests/simnet/per_message.py``).  Its dual on the
  way out: the first completion of an instant claims every neighbour due at
  that instant (``_finish_batch``) and the movers among the survivors are
  rated once.

Per-event cost becomes O(touched flows × log F) instead of O(all flows):
the *touched* set is exactly the set whose instantaneous rate can have
changed, which each link model knows how to enumerate through its
:class:`LazyRater`:

* ``fair`` — a flow's rate is ``min(up/|up flows|, down/|down flows|)``, a
  pure local function of its two links, so the touched set is, of the flows
  sharing the event's uplink/downlink, those whose stored rate reaches the
  share that side offered: a flow bound elsewhere keeps its rate bit for bit.
* ``fifo`` — each uplink serves its oldest flow at full rate and downlinks
  are split among the flows being served into them; the rater maintains the
  per-uplink arrival queue and per-downlink serving counts incrementally, so
  a completion touches only the promoted flow and the eligible flows on the
  two affected downlinks (queued flows have rate 0 and are never touched).
* ``tcp`` — the fair share capped by each flow's Reno congestion window
  (:class:`repro.simnet.linkmodel.TcpLinkModel`); the rater adds one
  simulator *ack-tick* event per flow that advances its congestion state and
  re-aims only that flow, so window dynamics ride on the fair rater's
  touched sets unchanged.

A shared model without a rater in :data:`LAZY_RATERS` cannot run: engine
selection (:func:`repro.simnet.flows.effective_shared_engine`) refuses it by
name.

Float semantics, stated plainly: lazy accumulation changes chip
segmentation (``remaining -= rate * elapsed`` does not distribute over a
split of ``elapsed``), so trajectories agree with the reference model only
to rounding, not bit-for-bit.  The lazy engine's own trajectory is pinned
byte-for-byte by the golden transport traces, and it is held to
summary-level equivalence with the reference — identical success flags,
message and round counts, dropped-by-cause accounting, latencies within 1e-6
relative — by hypothesis conformance properties over seeded random specs
including fault plans (``tests/simnet/test_shared_sched.py``) and, at the
flow-scheduler level, by the stateful comparison in
``tests/simnet/test_flow_scheduler_reference.py``.
"""

from __future__ import annotations

import heapq
import operator
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.simnet.flows import (
    _COMPLETION_EPSILON_BYTES,
    _TIME_EPSILON,
    Flow,
    FlowScheduler,
)

__all__ = [
    "LazyRater",
    "FairLazyRater",
    "FifoLazyRater",
    "TcpLazyRater",
    "LazySharedLinkScheduler",
]


class LazyRater:
    """Incremental rate policy driven by the lazy shared scheduler.

    A rater answers two questions the scheduler asks on every event:
    *which flows' rates can have changed* (the touched set) and *what are
    these flows' rates now*.  It observes every flow arrival/departure, in
    bulk, so it can maintain whatever occupancy structures the policy needs;
    the scheduler owns the flow indexes (``by_src``/``by_dst``) and shares
    them.

    Contract: for every flow not in the touched set (of ``on_flows_added``,
    ``movers_among``, ``on_link_rate_changed``), the rate ``rates_of`` would
    report must be unchanged by the observed transition — that is what makes
    skipping the untouched flows exact rather than approximate.
    """

    def __init__(
        self,
        by_src: Dict[str, Dict[int, Flow]],
        by_dst: Dict[str, Dict[int, Flow]],
        up_cap: Dict[str, float],
        down_cap: Dict[str, float],
        src_weight: Dict[str, int],
        dst_weight: Dict[str, int],
        links,
    ) -> None:
        self._by_src = by_src
        self._by_dst = by_dst
        #: Current uplink/downlink capacity per *active* link side, maintained
        #: by the scheduler (seeded on activation, moved at breakpoint
        #: watchers and link replacements).  Reading these instead of
        #: ``BandwidthSchedule.rate_at`` keeps ``rates_of`` free of bisects on
        #: the hot path; the cached value equals ``rate_at(now)`` exactly,
        #: because every instant a schedule can change value has its own
        #: event.
        self._up_cap = up_cap
        self._down_cap = down_cap
        #: Weighted occupancy per active link side (scheduler-maintained; the
        #: plain flow count when every weight is 1).
        self._src_weight = src_weight
        self._dst_weight = dst_weight
        #: The network's live ``node name -> LinkConfig`` mapping, consulted
        #: for the ``aggregate`` endpoint flag (per-client capacity links).
        self._links = links

    def on_flows_added(self, flows: List[Flow]) -> Iterable[Flow]:
        """Observe a same-instant arrival burst (already in the indexes);
        return the touched flows, the burst's own among them."""
        raise NotImplementedError

    def on_flows_removed(self, flows: List[Flow]) -> Dict[int, Flow]:
        """Observe a same-instant departure batch; return its neighbourhood by
        id — every flow it can re-rate or, if due now, take along.

        The caller has already dropped every flow in ``flows`` from the
        scheduler indexes; the result may still name members of the batch
        itself, which the caller skips.
        """
        raise NotImplementedError

    def movers_among(self, survivors: Dict[int, Flow], departed: List[Flow]) -> Iterable[Flow]:
        """The touched set of a whole departure batch: the ``survivors`` of
        its neighbourhoods that losing ``departed`` can re-rate."""
        return survivors.values()

    def on_link_rate_changed(self, side: str, name: str) -> Iterable[Flow]:
        """Observe a capacity change on one link side; return touched flows."""
        raise NotImplementedError

    def rates_of(self, flows: List[Flow], now: float) -> List[float]:
        """Instantaneous rates, under current occupancy, of an already-ordered
        touched set.

        Bulk because a touched set is the union of a handful of links' flow
        sets: per-link state is resolved once per pass, not once per flow, in
        the hottest loop of a shared run.  The per-flow arithmetic (operation
        order included) is trajectory, not just reporting — the golden traces
        pin it.
        """
        raise NotImplementedError


class FairLazyRater(LazyRater):
    """Max-min style fair sharing, incrementally.

    ``rate = min(uplink/|src flows|, downlink/|dst flows|)`` is a pure local
    function of the flow's two links, so the scheduler's own indexes *are*
    the occupancy state.  A capacity change touches every flow on the link;
    an occupancy change only the flows the moved side can bind
    (:meth:`_movers`) — an uplink-bound broadcast burst re-rates itself, not
    the flows whose downlinks it joined.
    """

    def on_flows_added(self, flows: List[Flow]) -> Iterable[Flow]:
        return self._movers(flows, departed=False).values()

    def movers_among(self, survivors: Dict[int, Flow], departed: List[Flow]) -> Iterable[Flow]:
        return self._movers(departed, departed=True).values()

    def _movers(self, flows: List[Flow], departed: bool) -> Dict[int, Flow]:
        """Flows whose rate can have moved when ``flows`` joined (already in
        the indexes; themselves included — rate 0.0, no event yet) or left
        (already out of them) at one instant.

        A shared link side of capacity ``c`` whose weighted occupancy went
        ``before -> after`` offers every flow at least ``floor = c /
        max(before, after)`` at both ends, so a stored rate below the floor
        was not set by that side and still is not (proof: DESIGN-transport.md,
        "Share-aware touched sets").  Aggregate sides have no divisor and are
        not scanned; zero capacity makes the floor 0.0 and yields the bucket.
        """
        links = self._links
        gone_up: Dict[str, int] = {}
        gone_down: Dict[str, int] = {}
        for flow in flows:
            gone = flow.weight if departed else 0
            gone_up[flow.src] = gone_up.get(flow.src, 0) + gone
            gone_down[flow.dst] = gone_down.get(flow.dst, 0) + gone
        movers = {} if departed else {flow.flow_id: flow for flow in flows}
        for src, gone in gone_up.items():
            bucket = self._by_src.get(src)
            if bucket and not links[src].aggregate:
                floor = self._up_cap[src] / (self._src_weight[src] + gone)
                for flow in bucket.values():
                    if flow.rate >= floor:
                        movers[flow.flow_id] = flow
        for dst, gone in gone_down.items():
            bucket = self._by_dst.get(dst)
            if bucket and not links[dst].aggregate:
                floor = self._down_cap[dst] / (self._dst_weight[dst] + gone)
                for flow in bucket.values():
                    if flow.rate >= floor:
                        movers[flow.flow_id] = flow
        return movers

    def on_link_rate_changed(self, side: str, name: str) -> Iterable[Flow]:
        index = self._by_src if side == "uplink" else self._by_dst
        return list(index.get(name, {}).values())

    def rates_of(self, flows: List[Flow], now: float) -> List[float]:
        # Per-link capacity and occupancy are loop invariants of a rate
        # pass; resolve each link's (cap, divisor) once instead of per flow.
        # ``divisor`` is None for aggregate links (per-client capacity, no
        # sharing); a share is cap * weight / divisor, in that order.
        links = self._links
        up_cap = self._up_cap
        down_cap = self._down_cap
        src_weight = self._src_weight
        dst_weight = self._dst_weight
        up_state: Dict[str, Tuple[float, Optional[int]]] = {}
        down_state: Dict[str, Tuple[float, Optional[int]]] = {}
        rates = []
        append = rates.append
        for flow in flows:
            src = flow.src
            dst = flow.dst
            weight = flow.weight
            state = up_state.get(src)
            if state is None:
                state = up_state[src] = (
                    up_cap[src],
                    None if links[src].aggregate else src_weight[src],
                )
            cap, divisor = state
            up_share = cap * weight if divisor is None else cap * weight / divisor
            state = down_state.get(dst)
            if state is None:
                state = down_state[dst] = (
                    down_cap[dst],
                    None if links[dst].aggregate else dst_weight[dst],
                )
            cap, divisor = state
            down_share = cap * weight if divisor is None else cap * weight / divisor
            append(up_share if up_share <= down_share else down_share)
        return rates

    def on_flows_removed(self, flows: List[Flow]) -> Dict[int, Flow]:
        # Occupancy lives in the scheduler-maintained indexes, which the
        # caller already updated for the whole batch: the neighbourhood is the
        # departed flows' links' *remaining* members, read once per link
        # (not once per departure — O(B·link) for a B-way burst leaving one
        # uplink).
        touched: Dict[int, Flow] = {}
        seen_src: Set[str] = set()
        seen_dst: Set[str] = set()
        by_src = self._by_src
        by_dst = self._by_dst
        for flow in flows:
            src = flow.src
            if src not in seen_src:
                seen_src.add(src)
                bucket = by_src.get(src)
                if bucket:
                    touched.update(bucket)
            dst = flow.dst
            if dst not in seen_dst:
                seen_dst.add(dst)
                bucket = by_dst.get(dst)
                if bucket:
                    touched.update(bucket)
        return touched


class FifoLazyRater(LazyRater):
    """Strict arrival-order uplinks with fair downlink sharing, incrementally.

    The reference model re-rates the whole flow set per event because a
    finishing flow promotes the next queued flow, whose destination's
    serving count then changes one hop away.  Maintained incrementally the
    cascade is tiny: per uplink an arrival-order queue (a min-heap over the
    scheduler-stamped ``arrival_seq`` — explicit arrival order, so FIFO
    service cannot silently depend on how flow ids are assigned — with lazy
    deletion for mid-queue expiries), per downlink
    the count of flows currently being served into it, and per downlink the
    set of those eligible flows.  A queued flow's rate is exactly 0 and
    nothing a neighbour does can change that, so queued flows are never
    touched at all.
    """

    def __init__(self, by_src, by_dst, up_cap, down_cap, src_weight, dst_weight, links) -> None:
        super().__init__(by_src, by_dst, up_cap, down_cap, src_weight, dst_weight, links)
        #: Per-uplink arrival queue of (arrival_seq, Flow); the head is
        #: eligible.  Aggregate uplinks (per-client capacity) never queue —
        #: their flows go straight to serving and are tracked only in the
        #: serving sets.
        self._queues: Dict[str, List[Tuple[int, Flow]]] = {}
        #: Arrival seqs lazily deleted from their queue (expired while queued).
        self._gone: Set[int] = set()
        #: Current head (the served flow) per non-aggregate uplink.
        self._head: Dict[str, Flow] = {}
        #: Eligible flows per destination, keyed by flow id.
        self._serving_by_dst: Dict[str, Dict[int, Flow]] = {}
        #: Weighted size of each serving set (sum of weights; equals the
        #: bucket length when every weight is 1).
        self._serving_weight: Dict[str, int] = {}

    # -- transitions -------------------------------------------------------
    def on_flows_added(self, flows: List[Flow]) -> Iterable[Flow]:
        # One arrival at a time, in burst order: each one moves the queues
        # and serving sets the next one reads.
        touched: Dict[int, Flow] = {}
        for flow in flows:
            if self._links[flow.src].aggregate:
                sharers = self._serve(flow)
            else:
                queue = self._queues.setdefault(flow.src, [])
                heapq.heappush(queue, (flow.arrival_seq, flow))
                # Queued behind the served flow: its rate is 0 and nobody
                # else is affected.
                sharers = [flow] if flow.src in self._head else self._promote(flow.src)
            for other in sharers:
                touched[other.flow_id] = other
        return touched.values()

    def on_flows_removed(self, flows: List[Flow]) -> Dict[int, Flow]:
        # One departure at a time, in batch order: each one moves the
        # serving sets the next one reads.
        touched: Dict[int, Flow] = {}
        for flow in flows:
            if self._links[flow.src].aggregate:
                touched.update(self._unserve(flow))
            elif self._head.get(flow.src) is flow:
                touched.update(self._demote(flow))
                for other in self._promote(flow.src):
                    touched[other.flow_id] = other
            else:
                # Expired while queued: lazy-delete; its rate was already 0.
                self._gone.add(flow.arrival_seq)
        return touched

    def on_link_rate_changed(self, side: str, name: str) -> Iterable[Flow]:
        if side == "uplink":
            if self._links[name].aggregate:
                return list(self._by_src.get(name, {}).values())
            head = self._head.get(name)
            return [head] if head is not None else []
        return list(self._serving_by_dst.get(name, {}).values())

    def rates_of(self, flows: List[Flow], now: float) -> List[float]:
        links = self._links
        head = self._head
        rates = []
        for flow in flows:
            src_aggregate = links[flow.src].aggregate
            if not src_aggregate and head.get(flow.src) is not flow:
                rates.append(0.0)  # queued behind its uplink's served flow
                continue
            concurrency = flow.weight if src_aggregate else 1
            up_share = self._up_cap[flow.src] * concurrency
            down_cap = self._down_cap[flow.dst]
            down_share = (
                down_cap * concurrency
                if links[flow.dst].aggregate
                else down_cap * concurrency / self._serving_weight[flow.dst]
            )
            rates.append(min(up_share, down_share))
        return rates

    # -- machinery ---------------------------------------------------------
    def _concurrency(self, flow: Flow) -> int:
        """How many simultaneous transfers ``flow`` stands for.

        A served flow from a *queued* (non-aggregate) uplink moves one
        transfer at a time regardless of weight — serial service — so it
        occupies one downlink share and one client's receive capacity.
        Flows from aggregate uplinks are w parallel per-client transfers.
        """
        return flow.weight if self._links[flow.src].aggregate else 1

    def _serve(self, flow: Flow) -> List[Flow]:
        """Add ``flow`` to its destination's serving set; return touched flows."""
        bucket = self._serving_by_dst.setdefault(flow.dst, {})
        bucket[flow.flow_id] = flow
        self._serving_weight[flow.dst] = (
            self._serving_weight.get(flow.dst, 0) + self._concurrency(flow)
        )
        # The flow itself and every flow sharing its downlink re-split.
        return list(bucket.values())

    def _unserve(self, flow: Flow) -> Dict[int, Flow]:
        """Drop ``flow`` from its serving set; return the remaining sharers."""
        bucket = self._serving_by_dst[flow.dst]
        del bucket[flow.flow_id]
        if not bucket:
            del self._serving_by_dst[flow.dst]
            del self._serving_weight[flow.dst]
            return {}
        self._serving_weight[flow.dst] -= self._concurrency(flow)
        return dict(bucket)

    def _promote(self, src: str) -> List[Flow]:
        """Make the oldest queued flow of ``src`` the served one."""
        queue = self._queues.get(src)
        while queue:
            arrival_seq, flow = queue[0]
            if arrival_seq in self._gone:
                heapq.heappop(queue)
                self._gone.discard(arrival_seq)
                continue
            self._head[src] = flow
            return self._serve(flow)
        if queue is not None and not queue:
            del self._queues[src]
        return []

    def _demote(self, flow: Flow) -> Dict[int, Flow]:
        """Remove the served ``flow`` of its uplink; return touched flows."""
        del self._head[flow.src]
        queue = self._queues[flow.src]
        # The head is never lazy-deleted, so it sits at the heap root.
        assert queue[0][1] is flow, "fifo head out of sync"
        heapq.heappop(queue)
        return self._unserve(flow)


class TcpLazyRater(FairLazyRater):
    """Reno congestion control over lazy fair shares.

    The capacity side is exactly :class:`FairLazyRater` — occupancy-coupled
    equal splits with the same touched sets.  On top of it, each flow's rate
    is capped by its congestion window
    (:class:`repro.simnet.linkmodel.TcpLinkModel` owns the per-flow state),
    and the rater keeps one pending simulator event per flow at the flow's
    next *ack tick*.  A tick advances only that flow's congestion state and
    re-aims only that flow: a window change never moves a neighbour's fair
    share, so the fair rater's touched-set contract carries over unchanged.

    Ticks fire once per estimated RTT, and the queue-delay RTT sample
    inflates ``estRTT`` as the window grows — so per-flow tick frequency is
    self-limiting (roughly ``sqrt`` of transfer progress); the per-message
    tick count is pinned in ``tests/simnet/test_flow_waves.py``.

    Unlike fair/fifo, tcp makes no cross-engine trajectory claim: the lazy
    engine advances windows at exact tick instants and the vector engine
    (:class:`repro.simnet.vector_sched._TcpVectorPolicy`) advances whole due
    cohorts per wake — so each engine is pinned by its own golden trace.
    The Reno state machine itself lives in one place:
    :meth:`repro.simnet.linkmodel.TcpLinkModel.advance_flow`.
    """

    def __init__(self, by_src, by_dst, up_cap, down_cap, src_weight, dst_weight, links) -> None:
        super().__init__(by_src, by_dst, up_cap, down_cap, src_weight, dst_weight, links)
        self._scheduler: Optional["LazySharedLinkScheduler"] = None
        self._model = None
        #: flow_id -> pending ack-tick event.
        self._ticks: Dict[int, object] = {}

    def bind_scheduler(self, scheduler: "LazySharedLinkScheduler") -> None:
        """Late wiring: the scheduler (and its model/simulator) the ticks drive."""
        self._scheduler = scheduler
        self._model = scheduler.model

    # -- transitions -------------------------------------------------------
    def on_flows_added(self, flows: List[Flow]) -> Iterable[Flow]:
        now = self._scheduler.simulator.now
        for flow in flows:
            self._arm_tick(flow, self._model.state_of(flow, now))
        return super().on_flows_added(flows)

    def on_flows_removed(self, flows: List[Flow]) -> Dict[int, Flow]:
        # Per-flow teardown (tick cancel, window-state drop), then the fair
        # batch union for the capacity side.
        for flow in flows:
            handle = self._ticks.pop(flow.flow_id, None)
            if handle is not None:
                handle.cancel()
            self._model.drop_state(flow.flow_id)
        return FairLazyRater.on_flows_removed(self, flows)

    def rates_of(self, flows: List[Flow], now: float) -> List[float]:
        # Fair shares in bulk, then the per-flow window cap on top.
        shares = FairLazyRater.rates_of(self, flows, now)
        state_of = self._model.state_of
        return [
            min(share, state_of(flow, now).window_rate(flow.weight))
            for flow, share in zip(flows, shares)
        ]

    # -- ack ticks ---------------------------------------------------------
    def _arm_tick(self, flow: Flow, state) -> None:
        self._ticks[flow.flow_id] = self._scheduler.simulator.schedule(
            state.next_tick, self._on_tick, flow
        )

    def _on_tick(self, flow: Flow) -> None:
        self._scheduler._settle_admissions()
        now = self._scheduler.simulator.now
        state = self._model.state_of(flow, now)
        self._model.advance_flow(flow, state, now)
        self._arm_tick(flow, state)
        self._scheduler._apply_rate_changes([flow], now)


#: LinkModel name -> rater class; the lazy scheduler applies to models
#: listed here; engine selection refuses a shared model that is not.
LAZY_RATERS = {
    "fair": FairLazyRater,
    "fifo": FifoLazyRater,
    "tcp": TcpLazyRater,
}


class LazySharedLinkScheduler(FlowScheduler):
    """Heap-driven scheduler for occupancy-coupled link models.

    Structurally the shared-regime twin of
    :class:`~repro.simnet.flows.IndependentFlowScheduler`: every flow owns at
    most one pending event at ``min(completion estimate, deadline)``, plus
    one *watcher* event per active link side at its next bandwidth
    breakpoint.  What the independent scheduler never needs — reacting to
    neighbours — is delegated to the model's :class:`LazyRater`, which
    returns the (small) set of flows whose rate an event actually changed;
    only those are advanced and re-pushed.
    """

    def __init__(self, model, simulator, links, complete, expire) -> None:
        super().__init__(model, simulator, links, complete, expire)
        #: Current capacity per active link side (see LazyRater.__init__).
        self._up_cap: Dict[str, float] = {}
        self._down_cap: Dict[str, float] = {}
        rater_class = LAZY_RATERS[model.name]
        self._rater: LazyRater = rater_class(
            self._by_src,
            self._by_dst,
            self._up_cap,
            self._down_cap,
            self._src_weight,
            self._dst_weight,
            links,
        )
        #: (side, name) -> pending breakpoint watcher (None: constant link).
        self._watchers: Dict[Tuple[str, str], Optional[object]] = {}
        #: Flows indexed by ``start_flows`` but not rated yet: the open
        #: admission frontier, all of one instant (see ``_settle_admissions``).
        self._admitted: List[Flow] = []
        #: Rate passes made and flows handed to ``rates_of`` in them.
        self._rate_passes = 0
        self._flows_rated = 0
        #: Admission frontiers settled and flows rated for the first time in
        #: them.
        self._admission_frontiers = 0
        self._flows_admitted = 0
        # Raters with scheduler-driven dynamics (tcp ack ticks) get a back
        # reference once construction is complete.
        bind = getattr(self._rater, "bind_scheduler", None)
        if bind is not None:
            bind(self)

    # -- interface ---------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "rate_passes": self._rate_passes,
            "flows_rated": self._flows_rated,
            "admission_frontiers": self._admission_frontiers,
            "flows_admitted": self._flows_admitted,
        }

    def start_flows(self, flows: List[Flow], now: float) -> None:
        """Index a burst now; rate it with its instant's admission frontier.

        The burst joins the flow indexes, capacity caches and watchers at
        once, so occupancy is current for whoever looks, but its rates and
        events wait for :meth:`_settle_admissions`: the first admission of an
        instant schedules that as one event at ``now`` and later admissions
        only extend the list.  Every other scheduler transition settles
        pending admissions before its own work, so a frontier is a maximal
        run of same-instant ``start_flows`` calls with nothing between them —
        one ``start_flows`` of their concatenation.

        Rating the run once is rating it call by call, or flow by flow: rates
        after the last add depend only on final occupancy, and the
        intermediate rates a one-by-one loop assigns advance nothing (all
        adds share one instant, so every progress chip has zero width).
        What the loop costs is O(B²) flow touches for B same-instant sends
        onto one link — a broadcast burst, a wave tick's cohorts fetching
        from one mirror — and an event aimed too early for every flow rated
        against a half-filled link.  What differs is event bookkeeping (heap
        serial consumption, hence same-instant tie-break order against
        unrelated events); ``tests/simnet/test_admission_frontier.py`` and
        ``tests/simnet/test_batch_dispatch.py`` hold run summaries equal
        across the three.
        """
        if not self._admitted:
            self.simulator.schedule(now, self._settle_admissions)
        self._admitted.extend(flows)
        for flow in flows:
            flow.last_update = now
            self._add(flow)
            if flow.src not in self._up_cap:
                self._up_cap[flow.src] = self._links[flow.src].uplink.rate_at(now)
                self._arm_watcher("uplink", flow.src, now)
            if flow.dst not in self._down_cap:
                self._down_cap[flow.dst] = self._links[flow.dst].downlink.rate_at(now)
                self._arm_watcher("downlink", flow.dst, now)

    def _settle_admissions(self) -> None:
        """Rate the open admission frontier, if any, in one pass.

        Its own event and the first statement of every other transition
        (``_on_flow_event``, ``_on_link_event``, ``on_link_replaced``, a tcp
        ack tick): whichever comes first finds the flows.  A frontier event
        overtaken that way finds nothing, or what was admitted since — still
        at its instant, since it fires before the clock can move.
        """
        flows = self._admitted
        if flows:
            self._admitted = []
            self._admission_frontiers += 1
            self._flows_admitted += len(flows)
            self._apply_rate_changes(self._rater.on_flows_added(flows), self.simulator.now)

    def on_link_replaced(self, name: str, now: float) -> None:
        self._settle_admissions()
        # The replaced schedule applies immediately: drop both watchers (they
        # track the old schedule's breakpoints), refresh the capacity caches,
        # re-rate every flow on the link, and re-arm watchers against the new
        # schedule.
        for side, cap, index in (
            ("uplink", self._up_cap, self._by_src),
            ("downlink", self._down_cap, self._by_dst),
        ):
            self._drop_watcher(side, name)
            if name in index:
                cap[name] = getattr(self._links[name], side).rate_at(now)
                self._arm_watcher(side, name, now)
        touched: Dict[int, Flow] = dict(self._by_src.get(name, {}))
        touched.update(self._by_dst.get(name, {}))
        self._apply_rate_changes(list(touched.values()), now)

    # -- rate maintenance --------------------------------------------------
    def _apply_rate_changes(self, touched: Iterable[Flow], now: float) -> None:
        """Advance exactly the flows whose rate moved; re-aim their events.

        Iteration is in flow-id order so that same-instant reschedules (and
        therefore event sequence numbers) are independent of which link
        structure enumerated the touched set.
        """
        flows = sorted(touched, key=_flow_id_of)
        self._rate_passes += 1
        self._flows_rated += len(flows)
        rates = self._rater.rates_of(flows, now)
        for flow, new_rate in zip(flows, rates):
            if new_rate == flow.rate and flow.pending is not None:
                continue
            # Chip progress under the old rate before switching: ``remaining``
            # integrates a piecewise-constant rate, so each rate change is a
            # mandatory chip boundary (everything between them is one multiply).
            # This is _advance inlined — the hottest loop in a shared run
            # makes millions of these chips, and the method-call overhead is
            # measurable; keep the two in sync.
            elapsed = now - flow.last_update
            if elapsed > 0 and flow.rate > 0:
                flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
            flow.last_update = now
            flow.rate = new_rate
            self._aim(flow, now)

    def _aim(self, flow: Flow, now: float) -> None:
        """Keep ``flow``'s pending event unless its target moved *earlier*.

        A pending event that is now too early is harmless — it fires, finds
        the flow incomplete, and re-aims — so rate *drops* (a later arrival
        diluting the flows already on its link) cost no heap traffic at all.
        Only a target that moved earlier than the pending event forces a
        cancel + re-push, and stale entries are skipped/compacted by the
        engine.  Same-instant arrivals do not dilute each other this way: an
        admission frontier aims each of its flows once, at final occupancy.
        """
        candidates = []
        if flow.rate > 0:
            candidates.append(now + flow.remaining / flow.rate)
        elif flow.remaining <= _COMPLETION_EPSILON_BYTES:
            # Re-rated to zero at the very instant it finished (an outage or
            # a breakpoint landing on the completion): the transfer is done,
            # so it settles now instead of starving with nothing left to move.
            candidates.append(now)
        if flow.deadline is not None:
            candidates.append(flow.deadline)
        if not candidates:
            # Starved with no deadline: the link watcher revives it if the
            # capacity ever comes back; until then there is nothing to wait
            # for.
            if flow.pending is not None:
                flow.pending.cancel()
                flow.pending = None
            return
        target = min(candidates)
        if target < now:
            target = now
        if flow.pending is not None:
            if flow.pending.time <= target:
                return
            flow.pending.cancel()
        flow.pending = self.simulator.schedule(target, self._on_flow_event, flow)

    def _advance(self, flow: Flow, now: float) -> None:
        # Inlined in _apply_rate_changes (hot path) — keep the two in sync.
        elapsed = now - flow.last_update
        if elapsed > 0 and flow.rate > 0:
            flow.remaining = max(0.0, flow.remaining - flow.rate * elapsed)
        flow.last_update = now

    # -- flow events -------------------------------------------------------
    def _on_flow_event(self, flow: Flow) -> None:
        # Before the claim is dropped: the settle may re-rate this very flow,
        # and ``_aim`` must still see the firing event as its pending one —
        # or it pushes a fresh event that outlives a flow finished below.
        self._settle_admissions()
        flow.pending = None
        now = self.simulator.now
        self._advance(flow, now)
        if self._is_complete(flow, now):
            self._finish_batch(flow, now)
            return
        if flow.deadline is not None and now >= flow.deadline - _TIME_EPSILON:
            self._finish_expired(flow, now)
            return
        # Fired early — the rate dropped since this event was pushed, or the
        # residual was too small to predict exactly (float rounding).  Re-aim
        # at the current estimate; `_is_complete`'s sub-ulp test guarantees
        # this terminates instead of spinning at `now`.
        self._aim(flow, now)

    def _finish_batch(self, trigger: Flow, now: float) -> None:
        """Finish ``trigger`` and, transitively, every same-instant completer.

        A symmetric broadcast wave finishes all at once: flows share equal
        splits, so their completion events aim at bit-identical instants —
        at full fan-in that is every in-flight flow in the system.  Finishing
        them one event at a time re-rates each departure's whole link
        neighbourhood — O(N³) flow touches per wave at N authorities, the
        dominant cost of the lazy engine at scale.  Instead, the first
        completion to fire claims the wave: departures expose their touched
        neighbours, neighbours whose pending event is also due *now* and
        whose transfer is done join the batch (their events are cancelled),
        and the survivors are rated once at the end against final occupancy.

        Occupancy-equivalent to finishing them one event at a time — every
        intermediate rate that would assign lives for zero width at ``now``
        — with completion callbacks firing after the whole neighbourhood is
        consistent, in discovery order.  Peers whose aim differs even by an
        ulp simply fire on their own; the batch is an optimisation, never a
        correctness requirement.
        """
        rater = self._rater
        live = self._flows
        batch = [trigger]
        frontier = batch
        survivors: Dict[int, Flow] = {}
        while frontier:
            for flow in frontier:
                self._remove(flow)
            touched = rater.on_flows_removed(frontier)
            next_frontier: List[Flow] = []
            for other in touched.values():
                if other.flow_id not in live:
                    continue
                pending = other.pending
                if pending is not None and pending.time == now:
                    self._advance(other, now)
                    if self._is_complete(other, now):
                        pending.cancel()
                        other.pending = None
                        next_frontier.append(other)
                        survivors.pop(other.flow_id, None)
                        continue
                survivors[other.flow_id] = other
            frontier = next_frontier
            batch.extend(next_frontier)
        self._apply_rate_changes(rater.movers_among(survivors, batch), now)
        for flow in batch:
            if flow.src not in self._by_src:
                self._up_cap.pop(flow.src, None)
                self._drop_watcher("uplink", flow.src)
            if flow.dst not in self._by_dst:
                self._down_cap.pop(flow.dst, None)
                self._drop_watcher("downlink", flow.dst)
        # Callbacks fire last, once the neighbourhood is consistent, so
        # protocol code reacting to a delivery observes final rates.
        for flow in batch:
            self._clamp_residual(flow)
            self._complete(flow)

    def _finish_expired(self, flow: Flow, now: float) -> None:
        self._remove(flow)
        touched = self._rater.on_flows_removed([flow])
        self._apply_rate_changes(self._rater.movers_among(touched, [flow]), now)
        if flow.src not in self._by_src:
            del self._up_cap[flow.src]
            self._drop_watcher("uplink", flow.src)
        if flow.dst not in self._by_dst:
            del self._down_cap[flow.dst]
            self._drop_watcher("downlink", flow.dst)
        # The callback fires after the neighbourhood is consistent, so
        # protocol code reacting to a timeout (e.g. re-sending) observes
        # final rates.
        self._expire(flow)

    # -- breakpoint watchers -----------------------------------------------
    def _arm_watcher(self, side: str, name: str, now: float) -> None:
        """Schedule the next breakpoint event for an (active) link side.

        The caller guarantees the slot is free.  Constant-from-here links
        store ``None`` so busy links do not re-query their schedule on every
        flow arrival; replaced links drop the marker in
        :meth:`on_link_replaced`.
        """
        change = getattr(self._links[name], side).next_change_after(now)
        if change is None:
            self._watchers[(side, name)] = None
            return
        self._watchers[(side, name)] = self.simulator.schedule(
            change, self._on_link_event, side, name
        )

    def _drop_watcher(self, side: str, name: str) -> None:
        handle = self._watchers.pop((side, name), None)
        if handle is not None:
            handle.cancel()

    def _on_link_event(self, side: str, name: str) -> None:
        self._settle_admissions()
        del self._watchers[(side, name)]
        now = self.simulator.now
        cap, index = (
            (self._up_cap, self._by_src)
            if side == "uplink"
            else (self._down_cap, self._by_dst)
        )
        if name not in index:  # pragma: no cover - idle links drop watchers
            cap.pop(name, None)
            return
        cap[name] = getattr(self._links[name], side).rate_at(now)
        self._arm_watcher(side, name, now)
        touched = self._rater.on_link_rate_changed(side, name)
        self._apply_rate_changes(touched, now)


#: Sort key for deterministic rate-pass ordering; C-level attrgetter because
#: it runs once per touched flow in the hottest loop of a shared run.
_flow_id_of = operator.attrgetter("flow_id")
