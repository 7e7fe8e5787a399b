"""Pluggable link models: how concurrent flows share link capacity.

A :class:`LinkModel` answers exactly one question — *what instantaneous rate
does each flow get, given who else is on its links?* — and nothing else.
Flow lifecycle (starting, finishing, timing out, rescheduling completions)
belongs to the flow schedulers in :mod:`repro.simnet.flows`; topology and
fault seams belong to :class:`~repro.simnet.network.SimNetwork`.  Keeping the
rate policy behind this seam is what lets one experiment swap the transport
without touching either neighbour layer.

Four models ship in the registry:

``"fair"``
    Max-min style fair sharing: all flows on an uplink (or downlink) split
    its capacity equally and a flow's rate is the minimum of its two shares.
    Approximates many parallel TCP connections — how Tor authorities actually
    push and serve votes.  Rates couple through link occupancy, but only
    through the *occupancy of a flow's own two links*, so a flow event needs
    to re-rate just the flows sharing the touched uplink/downlink sets.

``"fifo"``
    Each uplink serves its flows strictly in arrival order at full rate; the
    downlink is shared fairly among the flows currently being served into
    it.  An ablation of the link model.  Eligibility changes cascade one hop
    (a finishing flow promotes the next queued flow, changing its downlink's
    occupancy); :class:`FifoLinkModel` maintains the arrival queues and
    serving counts incrementally and touches only the promoted flow and the
    two affected downlinks.

``"tcp"``
    Per-flow Reno-style congestion control on top of weighted fair link
    shares: each flow carries a congestion window (slow start → congestion
    avoidance), EWMA estRTT/devRTT derived from propagation latency plus
    queue-induced delay, an RTO with exponential backoff, and a duplicate-ack
    counter driving fast retransmit/fast recovery (a loss with acks still
    flowing halves the window instead of collapsing it to one segment; only
    a true timeout restarts slow start).  Its rate is ``min(fair share,
    window / estRTT)``, so on loss-free static links it converges to exactly
    the ``fair`` share after slow-start ramp-up — while drop-typed faults
    (via :meth:`repro.faults.injector.FaultInjector.tcp_loss_event`)
    trigger multiplicative decrease, making congestion collapse under a
    DDoS flood representable.  See ``DESIGN-transport.md``.

``"latency-only"``
    No sharing at all: every flow moves at the full ``min(uplink, downlink)``
    capacity regardless of concurrency.  Flows never interact, which lets
    the scheduler plan each flow's completion when it is admitted instead of
    any global recompute — the model to reach node counts far beyond paper scale
    (``perfbench``'s ``event_floor`` workload runs it at 200 authorities).

A model is one class, registered by name via :func:`register_link_model`;
the name travels on :class:`~repro.runtime.spec.RunSpec` (field
``transport``) and therefore joins the spec hash and result-cache key.  An
independent model implements :meth:`LinkModel.flow_rate`.  A shared model
implements the four bulk hooks the lazy scheduler
(:class:`~repro.simnet.shared_sched.LazySharedLinkScheduler`) drives —
``on_flows_added``, ``on_flows_removed``, ``on_link_rate_changed``,
``rates_of`` — over the scheduler's live indexes,
which :meth:`LinkModel.bind` hands it once.  :data:`LINK_MODELS` is the only
registry the lazy engine consults; the vector engine, built only on an
explicit request, runs the models in
:data:`repro.simnet.vector_sched.VECTOR_POLICIES` and refuses the rest.  The
from-scratch statement of the same arithmetic is the test-side reference
model, ``tests/simnet/reference_sched.py``.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Type

from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.flows import Flow
    from repro.simnet.network import LinkConfig

#: The scheduler's claim on a neighbour due now (``LinkModel.on_flows_removed``).
Claim = Optional[Callable[["Flow"], bool]]


class LinkModel:
    """Rate policy for concurrent flows over shared links.

    Two transport-wide conventions every model honours:

    * **Flow weight.**  A flow of weight ``w`` (see
      :class:`~repro.simnet.flows.Flow`) occupies ``w`` shares of every
      shared link and is entitled to ``w`` units of rate — the aggregate
      stand-in for ``w`` identical unit transfers.  Link occupancies are
      therefore *weighted* (sums of flow weights, integer-valued), which
      collapse to plain flow counts when every weight is 1 — the arithmetic
      is bit-identical in that case.
    * **Aggregate endpoints.**  A link flagged
      :attr:`~repro.simnet.network.LinkConfig.aggregate` carries *per-client*
      capacity: it stands in for ``N`` independent physical access links
      (one per client of a cohort), so its flows never share it — each
      weight unit gets the full scheduled rate.  Only the cohort endpoints of
      the consensus-distribution layer set this; ordinary nodes share links
      exactly as before.

    Class attributes
    ----------------
    name:
        Registry name; what ``RunSpec.transport`` carries.
    shared:
        True when flow rates couple through link occupancy, so flow events
        require re-rating neighbours (a shared-regime scheduler).  False when
        a flow's rate depends on its own two links only (the independent
        scheduler: each flow planned at admission, no recompute).
    """

    name: str = ""
    shared: bool = True

    def attach(self, network) -> None:
        """Bind the model to its owning :class:`~repro.simnet.network.SimNetwork`.

        Called once at network construction.  Most models are pure functions
        of flows and links and ignore it; stateful models (``tcp``) use it to
        reach propagation latencies and the fault injector.
        """

    # -- independent-model interface (used by IndependentFlowScheduler) -----
    def flow_rate(self, flow: "Flow", links: Mapping[str, "LinkConfig"], now: float) -> float:
        """Instantaneous rate of one flow, independent of all other flows."""
        raise NotImplementedError

    # -- shared-model interface (used by LazySharedLinkScheduler) -----------
    #
    # A shared model answers two questions the scheduler asks on every event:
    # *which flows' rates can have changed* (the touched set) and *what are
    # these flows' rates now*.  It observes every flow arrival/departure, in
    # bulk, so it can maintain whatever occupancy structures the policy needs.
    #
    # Contract: for every flow not in the touched set (of ``on_flows_added``,
    # ``on_flows_removed``, ``on_link_rate_changed``), the rate ``rates_of``
    # would report must be unchanged by the observed transition — that is what
    # makes skipping the untouched flows exact rather than approximate.
    #
    # Optional wake pair, for per-flow state on its own clock (tcp's ticks):
    # the flow's one event is aimed no later than ``next_wake(flow)``, where
    # ``wake(flow, now)`` moves that state and the flow alone is re-rated —
    # so a wake may move only its flow's rate and its own ``next_wake``.
    next_wake = None
    wake = None

    #: Neighbours visited by departure walks (``_visit``).
    departure_scans = 0

    def bind(self, scheduler) -> None:
        """Take the lazy scheduler's live indexes; called once, at its
        construction.  The scheduler owns and maintains all of them."""
        #: Drops a departing flow from those indexes (``FlowScheduler._remove``).
        self._remove: Callable[[Flow], None] = scheduler._remove
        self._by_src: Dict[str, Dict[int, Flow]] = scheduler._by_src
        self._by_dst: Dict[str, Dict[int, Flow]] = scheduler._by_dst
        #: Current uplink/downlink capacity per *active* link side (seeded on
        #: activation, moved at breakpoint watchers and link replacements).
        #: Reading these instead of ``BandwidthSchedule.rate_at`` keeps
        #: ``rates_of`` free of bisects on the hot path; the cached value
        #: equals ``rate_at(now)`` exactly, because every instant a schedule
        #: can change value has its own event.
        self._up_cap: Dict[str, float] = scheduler._up_cap
        self._down_cap: Dict[str, float] = scheduler._down_cap
        #: Weighted occupancy per active link side (the plain flow count when
        #: every weight is 1).
        self._src_weight: Dict[str, int] = scheduler._src_weight
        self._dst_weight: Dict[str, int] = scheduler._dst_weight
        #: The network's live ``node name -> LinkConfig`` mapping, consulted
        #: for the ``aggregate`` endpoint flag (per-client capacity links).
        self._links: Mapping[str, LinkConfig] = scheduler._links

    def on_flows_added(self, flows: List[Flow]) -> Iterable[Flow]:
        """Observe a same-instant arrival burst (already in the indexes);
        return the touched flows, the burst's own among them."""
        raise NotImplementedError

    def on_flows_removed(self, batch: List[Flow], now: float, claim: Claim = None) -> Iterable[Flow]:
        """Walk a same-instant departure batch; return its touched set.

        ``batch`` holds departing flows still in the scheduler indexes, and
        the model walks it as a queue: each flow leaves the indexes
        (``_remove``) when its turn comes, and the neighbours its departure
        can re-rate are visited.  A neighbour whose pending event is due at
        ``now`` is offered to ``claim``, which advances it and says whether
        it is done; the model appends what ``claim`` takes to ``batch``, to
        depart in its turn.  Without ``claim`` (an expiry) nothing joins.
        The touched set is the whole batch's, as one transition, and holds
        no member of the batch.
        """
        raise NotImplementedError

    def _visit(
        self, neighbours: Dict[int, Flow], floor: Optional[float], now: float, claim: Claim,
        batch: List[Flow], movers: Dict[int, Flow],
    ) -> None:
        """A departure walk's visit: each of ``neighbours`` due ``now`` goes to
        ``claim`` and, taken, joins ``batch``; any other with ``rate >= floor``
        (``floor`` None: none) joins ``movers``, until its own turn if it is a
        batch member waiting for one."""
        self.departure_scans += len(neighbours)
        for other in neighbours.values():
            pending = other.pending
            if pending is not None and pending.time == now and claim is not None and claim(other):
                batch.append(other)
            elif floor is not None and other.rate >= floor:
                movers[other.flow_id] = other

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


class FairShareLinkModel(LinkModel):
    """Equal split per link; a flow gets the minimum of its two shares.

    ``rate = min(uplink/|src flows|, downlink/|dst flows|)`` is a pure local
    function of the flow's two links, so the scheduler's own indexes *are*
    the occupancy state.  A capacity change touches every flow on the link;
    an occupancy change only the flows the moved side can bind: on a shared
    side of capacity ``c`` whose weighted occupancy went ``before -> after``,
    a stored rate below ``floor = c / max(before, after)`` was not set by
    that side and still is not (DESIGN-transport.md, "Share-aware touched
    sets") — an uplink-bound broadcast burst re-rates itself, not the flows
    whose downlinks it joined.  Aggregate sides have no divisor and move
    nobody; zero capacity makes the floor 0.0 and moves every flow.
    """

    name = "fair"
    shared = True

    def on_flows_added(self, flows: List[Flow]) -> Iterable[Flow]:
        # Floors ``c / after``; the burst, unrated yet (rate 0.0), moves itself.
        links = self._links
        movers = {flow.flow_id: flow for flow in flows}
        for names, index, cap, occupancy in (
            (dict.fromkeys(flow.src for flow in flows), self._by_src, self._up_cap, self._src_weight),
            (dict.fromkeys(flow.dst for flow in flows), self._by_dst, self._down_cap, self._dst_weight),
        ):
            for name in names:
                if not links[name].aggregate:
                    floor = cap[name] / occupancy[name]
                    for flow in index[name].values():
                        if flow.rate >= floor:
                            movers[flow.flow_id] = flow
        return movers.values()

    def on_flows_removed(self, batch: List[Flow], now: float, claim: Claim = None) -> Iterable[Flow]:
        # One visit per link side of the batch, uplink before downlink, when
        # the queue first reaches it: only the flow at hand has left the side
        # by then (an earlier departure from it would have reached it first),
        # so occupancy plus its weight is ``before`` — the floor of the whole
        # batch as one transition.  A later visit would claim nothing:
        # claimability cannot change inside one batch.
        links = self._links
        seen_src: Set[str] = set()
        seen_dst: Set[str] = set()
        movers: Dict[int, Flow] = {}
        for flow in batch:  # a queue: ``_visit`` appends the claimed
            self._remove(flow)
            movers.pop(flow.flow_id, None)
            for name, seen, index, cap, occupancy in (
                (flow.src, seen_src, self._by_src, self._up_cap, self._src_weight),
                (flow.dst, seen_dst, self._by_dst, self._down_cap, self._dst_weight),
            ):
                if name in seen:
                    continue
                seen.add(name)
                bucket = index.get(name)
                if bucket:
                    floor = None if links[name].aggregate else cap[name] / (occupancy[name] + flow.weight)
                    self._visit(bucket, floor, now, claim, batch, movers)
        return movers.values()

    def on_link_rate_changed(self, side: str, name: str) -> Iterable[Flow]:
        index = self._by_src if side == "uplink" else self._by_dst
        return list(index.get(name, {}).values())

    def rates_of(self, flows: List[Flow], now: float) -> List[float]:
        return self._shares(flows, None)

    def _shares(self, flows: List[Flow], windows: Optional[Dict[int, "_TcpFlowState"]]) -> List[float]:
        """Fair shares, each capped in the same loop by its window rate when
        ``windows`` (tcp's congestion states by flow id) is given."""
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
            share = up_share if up_share <= down_share else down_share
            if windows is not None:
                congestion = windows[flow.flow_id]
                window = weight * congestion.cwnd * TCP_MSS_BYTES / congestion.srtt
                share = share if share <= window else window
            append(share)
        return rates


class FifoLinkModel(LinkModel):
    """Strict arrival-order uplinks; fair sharing on the downlink.

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

    name = "fifo"
    shared = True

    def __init__(self) -> None:
        #: Per-uplink arrival queue of (arrival_seq, Flow); the head is
        #: eligible.  Aggregate uplinks (per-client capacity) never queue —
        #: their flows go straight to serving and are tracked only in the
        #: serving sets.
        self._queues: Dict[str, List[Tuple[int, "Flow"]]] = {}
        #: Arrival seqs lazily deleted from their queue (expired while queued).
        self._gone: Set[int] = set()
        #: Current head (the served flow) per non-aggregate uplink.
        self._head: Dict[str, "Flow"] = {}
        #: Eligible flows per destination, keyed by flow id.
        self._serving_by_dst: Dict[str, Dict[int, "Flow"]] = {}
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

    def on_flows_removed(self, batch: List[Flow], now: float, claim: Claim = None) -> Iterable[Flow]:
        # One departure at a time, in batch order: each one moves the
        # serving sets the next one reads, and what it touched is visited
        # before the next one departs — all of it a mover (floor 0.0).
        movers: Dict[int, Flow] = {}
        for flow in batch:  # a queue: ``_visit`` appends the claimed
            self._remove(flow)
            movers.pop(flow.flow_id, None)
            if self._links[flow.src].aggregate:
                touched = self._unserve(flow)
            elif self._head.get(flow.src) is flow:
                touched = self._demote(flow)
                for other in self._promote(flow.src):
                    touched[other.flow_id] = other
            else:
                # Expired while queued: lazy-delete; its rate was already 0.
                self._gone.add(flow.arrival_seq)
                continue
            self._visit(touched, 0.0, now, claim, batch, movers)
        return movers.values()

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


#: TCP segment size used to translate congestion windows into rates (bytes).
TCP_MSS_BYTES = 1500.0

#: Initial congestion window / slow-start threshold, in MSS units.
TCP_INITIAL_CWND = 1.0
TCP_INITIAL_SSTHRESH = 64.0

#: Duplicate acks that trigger fast retransmit (RFC 5681 §3.2).
TCP_DUPACK_THRESHOLD = 3

#: Floor on the modelled round-trip time (zero-latency links still ack).
TCP_MIN_RTT_S = 1e-3

#: Round-trip time assumed when the model runs detached from a network
#: (schedulers built directly in tests): twice the default 50 ms propagation
#: latency.
TCP_DEFAULT_RTT_S = 0.1

#: RTO clamp, RFC 6298-style.
TCP_MIN_RTO_S = 0.2
TCP_MAX_RTO_S = 60.0

#: Slack when comparing ack-tick instants against virtual time (matches the
#: flow layer's time epsilon; duplicated to keep this module import-free of
#: :mod:`repro.simnet.flows`, which imports us).
_TICK_EPSILON = 1e-9


class _TcpFlowState:
    """Per-flow Reno congestion state (cwnd and friends, in MSS units)."""

    __slots__ = ("cwnd", "ssthresh", "srtt", "devrtt", "rto", "base_rtt", "next_tick", "dupacks")

    def __init__(self, base_rtt: float, now: float) -> None:
        self.cwnd = TCP_INITIAL_CWND
        self.ssthresh = TCP_INITIAL_SSTHRESH
        self.base_rtt = base_rtt
        self.srtt = base_rtt
        self.devrtt = base_rtt / 2.0
        self.rto = min(max(self.srtt + 4.0 * self.devrtt, TCP_MIN_RTO_S), TCP_MAX_RTO_S)
        self.next_tick = now + self.srtt
        self.dupacks = 0

    def window_rate(self, weight: int) -> float:
        """The window-limited send rate: ``weight × cwnd × MSS / estRTT``."""
        return weight * self.cwnd * TCP_MSS_BYTES / self.srtt


class TcpLinkModel(FairShareLinkModel):
    """Reno-style congestion control over weighted fair link shares.

    Each flow stands in for ``weight`` identical TCP connections sharing one
    congestion state.  The capacity side is exactly
    :class:`FairShareLinkModel` — occupancy-coupled equal splits with the
    same touched sets — capped by the window-limited rate ``cwnd × MSS /
    estRTT``; the congestion state advances at *ack ticks* (one per
    estimated RTT).  On the lazy engine the ticks are the model's wakes
    (:meth:`next_wake` / :meth:`wake`), riding the flow's one pending event;
    a due tick advances only that flow's congestion state and re-rates only
    that flow: a window change never moves a neighbour's fair share, so the
    fair touched-set contract carries over unchanged, and a share rise whose
    completion lands past the next tick costs no heap work.  Tick frequency is
    self-limiting — the queue-delay RTT sample inflates ``estRTT`` as the
    window grows (roughly ``sqrt`` of transfer progress); the per-message
    tick count is pinned in ``tests/simnet/test_flow_waves.py``.  The vector
    engine (:class:`repro.simnet.vector_sched._TcpVectorPolicy`) instead
    advances whole due cohorts per wake scan, so tcp makes no cross-engine
    trajectory claim: each engine is pinned by its own golden trace.

    At each tick the flow's granted rate since the previous tick plays the
    role of the ack stream:

    * granted rate zero (starved link, no acks at all) → retransmission
      timeout: ``ssthresh = cwnd/2``, ``cwnd = 1``, RTO doubled, next tick
      one RTO out;
    * a loss event from the fault injector
      (:meth:`~repro.faults.injector.FaultInjector.tcp_loss_event`, one
      Bernoulli draw per window segment) while acks still flow → the
      surviving segments of the round raise duplicate acks; at three or
      more, *fast retransmit / fast recovery* (Reno): ``ssthresh = cwnd/2``,
      ``cwnd = ssthresh`` — halving, not slow-start restart — with the ack
      clock intact (next tick one estRTT out, RTO untouched).  A window too
      small to raise three duplicate acks falls back to the timeout path,
      as real Reno does;
    * otherwise an RTT sample ``max(base_rtt, cwnd × MSS / per-connection
      rate)`` — propagation plus self-induced queueing delay — feeds the
      EWMA estimators (gains 1/8 and 1/4, RFC 6298) and the window opens:
      doubling per RTT in slow start, +1 MSS per RTT in congestion
      avoidance.

    On loss-free static links the queue-delay sample makes ``estRTT`` track
    ``cwnd × MSS / share`` once the window exceeds the share, so the
    window-limited rate converges to the fair share from above and the
    assigned rate ``min(share, window rate)`` converges to exactly the
    ``fair`` model's rate — the conformance property pinned in
    ``tests/simnet/test_tcp_transport.py``.
    """

    name = "tcp"
    shared = True

    def __init__(self) -> None:
        self._states: Dict[int, _TcpFlowState] = {}
        self._network = None

    # -- wiring -------------------------------------------------------------
    def attach(self, network) -> None:
        self._network = network

    def base_rtt(self, flow: "Flow") -> float:
        """The flow's loss-free round-trip floor: twice its propagation latency."""
        if self._network is None:
            return TCP_DEFAULT_RTT_S
        return max(TCP_MIN_RTT_S, 2.0 * self._network.latency(flow.src, flow.dst))

    def state_of(self, flow: "Flow", now: float) -> _TcpFlowState:
        """The flow's congestion state, created on first contact."""
        state = self._states.get(flow.flow_id)
        if state is None:
            state = self._states[flow.flow_id] = _TcpFlowState(self.base_rtt(flow), now)
        return state

    def drop_state(self, flow_id: int) -> None:
        """Forget a departed flow's congestion state."""
        self._states.pop(flow_id, None)

    # -- congestion machinery ----------------------------------------------
    @staticmethod
    def _timeout(state: _TcpFlowState, now: float) -> None:
        """Retransmission timeout: multiplicative decrease, window back to
        one segment, exponential RTO backoff (the Tahoe-era collapse, which
        Reno keeps for timeouts)."""
        state.ssthresh = max(state.cwnd / 2.0, 2.0)
        state.cwnd = TCP_INITIAL_CWND
        state.rto = min(state.rto * 2.0, TCP_MAX_RTO_S)
        state.dupacks = 0
        state.next_tick = now + state.rto

    def advance_flow(
        self,
        flow: "Flow",
        state: _TcpFlowState,
        now: float,
        granted: Optional[float] = None,
    ) -> None:
        """Process one ack tick: sample the RTT, grow or shrink the window.

        ``granted`` is the rate the transport actually assigned over the
        round (default: ``flow.rate``, which the scalar engines keep
        current; the vector engine passes its slot-array rate instead).
        This is the **one** Reno state machine — the lazy engine's wakes
        (:meth:`wake`), the vector engine's ``_TcpVectorPolicy`` and the
        test-side reference scheduler all drive transitions through this
        method, so they cannot drift apart.
        """
        if granted is None:
            granted = flow.rate
        lost = False
        injector = None if self._network is None else self._network.fault_injector
        if injector is not None:
            segments = max(1, int(state.cwnd))
            lost = injector.tcp_loss_event(flow.src, flow.dst, now, segments)
        if granted <= 0.0:
            # A starved link returns no acks at all: only the retransmit
            # timer can fire.
            self._timeout(state, now)
            return
        if lost:
            # Acks still flow, so every segment of the round that survived
            # the lost one raises a duplicate ack for it.
            state.dupacks += max(0, int(state.cwnd) - 1)
            if state.dupacks >= TCP_DUPACK_THRESHOLD:
                # Fast retransmit + fast recovery (Reno, RFC 5681 §3.2):
                # halve the window and stay in congestion avoidance — no
                # slow-start restart, no RTO backoff — and retransmit within
                # the ack clock (next tick one estRTT out, not one RTO).
                state.ssthresh = max(state.cwnd / 2.0, 2.0)
                state.cwnd = state.ssthresh
                state.dupacks = 0
                state.next_tick = now + state.srtt
                return
            # Too few segments in flight to raise three duplicate acks
            # (cwnd < 4): the lost segment can only recover by RTO, exactly
            # as in Tahoe.
            self._timeout(state, now)
            return
        state.dupacks = 0
        # Ack round: the RTT sample is propagation latency plus the queueing
        # delay of a full window draining at the per-connection granted rate.
        sample = max(state.base_rtt, state.cwnd * TCP_MSS_BYTES / (granted / flow.weight))
        error = sample - state.srtt
        state.devrtt += 0.25 * (abs(error) - state.devrtt)
        state.srtt += 0.125 * error
        state.rto = min(max(state.srtt + 4.0 * state.devrtt, TCP_MIN_RTO_S), TCP_MAX_RTO_S)
        if state.cwnd < state.ssthresh:
            state.cwnd = min(state.cwnd * 2.0, state.ssthresh)
        else:
            state.cwnd += 1.0
        state.next_tick = now + state.srtt

    # -- lazy-engine hooks: fair shares, window cap, one wake per tick --------
    def on_flows_added(self, flows: List[Flow]) -> Iterable[Flow]:
        # Unrated until now, so ``last_update`` is still the admission instant.
        for flow in flows:
            self.state_of(flow, flow.last_update)
        return super().on_flows_added(flows)

    def on_flows_removed(self, batch: List[Flow], now: float, claim: Claim = None) -> Iterable[Flow]:
        # Fair's walk reads no window; the batch's window states go after it.
        movers = super().on_flows_removed(batch, now, claim)
        for flow in batch:
            del self._states[flow.flow_id]
        return movers

    def rates_of(self, flows: List[Flow], now: float) -> List[float]:
        # Fair shares capped by the window rate, in one loop.
        return self._shares(flows, self._states)

    def next_wake(self, flow: Flow) -> float:
        return self._states[flow.flow_id].next_tick

    def wake(self, flow: Flow, now: float) -> None:
        self.advance_flow(flow, self._states[flow.flow_id], now)


class LatencyOnlyLinkModel(LinkModel):
    """Full link capacity for every flow; no bandwidth sharing at all."""

    name = "latency-only"
    shared = False

    def flow_rate(self, flow, links, now):
        # Every flow moves at full capacity; a weight-w flow stands in for w
        # unshared transfers, so it gets w times the per-transfer rate.
        return flow.weight * min(
            links[flow.src].uplink.rate_at(now),
            links[flow.dst].downlink.rate_at(now),
        )


#: The registry: transport name -> LinkModel class.
LINK_MODELS: Dict[str, Type[LinkModel]] = {}


def register_link_model(model_class: Type[LinkModel]) -> Type[LinkModel]:
    """Register ``model_class`` under its ``name`` (usable as a decorator)."""
    name = model_class.name
    if not name:
        raise ValidationError("link models must define a non-empty name")
    existing = LINK_MODELS.get(name)
    if existing is not None and existing is not model_class:
        raise ValidationError("link model name %r is already registered" % name)
    LINK_MODELS[name] = model_class
    return model_class


def link_model_names() -> Tuple[str, ...]:
    """Registered transport names, in registration order."""
    return tuple(LINK_MODELS)


def get_link_model(name: str) -> LinkModel:
    """Instantiate the registered model called ``name``."""
    try:
        model_class = LINK_MODELS[name]
    except KeyError:
        raise ValidationError(
            "unknown transport %r; expected one of %r" % (name, link_model_names())
        )
    return model_class()


for _model in (FairShareLinkModel, FifoLinkModel, TcpLinkModel, LatencyOnlyLinkModel):
    register_link_model(_model)
del _model
