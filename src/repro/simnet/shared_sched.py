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
  event at ``min(completion estimate, deadline, model wake)``; every link
  side with active flows owns one *watcher* event at its next bandwidth
  breakpoint.  An event a rate change made too early stays and re-aims when
  it fires; one that must come earlier moves in place (the engine's one-push
  ``Simulator.reschedule``), and the engine skips and compacts the entries
  moved away from like cancelled ones.
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
  that instant (``_finish_batch``) in one walk over the batch's link sides,
  which also collects the movers, rated once.

Per-event cost becomes O(touched flows × log F) instead of O(all flows):
the *touched* set is exactly the set whose instantaneous rate can have
changed.  Enumerating it, and rating it, is the link model's job — this
module holds the scheduler only.  The model is bound to the scheduler's live
indexes once (:meth:`~repro.simnet.linkmodel.LinkModel.bind`) and driven
through four bulk hooks (``on_flows_added``, ``on_flows_removed``,
``on_link_rate_changed``, ``rates_of``); what each shipped
model's touched set is (``fair``: the flows the moved link side can bind;
``fifo``: the promoted flow and its downlink's served flows; ``tcp``:
``fair``'s, plus the woken flow alone at each ack tick, the model's wake) is
stated on its class in :mod:`repro.simnet.linkmodel`.

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

import operator
from typing import Dict, Iterable, List, Optional, Tuple

from repro.simnet.flows import (
    _COMPLETION_EPSILON_BYTES,
    _TIME_EPSILON,
    Flow,
    FlowScheduler,
)

__all__ = ["LazySharedLinkScheduler"]


class LazySharedLinkScheduler(FlowScheduler):
    """Heap-driven scheduler for occupancy-coupled link models.

    Every flow owns at most one pending event at ``min(completion estimate,
    deadline, wake)``, plus one *watcher* event per active link side at its
    next bandwidth breakpoint — the steps
    :class:`~repro.simnet.flows.IndependentFlowScheduler` walks through at
    admission, which a shared model cannot, since a neighbour can move a
    flow's rate at any event.  Reacting to neighbours is delegated to the
    link model's bulk hooks
    (:class:`~repro.simnet.linkmodel.LinkModel`), which return the (small)
    set of flows whose rate an event actually changed; only those are
    advanced and re-aimed.
    """

    def __init__(self, model, simulator, links, complete, expire) -> None:
        super().__init__(model, simulator, links, complete, expire)
        #: Current capacity per active link side (see ``LinkModel.bind``).
        self._up_cap: Dict[str, float] = {}
        self._down_cap: Dict[str, float] = {}
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
        #: Flow events that fired at the model's wake, and its wake hooks.
        self._wakes = 0
        self._next_wake, self._wake = model.next_wake, model.wake
        model.bind(self)

    # -- interface ---------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        return {
            "rate_passes": self._rate_passes,
            "flows_rated": self._flows_rated,
            "admission_frontiers": self._admission_frontiers,
            "flows_admitted": self._flows_admitted,
            "wakes": self._wakes,
            "departure_scans": self.model.departure_scans,  # the model's walks
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
        (``_on_flow_event``, tcp ack ticks included, ``_on_link_event``,
        ``on_link_replaced``): whichever comes first finds the flows.  A
        frontier event overtaken that way finds nothing, or what was admitted
        since — still at its instant, since it fires before the clock can move.
        """
        flows = self._admitted
        if flows:
            self._admitted = []
            self._admission_frontiers += 1
            self._flows_admitted += len(flows)
            self._apply_rate_changes(self.model.on_flows_added(flows), self.simulator.now)

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
        rates = self.model.rates_of(flows, now)
        for flow, new_rate in zip(flows, rates):
            pending = flow.pending
            if new_rate != flow.rate:
                # Chip progress under the old rate before switching: each
                # rate change is a mandatory chip boundary (everything between
                # them is one multiply).  This is _advance inlined — the
                # hottest loop in a shared run; keep the two in sync.
                elapsed = now - flow.last_update
                if elapsed > 0 and flow.rate > 0:
                    remaining = flow.remaining - flow.rate * elapsed
                    flow.remaining = remaining if remaining > 0.0 else 0.0
                flow.last_update = now
                flow.rate = new_rate
                # A pending event is never later than the deadline or the next
                # wake, so the new estimate alone decides what _aim would do.
                if pending is not None and new_rate > 0:
                    estimate = now + flow.remaining / new_rate
                    if estimate < pending.time:
                        self.simulator.reschedule(pending, estimate)
                    continue
            elif pending is not None:
                continue
            self._aim(flow, now)

    def _aim(self, flow: Flow, now: float) -> None:
        """Keep ``flow``'s pending event unless its target — the earliest of
        completion estimate, deadline and model wake — moved *earlier*.

        A pending event that is now too early is harmless — it fires, finds
        the flow incomplete, and re-aims — so rate *drops* (a later arrival
        diluting the flows already on its link) cost no heap traffic at all.
        Only a target that moved earlier than the pending event moves it, with
        one ``Simulator.reschedule`` push.  Same-instant arrivals do not
        dilute each other this way: an admission frontier aims each of its
        flows once, at final occupancy.
        """
        candidates = []
        if flow.rate > 0:
            # From the last chip, which a wake that left the rate alone skips.
            candidates.append(flow.last_update + flow.remaining / flow.rate)
        elif flow.remaining <= _COMPLETION_EPSILON_BYTES:
            # Re-rated to zero at the very instant it finished (an outage or
            # a breakpoint landing on the completion): the transfer is done,
            # so it settles now instead of starving with nothing left to move.
            candidates.append(now)
        if flow.deadline is not None:
            candidates.append(flow.deadline)
        if self._next_wake is not None:
            candidates.append(self._next_wake(flow))
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
        if flow.pending is None:
            flow.pending = self.simulator.schedule(target, self._on_flow_event, flow)
        elif target < flow.pending.time:
            self.simulator.reschedule(flow.pending, target)

    def _advance(self, flow: Flow, now: float) -> None:
        # Inlined in _apply_rate_changes (hot path) — keep the two in sync.
        elapsed = now - flow.last_update
        if elapsed > 0 and flow.rate > 0:
            remaining = flow.remaining - flow.rate * elapsed
            flow.remaining = remaining if remaining > 0.0 else 0.0
        flow.last_update = now

    # -- flow events -------------------------------------------------------
    def _on_flow_event(self, flow: Flow) -> None:
        # Before the claim is dropped: the settle may re-rate this very flow,
        # and ``_aim`` must still see the firing event as its pending one —
        # or it pushes a fresh event that outlives a flow finished below.
        self._settle_admissions()
        flow.pending = None
        now = self.simulator.now
        last_update, remaining = flow.last_update, flow.remaining
        self._advance(flow, now)
        if self._is_complete(flow, now):
            self._finish_batch(flow, now)
            return
        if flow.deadline is not None and now >= flow.deadline - _TIME_EPSILON:
            self._finish_expired(flow, now)
            return
        if self._wake is not None and self._next_wake(flow) <= now:
            # The model's wake is due.  Undo the chip first: a wake that
            # leaves the rate alone leaves the completion instant as it was.
            flow.last_update, flow.remaining = last_update, remaining
            self._wakes += 1
            self._wake(flow, now)
            self._apply_rate_changes((flow,), now)
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
        completion to fire claims the wave: the model's departure walk
        (``on_flows_removed``) visits each link side of the batch once,
        offering neighbours due *now* to :meth:`_claim` — those whose
        transfer is done join the batch, their events cancelled — and
        collecting the movers, which are rated once at the end against final
        occupancy.

        Occupancy-equivalent to finishing them one event at a time — every
        intermediate rate that would assign lives for zero width at ``now``
        — with completion callbacks firing after the whole neighbourhood is
        consistent, in discovery order.  Peers whose aim differs even by an
        ulp simply fire on their own; the batch is an optimisation, never a
        correctness requirement.
        """
        batch = [trigger]
        self._depart(batch, now, self._claim)
        # Callbacks fire last, once the neighbourhood is consistent, so
        # protocol code reacting to a delivery observes final rates.
        for flow in batch:
            self._clamp_residual(flow)
            self._complete(flow)

    def _claim(self, flow: Flow) -> bool:
        """Advance a neighbour due now; whether it is done, its event cancelled."""
        now = self.simulator.now
        self._advance(flow, now)
        if self._is_complete(flow, now):
            flow.pending.cancel()
            flow.pending = None
            return True
        return False

    def _finish_expired(self, flow: Flow, now: float) -> None:
        self._depart([flow], now, None)
        # The callback fires after the neighbourhood is consistent, so
        # protocol code reacting to a timeout (e.g. re-sending) observes
        # final rates.
        self._expire(flow)

    def _depart(self, batch: List[Flow], now: float, claim) -> None:
        """Walk ``batch`` out (``claim`` may extend it), rate its movers once,
        and retire the capacity caches and watchers of the sides it idled."""
        self._apply_rate_changes(self.model.on_flows_removed(batch, now, claim), now)
        for flow in batch:
            if flow.src not in self._by_src:
                self._up_cap.pop(flow.src, None)
                self._drop_watcher("uplink", flow.src)
            if flow.dst not in self._by_dst:
                self._down_cap.pop(flow.dst, None)
                self._drop_watcher("downlink", flow.dst)

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
        touched = self.model.on_link_rate_changed(side, name)
        self._apply_rate_changes(touched, now)


#: Sort key for deterministic rate-pass ordering; C-level attrgetter because
#: it runs once per touched flow in the hottest loop of a shared run.
_flow_id_of = operator.attrgetter("flow_id")
