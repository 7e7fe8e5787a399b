"""Structure-of-arrays vectorized scheduling for shared link models.

The lazy engine (:mod:`repro.simnet.shared_sched`) scopes per-event work to
*touched* flows, but it executes that work one flow at a time in Python — a
dict lookup, a few float multiplies, a heap push per flow.  This engine
batches it over numpy arrays instead.  No run a spec describes uses it: a
network builds it only when constructed with ``shared_engine="vector"``,
which ``perfbench``'s ``fair-vector`` / ``tcp-vector`` micro rows do
(DESIGN-transport.md has the last lazy-vs-vector timings).

:class:`VectorSharedLinkScheduler` keeps per-flow state in parallel numpy
arrays — residual bytes, rate, last-update instant, weight, interned
uplink/downlink ids, deadline and next-event target — and turns the two hot
loops into array expressions:

* **Batched rate recompute.**  Link models contribute a *vector policy*
  (:data:`VECTOR_POLICIES`) that accumulates which slots an event touched
  and then rates the whole touched set in one vectorized pass — the same
  closed-form expressions as the scalar models, evaluated elementwise.
* **Instant coalescing.**  Flow admissions are buffered and all events of
  one virtual instant are serviced together: a 120-wide vote broadcast is
  admitted as a batch and re-rated once, where the lazy engine re-rates the
  sender's uplink set once per ``send()``.
* **One wake event.**  Instead of one pending heap event per flow, the
  scheduler keeps a single wake event at ``min(target)`` over all slots; due
  slots are found with one vectorized comparison and settled in flow-id
  order.  (Early wakes are harmless, exactly like the lazy engine's stale
  completion estimates: they find nothing due and re-aim.)  Stateful
  policies fold their own clock into the same event: the ``tcp`` policy's
  per-slot ack ticks (:class:`_TcpVectorPolicy`) are found by the same
  vectorized scan and a whole due cohort advances per wake, instead of one
  simulator tick per flow per ack round.

Float semantics: progress chips happen at recompute instants, which coalesce
differently from the lazy engine's per-touch chips, so trajectories agree
with the scalar engine only to rounding — the same contract as lazy vs
the reference model.  Conformance is pinned at summary level (counts exact, floats within
1e-6 relative) by ``tests/simnet/test_vector_sched.py``.  Same-instant event
*ordering* also differs (the single wake settles completions in flow-id
order where the lazy engine interleaves per-flow events), so golden
comparisons are stats/counts-level, never event-order.

numpy is an optional dependency (the ``[perf]`` extra).  The module imports
without it and :func:`vector_available` says whether the engine can run; a
:class:`VectorSharedLinkScheduler` built without numpy, or for a model with
no entry in :data:`VECTOR_POLICIES`, raises ``ValidationError``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.simnet.flows import (
    _COMPLETION_EPSILON_BYTES,
    _TIME_EPSILON,
    Flow,
    FlowScheduler,
)
from repro.simnet.linkmodel import _TICK_EPSILON
from repro.utils.validation import ValidationError

try:  # pragma: no cover - absence exercised by the no-numpy CI leg
    import numpy as _np
except ImportError:  # pragma: no cover - absence exercised by the no-numpy CI leg
    _np = None

__all__ = [
    "VECTOR_POLICIES",
    "VectorSharedLinkScheduler",
    "vector_available",
]

#: Initial slot-array capacity (doubled on demand).
_INITIAL_SLOTS = 256

#: Initial link-array capacity (doubled on demand).
_INITIAL_LINKS = 64


def vector_available() -> bool:
    """Whether the vectorized engine can run (numpy importable)."""
    return _np is not None


class _VectorPolicy:
    """Rate policy over slot arrays, driven by the vector scheduler.

    Mirrors the :class:`repro.simnet.linkmodel.LinkModel` bulk hooks at array
    granularity: transitions *accumulate* touched slots instead of returning
    them, and :meth:`rates` prices a whole touched batch at once.  The same
    exactness contract applies — a slot the policy never marks touched must
    have an unchanged rate.
    """

    def __init__(self, sched: "VectorSharedLinkScheduler") -> None:
        self._s = sched

    def grow_slots(self, capacity: int) -> None:
        """Slot arrays doubled; extend any policy-owned per-slot arrays."""

    def on_add(self, slot: int) -> None:
        """Observe an admission (slot arrays and indexes already filled)."""
        raise NotImplementedError

    def on_remove(self, slot: int) -> None:
        """Observe an eviction (slot arrays still valid, about to clear)."""
        raise NotImplementedError

    def on_link_changed(self, side: str, lid: int) -> None:
        """Observe a capacity change on one link side."""
        raise NotImplementedError

    def has_touched(self) -> bool:
        raise NotImplementedError

    def take_touched(self) -> Set[int]:
        """Drain and return the touched slot set (may contain evicted slots;
        the scheduler filters by liveness)."""
        raise NotImplementedError

    def rates(self, slots) -> "object":
        """New rates for ``slots`` (an int64 array), as a float64 array."""
        raise NotImplementedError

    # -- policy-internal dynamics (stateful models: tcp ack ticks) ----------
    def next_event_time(self) -> float:
        """Earliest future instant at which the policy itself changes rates.

        The scheduler folds this into its wake aim.  Memoryless policies
        (fair) return ``inf``: their rates only change when flows or link
        capacities do.
        """
        return float("inf")

    def advance_due(self, now: float) -> bool:
        """Settle policy-internal dynamics due at ``now``; return whether any
        slot advanced (advanced slots must be marked touched so the
        recompute re-rates them).  Memoryless policies never have any.
        """
        return False


class _FairVectorPolicy(_VectorPolicy):
    """Max-min style fair sharing, batched.

    A flow's rate is a pure local function of its two links, so touched
    bookkeeping is just dirty *link* sets — the touched slots are the union
    of the dirty links' occupancy sets at drain time, which deduplicates
    naturally when one instant touches a link many times (broadcast bursts).
    """

    def __init__(self, sched: "VectorSharedLinkScheduler") -> None:
        super().__init__(sched)
        self._dirty_src: Set[int] = set()
        self._dirty_dst: Set[int] = set()

    def on_add(self, slot: int) -> None:
        s = self._s
        self._dirty_src.add(int(s._srcid[slot]))
        self._dirty_dst.add(int(s._dstid[slot]))

    on_remove = on_add

    def on_link_changed(self, side: str, lid: int) -> None:
        (self._dirty_src if side == "uplink" else self._dirty_dst).add(lid)

    def has_touched(self) -> bool:
        return bool(self._dirty_src or self._dirty_dst)

    def take_touched(self) -> Set[int]:
        s = self._s
        touched: Set[int] = set()
        for lid in self._dirty_src:
            touched.update(s._slots_by_src.get(lid, ()))
        for lid in self._dirty_dst:
            touched.update(s._slots_by_dst.get(lid, ()))
        self._dirty_src.clear()
        self._dirty_dst.clear()
        return touched

    def rates(self, slots):
        # Elementwise twin of FairShareLinkModel.rates_of — same
        # expression shapes ((cap·w)/occ), so values match the scalar models
        # to float rounding.  The shared-occupancy divisors are ≥ 1 for every
        # alive slot (the slot's own weight counts), so the eagerly evaluated
        # division branch of `where` never divides by zero.
        s = self._s
        src = s._srcid[slots]
        dst = s._dstid[slots]
        weight = s._weight[slots]
        up_cap = s._up_cap[src]
        down_cap = s._down_cap[dst]
        up = _np.where(s._agg[src], up_cap * weight, up_cap * weight / s._src_w[src])
        down = _np.where(s._agg[dst], down_cap * weight, down_cap * weight / s._dst_w[dst])
        return _np.minimum(up, down)


class _TcpVectorPolicy(_FairVectorPolicy):
    """Reno congestion control over batched fair shares.

    The capacity side is exactly :class:`_FairVectorPolicy` — dirty-link
    touched sets, elementwise share math.  On top of it the policy keeps the
    congestion side in two policy-owned SoA columns mirroring the canonical
    per-slot :class:`repro.simnet.linkmodel._TcpFlowState` (which also holds
    cwnd, ssthresh, srtt/devrtt, RTO backoff, and the duplicate-ack count):

    * ``_next_tick`` — each slot's next ack-tick instant (``inf`` when
      free), so due ticks are found with one vectorized comparison and the
      whole due cohort of an instant advances in one pass (a synchronized
      broadcast wave keeps identical congestion trajectories, so its ticks
      coalesce for the entire run), where the lazy engine pays one event
      firing and one rate pass per flow per ack round;
    * ``_wrate`` — each slot's window-limited rate ``weight·cwnd·MSS/estRTT``,
      refreshed whenever a slot's state advances, so :meth:`rates` is the
      fair share pass plus one elementwise ``minimum`` against the window
      cap.

    State *transitions* are never reimplemented here: each due slot is
    advanced through :meth:`repro.simnet.linkmodel.TcpLinkModel.advance_flow`
    (fed the slot array's granted rate), the same Reno machine
    the lazy engine (``TcpLinkModel.wake``) drives — loss
    draws included, which keeps the per-pair ``tcp_loss_event`` streams and
    their consumption order (flow-id order within an instant, matching
    ``_settle_due``) deterministic.  Like the scalar engines, tcp makes no
    cross-engine trajectory claim: the vector engine coalesces ticks and
    chips progress at recompute instants, so it is pinned by its own golden
    trace (``golden_transport_tcp_vector.json``) plus the fair-share
    convergence property.
    """

    def __init__(self, sched: "VectorSharedLinkScheduler") -> None:
        super().__init__(sched)
        self._next_tick = _np.full(sched._capacity, _np.inf, dtype=_np.float64)
        self._wrate = _np.zeros(sched._capacity, dtype=_np.float64)
        #: Canonical per-slot congestion state (owned by the link model).
        self._state: List[Optional[object]] = [None] * sched._capacity
        #: Slots whose window advanced this instant (rate cap moved).
        self._ticked: Set[int] = set()

    def grow_slots(self, capacity: int) -> None:
        grown = capacity - len(self._next_tick)
        self._next_tick = _np.concatenate(
            [self._next_tick, _np.full(grown, _np.inf, dtype=_np.float64)]
        )
        self._wrate = _np.concatenate(
            [self._wrate, _np.zeros(grown, dtype=_np.float64)]
        )
        self._state.extend([None] * grown)

    # -- transitions -------------------------------------------------------
    def on_add(self, slot: int) -> None:
        s = self._s
        flow = s._flow_at[slot]
        state = s.model.state_of(flow, s.simulator.now)
        self._state[slot] = state
        self._next_tick[slot] = state.next_tick
        self._wrate[slot] = state.window_rate(flow.weight)
        super().on_add(slot)

    def on_remove(self, slot: int) -> None:
        s = self._s
        s.model.drop_state(s._flow_at[slot].flow_id)
        self._state[slot] = None
        self._next_tick[slot] = _np.inf
        self._wrate[slot] = 0.0
        super().on_remove(slot)

    def has_touched(self) -> bool:
        return bool(self._ticked) or super().has_touched()

    def take_touched(self) -> Set[int]:
        touched = super().take_touched()
        touched.update(self._ticked)
        self._ticked.clear()
        return touched

    # -- ack ticks ----------------------------------------------------------
    def next_event_time(self) -> float:
        hi = self._s._hi
        if not hi:
            return float("inf")
        return float(self._next_tick[:hi].min())

    def advance_due(self, now: float) -> bool:
        hi = self._s._hi
        if not hi:
            return False
        due = _np.nonzero(self._next_tick[:hi] <= now + _TICK_EPSILON)[0]
        if not due.size:
            return False
        s = self._s
        advance = s.model.advance_flow
        flow_at = s._flow_at
        rate = s._rate
        # Flow-id order, like _settle_due: it makes same-instant loss-draw
        # consumption (flows sharing an authority pair share one stream)
        # independent of slot assignment.
        for slot in sorted((int(x) for x in due), key=lambda x: flow_at[x].flow_id):
            flow = flow_at[slot]
            state = self._state[slot]
            advance(flow, state, now, granted=float(rate[slot]))
            self._next_tick[slot] = state.next_tick
            # A window change never moves a neighbour's fair share (the
            # ``TcpLinkModel`` tick contract), so only the ticked slot is touched.
            self._wrate[slot] = state.window_rate(flow.weight)
            self._ticked.add(slot)
        return True

    def rates(self, slots):
        # The elementwise twin of TcpLinkModel.rates_of:
        # min(fair up/down share, window-limited rate), one array pass.
        return _np.minimum(super().rates(slots), self._wrate[slots])


#: LinkModel name -> vector policy class: the models the vector engine runs.
VECTOR_POLICIES = {
    "fair": _FairVectorPolicy,
    "tcp": _TcpVectorPolicy,
}


class VectorSharedLinkScheduler(FlowScheduler):
    """Shared-regime scheduler over structure-of-arrays flow state.

    Flow objects stay the protocol-facing interface (callbacks receive them,
    and ``remaining``/``rate`` are synced back at eviction), but between
    admission and eviction the arrays are the truth.  Slots are recycled
    through a free list; ``_hi`` is the high-water mark bounding every
    vectorized scan.
    """

    def __init__(self, model, simulator, links, complete, expire) -> None:
        if _np is None:
            raise ValidationError("the vector engine needs numpy (the [perf] extra)")
        policy = VECTOR_POLICIES.get(model.name)
        if policy is None:
            raise ValidationError(
                "the vector engine has no policy for %r; it runs %s"
                % (model.name, ", ".join(sorted(VECTOR_POLICIES)))
            )
        super().__init__(model, simulator, links, complete, expire)
        capacity = _INITIAL_SLOTS
        self._capacity = capacity
        self._rem = _np.zeros(capacity, dtype=_np.float64)
        self._rate = _np.zeros(capacity, dtype=_np.float64)
        self._last = _np.zeros(capacity, dtype=_np.float64)
        self._weight = _np.zeros(capacity, dtype=_np.float64)
        self._target = _np.full(capacity, _np.inf, dtype=_np.float64)
        self._deadline = _np.full(capacity, _np.inf, dtype=_np.float64)
        self._srcid = _np.zeros(capacity, dtype=_np.int64)
        self._dstid = _np.zeros(capacity, dtype=_np.int64)
        self._alive = _np.zeros(capacity, dtype=bool)
        self._flow_at: List[Optional[Flow]] = [None] * capacity
        self._free: List[int] = []
        self._hi = 0

        # Link interning: node name -> dense lid indexing the link arrays.
        link_capacity = _INITIAL_LINKS
        self._link_capacity = link_capacity
        self._lids: Dict[str, int] = {}
        self._lid_name: List[str] = []
        self._up_cap = _np.zeros(link_capacity, dtype=_np.float64)
        self._down_cap = _np.zeros(link_capacity, dtype=_np.float64)
        self._src_w = _np.zeros(link_capacity, dtype=_np.float64)
        self._dst_w = _np.zeros(link_capacity, dtype=_np.float64)
        self._agg = _np.zeros(link_capacity, dtype=bool)
        self._slots_by_src: Dict[int, Set[int]] = {}
        self._slots_by_dst: Dict[int, Set[int]] = {}
        #: (side, lid) -> pending breakpoint watcher (None: constant link).
        self._watchers: Dict[Tuple[str, int], Optional[object]] = {}

        self._policy: _VectorPolicy = policy(self)
        #: Admissions buffered until the instant is serviced (coalescing).
        self._adds: List[Flow] = []
        #: Completion/expiry callbacks deferred until rates are settled.
        self._finished: List[Tuple[bool, Flow]] = []
        self._wake = None
        self._in_service = False

    # -- interface ---------------------------------------------------------
    def start_flows(self, flows: List[Flow], now: float) -> None:
        self._adds.extend(flows)
        if self._in_service:
            return  # re-entrant send from a callback; the service loop drains it
        if self._wake is None or self._wake.time > now:
            if self._wake is not None:
                self._wake.cancel()
            self._wake = self.simulator.schedule(now, self._on_wake)

    def on_link_replaced(self, name: str, now: float) -> None:
        # Like the lazy engine, the replacement applies immediately:
        # refresh caps, re-arm watchers against the new schedule, re-rate
        # the link's flows at this instant.
        lid = self._lids.get(name)
        if lid is None:
            return  # never carried a flow; interning seeds fresh state later
        link = self._links[name]
        self._agg[lid] = link.aggregate
        for side, caps, index in (
            ("uplink", self._up_cap, self._slots_by_src),
            ("downlink", self._down_cap, self._slots_by_dst),
        ):
            if index.get(lid):
                self._drop_watcher(side, lid)
                caps[lid] = getattr(link, side).rate_at(now)
                self._arm_watcher(side, lid, now)
                self._policy.on_link_changed(side, lid)
        if not self._in_service:
            self._service(now)

    # -- the service loop --------------------------------------------------
    def _on_wake(self) -> None:
        self._wake = None
        self._service(self.simulator.now)

    def _service(self, now: float) -> None:
        """Settle everything pending at ``now``, then re-aim the wake event.

        One pass admits buffered flows, settles due slots (completions /
        expiries / early wakes), and batch-recomputes the touched rates;
        the loop repeats because each stage can feed the others at the same
        instant (a recompute can pull a completion to *now*, a timeout
        callback can send a new flow).  Callbacks fire only once the
        neighbourhood's rates are consistent, like the lazy engine.
        """
        self._in_service = True
        try:
            while True:
                progressed = False
                if self._adds:
                    adds, self._adds = self._adds, []
                    for flow in adds:
                        self._admit(flow, now)
                    progressed = True
                if self._hi:
                    due = _np.nonzero(self._target[: self._hi] <= now)[0]
                    if due.size:
                        self._settle_due(due, now)
                        progressed = True
                if self._policy.advance_due(now):
                    # Policy-internal dynamics (tcp ack ticks) due at this
                    # instant: the whole due cohort advanced and marked
                    # itself touched for the recompute below.
                    progressed = True
                if self._policy.has_touched():
                    self._recompute(now)
                    continue  # the recompute may have pulled targets to now
                if self._finished:
                    finished, self._finished = self._finished, []
                    for expired, flow in finished:
                        if expired:
                            self._expire(flow)
                        else:
                            self._clamp_residual(flow)
                            self._complete(flow)
                    progressed = True
                if not progressed:
                    break
        finally:
            self._in_service = False
        self._aim_wake()

    def _settle_due(self, due, now: float) -> None:
        """Advance the due slots and settle each one, in flow-id order.

        Flow-id order makes same-instant completion order independent of
        slot assignment (which depends on free-list history); it is the
        vector twin of the lazy engine's sorted ``_apply_rate_changes``.
        """
        elapsed = now - self._last[due]
        self._rem[due] = _np.maximum(0.0, self._rem[due] - self._rate[due] * elapsed)
        self._last[due] = now
        flow_at = self._flow_at
        for slot in sorted((int(s) for s in due), key=lambda s: flow_at[s].flow_id):
            rem = self._rem[slot]
            rate = self._rate[slot]
            # The scalar engines' completion test verbatim: inside the byte
            # epsilon, or a residual whose transfer time is below one ulp of
            # virtual time (the anti-livelock case).
            if rem <= _COMPLETION_EPSILON_BYTES or (
                rate > 0.0 and now + rem / rate <= now
            ):
                self._evict(slot, now, expired=False)
            elif now >= self._deadline[slot] - _TIME_EPSILON:
                self._evict(slot, now, expired=True)
            else:
                # Fired early — the rate dropped since this target was set.
                # Re-aim; the branches above guarantee the new target is
                # strictly after now, so this cannot loop at one instant.
                if rate > 0.0:
                    estimate = now + rem / rate
                    deadline = self._deadline[slot]
                    self._target[slot] = estimate if estimate < deadline else deadline
                else:
                    self._target[slot] = self._deadline[slot]

    def _recompute(self, now: float) -> None:
        touched = self._policy.take_touched()
        if not touched:
            return
        slots = _np.fromiter(touched, dtype=_np.int64, count=len(touched))
        # Transitions earlier in this instant may have evicted members.
        slots = slots[self._alive[slots]]
        if not slots.size:
            return
        # Chip progress under the old rates before switching (the same
        # piecewise-constant integration as the scalar engines; the
        # unconditional form is bit-identical because rate·0 == 0·elapsed
        # == 0 and remaining is never negative).
        elapsed = now - self._last[slots]
        rem = _np.maximum(0.0, self._rem[slots] - self._rate[slots] * elapsed)
        self._rem[slots] = rem
        self._last[slots] = now
        rates = self._policy.rates(slots)
        self._rate[slots] = rates
        estimate = _np.full(slots.size, _np.inf, dtype=_np.float64)
        moving = rates > 0.0
        estimate[moving] = now + rem[moving] / rates[moving]
        if not moving.all():
            # Re-rated to zero with nothing left to move (an outage landing
            # on the completion): due now, so the next pass settles it — a
            # finished transfer must not starve, as in the lazy `_aim`.
            estimate[~moving & (rem <= _COMPLETION_EPSILON_BYTES)] = now
        target = _np.minimum(estimate, self._deadline[slots])
        _np.maximum(target, now, out=target)
        self._target[slots] = target

    def _aim_wake(self) -> None:
        tmin = float(self._target[: self._hi].min()) if self._hi else float("inf")
        # Stateful policies tick on their own clock (tcp ack rounds), even
        # when every completion target is stranded at inf.
        tmin = min(tmin, self._policy.next_event_time())
        if tmin == float("inf"):
            # Every slot is stranded (or none exist): watchers revive them.
            if self._wake is not None:
                self._wake.cancel()
                self._wake = None
            return
        if self._wake is not None:
            if self._wake.time <= tmin:
                return  # early wakes are harmless; keep the pending event
            self._wake.cancel()
        self._wake = self.simulator.schedule(tmin, self._on_wake)

    # -- admission / eviction ----------------------------------------------
    def _admit(self, flow: Flow, now: float) -> None:
        slot = self._alloc()
        self._add(flow)
        src = self._intern(flow.src)
        dst = self._intern(flow.dst)
        src_slots = self._slots_by_src.setdefault(src, set())
        if not src_slots:
            self._up_cap[src] = self._links[flow.src].uplink.rate_at(now)
            self._agg[src] = self._links[flow.src].aggregate
            self._arm_watcher("uplink", src, now)
        src_slots.add(slot)
        dst_slots = self._slots_by_dst.setdefault(dst, set())
        if not dst_slots:
            self._down_cap[dst] = self._links[flow.dst].downlink.rate_at(now)
            self._agg[dst] = self._links[flow.dst].aggregate
            self._arm_watcher("downlink", dst, now)
        dst_slots.add(slot)
        self._src_w[src] += flow.weight
        self._dst_w[dst] += flow.weight
        self._srcid[slot] = src
        self._dstid[slot] = dst
        self._rem[slot] = flow.remaining
        self._rate[slot] = 0.0
        self._last[slot] = now
        self._weight[slot] = float(flow.weight)
        deadline = float("inf") if flow.deadline is None else flow.deadline
        self._deadline[slot] = deadline
        self._target[slot] = deadline  # the recompute below sharpens this
        self._alive[slot] = True
        self._flow_at[slot] = flow
        self._policy.on_add(slot)

    def _evict(self, slot: int, now: float, expired: bool) -> None:
        flow = self._flow_at[slot]
        # Sync the protocol-facing fields before any callback can read them.
        flow.remaining = float(self._rem[slot])
        flow.rate = float(self._rate[slot])
        flow.last_update = now
        self._policy.on_remove(slot)
        self._remove(flow)
        src = int(self._srcid[slot])
        dst = int(self._dstid[slot])
        self._src_w[src] -= self._weight[slot]
        self._dst_w[dst] -= self._weight[slot]
        src_slots = self._slots_by_src[src]
        src_slots.discard(slot)
        if not src_slots:
            self._src_w[src] = 0.0  # kill any float drift while idle
            self._drop_watcher("uplink", src)
        dst_slots = self._slots_by_dst[dst]
        dst_slots.discard(slot)
        if not dst_slots:
            self._dst_w[dst] = 0.0
            self._drop_watcher("downlink", dst)
        self._alive[slot] = False
        self._target[slot] = float("inf")
        self._deadline[slot] = float("inf")
        self._rate[slot] = 0.0
        self._flow_at[slot] = None
        self._free.append(slot)
        self._finished.append((expired, flow))

    def _alloc(self) -> int:
        if self._free:
            return self._free.pop()
        if self._hi == self._capacity:
            self._grow_slots(self._capacity * 2)
        slot = self._hi
        self._hi += 1
        return slot

    def _grow_slots(self, capacity: int) -> None:
        grown = capacity - self._capacity
        zeros = _np.zeros(grown, dtype=_np.float64)
        infs = _np.full(grown, _np.inf, dtype=_np.float64)
        self._rem = _np.concatenate([self._rem, zeros])
        self._rate = _np.concatenate([self._rate, zeros.copy()])
        self._last = _np.concatenate([self._last, zeros.copy()])
        self._weight = _np.concatenate([self._weight, zeros.copy()])
        self._target = _np.concatenate([self._target, infs])
        self._deadline = _np.concatenate([self._deadline, infs.copy()])
        self._srcid = _np.concatenate([self._srcid, _np.zeros(grown, dtype=_np.int64)])
        self._dstid = _np.concatenate([self._dstid, _np.zeros(grown, dtype=_np.int64)])
        self._alive = _np.concatenate([self._alive, _np.zeros(grown, dtype=bool)])
        self._flow_at.extend([None] * grown)
        self._capacity = capacity
        self._policy.grow_slots(capacity)

    def _intern(self, name: str) -> int:
        lid = self._lids.get(name)
        if lid is None:
            lid = len(self._lid_name)
            if lid == self._link_capacity:
                self._grow_links(self._link_capacity * 2)
            self._lids[name] = lid
            self._lid_name.append(name)
            self._agg[lid] = self._links[name].aggregate
        return lid

    def _grow_links(self, capacity: int) -> None:
        grown = capacity - self._link_capacity
        zeros = _np.zeros(grown, dtype=_np.float64)
        self._up_cap = _np.concatenate([self._up_cap, zeros])
        self._down_cap = _np.concatenate([self._down_cap, zeros.copy()])
        self._src_w = _np.concatenate([self._src_w, zeros.copy()])
        self._dst_w = _np.concatenate([self._dst_w, zeros.copy()])
        self._agg = _np.concatenate([self._agg, _np.zeros(grown, dtype=bool)])
        self._link_capacity = capacity

    # -- breakpoint watchers -----------------------------------------------
    def _arm_watcher(self, side: str, lid: int, now: float) -> None:
        schedule = getattr(self._links[self._lid_name[lid]], side)
        change = schedule.next_change_after(now)
        if change is None:
            self._watchers[(side, lid)] = None
            return
        self._watchers[(side, lid)] = self.simulator.schedule(
            change, self._on_link_event, side, lid
        )

    def _drop_watcher(self, side: str, lid: int) -> None:
        handle = self._watchers.pop((side, lid), None)
        if handle is not None:
            handle.cancel()

    def _on_link_event(self, side: str, lid: int) -> None:
        del self._watchers[(side, lid)]
        now = self.simulator.now
        index = self._slots_by_src if side == "uplink" else self._slots_by_dst
        if not index.get(lid):  # pragma: no cover - idle links drop watchers
            return
        caps = self._up_cap if side == "uplink" else self._down_cap
        caps[lid] = getattr(self._links[self._lid_name[lid]], side).rate_at(now)
        self._arm_watcher(side, lid, now)
        self._policy.on_link_changed(side, lid)
        if not self._in_service:  # watchers fire from the event loop
            self._service(now)
