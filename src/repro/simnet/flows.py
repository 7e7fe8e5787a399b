"""Flow scheduling: lifecycle and completion-time maintenance for transfers.

This is the middle layer of the transport pipeline.  A
:class:`~repro.simnet.network.SimNetwork` turns ``send()`` calls into
:class:`Flow` objects and hands them to a scheduler; the scheduler advances
flow progress, asks the run's :class:`~repro.simnet.linkmodel.LinkModel` —
one class per model, the only place its rate arithmetic lives — which flows
an event touched and what their rates are now, and fires the network's
completion/timeout callbacks at the right virtual instants.  Admission has
one entry, :meth:`FlowScheduler.start_flows`: the network hands over each
``send_many`` burst whole (a single ``send`` is a burst of one), and every
scheduler below turns the burst into one rate pass or one shared heap event.
The schedulers cover the two coupling regimes a link model can declare — two
engines for the shared regime, one for the independent one;
:func:`make_flow_scheduler` builds the one a network asks for:

:class:`~repro.simnet.shared_sched.LazySharedLinkScheduler` (``LinkModel.shared``)
    The engine for models where flow rates couple through link occupancy
    (``fair``, ``fifo``, ``tcp``): lazy per-flow progress and one pending
    heap event per flow, moved only when the flow's target comes earlier —
    O(touched flows × log F) per event.  It drives the model's
    four bulk hooks and needs nothing else registered anywhere.  Every run a
    spec describes uses it.  See :mod:`repro.simnet.shared_sched`.

:class:`~repro.simnet.vector_sched.VectorSharedLinkScheduler` (``shared_engine="vector"``)
    A numpy structure-of-arrays engine for ``fair`` and ``tcp``, built only
    when a network is constructed with ``shared_engine="vector"``: per-flow
    state in slot arrays, one batched rate pass and one wake event per
    instant.  See :mod:`repro.simnet.vector_sched`.

:class:`IndependentFlowScheduler` (``not LinkModel.shared``)
    For models where a flow's rate depends on its own two links only
    (``latency-only``).  Such a flow's trajectory is known when it is
    admitted, so the scheduler plans it then: a completing flow hands its
    completion instant to the network, which queues the delivery at once,
    and an expiring flow gets one heap event at its deadline.  A message
    costs one heap event, its delivery, and no flow ever touches another,
    which is what makes 10×-paper node counts tractable.

Flow ids come from the simulator's serial counter
(:meth:`~repro.simnet.engine.Simulator.next_serial`), so the fifo model's
arrival order is the event loop's own deterministic order and no per-network
id generator is needed.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from repro.simnet.engine import Simulator
from repro.simnet.linkmodel import LinkModel
from repro.simnet.message import Message
from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.network import LinkConfig

#: Residual bytes below which a flow counts as complete (floating-point slack).
_COMPLETION_EPSILON_BYTES = 1e-6

#: Slack when comparing virtual times.
_TIME_EPSILON = 1e-9


class Flow:
    """One in-flight transfer: transport-level state for a single message.

    ``weight`` is the number of identical endpoint transfers this flow stands
    in for (cohort-aggregated dir-clients fetch with ``weight == batch
    size``).  A weight-``w`` flow occupies ``w`` shares of every shared link
    it crosses and carries the *aggregate* byte count in ``message.size_bytes``
    — which makes it exactly equivalent, under weighted fair sharing, to
    ``w`` unit flows started at the same instant.  Ordinary protocol traffic
    always has weight 1 and is bit-identical to the pre-weight transport.
    """

    __slots__ = (
        "flow_id",
        "src",
        "dst",
        "message",
        "remaining",
        "start_time",
        "deadline",
        "rate",
        "weight",
        "last_update",
        "pending",
        "on_timeout",
        "on_delivered",
        "arrival_seq",
    )

    def __init__(
        self,
        flow_id: int,
        src: str,
        dst: str,
        message: Message,
        start_time: float,
        deadline: Optional[float],
        on_timeout: Optional[Callable[[Message, str], None]],
        on_delivered: Optional[Callable[[Message, str, float], None]],
        weight: int = 1,
    ) -> None:
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.message = message
        self.remaining = float(message.size_bytes)
        self.start_time = start_time
        self.deadline = deadline
        self.rate = 0.0
        self.weight = weight
        self.last_update = start_time
        # The scheduler's claim on the flow's next event: the event's handle
        # (shared engines), or what withdraws a planned settle — the queued
        # delivery's batch slot and item, or the expiry's handle (independent).
        self.pending: Optional[Any] = None
        self.on_timeout = on_timeout
        self.on_delivered = on_delivered
        # Explicit arrival order for FIFO service.  Defaults to the flow id
        # (today's ids come from the simulator's serial counter, so id order
        # *is* arrival order); schedulers overwrite it with their own arrival
        # counter in ``_add`` so an id source that recycles or reorders ids
        # cannot corrupt FIFO queues.
        self.arrival_seq = flow_id


class FlowScheduler:
    """Common state and bookkeeping shared by both scheduling regimes.

    Parameters
    ----------
    model:
        The run's link model (rate policy).
    simulator:
        The event loop flows schedule themselves on.
    links:
        Live ``node name -> LinkConfig`` mapping owned by the network;
        :meth:`before_link_replaced` and :meth:`on_link_replaced` must be
        called around swapping an entry.
    complete / expire:
        Network callbacks fired when a flow finishes or times out.  The
        network owns delivery latency, fault filtering, and accounting; the
        scheduler owns *when*.  The shared engines call ``complete(flow)`` at
        the completion instant; the independent one plans ahead and calls
        ``complete(flow, at)`` at admission, keeping what it returns — the
        ``(slot, item)`` of the queued delivery, for
        :meth:`~repro.simnet.engine.Simulator.unbatch` — to withdraw it.
    """

    def __init__(
        self,
        model: LinkModel,
        simulator: Simulator,
        links: Mapping[str, "LinkConfig"],
        complete: Callable[..., Any],
        expire: Callable[[Flow], None],
    ) -> None:
        self.model = model
        self.simulator = simulator
        self._links = links
        self._complete = complete
        self._expire = expire
        self._flows: Dict[int, Flow] = {}
        self._by_src: Dict[str, Dict[int, Flow]] = {}
        self._by_dst: Dict[str, Dict[int, Flow]] = {}
        # Weighted occupancy per active link side (sum of flow weights; equal
        # to the bucket length when every flow has weight 1).  Maintained here
        # so every scheduling regime and link model shares one definition of
        # "how loaded is this link".
        self._src_weight: Dict[str, int] = {}
        self._dst_weight: Dict[str, int] = {}
        # Monotone arrival counter stamped onto flows in ``_add``; the fifo
        # model's service order is defined over this, not over flow ids.
        self._arrival_counter = 0

    # -- queries -----------------------------------------------------------
    def active_count(self) -> int:
        """Number of in-flight transfers."""
        return len(self._flows)

    def counters(self) -> Dict[str, int]:
        """Work counted by this scheduler, for ``engine_counters`` (none here)."""
        return {}

    # -- index maintenance -------------------------------------------------
    def _add(self, flow: Flow) -> None:
        flow.arrival_seq = self._arrival_counter
        self._arrival_counter += 1
        self._flows[flow.flow_id] = flow
        bucket = self._by_src.get(flow.src)
        if bucket is None:
            self._by_src[flow.src] = {flow.flow_id: flow}
            self._src_weight[flow.src] = flow.weight
        else:
            bucket[flow.flow_id] = flow
            self._src_weight[flow.src] += flow.weight
        bucket = self._by_dst.get(flow.dst)
        if bucket is None:
            self._by_dst[flow.dst] = {flow.flow_id: flow}
            self._dst_weight[flow.dst] = flow.weight
        else:
            bucket[flow.flow_id] = flow
            self._dst_weight[flow.dst] += flow.weight

    def _remove(self, flow: Flow) -> None:
        del self._flows[flow.flow_id]
        bucket = self._by_src[flow.src]
        del bucket[flow.flow_id]
        if bucket:
            self._src_weight[flow.src] -= flow.weight
        else:
            del self._by_src[flow.src]
            del self._src_weight[flow.src]
        bucket = self._by_dst[flow.dst]
        del bucket[flow.flow_id]
        if bucket:
            self._dst_weight[flow.dst] -= flow.weight
        else:
            del self._by_dst[flow.dst]
            del self._dst_weight[flow.dst]

    def _clamp_residual(self, flow: Flow) -> None:
        """Clamp a completing flow's residual to exactly zero, once.

        Residuals inside ``(-epsilon, epsilon]`` are floating-point slack
        from the final progress chip; a residual below ``-epsilon`` would
        mean the flow was advanced past its completion instant — a scheduler
        bug — so it is surfaced instead of silently absorbed.
        """
        if flow.remaining < -_COMPLETION_EPSILON_BYTES:  # pragma: no cover - guard
            raise AssertionError(
                "flow %d advanced %.3g bytes past completion"
                % (flow.flow_id, -flow.remaining)
            )
        flow.remaining = 0.0

    @staticmethod
    def _is_complete(flow: Flow, now: float) -> bool:
        """Whether ``flow`` counts as finished at virtual time ``now``.

        Two cases: the residual is inside the byte epsilon, or the residual
        transfer time is too small to advance float virtual time at all
        (``now + remaining/rate == now``).  Without the second test a flow
        can strand microscopically above the byte epsilon — its completion
        event then lands *at* ``now``, the zero-width progress chip moves
        nothing, and the recompute reschedules itself forever.  The test
        only fires exactly where that non-terminating loop would begin, so
        every terminating trajectory (and all golden traces) is unchanged.
        """
        if flow.remaining <= _COMPLETION_EPSILON_BYTES:
            return True
        return flow.rate > 0 and now + flow.remaining / flow.rate <= now

    # -- interface ---------------------------------------------------------
    def start_flows(self, flows: List[Flow], now: float) -> None:
        """Register a same-instant batch of flows and schedule their events.

        A batch is one ``send_many`` burst (a single ``send`` is a batch of
        one).  Admitting it whole is what lets the lazy engine rate it — with
        every other batch of its instant — once against final occupancy, the
        vector engine buffer it for one service pass, and the independent
        scheduler remember it with one list append.
        """
        raise NotImplementedError

    def before_link_replaced(self, name: str, now: float) -> None:
        """``links[name]`` is about to be swapped; it still holds the outgoing
        config.  Only a scheduler that planned ahead on it needs to act."""

    def on_link_replaced(self, name: str, now: float) -> None:
        """React to ``links[name]`` having been swapped mid-run."""
        raise NotImplementedError


class IndependentFlowScheduler(FlowScheduler):
    """Planner for link models whose flow rates never couple (latency-only).

    A flow's rate depends on its own two links only, so the instant it
    settles depends only on their schedules and is known at admission.
    :meth:`start_flows` walks each flow forward with the arithmetic an event
    at each of its instants would apply — completion estimate, deadline, its
    links' next bandwidth breakpoints — until it settles.  A completing flow
    hands its completion instant to the network, which queues the delivery at
    once; an expiring flow expires at once if its deadline is now and
    otherwise gets one heap event there; a starved flow (rate 0, no deadline,
    no breakpoint) gets nothing.  DESIGN-transport.md has the exactness
    argument.

    Nothing is indexed per flow: a burst is remembered with one list append,
    as ``[latest settle instant, flows]``, and settled bursts are dropped
    lazily.  What is remembered serves :meth:`active_count` and
    ``set_link``, which re-plans the flows on the replaced link that settle
    after ``now``.
    """

    #: Remembered bursts are pruned once there are this many (and then once
    #: they double again), so a prune costs amortised O(1) per admission.
    _PRUNE_MIN = 256

    def __init__(self, model, simulator, links, complete, expire) -> None:
        super().__init__(model, simulator, links, complete, expire)
        self._bursts: List[List[Any]] = []
        self._prune_at = self._PRUNE_MIN
        # Where the current plan of each re-planned flow starts: (instant,
        # last_update, remaining, rate).  A flow missing here is on the plan
        # made when it was admitted at its start time.
        self._plan_starts: Dict[int, tuple] = {}
        # (burst, flow) pairs withdrawn by before_link_replaced, waiting for
        # the new config.
        self._replanning: List[tuple] = []
        self._planned = self._replanned = self._planned_expiries = 0

    def active_count(self) -> int:
        now = self.simulator.now
        return sum(
            1
            for latest, flows in self._bursts
            if latest > now
            for flow in flows
            if self._settles_after(flow, now)
        )

    def counters(self) -> Dict[str, int]:
        """Flows planned at admission, flows re-planned by ``set_link``, and
        the expiries among all plans made (at once or by an event)."""
        return {
            "planned": self._planned,
            "replanned": self._replanned,
            "planned_expiries": self._planned_expiries,
        }

    def start_flows(self, flows: List[Flow], now: float) -> None:
        self._bursts.append([self._plan(flows, now), flows])
        self._planned += len(flows)
        if len(self._bursts) >= self._prune_at:
            self._prune(now)

    def before_link_replaced(self, name: str, now: float) -> None:
        """Withdraw the planned settle of every remembered flow on ``name``
        that settles after ``now``, and rebuild its state at ``now`` by
        replaying its plan on the outgoing config (still in ``links``)."""
        for burst in self._bursts:
            if burst[0] > now:
                for flow in burst[1]:
                    if (flow.src == name or flow.dst == name) and self._settles_after(flow, now):
                        self._replanning.append((burst, flow))
        for _burst, flow in self._replanning:
            self._withdraw(flow)
            start = self._plan_starts.get(flow.flow_id)
            if start is None:
                start = (flow.start_time, flow.start_time, float(flow.message.size_bytes), 0.0)
            instant, flow.last_update, flow.remaining, flow.rate = start
            self._plan([flow], instant, stop=now)

    def on_link_replaced(self, name: str, now: float) -> None:
        """Plan the flows :meth:`before_link_replaced` withdrew on the new config."""
        replanning, self._replanning = self._replanning, []
        for burst, flow in replanning:
            self._plan_starts[flow.flow_id] = (now, flow.last_update, flow.remaining, flow.rate)
            settle = self._plan([flow], now)
            if settle > burst[0]:
                burst[0] = settle
        self._replanned += len(replanning)

    # -- machinery ---------------------------------------------------------
    def _plan(self, flows: List[Flow], start: float, stop: Optional[float] = None) -> float:
        """Step each flow from ``start`` until it settles; returns the latest
        settle instant (``start`` at least, ``inf`` with a starved flow).

        A flow's state — ``last_update``, ``remaining``, ``rate`` — is read
        from its fields.  Each step is what an event at that instant would do
        to it: advance and clamp the residual, test completion
        (:meth:`_is_complete`'s test) and the deadline, re-rate, and aim at
        the earliest of completion, deadline and both links' next
        breakpoints.  A completion calls ``complete(flow, at)``; an expiry
        runs at once at ``start`` and gets its heap event later; a starved
        flow gets nothing.  The fields are left as the last step left them.
        With ``stop``, only the steps before ``stop`` run and nothing
        settles: the replay of a plan up to a link swap.
        """
        latest = start
        flow_rate = self.model.flow_rate
        links = self._links
        complete = self._complete
        for flow in flows:
            now, last, remaining, rate = start, flow.last_update, flow.remaining, flow.rate
            deadline = flow.deadline
            uplink = links[flow.src].uplink
            downlink = links[flow.dst].downlink
            while True:
                if stop is not None and now >= stop:
                    flow.last_update, flow.remaining, flow.rate = last, remaining, rate
                    break
                elapsed = now - last
                if elapsed > 0 and rate > 0:
                    # Clamped like the shared scheduler's advance: the
                    # completion instant is fl(now + remaining/rate), whose
                    # rounding error grows with virtual time — by t ≈ 3000 s
                    # a 31 MB/s flow can overshoot its residual by ~1e-5
                    # bytes, past the byte epsilon.
                    remaining -= rate * elapsed
                    if not remaining > 0.0:
                        remaining = 0.0
                last = now
                if remaining <= _COMPLETION_EPSILON_BYTES or (
                    rate > 0 and now + remaining / rate <= now
                ):
                    flow.last_update, flow.remaining, flow.rate = now, 0.0, rate
                    flow.pending = complete(flow, now)
                    break
                if deadline is not None and now >= deadline - _TIME_EPSILON:
                    flow.last_update, flow.remaining, flow.rate = now, remaining, rate
                    self._planned_expiries += 1
                    if now > start:
                        flow.pending = self.simulator.schedule(now, self._expire, flow)
                    else:
                        flow.pending = None
                        self._expire(flow)
                    break

                rate = flow_rate(flow, links, now)
                target = now + remaining / rate if rate > 0 else deadline
                if deadline is not None and deadline < target:
                    target = deadline
                change = uplink.next_change_after(now)
                if change is not None and (target is None or change < target):
                    target = change
                change = downlink.next_change_after(now)
                if change is not None and (target is None or change < target):
                    target = change
                if target is None:
                    # Zero rate forever and no deadline: the transfer can
                    # never finish nor abort, like a starved shared-model flow.
                    flow.last_update, flow.remaining, flow.rate = now, remaining, rate
                    flow.pending = None
                    now = math.inf
                    break
                if target < now:
                    target = now
                now = target
            if now > latest:
                latest = now
        return latest

    @staticmethod
    def _settles_after(flow: Flow, now: float) -> bool:
        """Whether a planned flow is still in flight at ``now``: it settles
        (completes or expires) later, or never — a starved flow, the only
        kind left with bytes to move and no deadline."""
        return flow.last_update > now or (flow.deadline is None and flow.remaining > 0.0)

    def _withdraw(self, flow: Flow) -> None:
        """Take back a flow's planned settle: its queued delivery or its
        expiry event (a starved flow has neither)."""
        if flow.remaining == 0.0:
            self.simulator.unbatch(*flow.pending)
        elif flow.pending is not None:
            flow.pending.cancel()
        flow.pending = None

    def _prune(self, now: float) -> None:
        """Drop the remembered bursts whose every flow has settled."""
        kept = []
        for burst in self._bursts:
            if burst[0] > now:
                kept.append(burst)
            elif self._plan_starts:
                for flow in burst[1]:
                    self._plan_starts.pop(flow.flow_id, None)
        self._bursts = kept
        self._prune_at = max(self._PRUNE_MIN, 2 * len(kept))


def make_flow_scheduler(
    model: LinkModel,
    simulator: Simulator,
    links: Mapping[str, "LinkConfig"],
    complete: Callable[[Flow], None],
    expire: Callable[[Flow], None],
    shared_engine: Optional[str] = None,
) -> FlowScheduler:
    """Build the scheduler matching ``model``'s coupling regime.

    Uncoupled models get the independent scheduler whatever ``shared_engine``
    says.  A shared model gets the lazy engine for ``None`` or ``"lazy"``
    and the numpy structure-of-arrays engine for ``"vector"``, which raises
    :class:`ValidationError` when it cannot run the model.
    """
    if not model.shared:
        return IndependentFlowScheduler(model, simulator, links, complete, expire)
    if shared_engine in (None, "lazy"):
        from repro.simnet.shared_sched import LazySharedLinkScheduler

        return LazySharedLinkScheduler(model, simulator, links, complete, expire)
    if shared_engine != "vector":
        raise ValidationError(
            "unknown shared engine %r; expected 'lazy' or 'vector'" % (shared_engine,)
        )
    from repro.simnet.vector_sched import VectorSharedLinkScheduler

    return VectorSharedLinkScheduler(model, simulator, links, complete, expire)
