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
    five bulk hooks and needs nothing else registered anywhere.  Every run a
    spec describes uses it.  See :mod:`repro.simnet.shared_sched`.

:class:`~repro.simnet.vector_sched.VectorSharedLinkScheduler` (``shared_engine="vector"``)
    A numpy structure-of-arrays engine for ``fair`` and ``tcp``, built only
    when a network is constructed with ``shared_engine="vector"``: per-flow
    state in slot arrays, one batched rate pass and one wake event per
    instant.  See :mod:`repro.simnet.vector_sched`.

:class:`IndependentFlowScheduler` (``not LinkModel.shared``)
    For models where a flow's rate depends on its own two links only
    (``latency-only``).  Every flow is aimed at one pending event at the
    minimum of its completion estimate, its deadline, and its links' next
    bandwidth breakpoints; flows of one burst that land on the same instant
    share that event, flow events cost O(1) and never touch other flows,
    which is what makes 10×-paper node counts tractable.

Flow ids come from the simulator's serial counter
(:meth:`~repro.simnet.engine.Simulator.next_serial`), so the fifo model's
arrival order is the event loop's own deterministic order and no per-network
id generator is needed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from repro.simnet.engine import EventHandle, Simulator
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
        # (shared engines) or a wave of same-instant flows (independent).
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
        :meth:`on_link_replaced` must be called when an entry is swapped.
    complete / expire:
        Network callbacks fired when a flow finishes or times out.  The
        network owns delivery latency, fault filtering, and accounting; the
        scheduler owns *when*.
    """

    def __init__(
        self,
        model: LinkModel,
        simulator: Simulator,
        links: Mapping[str, "LinkConfig"],
        complete: Callable[[Flow], None],
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
        scheduler share heap events across it.
        """
        raise NotImplementedError

    def on_link_replaced(self, name: str, now: float) -> None:
        """React to ``links[name]`` having been swapped mid-run."""
        raise NotImplementedError


class _Wave:
    """One heap event shared by the flows that are due at the same instant.

    ``aimed`` counts the member flows whose ``pending`` is still this wave.
    A flow that is re-aimed or settled before the event fires gives up its
    claim; the event is cancelled only when the last claim goes, never on
    behalf of a sibling.
    """

    __slots__ = ("flows", "aimed", "handle")

    def __init__(self, flow: Flow) -> None:
        self.flows = [flow]
        self.aimed = 1
        self.handle: Optional[EventHandle] = None


class IndependentFlowScheduler(FlowScheduler):
    """Scheduler for link models whose flow rates never couple (latency-only).

    Each flow is aimed at exactly one pending event — the earliest of its
    completion estimate, its deadline, and its links' next bandwidth
    breakpoints — so a flow starting or finishing costs O(1) regardless of
    how many other transfers are in flight.  Flows refreshed in one pass (a
    ``send_many`` burst, a replaced link's flows, the members of a firing
    wave) that land on the same instant share one :class:`_Wave`: on
    homogeneous links a broadcast to N-1 peers is one heap event, not N-1.
    Event order stays exactly ``(time, seq)``; DESIGN-transport.md has the
    argument.
    """

    def start_flows(self, flows: List[Flow], now: float) -> None:
        waves: Dict[float, _Wave] = {}
        for flow in flows:
            self._add(flow)
            self._refresh(flow, now, waves)

    def on_link_replaced(self, name: str, now: float) -> None:
        waves: Dict[float, _Wave] = {}
        # A flow is on the node's uplink or its downlink, never both.
        for flow in [*self._by_src.get(name, {}).values(), *self._by_dst.get(name, {}).values()]:
            self._refresh(flow, now, waves)

    # -- machinery ---------------------------------------------------------
    def _refresh(self, flow: Flow, now: float, waves: Dict[float, _Wave]) -> None:
        """Advance one flow to ``now``, settle it, or aim it at its next event.

        ``waves`` holds the waves this pass has opened, by instant.  Settling
        a flow runs code that may schedule events, and a wave must not span
        those (its members would fire out of scheduling order), so it closes
        them: later flows of the pass open fresh ones.
        """
        elapsed = now - flow.last_update
        if elapsed > 0 and flow.rate > 0:
            # Clamped like the shared scheduler's advance: the completion
            # event lands at fl(now + remaining/rate), whose rounding error
            # grows with virtual time — by t ≈ 3000 s a 31 MB/s flow can
            # overshoot its residual by ~1e-5 bytes, past the byte epsilon.
            remaining = flow.remaining - flow.rate * elapsed
            flow.remaining = remaining if remaining > 0.0 else 0.0
        flow.last_update = now

        wave = flow.pending
        if wave is not None:
            flow.pending = None
            wave.aimed -= 1
            if not wave.aimed:
                wave.handle.cancel()

        if self._is_complete(flow, now):
            self._remove(flow)
            self._clamp_residual(flow)
            waves.clear()
            self._complete(flow)
            return
        deadline = flow.deadline
        if deadline is not None and now >= deadline - _TIME_EPSILON:
            self._remove(flow)
            waves.clear()
            self._expire(flow)
            return

        flow.rate = rate = self.model.flow_rate(flow, self._links, now)
        # Earliest of completion, deadline and both links' next breakpoints.
        target = now + flow.remaining / rate if rate > 0 else deadline
        if deadline is not None and deadline < target:
            target = deadline
        change = self._links[flow.src].uplink.next_change_after(now)
        if change is not None and (target is None or change < target):
            target = change
        change = self._links[flow.dst].downlink.next_change_after(now)
        if change is not None and (target is None or change < target):
            target = change
        if target is None:
            # Zero rate forever and no deadline: the transfer can never
            # finish nor abort, exactly like a starved shared-model flow.
            return
        if target < now:
            target = now

        wave = waves.get(target)
        if wave is None:
            wave = waves[target] = _Wave(flow)
            wave.handle = self.simulator.schedule(target, self._on_wave_event, wave)
        else:
            wave.flows.append(flow)
            wave.aimed += 1
        flow.pending = wave

    def _on_wave_event(self, wave: _Wave) -> None:
        now = self.simulator.now
        waves: Dict[float, _Wave] = {}
        for flow in wave.flows:
            # Still aimed at this event?  A flow that was re-aimed (link
            # replaced) or settled since is someone else's, or nobody's.
            if flow.pending is wave:
                flow.pending = None
                self._refresh(flow, now, waves)
        wave.handle = None  # the handle's args hold the wave: drop the cycle


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
