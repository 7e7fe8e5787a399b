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
    occupancy); the lazy engine maintains the arrival queues and serving
    counts incrementally (:class:`repro.simnet.shared_sched.FifoLazyRater`)
    and touches only the promoted flow and the two affected downlinks.

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
    the scheduler maintain one O(1) completion event per flow instead of any
    global recompute — the model to reach node counts far beyond paper scale
    (``perfbench``'s ``event_floor`` workload runs it at 200 authorities).

Models register by name via :func:`register_link_model`; the name travels on
:class:`~repro.runtime.spec.RunSpec` (field ``transport``) and therefore
joins the spec hash and result-cache key.  The rate arithmetic of a shared
model lives with the engine that evaluates it: a
:class:`~repro.simnet.shared_sched.LazyRater` registered under the model's
name in :data:`repro.simnet.shared_sched.LAZY_RATERS` (required — a shared
model without one is refused at network construction) and, optionally, a
vector policy in :data:`repro.simnet.vector_sched.VECTOR_POLICIES`.
``fair``, ``fifo`` and ``tcp`` ship both.  The from-scratch statement of the
same arithmetic is the test-side reference model,
``tests/simnet/reference_sched.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional, Tuple, Type

from repro.utils.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.flows import Flow
    from repro.simnet.network import LinkConfig


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
        scheduler: per-flow completion events, no recompute).
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


class FairShareLinkModel(LinkModel):
    """Equal split per link; a flow gets the minimum of its two shares."""

    name = "fair"
    shared = True


class FifoLinkModel(LinkModel):
    """Strict arrival-order uplinks; fair sharing on the downlink."""

    name = "fifo"
    shared = True


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

    __slots__ = (
        "cwnd", "ssthresh", "srtt", "devrtt", "rto", "base_rtt", "next_tick", "dupacks",
    )

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


class TcpLinkModel(LinkModel):
    """Reno-style congestion control over weighted fair link shares.

    Each flow stands in for ``weight`` identical TCP connections sharing one
    congestion state.  The model keeps the ``fair`` share as the capacity
    constraint and caps it by the window-limited rate ``cwnd × MSS / estRTT``;
    the congestion state advances at *ack ticks* (one per estimated RTT),
    which the flow schedulers drive through per-flow simulator events
    (:class:`repro.simnet.shared_sched.TcpLazyRater`) or the vector engine's
    single wake scan (:class:`repro.simnet.vector_sched._TcpVectorPolicy`).

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
        This is the **one** Reno state machine —
        :class:`repro.simnet.shared_sched.TcpLazyRater` ticks, the vector
        engine's ``_TcpVectorPolicy`` and the test-side reference scheduler
        all drive transitions through this method, so they cannot drift
        apart.
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
