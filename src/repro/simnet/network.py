"""The simulated network: topology, fault seams, and transport wiring.

``SimNetwork`` is deliberately thin.  It owns the pieces every transport
shares — the node registry, per-node :class:`LinkConfig` capacities, pairwise
propagation latencies, byte/message accounting, and the fault-injection
seams — and delegates everything about *moving bytes* to the layered
transport pipeline:

* a :class:`~repro.simnet.linkmodel.LinkModel` (selected by name through the
  link-model registry; the ``transport`` constructor argument) decides what
  instantaneous rate each flow gets;
* a :class:`~repro.simnet.flows.FlowScheduler` (chosen automatically from the
  model's coupling regime) owns flow lifecycle: progress advancement,
  completion-time maintenance, and per-flow timeouts.

Every message becomes a *flow* of ``size_bytes`` from the sender's uplink to
the receiver's downlink; when a flow completes, the message is delivered to
the destination node after the pairwise propagation latency.  Per-flow
timeouts model directory connection timeouts: a flow that has not completed
``timeout`` seconds after it was initiated is aborted, the receiver never
sees it, and the sender's ``on_timeout`` callback fires (this is what
produces the "Giving up downloading votes" behaviour of Figure 1).

The fault injector is consulted at send initiation (drop / rewrite), at the
delivery instant (drop), for extra delivery jitter, and when node timers
fire (crash suppression) — the same seams as before the transport split, so
fault plans behave identically under every link model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.engine import EventHandle, Simulator
from repro.simnet.flows import Flow, FlowScheduler, make_flow_scheduler
from repro.simnet.linkmodel import LinkModel, get_link_model
from repro.simnet.message import Message
from repro.simnet.node import ProtocolNode
from repro.simnet.trace import TraceLog
from repro.utils import phases
from repro.utils.validation import ReproError, ValidationError, ensure


@dataclass(frozen=True)
class LinkConfig:
    """Uplink/downlink capacity schedules for one node.

    ``aggregate`` marks a first-class *aggregate endpoint*: the node stands
    in for many identical clients (a :class:`~repro.clients.cohort.ClientCohortNode`)
    and its schedules give the **per-client** capacity.  Flows to/from an
    aggregate link never share it — every unit of flow weight gets the full
    scheduled rate, as if each client had its own physical access link.
    Ordinary nodes leave the flag False and share capacity exactly as before.
    """

    uplink: BandwidthSchedule
    downlink: BandwidthSchedule
    aggregate: bool = False

    @classmethod
    def symmetric(cls, schedule: BandwidthSchedule) -> "LinkConfig":
        """Same schedule in both directions (authority links are symmetric)."""
        return cls(uplink=schedule, downlink=schedule)

    @classmethod
    def symmetric_mbps(cls, mbps: float) -> "LinkConfig":
        """Constant symmetric capacity given in Mbit/s."""
        return cls.symmetric(BandwidthSchedule.constant_mbps(mbps))

    @classmethod
    def per_client(
        cls, uplink_mbps: float, downlink_mbps: float
    ) -> "LinkConfig":
        """An aggregate endpoint with constant per-client capacities (Mbit/s)."""
        return cls(
            uplink=BandwidthSchedule.constant_mbps(uplink_mbps),
            downlink=BandwidthSchedule.constant_mbps(downlink_mbps),
            aggregate=True,
        )


@dataclass
class TransferStats:
    """Byte and message accounting for a simulation run (used by Table 1).

    Weighted transfers (cohort-aggregated client fetches) count their weight
    into the message counters — a weight-``w`` fetch is ``w`` client
    requests — while byte totals come from ``message.size_bytes``, which
    already carries the aggregate size.  Ordinary unit messages behave
    exactly as before.
    """

    bytes_sent: Dict[str, float] = field(default_factory=dict)
    bytes_delivered: Dict[str, float] = field(default_factory=dict)
    bytes_by_type: Dict[str, float] = field(default_factory=dict)
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_timed_out: int = 0
    messages_dropped: int = 0

    def record_sent(self, sender: str, message: Message, count: int = 1) -> None:
        """Account an attempted send."""
        self.bytes_sent[sender] = self.bytes_sent.get(sender, 0.0) + message.size_bytes
        self.messages_sent += count

    def record_delivered(self, sender: str, message: Message, count: int = 1) -> None:
        """Account a completed delivery."""
        self.bytes_delivered[sender] = self.bytes_delivered.get(sender, 0.0) + message.size_bytes
        self.bytes_by_type[message.msg_type] = (
            self.bytes_by_type.get(message.msg_type, 0.0) + message.size_bytes
        )
        self.messages_delivered += count

    def record_timeout(self, count: int = 1) -> None:
        """Account an aborted transfer."""
        self.messages_timed_out += count

    def record_dropped(self, count: int = 1) -> None:
        """Account a message suppressed by the fault injector."""
        self.messages_dropped += count

    @property
    def total_bytes_sent(self) -> float:
        """Total bytes handed to the transport across all nodes."""
        return sum(self.bytes_sent.values())

    @property
    def total_bytes_delivered(self) -> float:
        """Total bytes successfully delivered across all nodes."""
        return sum(self.bytes_delivered.values())


class UnknownNodeError(ReproError):
    """Raised when sending to or from a node that was never added."""


class SimNetwork:
    """Nodes plus the pluggable flow-based transport connecting them."""

    def __init__(
        self,
        simulator: Optional[Simulator] = None,
        default_latency_s: float = 0.05,
        trace: Optional[TraceLog] = None,
        transport: Union[str, LinkModel] = "fair",
        shared_engine: Optional[str] = None,
    ) -> None:
        """Build a network.

        ``transport`` selects the link model — a registry name (``"fair"``,
        ``"fifo"``, ``"tcp"``, ``"latency-only"``) or a :class:`LinkModel`
        instance for unregistered experiments.  ``shared_engine`` selects the
        shared-regime scheduler engine: ``None`` or ``"lazy"`` (what every
        spec run uses), or ``"vector"``, which raises ``ValidationError``
        when it cannot run the model — see
        :func:`repro.simnet.flows.make_flow_scheduler`.
        """
        model = transport if isinstance(transport, LinkModel) else get_link_model(transport)
        ensure(default_latency_s >= 0, "default latency must be non-negative")
        self.simulator = simulator or Simulator()
        self.trace = trace or TraceLog()
        self.stats = TransferStats()
        self._default_latency = default_latency_s
        self._nodes: Dict[str, ProtocolNode] = {}
        self._links: Dict[str, LinkConfig] = {}
        self._latency: Dict[Tuple[str, str], float] = {}
        self._model = model
        # Stateful models (tcp) reach latencies and the fault injector
        # through this back reference; pure models ignore it.
        model.attach(self)
        self._scheduler: FlowScheduler = make_flow_scheduler(
            model,
            self.simulator,
            self._links,
            self._complete_flow,
            self._expire_flow,
            shared_engine=shared_engine,
        )
        self._fault_injector = None

    # -- transport introspection -----------------------------------------------
    @property
    def transport_name(self) -> str:
        """Registry name of the active link model."""
        return self._model.name

    # -- fault injection --------------------------------------------------------
    def set_fault_injector(self, injector) -> None:
        """Attach a fault injector (see :class:`repro.faults.injector.FaultInjector`).

        The network consults it at send initiation (drop / rewrite), at the
        delivery instant (drop), for extra delivery jitter, and when node
        timers fire (crash suppression).  ``None`` detaches; with no injector
        attached the transport behaves bit-identically to before the fault
        layer existed.
        """
        self._fault_injector = injector

    @property
    def fault_injector(self):
        """The attached fault injector, if any."""
        return self._fault_injector

    # -- topology -------------------------------------------------------------
    def add_node(self, node: ProtocolNode, link: LinkConfig) -> None:
        """Register a node and its link capacities."""
        if node.name in self._nodes:
            raise ValidationError("duplicate node name %r" % node.name)
        self._nodes[node.name] = node
        self._links[node.name] = link
        node._attach(self)

    def node(self, name: str) -> ProtocolNode:
        """Return the node registered under ``name``."""
        try:
            return self._nodes[name]
        except KeyError:
            raise UnknownNodeError("unknown node %r" % name)

    def node_names(self) -> List[str]:
        """Names of all registered nodes, in insertion order."""
        return list(self._nodes)

    def nodes(self) -> List[ProtocolNode]:
        """All registered nodes, in insertion order."""
        return list(self._nodes.values())

    def set_latency(self, a: str, b: str, seconds: float) -> None:
        """Set the symmetric propagation latency between two nodes."""
        ensure(seconds >= 0, "latency must be non-negative")
        self._latency[(a, b)] = seconds
        self._latency[(b, a)] = seconds

    def latency(self, a: str, b: str) -> float:
        """Propagation latency from ``a`` to ``b`` (seconds)."""
        if a == b:
            return 0.0
        return self._latency.get((a, b), self._default_latency)

    def set_link(self, name: str, link: LinkConfig) -> None:
        """Replace a node's link configuration mid-run; in-flight transfers
        on it continue at the new capacity from ``now``.

        No experiment calls this: an attack is a bandwidth schedule built
        before the run (:meth:`~repro.attack.ddos.DDoSAttackPlan.bandwidth_overrides`),
        whose throttling window is in the node's link from :meth:`add_node`
        on.  It stays for live link changes.
        """
        if name not in self._nodes:
            raise UnknownNodeError("unknown node %r" % name)
        now = self.simulator.now
        self._scheduler.before_link_replaced(name, now)
        self._links[name] = link
        self._scheduler.on_link_replaced(name, now)

    # -- node timers ---------------------------------------------------------
    def schedule_node_timer(
        self, name: str, time: float, callback: Callable[..., None], *args
    ) -> EventHandle:
        """Schedule a protocol timer owned by node ``name`` at absolute ``time``.

        Node timers route through here (rather than straight onto the
        simulator) so the fault injector can suppress timers that fire while
        their owner is crashed — a down process runs nothing.
        """
        return self.simulator.schedule(time, self._fire_node_timer, name, callback, args)

    def _fire_node_timer(self, name: str, callback: Callable[..., None], args: Tuple) -> None:
        if self._fault_injector is not None and self._fault_injector.timer_suppressed(
            name, self.simulator.now
        ):
            return
        measured = phases.ENABLED
        if measured:
            phases.enter(phases.PROTOCOL)
        try:
            callback(*args)
        finally:
            if measured:
                phases.leave()

    # -- lifecycle -------------------------------------------------------------
    def start(self, at: float = 0.0) -> None:
        """Schedule every node's ``on_start`` hook at virtual time ``at``.

        A node that the fault injector reports as crashed at ``at`` boots
        late instead: its ``on_start`` is deferred to the end of the
        covering crash window.
        """
        for node in self._nodes.values():
            boot = at
            if self._fault_injector is not None:
                boot = self._fault_injector.boot_time(node.name, at)
            self.schedule_node_timer(node.name, boot, node.on_start)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation (see :meth:`Simulator.run`)."""
        return self.simulator.run(until=until)

    # -- transport -------------------------------------------------------------
    def send(
        self,
        sender: str,
        destination: str,
        message: Message,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[Message, str], None]] = None,
        on_delivered: Optional[Callable[[Message, str, float], None]] = None,
        weight: int = 1,
    ) -> int:
        """Initiate a transfer of ``message`` from ``sender`` to ``destination``.

        ``weight`` aggregates identical endpoint transfers into one flow
        (cohort client fetches): the flow takes ``weight`` shares of every
        shared link and ``message.size_bytes`` must carry the aggregate byte
        count.  Returns the flow id (0 when no flow was created: latency-only
        deliveries of empty messages, or messages dropped by the fault
        injector at send initiation).
        """
        return self.send_many(
            sender, (destination,), message, timeout, on_timeout, on_delivered, weight
        )[0]

    def send_many(
        self,
        sender: str,
        destinations: Iterable[str],
        message: Message,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[Message, str], None]] = None,
        on_delivered: Optional[Callable[[Message, str, float], None]] = None,
        weight: int = 1,
    ) -> List[int]:
        """Broadcast fast path: one shared ``message`` to many destinations.

        The per-destination :meth:`send` loop a broadcast would otherwise be
        creates one message, one flow, and one rate pass per destination —
        O(N²) object and rate churn per round at 300 authorities.  Here one
        :class:`Message` (whose payload/size were built once, e.g. via
        :class:`~repro.simnet.message.SharedPayload`) is shared by every
        flow, and the whole burst is admitted through the scheduler's
        ``start_flows`` batch, one rate pass over the final occupancy.

        Accounting, fault filtering (a rewrite replaces the message for that
        destination only), timeouts, and callbacks behave exactly as N
        ``send`` calls; flow ids are assigned in destination order and are
        identical to the loop's.  Returns one flow id per destination (0 for
        dropped or zero-size entries).  :meth:`send` is the one-destination
        case of this method.
        """
        destinations = list(destinations)
        if sender not in self._nodes:
            raise UnknownNodeError("unknown sender %r" % sender)
        for destination in destinations:
            if destination not in self._nodes:
                raise UnknownNodeError("unknown destination %r" % destination)
            if destination == sender:
                raise ValidationError("a node cannot send a message to itself")
        ensure(weight >= 1, "flow weight must be at least 1")
        # Flow admission is transport work even when a protocol handler calls
        # it (rate maintenance dominates a broadcast burst's cost), so the
        # phase accounting claims it out of the enclosing protocol bucket.
        measured = phases.ENABLED
        if measured:
            phases.enter(phases.TRANSPORT)
        try:
            message.sender = sender
            now = self.simulator.now
            deadline = None if timeout is None else now + timeout
            injector = self._fault_injector
            flow_ids: List[int] = []
            flows: List[Flow] = []
            for destination in destinations:
                self.stats.record_sent(sender, message, count=weight)
                outgoing = message
                if injector is not None:
                    filtered = injector.filter_send(sender, destination, message, now)
                    if filtered is None:
                        self.stats.record_dropped(count=weight)
                        flow_ids.append(0)
                        continue
                    filtered.sender = sender
                    outgoing = filtered
                if outgoing.size_bytes <= 0:
                    self._schedule_delivery(
                        sender, destination, outgoing, on_delivered, weight, now
                    )
                    flow_ids.append(0)
                    continue
                flow = Flow(
                    flow_id=self.simulator.next_serial(),
                    src=sender,
                    dst=destination,
                    message=outgoing,
                    start_time=now,
                    deadline=deadline,
                    on_timeout=on_timeout,
                    on_delivered=on_delivered,
                    weight=weight,
                )
                flow_ids.append(flow.flow_id)
                flows.append(flow)
            if flows:
                self._scheduler.start_flows(flows, now)
            return flow_ids
        finally:
            if measured:
                phases.leave()

    def active_flow_count(self) -> int:
        """Number of in-flight transfers (mostly for tests and debugging)."""
        return self._scheduler.active_count()

    def engine_counters(self) -> Dict[str, int]:
        """The event loop's counters plus whatever the flow scheduler counts."""
        return {**self.simulator.counters(), **self._scheduler.counters()}

    # -- scheduler callbacks -----------------------------------------------------
    def _complete_flow(self, flow: Flow, at: Optional[float] = None) -> Tuple[Tuple, Tuple]:
        """A flow finished moving bytes at ``at`` (default: now); deliver
        after propagation latency.  Returns the delivery's batch slot and
        item, which withdraw it (see :meth:`_schedule_delivery`)."""
        return self._schedule_delivery(
            flow.src, flow.dst, flow.message, flow.on_delivered, flow.weight, flow.start_time, at
        )

    def _expire_flow(self, flow: Flow) -> None:
        """A flow hit its deadline; account it and notify the sender."""
        self.stats.record_timeout(count=flow.weight)
        if flow.on_timeout is not None:
            flow.on_timeout(flow.message, flow.dst)

    # -- delivery ---------------------------------------------------------------
    def _schedule_delivery(
        self,
        sender: str,
        destination: str,
        message: Message,
        on_delivered: Optional[Callable[[Message, str, float], None]],
        weight: int,
        sent_at: Optional[float],
        at: Optional[float] = None,
    ) -> Tuple[Tuple, Tuple]:
        """Schedule one delivery of a transfer that ends at ``at`` (default:
        now), coalescing same-instant arrivals per node.

        Every message arriving at ``destination`` at the same instant shares
        **one** heap event keyed ``(time, node)`` (a symmetric broadcast
        round completes N-1 transfers into each node at identical instants,
        so this turns O(N²) delivery events per round into O(N)).  Within
        the batch, deliveries run in the order they were scheduled.  Returns
        the batch slot and the queued item, for
        :meth:`~repro.simnet.engine.Simulator.unbatch`.
        """
        now = self.simulator.now if at is None else at
        # Propagation latency (sender != destination: send() refuses
        # self-sends) plus any fault-injected jitter.
        latency = self._latency.get((sender, destination), self._default_latency)
        if self._fault_injector is not None:
            latency += self._fault_injector.delivery_jitter(sender, destination, now)
        item = (sender, destination, message, on_delivered, weight, sent_at)
        return self.simulator.schedule_batch(now + latency, destination, self._deliver, item), item

    def _deliver(self, items: Iterable[Tuple]) -> None:
        """Hand over the deliveries of one heap event, in order."""
        now = self.simulator.now
        for sender, destination, message, on_delivered, weight, sent_at in items:
            if self._fault_injector is not None and not self._fault_injector.filter_delivery(
                sender, destination, message, now, sent_at=sent_at
            ):
                self.stats.record_dropped(count=weight)
                continue
            self.stats.record_delivered(sender, message, weight)
            measured = phases.ENABLED
            if measured:
                phases.enter(phases.PROTOCOL)
            try:
                if on_delivered is not None:
                    on_delivered(message, destination, now)
                self._nodes[destination].receive(message, now)
            finally:
                if measured:
                    phases.leave()
