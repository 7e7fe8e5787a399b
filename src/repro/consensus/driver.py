"""A deterministic local driver for consensus engines.

The driver executes a set of engines in virtual time without the network and
transport layers: messages are delivered after a configurable delay function,
timers fire exactly when requested, and Byzantine participants can be plugged
in as engine-like objects.  It is the workhorse of the consensus unit tests
and the property-based safety tests, where we need to explore partitions,
message delays (GST), and faulty leaders cheaply.

Deliveries and timeouts are events on a :class:`~repro.simnet.engine.Simulator`
(:attr:`LocalDriver.simulator`), so ordering, ``until`` and the exact
``max_events`` bound are the simulator's.  :meth:`LocalDriver.run` stops early
once every correct (non-crashed) node has decided: at once if they already
have, otherwise right after the event that made the last one decide.  Later
events stay queued, and only that one event stops the loop, so a direct
``simulator.run`` keeps going past the decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.consensus.interfaces import (
    Action,
    BroadcastAction,
    ConsensusMessage,
    DecideAction,
    SendAction,
    SetTimerAction,
)
from repro.simnet.engine import Simulator
from repro.utils.validation import ensure

#: Returns the delivery time of a message, or None to drop it.
DeliveryPolicy = Callable[[str, str, ConsensusMessage, float], Optional[float]]


def synchronous_delivery(latency: float = 0.01) -> DeliveryPolicy:
    """Delivery policy: every message arrives after a constant latency."""

    def policy(sender: str, receiver: str, message: ConsensusMessage, now: float) -> Optional[float]:
        return now + latency

    return policy


def gst_delivery(gst: float, latency: float = 0.01) -> DeliveryPolicy:
    """Partial-synchrony delivery: before ``gst`` messages are held back.

    Messages sent before GST are delivered at ``gst + latency`` (they are not
    lost — partial synchrony only delays them); messages sent after GST take
    the normal latency.
    """

    def policy(sender: str, receiver: str, message: ConsensusMessage, now: float) -> Optional[float]:
        if now < gst:
            return gst + latency
        return now + latency

    return policy


def partition_delivery(
    groups: Tuple[Tuple[str, ...], ...],
    heal_time: float,
    latency: float = 0.01,
) -> DeliveryPolicy:
    """Messages between different groups are delayed until ``heal_time``."""

    membership: Dict[str, int] = {}
    for index, group in enumerate(groups):
        for node in group:
            membership[node] = index

    def policy(sender: str, receiver: str, message: ConsensusMessage, now: float) -> Optional[float]:
        same_group = membership.get(sender) == membership.get(receiver)
        if same_group or now >= heal_time:
            return now + latency
        return heal_time + latency

    return policy


@dataclass
class DriverResult:
    """Outcome of a :class:`LocalDriver` run."""

    decisions: Dict[str, Any]
    decision_views: Dict[str, int]
    decision_times: Dict[str, float]
    messages_delivered: int
    final_time: float

    def all_agree(self) -> bool:
        """True when every decided node decided an equal value."""
        values = list(self.decisions.values())
        return all(value == values[0] for value in values[1:])


class _AllDecided(Exception):
    """Raised by a driver callback once every correct node has decided."""


class LocalDriver:
    """Runs a set of consensus engines in deterministic virtual time."""

    def __init__(
        self,
        engines: Dict[str, Any],
        delivery_policy: Optional[DeliveryPolicy] = None,
        crashed: Tuple[str, ...] = (),
        loopback_broadcast: bool = True,
    ) -> None:
        ensure(len(engines) >= 1, "need at least one engine")
        self.engines = dict(engines)
        self.delivery_policy = delivery_policy or synchronous_delivery()
        self.crashed = set(crashed)
        # Consensus engines expect their own broadcasts back (loopback); ICPS
        # nodes handle self-delivery internally and set this to False.
        self.loopback_broadcast = loopback_broadcast
        self.simulator = Simulator()
        self.messages_delivered = 0
        self.decision_times: Dict[str, float] = {}

    # -- scheduling ------------------------------------------------------------
    def _handle_actions(self, node: str, actions: List[Action]) -> None:
        now = self.simulator.now
        for action in actions:
            if isinstance(action, SendAction):
                self._route(node, action.to, action.message)
            elif isinstance(action, BroadcastAction):
                for receiver in self.engines:
                    if receiver == node and not self.loopback_broadcast:
                        continue
                    self._route(node, receiver, action.message)
            elif isinstance(action, SetTimerAction):
                self.simulator.schedule(now + action.duration, self._timeout, node, action.timer_id)
            elif isinstance(action, DecideAction):
                self.decision_times.setdefault(node, now)

    def _route(self, sender: str, receiver: str, message: ConsensusMessage) -> None:
        if receiver not in self.engines or receiver in self.crashed:
            return
        now = self.simulator.now
        if sender == receiver:
            # Loopback messages are processed without network delay.
            self.simulator.schedule(now, self._deliver, receiver, message)
            return
        delivery_time = self.delivery_policy(sender, receiver, message, now)
        if delivery_time is None:
            return
        self.simulator.schedule(max(delivery_time, now), self._deliver, receiver, message)

    def _deliver(self, node: str, message: ConsensusMessage) -> None:
        self.messages_delivered += 1
        self._react(node, self.engines[node].on_message, message)

    def _timeout(self, node: str, timer_id: str) -> None:
        self._react(node, self.engines[node].on_timeout, timer_id)

    def _react(self, node: str, handler: Callable[[Any], List[Action]], argument: Any) -> None:
        engine = self.engines[node]
        was_decided = engine.decided
        self._handle_actions(node, handler(argument))
        # Only the node that handled the event can have become decided; the
        # event that completes the set of correct deciders ends the run.
        if not was_decided and engine.decided and self._all_correct_decided():
            raise _AllDecided

    # -- execution ------------------------------------------------------------
    def start(self, inputs: Dict[str, Any]) -> None:
        """Call ``start`` on every non-crashed engine with its input value."""
        for node, engine in self.engines.items():
            if node not in self.crashed:
                self._handle_actions(node, engine.start(inputs.get(node)))

    def set_input(self, node: str, value: Any) -> None:
        """Late-provide an input value to one engine (used by ICPS)."""
        if node not in self.crashed:
            self._handle_actions(node, self.engines[node].set_input(value))

    def run(self, until: float = 1_000.0, max_events: int = 1_000_000) -> DriverResult:
        """Run :attr:`simulator` until ``until`` and return the collected decisions.

        Returns early once every correct node has decided (see the module
        docstring); events after the stop or after ``until`` stay queued.
        ``max_events`` is the simulator's exact bound and raises its
        :class:`~repro.simnet.engine.SimulationError`.
        """
        if not self._all_correct_decided():
            try:
                self.simulator.run(until=until, max_events=max_events)
            except _AllDecided:
                pass
        return self.result()

    def _all_correct_decided(self) -> bool:
        return all(
            engine.decided for node, engine in self.engines.items() if node not in self.crashed
        )

    def result(self) -> DriverResult:
        """Collect the decisions made so far."""
        decided = {
            node: engine
            for node, engine in self.engines.items()
            if node not in self.crashed and engine.decided
        }
        return DriverResult(
            decisions={node: engine.decision for node, engine in decided.items()},
            decision_views={node: engine.decision_view for node, engine in decided.items()},
            decision_times=dict(self.decision_times),
            messages_delivered=self.messages_delivered,
            final_time=self.simulator.now,
        )
