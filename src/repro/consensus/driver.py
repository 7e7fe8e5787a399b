"""A deterministic local driver for consensus engines.

The driver executes a set of engines in virtual time without the full network
simulator: messages are delivered after a configurable delay function, timers
fire exactly when requested, and Byzantine participants can be plugged in as
engine-like objects.  It is the workhorse of the consensus unit tests and the
property-based safety tests, where we need to explore partitions, message
delays (GST), and faulty leaders cheaply.
"""

from __future__ import annotations

import heapq
import itertools
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
        """True when every decided node decided the same value."""
        values = {repr(value) for value in self.decisions.values()}
        return len(values) <= 1


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
        self._queue: List[Tuple[float, int, str, str, Any]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self.messages_delivered = 0
        self.decision_times: Dict[str, float] = {}

    # -- scheduling ------------------------------------------------------------
    def _push(self, time: float, kind: str, node: str, payload: Any) -> None:
        heapq.heappush(self._queue, (time, next(self._seq), kind, node, payload))

    def _handle_actions(self, node: str, actions: List[Action]) -> None:
        for action in actions:
            if isinstance(action, SendAction):
                self._route(node, action.to, action.message)
            elif isinstance(action, BroadcastAction):
                for receiver in self.engines:
                    if receiver == node and not self.loopback_broadcast:
                        continue
                    self._route(node, receiver, action.message)
            elif isinstance(action, SetTimerAction):
                self._push(self._now + action.duration, "timeout", node, action.timer_id)
            elif isinstance(action, DecideAction):
                self.decision_times.setdefault(node, self._now)

    def _route(self, sender: str, receiver: str, message: ConsensusMessage) -> None:
        if receiver not in self.engines or receiver in self.crashed:
            return
        if sender == receiver:
            # Loopback messages are processed without network delay.
            self._push(self._now, "deliver", receiver, message)
            return
        delivery_time = self.delivery_policy(sender, receiver, message, self._now)
        if delivery_time is None:
            return
        self._push(max(delivery_time, self._now), "deliver", receiver, message)

    # -- execution ------------------------------------------------------------
    def start(self, inputs: Dict[str, Any]) -> None:
        """Call ``start`` on every non-crashed engine with its input value."""
        for node, engine in self.engines.items():
            if node in self.crashed:
                continue
            actions = engine.start(inputs.get(node))
            self._handle_actions(node, actions)

    def set_input(self, node: str, value: Any) -> None:
        """Late-provide an input value to one engine (used by ICPS)."""
        if node in self.crashed:
            return
        actions = self.engines[node].set_input(value)
        self._handle_actions(node, actions)

    def run(
        self,
        until: float = 1_000.0,
        stop_when_all_decided: bool = True,
        max_events: int = 1_000_000,
    ) -> DriverResult:
        """Run the event loop and return the collected decisions.

        Events after ``until`` stay queued for a later ``run``.  Like
        :meth:`repro.simnet.engine.Simulator.run`, ``max_events`` is an exact
        bound: at most that many events execute, and the error is raised
        only when a further event for a live node is still due.
        """
        executed = 0
        queue = self._queue
        while queue:
            if stop_when_all_decided and self._all_correct_decided():
                break
            time, _seq, kind, node, payload = queue[0]
            if time > until:
                self._now = until
                break
            if executed >= max_events and node not in self.crashed:
                raise RuntimeError("LocalDriver exceeded max_events=%d" % max_events)
            heapq.heappop(queue)
            self._now = time
            if node in self.crashed:
                continue
            engine = self.engines[node]
            if kind == "deliver":
                self.messages_delivered += 1
                actions = engine.on_message(payload)
            else:
                actions = engine.on_timeout(payload)
            self._handle_actions(node, actions)
            executed += 1
        return self.result()

    def _all_correct_decided(self) -> bool:
        return all(
            engine.decided for node, engine in self.engines.items() if node not in self.crashed
        )

    def result(self) -> DriverResult:
        """Collect the decisions made so far."""
        decisions = {
            node: engine.decision
            for node, engine in self.engines.items()
            if node not in self.crashed and engine.decided
        }
        views = {
            node: engine.decision_view
            for node, engine in self.engines.items()
            if node not in self.crashed and engine.decided
        }
        return DriverResult(
            decisions=decisions,
            decision_views=views,
            decision_times=dict(self.decision_times),
            messages_delivered=self.messages_delivered,
            final_time=self._now,
        )
