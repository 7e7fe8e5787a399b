"""Base class for protocol state machines running on the simulated network.

A :class:`ProtocolNode` owns a name, a reference to the network it was added
to, and convenience wrappers for the three things a directory-protocol
participant does: send messages, set timers, and log.  Subclasses implement
``on_start`` (called when the simulation starts) and ``on_message`` (called
whenever a message is delivered to the node).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, TYPE_CHECKING

from repro.simnet.engine import EventHandle
from repro.simnet.message import Message
from repro.utils.validation import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simnet.network import SimNetwork


class NodeNotAttachedError(ReproError):
    """Raised when a node is used before being added to a network."""


class ProtocolNode:
    """A named participant of a simulated protocol run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.network: Optional["SimNetwork"] = None

    # -- wiring ----------------------------------------------------------
    def _attach(self, network: "SimNetwork") -> None:
        self.network = network

    def _require_network(self) -> "SimNetwork":
        if self.network is None:
            raise NodeNotAttachedError("node %r is not attached to a network" % self.name)
        return self.network

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._require_network().simulator.now

    # -- actions -------------------------------------------------------------
    def send(
        self,
        destination: str,
        message: Message,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[Message, str], None]] = None,
        on_delivered: Optional[Callable[[Message, str, float], None]] = None,
        weight: int = 1,
    ) -> None:
        """Send ``message`` to ``destination``.

        ``timeout`` (seconds) bounds how long the transfer may take; when it
        expires the transfer is aborted and ``on_timeout(message, destination)``
        is invoked on the sender.  ``on_delivered`` is invoked on the sender
        when the transfer completes.  ``weight`` aggregates identical
        endpoint transfers into one weighted flow (see
        :meth:`repro.simnet.network.SimNetwork.send`).
        """
        self._require_network().send(
            self.name,
            destination,
            message,
            timeout=timeout,
            on_timeout=on_timeout,
            on_delivered=on_delivered,
            weight=weight,
        )

    def broadcast(
        self,
        make_message: Callable[[str], Message],
        targets: Optional[Iterable[str]] = None,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[Message, str], None]] = None,
    ) -> int:
        """Send one message to every other node (or to ``targets``).

        ``make_message`` is called once per destination so each transfer gets
        its own :class:`Message` instance.  Returns the number of messages sent.
        """
        network = self._require_network()
        destinations = list(targets) if targets is not None else [
            name for name in network.node_names() if name != self.name
        ]
        for destination in destinations:
            self.send(destination, make_message(destination), timeout=timeout, on_timeout=on_timeout)
        return len(destinations)

    def broadcast_message(
        self,
        message: Message,
        targets: Optional[Iterable[str]] = None,
        timeout: Optional[float] = None,
        on_timeout: Optional[Callable[[Message, str], None]] = None,
    ) -> int:
        """Send one *shared* message to every other node (or to ``targets``).

        The batched twin of :meth:`broadcast` for the common case where every
        destination gets identical content: the single ``message`` (payload
        serialised/sized once) is shared across all transfers and the burst
        is admitted through the network's broadcast fast path
        (:meth:`repro.simnet.network.SimNetwork.send_many`).  Returns the
        number of messages sent.
        """
        network = self._require_network()
        destinations = list(targets) if targets is not None else [
            name for name in network.node_names() if name != self.name
        ]
        network.send_many(
            self.name, destinations, message, timeout=timeout, on_timeout=on_timeout
        )
        return len(destinations)

    def set_timer(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Timers route through the network so a fault injector can suppress
        them while this node is crashed.
        """
        network = self._require_network()
        return network.schedule_node_timer(
            self.name, network.simulator.now + delay, callback, *args
        )

    def set_timer_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        return self._require_network().schedule_node_timer(self.name, time, callback, *args)

    def cancel_timer(self, handle: Optional[EventHandle]) -> None:
        """Cancel a timer created with :meth:`set_timer`."""
        self._require_network().simulator.cancel(handle)

    def log(self, level: str, text: str) -> None:
        """Record a Tor-style log line attributed to this node."""
        network = self._require_network()
        network.trace.record(network.simulator.now, self.name, level, text)

    # -- protocol hooks ----------------------------------------------------
    def on_start(self) -> None:
        """Called once when the simulation starts.  Default: nothing."""

    def on_message(self, message: Message, now: float) -> None:
        """Called when a message is delivered to this node."""
        raise NotImplementedError

    # -- delivery entry point (used by the network) -------------------------
    def receive(self, message: Message, now: float) -> None:
        """Deliver ``message`` to this node at virtual time ``now``."""
        self.on_message(message, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "%s(name=%r)" % (type(self).__name__, self.name)
