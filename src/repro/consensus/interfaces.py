"""Interfaces shared by all consensus engines.

Engines are pure state machines: inputs are ``start``, ``on_message``, and
``on_timeout`` calls; outputs are lists of :class:`Action` objects describing
what the host should do (send a message, set a timer, record a
decision).  This inversion keeps the engines testable in isolation and lets
the exact same code run under the local driver and the network simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.utils.validation import ValidationError, ensure


@dataclass(frozen=True)
class ConsensusMessage:
    """A message exchanged by consensus engines.

    Attributes
    ----------
    msg_type:
        Engine-specific type tag (e.g. ``"PREPARE"``, ``"NEW-VIEW"``).
    sender:
        Node identifier of the sender.
    view:
        View/round number the message belongs to.
    payload:
        Engine-specific content (values, digests, quorum certificates).
    """

    msg_type: str
    sender: str
    view: int
    payload: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return "%s(view=%d, from=%s)" % (self.msg_type, self.view, self.sender)


class Action:
    """Base class of engine outputs."""


@dataclass(frozen=True)
class SendAction(Action):
    """Send ``message`` to a single peer."""

    to: str
    message: ConsensusMessage


@dataclass(frozen=True)
class BroadcastAction(Action):
    """Send ``message`` to every node, including the sender itself."""

    message: ConsensusMessage


@dataclass(frozen=True)
class SetTimerAction(Action):
    """Ask the host to call ``on_timeout(timer_id)`` after ``duration`` seconds."""

    timer_id: str
    duration: float


@dataclass(frozen=True)
class DecideAction(Action):
    """The engine has decided ``value`` (in ``view``)."""

    value: Any
    view: int


@dataclass(frozen=True)
class EngineConfig:
    """Static configuration of a consensus engine instance.

    Attributes
    ----------
    node_id:
        This node's identifier.
    nodes:
        All participating node identifiers, in a globally agreed order (the
        order defines the round-robin leader schedule).
    base_timeout:
        View timer for view 0, in seconds.
    timeout_growth:
        Multiplicative view-timer back-off (standard for partial synchrony:
        timers grow until they exceed the unknown post-GST latency).
    validator:
        External-validity predicate applied to proposed values; invalid
        proposals are ignored.  Defaults to accepting anything.
    """

    node_id: str
    nodes: Tuple[str, ...]
    base_timeout: float = 10.0
    timeout_growth: float = 1.5
    validator: Optional[Callable[[Any], bool]] = None

    def __post_init__(self) -> None:
        ensure(len(self.nodes) >= 1, "need at least one node")
        if self.node_id not in self.nodes:
            raise ValidationError("node_id %r must be listed in nodes" % self.node_id)
        if len(set(self.nodes)) != len(self.nodes):
            raise ValidationError("node identifiers must be unique")
        ensure(self.base_timeout > 0, "base_timeout must be positive")
        ensure(self.timeout_growth >= 1.0, "timeout_growth must be >= 1")

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def f(self) -> int:
        """Maximum number of Byzantine nodes tolerated (⌊(n-1)/3⌋)."""
        return (self.n - 1) // 3

    @property
    def quorum(self) -> int:
        """Quorum size (n - f, i.e. at least 2f + 1)."""
        return self.n - self.f

    def leader_of(self, view: int) -> str:
        """Round-robin leader of ``view``."""
        ensure(view >= 0, "view must be non-negative")
        return self.nodes[view % self.n]

    def view_timeout(self, view: int) -> float:
        """Timer duration for ``view`` (exponential back-off)."""
        return self.base_timeout * (self.timeout_growth ** view)

    def is_valid_value(self, value: Any) -> bool:
        """Apply the external-validity predicate."""
        if self.validator is None:
            return True
        return bool(self.validator(value))


class ConsensusEngine:
    """Abstract single-shot consensus engine.

    Subclasses must implement :meth:`start`, :meth:`on_message`, and
    :meth:`on_timeout`; they should use :meth:`_decide` to record their
    decision so that the common ``decided``/``decision`` accessors work.
    """

    #: Human-readable engine name (used by benchmarks and ablation tables).
    name = "abstract"

    #: Number of message rounds a decision takes in the good case (no GST,
    #: honest leader).  Used by the round-complexity analysis (Table 2).
    good_case_rounds = 0

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self._decided = False
        self._decision: Any = None
        self._decision_view: Optional[int] = None

    # -- common state ------------------------------------------------------
    @property
    def decided(self) -> bool:
        """True once the engine has decided."""
        return self._decided

    @property
    def decision(self) -> Any:
        """The decided value (None before a decision)."""
        return self._decision

    @property
    def decision_view(self) -> Optional[int]:
        """The view in which the decision happened."""
        return self._decision_view

    def _decide(self, value: Any, view: int) -> List[Action]:
        if self._decided:
            return []
        self._decided = True
        self._decision = value
        self._decision_view = view
        return [DecideAction(value=value, view=view)]

    # -- hooks ----------------------------------------------------------------
    def start(self, value: Any) -> List[Action]:
        """Begin the protocol with this node's input ``value``."""
        raise NotImplementedError

    def set_input(self, value: Any) -> List[Action]:
        """Update this node's input value after start (default: store only).

        The ICPS dissemination phase may produce the leader's (H, π) input
        only after the engine has started; engines that can use a late input
        override this hook.
        """
        raise NotImplementedError

    def on_message(self, message: ConsensusMessage) -> List[Action]:
        """Process an incoming message."""
        raise NotImplementedError

    def on_timeout(self, timer_id: str) -> List[Action]:
        """Process a timer expiry previously requested via :class:`SetTimerAction`."""
        raise NotImplementedError
