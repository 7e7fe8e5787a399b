"""Interfaces shared by all consensus engines, and their common skeleton.

Engines are pure state machines: inputs are ``start``, ``set_input``,
``on_message`` and ``on_timeout`` calls; outputs are lists of :class:`Action`
objects describing what the host should do (send a message, set a timer,
record a decision).  This inversion keeps the engines testable in isolation
and lets the exact same code run under the local driver and the network
simulator.

:class:`ConsensusEngine` implements everything the view-based engines share —
view, leader check, view timer, digest memory, input handling, dispatch with
future-view buffering and ``view-N`` timeouts — so an engine supplies only its
protocol rules (see the class docstring for the contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.consensus.values import value_digest
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
    """Single-shot, view-based consensus engine skeleton.

    The base class owns the state every engine shares (``view``, ``started``,
    ``input_value``, the digest → value memory and the future-view buffer) and
    the host-facing hooks.  A subclass supplies only its protocol rules:

    * ``_HANDLERS`` — class-level map from ``msg_type`` to the name of the
      handling method (by name, so a subclass's override is the one that runs);
      other types are ignored;
    * ``_UNBUFFERED`` — the types handled even when they name a later view;
      any other message for a later view is buffered and replayed by
      :meth:`_replay_future` once the engine enters that view;
    * ``_maybe_propose()`` — propose in the current view if this node leads it
      and has a value; :meth:`start` and :meth:`set_input` call it;
    * ``_enter_view(view)`` — move to ``view``; :meth:`on_timeout` calls it
      with ``N + 1`` when the timer ``view-N`` of the current view ``N`` fires.

    Subclasses record their decision through :meth:`_decide`, which sets
    ``decided``, ``decision`` and ``decision_view`` once; a decided engine
    ignores every further message and timer.
    """

    #: Human-readable engine name (used by benchmarks and ablation tables).
    name = "abstract"

    #: Number of message rounds a decision takes in the good case (no GST,
    #: honest leader).  Used by the round-complexity analysis (Table 2).
    good_case_rounds = 0

    #: ``msg_type`` → name of the handling method.
    _HANDLERS: Dict[str, str] = {}

    #: Message types dispatched at once even when they name a later view.
    _UNBUFFERED: FrozenSet[str] = frozenset()

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.view = 0
        self.started = False
        self.input_value: Any = None
        self.decided = False
        self.decision: Any = None
        self.decision_view: Optional[int] = None
        self._values_by_digest: Dict[bytes, Any] = {}
        self._future: Dict[int, List[ConsensusMessage]] = {}

    # -- helpers -----------------------------------------------------------
    def _is_leader(self, view: Optional[int] = None) -> bool:
        """Whether this node leads ``view`` (default: the current view)."""
        view = self.view if view is None else view
        return self.config.leader_of(view) == self.config.node_id

    def _view_timer(self, view: int) -> SetTimerAction:
        return SetTimerAction(timer_id="view-%d" % view, duration=self.config.view_timeout(view))

    def _remember(self, value: Any) -> bytes:
        """Record ``value`` under its digest and return the digest."""
        digest = value_digest(value)
        self._values_by_digest[digest] = value
        return digest

    def _decide(self, value: Any, view: int) -> List[Action]:
        if self.decided:
            return []
        self.decided = True
        self.decision = value
        self.decision_view = view
        return [DecideAction(value=value, view=view)]

    # -- host-facing hooks -------------------------------------------------
    def start(self, value: Any) -> List[Action]:
        """Begin the protocol with this node's input ``value`` (may be None)."""
        self.started = True
        self.input_value = value
        actions: List[Action] = [self._view_timer(0)]
        actions.extend(self._maybe_propose())
        return actions

    def set_input(self, value: Any) -> List[Action]:
        """Provide (or update) the input value after start.

        The ICPS dissemination phase produces the (H, π) input only after the
        engine has started.
        """
        self.input_value = value
        if not self.started or self.decided:
            return []
        return self._maybe_propose()

    def on_message(self, message: ConsensusMessage) -> List[Action]:
        """Process an incoming message."""
        if self.decided:
            return []
        handler = self._HANDLERS.get(message.msg_type)
        if handler is None:
            return []
        # Messages for views we have not reached yet are buffered and replayed
        # once our own view catches up (simple view synchronisation).
        if message.view > self.view and message.msg_type not in self._UNBUFFERED:
            self._future.setdefault(message.view, []).append(message)
            return []
        return getattr(self, handler)(message)

    def on_timeout(self, timer_id: str) -> List[Action]:
        """Process a timer expiry previously requested via :class:`SetTimerAction`."""
        if self.decided or not timer_id.startswith("view-"):
            return []
        timed_out_view = int(timer_id.split("-", 1)[1])
        if timed_out_view != self.view:
            return []
        return self._enter_view(timed_out_view + 1)

    def _replay_future(self) -> List[Action]:
        """Dispatch the messages buffered for the current view."""
        actions: List[Action] = []
        for buffered in self._future.pop(self.view, []):
            actions.extend(self.on_message(buffered))
        return actions

    # -- protocol rules ----------------------------------------------------
    def _maybe_propose(self) -> List[Action]:
        raise NotImplementedError

    def _enter_view(self, view: int) -> List[Action]:
        raise NotImplementedError
