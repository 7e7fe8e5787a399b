"""The ICPS protocol node (dissemination → agreement → aggregation).

:class:`ICPSNode` is a pure state machine with the same action-based
interface as the consensus engines: hosts feed it messages and timer expiries
and execute the actions it returns.  Internally it owns

* a :class:`~repro.core.dissemination.DisseminationTracker` for phase 1,
* a view-based consensus engine (:mod:`repro.consensus`) for phase 2, whose
  messages are wrapped in ``AGREEMENT`` envelopes, and
* a document-fetch loop for phase 3 (aggregation), which retrieves any
  documents referenced by the agreed digest vector that the node does not
  hold, then emits the final output vector.

The output is an :class:`ICPSOutput`: a vector assigning each node either its
document or ⊥, satisfying the four properties of Definition 5.1 (termination,
agreement, value validity, common-set validity) — the property checkers in
:mod:`repro.core.properties` verify exactly those over a set of outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.consensus import EngineConfig, make_engine
from repro.consensus.interfaces import (
    Action,
    BroadcastAction,
    ConsensusMessage,
    DecideAction,
    SendAction,
    SetTimerAction,
)
from repro.core.documents import Document
from repro.core.dissemination import DisseminationTracker
from repro.core.proofs import DigestVectorValue, ProposalMessage, validate_digest_vector
from repro.crypto.keys import KeyPair, KeyRing
from repro.crypto.signatures import SIGNATURE_SIZE_BYTES, Signature
from repro.utils.memo import instance_memo
from repro.utils.validation import ValidationError, ensure

#: Timer identifiers used by the ICPS layer itself.
DISSEMINATION_TIMER = "dissemination"
FETCH_RETRY_TIMER = "fetch-retry"
_ENGINE_TIMER_PREFIX = "engine:"


@dataclass(frozen=True)
class ICPSMessage:
    """A message of the ICPS protocol.

    ``msg_type`` is one of ``DOCUMENT``, ``PROPOSAL``, ``AGREEMENT``,
    ``FETCH_REQUEST``, ``FETCH_RESPONSE``.
    """

    msg_type: str
    sender: str
    payload: Any = None

    @property
    def size_bytes(self) -> int:
        """Wire size of the message, derived from its payload.

        Memoised on the instance: payloads are not mutated after the message
        is built, and a broadcast prices the same message once per peer.
        """
        return instance_memo(self, "_size", self._compute_size_bytes)

    def _compute_size_bytes(self) -> int:
        base = 64  # framing
        if self.msg_type == "DOCUMENT":
            document: Document = self.payload["document"]
            return base + document.size_bytes + SIGNATURE_SIZE_BYTES + 32
        if self.msg_type == "PROPOSAL":
            proposal: ProposalMessage = self.payload
            return base + proposal.size_bytes
        if self.msg_type == "AGREEMENT":
            return base + _agreement_message_size(self.payload)
        if self.msg_type == "FETCH_REQUEST":
            return base + 48 * len(self.payload)
        if self.msg_type == "FETCH_RESPONSE":
            return base + sum(document.size_bytes + 48 for document in self.payload.values())
        return base


def _agreement_message_size(inner: ConsensusMessage) -> int:
    """Wire size of a wrapped consensus-engine message."""
    size = 128
    payload = inner.payload or {}
    if isinstance(payload, dict):
        value = payload.get("value")
        if isinstance(value, DigestVectorValue):
            size += value.size_bytes
        qc = payload.get("qc") or payload.get("justify") or payload.get("high_qc")
        if qc is not None:
            size += SIGNATURE_SIZE_BYTES * max(1, len(getattr(qc, "voters", ())))
        if payload.get("digest") is not None:
            size += 32
        prepared = payload.get("prepared")
        if prepared is not None and isinstance(getattr(prepared, "value", None), DigestVectorValue):
            size += prepared.value.size_bytes
    return size


@dataclass(frozen=True)
class ICPSConfig:
    """Static configuration of one ICPS node.

    Attributes
    ----------
    node_id / nodes:
        This node's identifier and the globally ordered node list.
    delta:
        The dissemination timeout Δ: after Δ a node proposes as soon as it
        holds ``n - f`` documents instead of waiting for all ``n``.
    engine:
        Name of the agreement engine (``hotstuff``, ``pbft``, ``tendermint``).
    view_timeout / timeout_growth:
        Agreement view-timer parameters.
    fetch_retry_interval:
        How often the aggregation phase re-requests missing documents.
    """

    node_id: str
    nodes: Tuple[str, ...]
    delta: float = 30.0
    engine: str = "hotstuff"
    view_timeout: float = 20.0
    timeout_growth: float = 1.5
    fetch_retry_interval: float = 30.0

    def __post_init__(self) -> None:
        ensure(len(self.nodes) >= 1, "nodes must not be empty")
        if self.node_id not in self.nodes:
            raise ValidationError("node_id must be a member of nodes")
        ensure(self.delta > 0, "delta must be positive")
        ensure(self.view_timeout > 0, "view_timeout must be positive")
        ensure(self.fetch_retry_interval > 0, "fetch_retry_interval must be positive")

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    @property
    def f(self) -> int:
        """Fault tolerance under partial synchrony (⌊(n-1)/3⌋)."""
        return (self.n - 1) // 3


@dataclass(frozen=True)
class ICPSOutput:
    """The protocol output: a document (or ⊥) per node, plus the agreed vector.

    Outputs compare equal when their contents do; ``node_id`` only says which
    node produced one.
    """

    node_id: str = field(compare=False)
    documents: Dict[str, Optional[Document]]
    agreed_vector: DigestVectorValue
    decided_view: int

    @property
    def non_bottom_count(self) -> int:
        """Number of nodes whose document appears in the output."""
        return sum(1 for document in self.documents.values() if document is not None)

    def document_of(self, node: str) -> Optional[Document]:
        """The output entry for ``node``."""
        return self.documents.get(node)


class ICPSNode:
    """One participant of the ICPS protocol (all three sub-protocols)."""

    #: ``msg_type`` → name of the handling method (by name, so a subclass's
    #: override is the one that runs).
    _HANDLERS = {
        "DOCUMENT": "_on_document",
        "PROPOSAL": "_on_proposal",
        "AGREEMENT": "_on_agreement",
        "FETCH_REQUEST": "_on_fetch_request",
        "FETCH_RESPONSE": "_on_fetch_response",
    }

    def __init__(self, config: ICPSConfig, ring: KeyRing, keypair: KeyPair) -> None:
        self.config = config
        self.ring = ring
        self.keypair = keypair
        self.tracker = DisseminationTracker(
            node_id=config.node_id,
            nodes=config.nodes,
            f=config.f,
            ring=ring,
            keypair=keypair,
        )
        engine_config = EngineConfig(
            node_id=config.node_id,
            nodes=config.nodes,
            base_timeout=config.view_timeout,
            timeout_growth=config.timeout_growth,
            validator=lambda value: validate_digest_vector(value, ring, config.nodes, config.f),
        )
        self.engine = make_engine(config.engine, engine_config)

        self._started = False
        self._delta_expired = False
        self._proposal_sent = False
        self._engine_input_set = False
        self._agreed_vector: Optional[DigestVectorValue] = None
        self._output: Optional[ICPSOutput] = None
        self._fetch_outstanding: Tuple[str, ...] = ()

    # -- observable state -----------------------------------------------------
    @property
    def started(self) -> bool:
        """True once :meth:`start` has run."""
        return self._started

    @property
    def agreed(self) -> bool:
        """True once the agreement phase has decided a digest vector."""
        return self._agreed_vector is not None

    @property
    def agreed_vector(self) -> Optional[DigestVectorValue]:
        """The agreed digest vector (None before agreement)."""
        return self._agreed_vector

    @property
    def decided(self) -> bool:
        """True once the full output (with documents) is available."""
        return self._output is not None

    @property
    def output(self) -> Optional[ICPSOutput]:
        """The protocol output (None until :attr:`decided`)."""
        return self._output

    @property
    def decision(self) -> Optional[ICPSOutput]:
        """Alias for :attr:`output` so generic drivers can treat ICPS like an engine."""
        return self._output

    @property
    def decision_view(self) -> Optional[int]:
        """View in which the agreement phase decided (None before output)."""
        return None if self._output is None else self._output.decided_view

    # -- lifecycle ----------------------------------------------------------------
    def start(self, document: Document) -> List[Action]:
        """Start the protocol with this node's input document."""
        ensure(not self._started, "ICPS node already started")
        self._started = True
        signature = self.tracker.record_own_document(document)
        actions: List[Action] = [
            BroadcastAction(
                ICPSMessage(
                    msg_type="DOCUMENT",
                    sender=self.config.node_id,
                    payload={"document": document, "signature": signature},
                )
            ),
            SetTimerAction(timer_id=DISSEMINATION_TIMER, duration=self.config.delta),
        ]
        actions.extend(self._wrap_engine_actions(self.engine.start(None)))
        actions.extend(self._maybe_send_proposal())
        return actions

    # -- message handling -----------------------------------------------------------
    def on_message(self, message: ICPSMessage) -> List[Action]:
        """Process an incoming ICPS message."""
        if not self._started or not isinstance(message, ICPSMessage):
            return []
        handler = self._HANDLERS.get(message.msg_type)
        if handler is None:
            return []
        return getattr(self, handler)(message)

    def on_timeout(self, timer_id: str) -> List[Action]:
        """Process a timer expiry."""
        if not self._started:
            return []
        if timer_id == DISSEMINATION_TIMER:
            self._delta_expired = True
            return self._maybe_send_proposal()
        if timer_id == FETCH_RETRY_TIMER:
            return self._request_missing_documents()
        if timer_id.startswith(_ENGINE_TIMER_PREFIX):
            inner_actions = self.engine.on_timeout(timer_id[len(_ENGINE_TIMER_PREFIX) :])
            return self._wrap_engine_actions(inner_actions)
        return []

    # -- dissemination ---------------------------------------------------------------
    def _on_document(self, message: ICPSMessage) -> List[Action]:
        payload = message.payload or {}
        document = payload.get("document")
        signature = payload.get("signature")
        if not isinstance(document, Document) or not isinstance(signature, Signature):
            return []
        newly_received = self.tracker.document_of(message.sender) is None
        accepted = self.tracker.record_document(message.sender, document, signature)
        actions: List[Action] = []
        if accepted and newly_received and self._proposal_sent and not self.agreed:
            # The paper re-sends proposals at the start of every view so that
            # late-arriving documents still make it into the digest vector; we
            # achieve the same by broadcasting an updated proposal whenever a
            # new document arrives after our first proposal went out.
            actions.extend(self._broadcast_proposal())
        actions.extend(self._maybe_send_proposal())
        actions.extend(self._maybe_complete_output())
        return actions

    def _broadcast_proposal(self) -> List[Action]:
        proposal = self.tracker.make_proposal()
        self.tracker.record_proposal(proposal)
        actions: List[Action] = [
            BroadcastAction(
                ICPSMessage(msg_type="PROPOSAL", sender=self.config.node_id, payload=proposal)
            )
        ]
        actions.extend(self._maybe_feed_engine())
        return actions

    def _maybe_send_proposal(self) -> List[Action]:
        if self._proposal_sent:
            return []
        ready = self.tracker.has_all_documents() or (
            self._delta_expired and self.tracker.has_quorum_of_documents()
        )
        if not ready:
            return []
        self._proposal_sent = True
        return self._broadcast_proposal()

    def _on_proposal(self, message: ICPSMessage) -> List[Action]:
        proposal = message.payload
        if not isinstance(proposal, ProposalMessage) or proposal.proposer != message.sender:
            return []
        if not self.tracker.record_proposal(proposal):
            return []
        return self._maybe_feed_engine()

    def _maybe_feed_engine(self) -> List[Action]:
        if self._engine_input_set:
            return []
        value = self.tracker.try_build_digest_vector()
        if value is None:
            return []
        self._engine_input_set = True
        return self._wrap_engine_actions(self.engine.set_input(value))

    # -- agreement ----------------------------------------------------------------------
    def _on_agreement(self, message: ICPSMessage) -> List[Action]:
        inner = message.payload
        if not isinstance(inner, ConsensusMessage):
            return []
        return self._wrap_engine_actions(self.engine.on_message(inner))

    def _wrap_engine_actions(self, actions: List[Action]) -> List[Action]:
        wrapped: List[Action] = []
        pending_loopback: List[ConsensusMessage] = []
        for action in actions:
            if isinstance(action, SendAction):
                if action.to == self.config.node_id:
                    pending_loopback.append(action.message)
                else:
                    wrapped.append(
                        SendAction(
                            to=action.to,
                            message=ICPSMessage(
                                msg_type="AGREEMENT",
                                sender=self.config.node_id,
                                payload=action.message,
                            ),
                        )
                    )
            elif isinstance(action, BroadcastAction):
                wrapped.append(
                    BroadcastAction(
                        ICPSMessage(
                            msg_type="AGREEMENT",
                            sender=self.config.node_id,
                            payload=action.message,
                        )
                    )
                )
                pending_loopback.append(action.message)
            elif isinstance(action, SetTimerAction):
                wrapped.append(
                    SetTimerAction(
                        timer_id=_ENGINE_TIMER_PREFIX + action.timer_id,
                        duration=action.duration,
                    )
                )
            elif isinstance(action, DecideAction):
                wrapped.extend(self._on_agreement_decision(action))
        # Deliver the engine's own broadcasts back to itself (hosts never
        # loop ICPS broadcasts back to the sender).
        for inner in pending_loopback:
            wrapped.extend(self._wrap_engine_actions(self.engine.on_message(inner)))
        return wrapped

    def _on_agreement_decision(self, action: DecideAction) -> List[Action]:
        value = action.value
        if not isinstance(value, DigestVectorValue) or self._agreed_vector is not None:
            return []
        self._agreed_vector = value
        actions = self._maybe_complete_output()
        if self._output is None:
            actions.extend(self._request_missing_documents())
        return actions

    # -- aggregation --------------------------------------------------------------------------
    def _missing_documents(self) -> List[str]:
        if self._agreed_vector is None:
            return []
        missing = []
        for subject, digest in self._agreed_vector.digests().items():
            if digest is None:
                continue
            document = self.tracker.document_of(subject)
            if document is None or document.digest() != digest:
                missing.append(subject)
        return missing

    def _request_missing_documents(self) -> List[Action]:
        if self._output is not None:
            return []
        missing = self._missing_documents()
        if not missing:
            return self._maybe_complete_output()
        self._fetch_outstanding = tuple(missing)
        return [
            BroadcastAction(
                ICPSMessage(
                    msg_type="FETCH_REQUEST",
                    sender=self.config.node_id,
                    payload=tuple(missing),
                )
            ),
            SetTimerAction(timer_id=FETCH_RETRY_TIMER, duration=self.config.fetch_retry_interval),
        ]

    def _on_fetch_request(self, message: ICPSMessage) -> List[Action]:
        requested = message.payload or ()
        available: Dict[str, Document] = {}
        for subject in requested:
            if subject not in self.config.nodes:
                continue
            document = self.tracker.document_of(subject)
            if document is not None:
                available[subject] = document
        if not available:
            return []
        return [
            SendAction(
                to=message.sender,
                message=ICPSMessage(
                    msg_type="FETCH_RESPONSE",
                    sender=self.config.node_id,
                    payload=available,
                ),
            )
        ]

    def _on_fetch_response(self, message: ICPSMessage) -> List[Action]:
        if self._agreed_vector is None or self._output is not None:
            return []
        documents = message.payload or {}
        expected = self._agreed_vector.digests()
        for subject, document in documents.items():
            if subject not in self.config.nodes or not isinstance(document, Document):
                continue
            digest = expected.get(subject)
            if digest is None or document.digest() != digest:
                continue
            self.tracker.store_fetched_document(subject, document, digest)
        return self._maybe_complete_output()

    def _maybe_complete_output(self) -> List[Action]:
        if self._output is not None or self._agreed_vector is None:
            return []
        if self._missing_documents():
            return []
        documents: Dict[str, Optional[Document]] = {}
        for subject, digest in self._agreed_vector.digests().items():
            documents[subject] = self.tracker.document_of(subject) if digest is not None else None
        self._output = ICPSOutput(
            node_id=self.config.node_id,
            documents=documents,
            agreed_vector=self._agreed_vector,
            decided_view=self.engine.decision_view or 0,
        )
        return [DecideAction(value=self._output, view=self._output.decided_view)]
