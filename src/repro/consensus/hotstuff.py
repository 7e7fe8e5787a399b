"""A single-shot, two-phase HotStuff (Jolteon-style) consensus engine.

This is the engine the paper's prototype uses for its agreement sub-protocol
("a variant of HotStuff").  The structure per view with an honest leader and
no GST is five message rounds — PROPOSE, VOTE1, PRECOMMIT (QC broadcast),
VOTE2, COMMIT — which is exactly the "5 rounds" the paper's Appendix B quotes
for its round-complexity total of 9.

Safety rules (standard two-phase locking):

* replicas vote for a proposal only if its justification QC is at least as
  recent as their locked QC, or it proposes the very value they are locked on;
* replicas lock on the first-phase QC (the ``PRECOMMIT`` broadcast);
* a new leader must justify its proposal with the highest QC reported in
  ``n - f`` NEW-VIEW messages, so any possibly-decided value is carried over.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.consensus.interfaces import (
    Action,
    BroadcastAction,
    ConsensusEngine,
    ConsensusMessage,
    EngineConfig,
    SendAction,
)
from repro.consensus.quorum import GENESIS_QC, QuorumCertificate
from repro.consensus.values import value_digest


@dataclass(frozen=True)
class _Proposal:
    """A leader proposal: the value plus its justification QC."""

    value: Any
    justify: QuorumCertificate


class HotStuffEngine(ConsensusEngine):
    """Two-phase (Jolteon-style) HotStuff, single-shot."""

    name = "hotstuff"
    good_case_rounds = 5
    _HANDLERS = {
        "HS/PROPOSE": "_on_propose",
        "HS/VOTE1": "_on_vote1",
        "HS/PRECOMMIT": "_on_precommit",
        "HS/VOTE2": "_on_vote2",
        "HS/COMMIT": "_on_commit",
        "HS/NEW-VIEW": "_on_new_view",
    }
    _UNBUFFERED = frozenset({"HS/COMMIT", "HS/NEW-VIEW"})

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.locked_qc: QuorumCertificate = GENESIS_QC
        self.high_qc: QuorumCertificate = GENESIS_QC
        self._proposed_in_view: Set[int] = set()
        self._voted_phase1: Set[int] = set()
        self._voted_phase2: Set[int] = set()
        self._proposals: Dict[int, _Proposal] = {}
        self._vote1: Dict[Tuple[int, bytes], Set[str]] = {}
        self._vote2: Dict[Tuple[int, bytes], Set[str]] = {}
        self._new_views: Dict[int, Dict[str, QuorumCertificate]] = {}

    # -- proposing ---------------------------------------------------------
    def _maybe_propose(self) -> List[Action]:
        """If we lead the current view and have something to propose, propose."""
        if self.decided or not self._is_leader() or self.view in self._proposed_in_view:
            return []
        carry_over = self._carried_over_value()
        value = carry_over if carry_over is not None else self.input_value
        if value is None:
            return []
        if not self.config.is_valid_value(value):
            return []
        self._proposed_in_view.add(self.view)
        digest = self._remember(value)
        self._proposals[self.view] = _Proposal(value=value, justify=self.high_qc)
        message = ConsensusMessage(
            msg_type="HS/PROPOSE",
            sender=self.config.node_id,
            view=self.view,
            payload={"value": value, "justify": self.high_qc, "digest": digest},
        )
        return [BroadcastAction(message)]

    def _carried_over_value(self) -> Optional[Any]:
        """Value that must be re-proposed for safety, if any."""
        if self.high_qc.view >= 0:
            return self._values_by_digest.get(self.high_qc.value_digest)
        return None

    # -- message handling --------------------------------------------------
    def _on_propose(self, message: ConsensusMessage) -> List[Action]:
        if message.view != self.view:
            return []
        if message.sender != self.config.leader_of(message.view):
            return []
        if message.view in self._voted_phase1:
            return []
        payload = message.payload or {}
        value = payload.get("value")
        justify: QuorumCertificate = payload.get("justify", GENESIS_QC)
        if value is None or not self.config.is_valid_value(value):
            return []
        digest = self._remember(value)
        # Safety rule: only vote if the justification is at least as recent as
        # our lock, or the proposal re-proposes the locked value itself.
        if not (justify.view >= self.locked_qc.view or digest == self.locked_qc.value_digest):
            return []
        if justify.view > self.high_qc.view:
            self.high_qc = justify
        self._voted_phase1.add(message.view)
        vote = ConsensusMessage(
            msg_type="HS/VOTE1",
            sender=self.config.node_id,
            view=message.view,
            payload={"digest": digest},
        )
        return [SendAction(to=self.config.leader_of(message.view), message=vote)]

    def _on_vote1(self, message: ConsensusMessage) -> List[Action]:
        if not self._is_leader(message.view) or message.view != self.view:
            return []
        digest = (message.payload or {}).get("digest")
        if digest is None:
            return []
        voters = self._vote1.setdefault((message.view, digest), set())
        voters.add(message.sender)
        if len(voters) < self.config.quorum:
            return []
        qc = QuorumCertificate(
            view=message.view, value_digest=digest, voters=frozenset(voters), phase="prepare"
        )
        value = self._values_by_digest.get(digest)
        precommit = ConsensusMessage(
            msg_type="HS/PRECOMMIT",
            sender=self.config.node_id,
            view=message.view,
            payload={"qc": qc, "value": value},
        )
        return [BroadcastAction(precommit)]

    def _on_precommit(self, message: ConsensusMessage) -> List[Action]:
        if message.view != self.view:
            return []
        payload = message.payload or {}
        qc: Optional[QuorumCertificate] = payload.get("qc")
        value = payload.get("value")
        if qc is None or not qc.is_valid(self.config.quorum) or qc.view != message.view:
            return []
        if value is not None:
            self._remember(value)
        if message.view in self._voted_phase2:
            return []
        # Lock on the first-phase QC.
        if qc.view > self.locked_qc.view:
            self.locked_qc = qc
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        self._voted_phase2.add(message.view)
        vote = ConsensusMessage(
            msg_type="HS/VOTE2",
            sender=self.config.node_id,
            view=message.view,
            payload={"digest": qc.value_digest},
        )
        return [SendAction(to=self.config.leader_of(message.view), message=vote)]

    def _on_vote2(self, message: ConsensusMessage) -> List[Action]:
        if not self._is_leader(message.view) or message.view != self.view:
            return []
        digest = (message.payload or {}).get("digest")
        if digest is None:
            return []
        voters = self._vote2.setdefault((message.view, digest), set())
        voters.add(message.sender)
        if len(voters) < self.config.quorum:
            return []
        qc = QuorumCertificate(
            view=message.view, value_digest=digest, voters=frozenset(voters), phase="commit"
        )
        commit = ConsensusMessage(
            msg_type="HS/COMMIT",
            sender=self.config.node_id,
            view=message.view,
            payload={"qc": qc, "value": self._values_by_digest.get(digest)},
        )
        return [BroadcastAction(commit)]

    def _on_commit(self, message: ConsensusMessage) -> List[Action]:
        payload = message.payload or {}
        qc: Optional[QuorumCertificate] = payload.get("qc")
        value = payload.get("value")
        if qc is None or not qc.is_valid(self.config.quorum) or qc.phase != "commit":
            return []
        if value is None:
            value = self._values_by_digest.get(qc.value_digest)
        if value is None or value_digest(value) != qc.value_digest:
            return []
        return self._decide(value, qc.view)

    def _on_new_view(self, message: ConsensusMessage) -> List[Action]:
        qc: QuorumCertificate = (message.payload or {}).get("high_qc", GENESIS_QC)
        value = (message.payload or {}).get("value")
        if value is not None:
            self._remember(value)
        per_view = self._new_views.setdefault(message.view, {})
        per_view[message.sender] = qc
        if qc.view > self.high_qc.view:
            self.high_qc = qc
        if message.view < self.view or not self._is_leader(message.view):
            return []
        if len(per_view) < self.config.quorum:
            return []
        if message.view == self.view:
            return self._maybe_propose()
        return []

    # -- view change ---------------------------------------------------------
    def _enter_view(self, view: int) -> List[Action]:
        self.view = view
        actions: List[Action] = [self._view_timer(view)]
        locked_value = self._values_by_digest.get(self.high_qc.value_digest)
        new_view = ConsensusMessage(
            msg_type="HS/NEW-VIEW",
            sender=self.config.node_id,
            view=view,
            payload={"high_qc": self.high_qc, "value": locked_value},
        )
        leader = self.config.leader_of(view)
        if leader == self.config.node_id:
            actions.extend(self._on_new_view(new_view))
            actions.extend(self._maybe_propose())
        else:
            actions.append(SendAction(to=leader, message=new_view))
        actions.extend(self._replay_future())
        return actions
