"""A single-shot PBFT consensus engine.

The classic three-phase structure (PRE-PREPARE → PREPARE → COMMIT) with a
view-change sub-protocol.  Communication per view is quadratic (every replica
broadcasts PREPARE and COMMIT), which is why the paper lists PBFT as the
historically first — but not the cheapest — option for its agreement phase.

Safety comes from the standard prepared-certificate rule: a replica that has
*prepared* a value in some view reports it in its VIEW-CHANGE message, and a
new leader must re-propose the prepared value with the highest view among any
``n - f`` VIEW-CHANGE messages it collects.
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
)
from repro.consensus.values import value_digest


@dataclass(frozen=True)
class PreparedCertificate:
    """Evidence that this replica prepared ``value`` in ``view``."""

    view: int
    value: Any


class PBFTEngine(ConsensusEngine):
    """Practical Byzantine Fault Tolerance, single-shot."""

    name = "pbft"
    good_case_rounds = 3
    _HANDLERS = {
        "PBFT/PRE-PREPARE": "_on_pre_prepare",
        "PBFT/PREPARE": "_on_prepare",
        "PBFT/COMMIT": "_on_commit",
        "PBFT/VIEW-CHANGE": "_on_view_change",
        "PBFT/DECIDED": "_on_decided",
    }
    _UNBUFFERED = frozenset({"PBFT/VIEW-CHANGE", "PBFT/DECIDED"})

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.prepared: Optional[PreparedCertificate] = None
        self._pre_prepared: Dict[int, Any] = {}
        self._sent_prepare: Set[int] = set()
        self._sent_commit: Set[int] = set()
        self._proposed_in_view: Set[int] = set()
        self._prepares: Dict[Tuple[int, bytes], Set[str]] = {}
        self._commits: Dict[Tuple[int, bytes], Set[str]] = {}
        self._view_changes: Dict[int, Dict[str, Optional[PreparedCertificate]]] = {}

    # -- proposing ---------------------------------------------------------
    def _proposal_value(self, view: int) -> Optional[Any]:
        """The value the leader of ``view`` must propose (safety first)."""
        reports = self._view_changes.get(view, {})
        best: Optional[PreparedCertificate] = None
        for certificate in reports.values():
            if certificate is None:
                continue
            if best is None or certificate.view > best.view:
                best = certificate
        if best is not None:
            return best.value
        if self.prepared is not None:
            return self.prepared.value
        return self.input_value

    def _maybe_propose(self) -> List[Action]:
        if self.decided or not self._is_leader() or self.view in self._proposed_in_view:
            return []
        if self.view > 0 and len(self._view_changes.get(self.view, {})) < self.config.quorum:
            return []
        value = self._proposal_value(self.view)
        if value is None or not self.config.is_valid_value(value):
            return []
        self._proposed_in_view.add(self.view)
        digest = self._remember(value)
        message = ConsensusMessage(
            msg_type="PBFT/PRE-PREPARE",
            sender=self.config.node_id,
            view=self.view,
            payload={"value": value, "digest": digest},
        )
        return [BroadcastAction(message)]

    # -- message handling -----------------------------------------------------
    def _on_pre_prepare(self, message: ConsensusMessage) -> List[Action]:
        if message.view != self.view or message.sender != self.config.leader_of(message.view):
            return []
        if message.view in self._pre_prepared:
            return []
        payload = message.payload or {}
        value = payload.get("value")
        if value is None or not self.config.is_valid_value(value):
            return []
        # A replica already prepared on some value must not accept a
        # conflicting proposal in a later view unless the view-change logic
        # carried it over (the leader's _proposal_value enforces the carry-over;
        # here we simply refuse to contradict our own prepared certificate).
        digest = self._remember(value)
        if self.prepared is not None and message.view > self.prepared.view:
            if value_digest(self.prepared.value) != digest:
                return []
        self._pre_prepared[message.view] = value
        self._sent_prepare.add(message.view)
        prepare = ConsensusMessage(
            msg_type="PBFT/PREPARE",
            sender=self.config.node_id,
            view=message.view,
            payload={"digest": digest},
        )
        return [BroadcastAction(prepare)]

    def _on_prepare(self, message: ConsensusMessage) -> List[Action]:
        if message.view != self.view:
            return []
        digest = (message.payload or {}).get("digest")
        if digest is None:
            return []
        voters = self._prepares.setdefault((message.view, digest), set())
        voters.add(message.sender)
        if len(voters) < self.config.quorum:
            return []
        if message.view in self._sent_commit:
            return []
        value = self._values_by_digest.get(digest)
        if value is None or self._pre_prepared.get(message.view) is None:
            return []
        self.prepared = PreparedCertificate(view=message.view, value=value)
        self._sent_commit.add(message.view)
        commit = ConsensusMessage(
            msg_type="PBFT/COMMIT",
            sender=self.config.node_id,
            view=message.view,
            payload={"digest": digest},
        )
        return [BroadcastAction(commit)]

    def _on_commit(self, message: ConsensusMessage) -> List[Action]:
        if message.view != self.view:
            return []
        digest = (message.payload or {}).get("digest")
        if digest is None:
            return []
        voters = self._commits.setdefault((message.view, digest), set())
        voters.add(message.sender)
        if len(voters) < self.config.quorum:
            return []
        value = self._values_by_digest.get(digest)
        if value is None:
            return []
        actions = self._decide(value, message.view)
        if actions:
            # Help laggards that already moved past this view (single-shot PBFT
            # has no checkpoint transfer): ship the decision with its commit
            # certificate so they can adopt it safely.
            certificate = ConsensusMessage(
                msg_type="PBFT/DECIDED",
                sender=self.config.node_id,
                view=message.view,
                payload={"value": value, "voters": frozenset(voters)},
            )
            actions.append(BroadcastAction(certificate))
        return actions

    def _on_decided(self, message: ConsensusMessage) -> List[Action]:
        payload = message.payload or {}
        value = payload.get("value")
        voters = payload.get("voters", frozenset())
        if value is None or len(voters) < self.config.quorum:
            return []
        return self._decide(value, message.view)

    def _on_view_change(self, message: ConsensusMessage) -> List[Action]:
        certificate: Optional[PreparedCertificate] = (message.payload or {}).get("prepared")
        per_view = self._view_changes.setdefault(message.view, {})
        per_view[message.sender] = certificate
        actions: List[Action] = []
        # Adopt the new view once a quorum wants it (even if our timer is slow).
        if message.view > self.view and len(per_view) >= self.config.quorum:
            actions.extend(self._enter_view(message.view))
        if self._is_leader(message.view) and message.view == self.view:
            actions.extend(self._maybe_propose())
        return actions

    # -- view change --------------------------------------------------------------
    def _enter_view(self, view: int) -> List[Action]:
        self.view = view
        actions: List[Action] = [self._view_timer(view)]
        view_change = ConsensusMessage(
            msg_type="PBFT/VIEW-CHANGE",
            sender=self.config.node_id,
            view=view,
            payload={"prepared": self.prepared},
        )
        actions.append(BroadcastAction(view_change))
        actions.extend(self._replay_future())
        return actions
