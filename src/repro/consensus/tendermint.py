"""A single-shot Tendermint consensus engine.

Tendermint's characteristic structure — PROPOSAL, PREVOTE, PRECOMMIT per
round, with value locking on a *polka* (a quorum of prevotes) and a
``validValue`` that later proposers must re-propose — implemented as a pure
state machine.  A round is the engine skeleton's view: rounds advance on
timer expiry.  The paper cites Tendermint's linear view change (but with
waiting) as one of the candidate agreement engines.
"""

from __future__ import annotations

from typing import Any, Dict, List, Set, Tuple

from repro.consensus.interfaces import (
    Action,
    BroadcastAction,
    ConsensusEngine,
    ConsensusMessage,
    EngineConfig,
)
from repro.consensus.values import NIL_DIGEST, value_digest


class TendermintEngine(ConsensusEngine):
    """Tendermint-style consensus, single-shot."""

    name = "tendermint"
    good_case_rounds = 3
    _HANDLERS = {
        "TM/PROPOSAL": "_on_proposal",
        "TM/PREVOTE": "_on_prevote",
        "TM/PRECOMMIT": "_on_precommit",
    }

    def __init__(self, config: EngineConfig) -> None:
        super().__init__(config)
        self.locked_value: Any = None
        self.locked_round: int = -1
        self.valid_value: Any = None
        self.valid_round: int = -1
        self._proposals: Dict[int, Any] = {}
        self._proposed_in_view: Set[int] = set()
        self._prevoted: Set[int] = set()
        self._precommitted: Set[int] = set()
        self._prevotes: Dict[Tuple[int, bytes], Set[str]] = {}
        self._precommits: Dict[Tuple[int, bytes], Set[str]] = {}

    # -- proposing ---------------------------------------------------------
    def _maybe_propose(self) -> List[Action]:
        if self.decided or not self._is_leader() or self.view in self._proposed_in_view:
            return []
        value = self.valid_value if self.valid_value is not None else self.input_value
        if value is None or not self.config.is_valid_value(value):
            return []
        self._proposed_in_view.add(self.view)
        digest = self._remember(value)
        proposal = ConsensusMessage(
            msg_type="TM/PROPOSAL",
            sender=self.config.node_id,
            view=self.view,
            payload={"value": value, "digest": digest, "valid_round": self.valid_round},
        )
        return [BroadcastAction(proposal)]

    # -- message handling --------------------------------------------------------
    def _on_proposal(self, message: ConsensusMessage) -> List[Action]:
        if message.sender != self.config.leader_of(message.view):
            return []
        payload = message.payload or {}
        value = payload.get("value")
        proposal_valid_round = payload.get("valid_round", -1)
        if value is None:
            return []
        if message.view != self.view:
            # A proposal for an earlier round still teaches us the value, which
            # may be exactly what a pending precommit quorum is waiting for.
            digest = self._remember(value)
            self._proposals[message.view] = value
            return self._try_decide(digest, message.view)
        if message.view in self._prevoted:
            return []
        digest = self._remember(value)
        self._proposals[message.view] = value
        acceptable = self.config.is_valid_value(value) and (
            self.locked_round == -1
            or value_digest(self.locked_value) == digest
            or proposal_valid_round >= self.locked_round
        )
        self._prevoted.add(message.view)
        prevote = ConsensusMessage(
            msg_type="TM/PREVOTE",
            sender=self.config.node_id,
            view=message.view,
            payload={"digest": digest if acceptable else NIL_DIGEST},
        )
        return [BroadcastAction(prevote)]

    def _on_prevote(self, message: ConsensusMessage) -> List[Action]:
        if message.view != self.view:
            return []
        digest = (message.payload or {}).get("digest")
        if digest is None:
            return []
        voters = self._prevotes.setdefault((message.view, digest), set())
        voters.add(message.sender)
        if digest == NIL_DIGEST or len(voters) < self.config.quorum:
            return []
        value = self._values_by_digest.get(digest)
        if value is None:
            return []
        # A polka: lock and precommit.
        self.locked_value = value
        self.locked_round = message.view
        self.valid_value = value
        self.valid_round = message.view
        if message.view in self._precommitted:
            return []
        self._precommitted.add(message.view)
        precommit = ConsensusMessage(
            msg_type="TM/PRECOMMIT",
            sender=self.config.node_id,
            view=message.view,
            payload={"digest": digest},
        )
        return [BroadcastAction(precommit)]

    def _on_precommit(self, message: ConsensusMessage) -> List[Action]:
        digest = (message.payload or {}).get("digest")
        if digest is None or digest == NIL_DIGEST:
            return []
        voters = self._precommits.setdefault((message.view, digest), set())
        voters.add(message.sender)
        return self._try_decide(digest, message.view)

    def _try_decide(self, digest: bytes, round_number: int) -> List[Action]:
        voters = self._precommits.get((round_number, digest), set())
        if len(voters) < self.config.quorum:
            return []
        value = self._values_by_digest.get(digest)
        if value is None:
            return []
        return self._decide(value, round_number)

    # -- round change ----------------------------------------------------------------
    def _enter_view(self, view: int) -> List[Action]:
        self.view = view
        actions: List[Action] = [self._view_timer(view)]
        actions.extend(self._maybe_propose())
        actions.extend(self._replay_future())
        return actions
