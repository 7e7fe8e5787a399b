"""The paper's new directory protocol (the "Ours" column).

Each authority hosts an :class:`~repro.core.icps.ICPSNode` — dissemination,
view-based agreement (HotStuff by default), and document aggregation — on top
of the network simulator.  Once ICPS outputs the agreed vote vector, the
authority runs the standard Tor aggregation algorithm over the delivered
votes, signs the resulting consensus document, and exchanges signatures with
its peers exactly as the current protocol does.

There are no lock-step rounds: document transfers may take arbitrarily long
(the dissemination phase has no hard deadline), and only the small agreement
messages need the partial-synchrony timers — which is why this protocol keeps
working at bandwidths where the two synchronous baselines fail.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.consensus.interfaces import (
    Action,
    BroadcastAction,
    DecideAction,
    SendAction,
    SetTimerAction,
)
from repro.core.documents import Document
from repro.core.icps import ICPSConfig, ICPSMessage, ICPSNode, ICPSOutput
from repro.crypto.keys import KeyRing
from repro.directory.authority import DirectoryAuthority
from repro.directory.consensus_doc import ConsensusSignature
from repro.directory.vote import VoteDocument
from repro.protocols.base import DirectoryAuthorityNode, DirectoryProtocolConfig
from repro.simnet.message import Message, SharedPayload


class PartialSyncAuthority(DirectoryAuthorityNode):
    """One directory authority running the partial-synchrony (ICPS) protocol."""

    def __init__(
        self,
        authority: DirectoryAuthority,
        peers: Sequence[DirectoryAuthority],
        vote: VoteDocument,
        ring: KeyRing,
        config: DirectoryProtocolConfig,
        engine: str = "hotstuff",
        delta: float = 30.0,
        view_timeout: float = 30.0,
    ) -> None:
        super().__init__(authority, peers, vote, ring, config)
        node_names = tuple(auth.name for auth in self.all_authorities)
        self.icps = ICPSNode(
            ICPSConfig(
                node_id=authority.name,
                nodes=node_names,
                delta=delta,
                engine=engine,
                view_timeout=view_timeout,
                fetch_retry_interval=max(delta, 15.0),
            ),
            ring=ring,
            keypair=authority.keypair,
        )
        self._authority_by_name = {auth.name: auth for auth in self.all_authorities}

    # -- lifecycle ------------------------------------------------------------
    def on_start(self) -> None:
        self._start_time = self.now
        document = Document(
            data=self.vote.serialize().encode("utf-8"),
            label="vote-%d" % self.authority.authority_id,
            payload=self.vote,
            size_override=self.vote.size_bytes,
        )
        self.log("notice", "Disseminating our vote (%d bytes) to all authorities." % document.size_bytes)
        self._execute(self.icps.start(document))

    # -- message handling --------------------------------------------------------
    def on_message(self, message: Message, now: float) -> None:
        if message.msg_type == "ICPS":
            self._execute(self.icps.on_message(message.payload))
        elif message.msg_type == "PS/SIGNATURE":
            self._store_signature(message.payload)

    def _on_icps_timer(self, timer_id: str) -> None:
        self._execute(self.icps.on_timeout(timer_id))

    # -- action execution ------------------------------------------------------------
    def _execute(self, actions: List[Action]) -> None:
        for action in actions:
            if isinstance(action, SendAction):
                self._send_icps(action.to, action.message)
            elif isinstance(action, BroadcastAction):
                self._broadcast_icps(action.message)
            elif isinstance(action, SetTimerAction):
                self.set_timer(action.duration, self._on_icps_timer, action.timer_id)
            elif isinstance(action, DecideAction) and isinstance(action.value, ICPSOutput):
                self._on_icps_output(action.value)

    def _send_icps(self, destination: str, icps_message: ICPSMessage) -> None:
        self.send(
            destination,
            Message(msg_type="ICPS", payload=icps_message, size_bytes=icps_message.size_bytes),
        )

    def _broadcast_icps(self, icps_message: ICPSMessage) -> None:
        # Size the payload once for the whole burst: pricing a PROPOSAL walks
        # every entry, so doing it per destination is O(N^2) work per round.
        self.broadcast_message(
            Message(
                msg_type="ICPS",
                payload=SharedPayload(icps_message, icps_message.size_bytes),
            ),
            targets=[peer.name for peer in self.peers],
        )

    # -- Tor-level aggregation and signing --------------------------------------------
    def _on_icps_output(self, output: ICPSOutput) -> None:
        votes: List[VoteDocument] = []
        for node_name, document in sorted(output.documents.items()):
            if document is None:
                continue
            vote = document.payload
            if isinstance(vote, VoteDocument):
                votes.append(vote)
        self.outcome.votes_held = len(votes)
        if len(votes) < self.majority:
            self.record_failure("agreed vector holds %d of %d votes" % (len(votes), self.majority))
            self.log(
                "warn",
                "Agreed vote vector only contains %d votes; cannot build a consensus." % len(votes),
            )
            return
        consensus = self.compute_consensus(votes)
        own_record = consensus.signatures[0]
        self._store_signature(own_record)
        self.log(
            "notice",
            "Interactive consistency reached with %d votes; broadcasting consensus signature."
            % len(votes),
        )
        self.broadcast_message(
            Message(
                msg_type="PS/SIGNATURE",
                payload=own_record,
                size_bytes=self.config.signature_size_bytes,
            ),
            targets=[peer.name for peer in self.peers],
        )
        self._check_completion()

    def _store_signature(self, record: ConsensusSignature) -> None:
        if self.store_signature(record):
            self._check_completion()

    def _check_completion(self) -> None:
        if self.outcome.success or self.consensus is None:
            return
        if self.has_signature_majority():
            self.record_success(self.now, network_latency=self.now - self._start_time)
            self.log(
                "notice",
                "Consensus is valid with %d of %d signatures (%.1f s after protocol start)."
                % (
                    self.outcome.signature_count,
                    self.total_authorities,
                    self.now - self._start_time,
                ),
            )
