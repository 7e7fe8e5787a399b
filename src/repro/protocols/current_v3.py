"""The deployed Tor directory protocol, version 3 (the "Current" baseline).

Four lock-step rounds of ``round_duration`` seconds each (150 s live):

1. **Perform Vote** — each authority pushes its vote document to every other
   authority.
2. **Fetch Votes** — authorities missing votes request them from every other
   authority (this is where Figure 1's "We're missing votes from 5
   authorities … Asking every other authority for a copy" lines come from).
3. **Send Signature** — authorities holding at least a majority of votes
   aggregate them, sign the resulting consensus, and push the signature.
4. **Fetch Signatures** — authorities re-exchange signatures.

At the end of round 4, an authority's run is successful iff it computed a
consensus and holds valid signatures from a strict majority of authorities
over that exact consensus digest.  Because the aggregation input is "whatever
votes arrived in time", authorities whose vote sets diverge produce different
consensuses whose signatures do not add up — which is exactly the failure
mode the DDoS attack triggers.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.directory.consensus_doc import ConsensusSignature
from repro.directory.vote import VoteDocument
from repro.protocols.base import DirectoryAuthorityNode
from repro.simnet.message import Message


class CurrentProtocolAuthority(DirectoryAuthorityNode):
    """One directory authority running the current v3 protocol."""

    def on_start(self) -> None:
        self._start_time = self.now
        self.votes: Dict[int, VoteDocument] = {self.authority.authority_id: self.vote}
        self._vote_receipt_times: Dict[int, float] = {}
        self._signature_receipt_times: List[float] = []
        self._consensus_round_start: Optional[float] = None
        self._fetch_requested_from: List[str] = []

        self.log("notice", "Time to vote.")
        self.broadcast_message(
            Message(
                msg_type="V3/VOTE",
                payload=self.vote,
                size_bytes=self.vote.size_bytes,
            ),
            targets=[peer.name for peer in self.peers],
            timeout=self.config.connection_timeout,
            on_timeout=self._on_vote_push_timeout,
        )

        round_length = self.config.round_duration
        self.set_timer_at(self._start_time + round_length, self._fetch_votes_round)
        self.set_timer_at(self._start_time + 2 * round_length, self._compute_consensus_round)
        self.set_timer_at(self._start_time + 3 * round_length, self._fetch_signatures_round)
        self.set_timer_at(self._start_time + 4 * round_length, self._finalize)

    # -- message handling ---------------------------------------------------
    def on_message(self, message: Message, now: float) -> None:
        if message.msg_type == "V3/VOTE":
            self._store_vote(message.payload, now)
        elif message.msg_type == "V3/VOTE_FETCH":
            self._serve_vote_fetch(message)
        elif message.msg_type == "V3/VOTE_FETCH_RESPONSE":
            for vote in message.payload:
                self._store_vote(vote, now)
        elif message.msg_type in ("V3/SIGNATURE", "V3/SIGNATURE_FETCH_RESPONSE"):
            self._store_signature(message.payload, now)
        elif message.msg_type == "V3/SIGNATURE_FETCH":
            self._serve_signature_fetch(message)

    def _store_vote(self, vote: VoteDocument, now: float) -> None:
        if not isinstance(vote, VoteDocument):
            return
        if vote.authority_id in self.votes:
            return
        self.votes[vote.authority_id] = vote
        self._vote_receipt_times[vote.authority_id] = now

    def _store_signature(self, record: ConsensusSignature, now: float) -> None:
        if self.store_signature(record):
            self._signature_receipt_times.append(now)

    # -- round 1 helpers -------------------------------------------------------
    def _on_vote_push_timeout(self, message: Message, destination: str) -> None:
        self.log(
            "info",
            "connection_dir_server_request_failed(): Giving up uploading our vote to %s"
            % self._address_of(destination),
        )

    def _address_of(self, node_name: str) -> str:
        peer = self.peer_by_name(node_name)
        return peer.address if peer is not None else node_name

    # -- round 2: fetch missing votes --------------------------------------------
    def _fetch_votes_round(self) -> None:
        self.log("notice", "Time to fetch any votes that we're missing.")
        missing = [
            authority
            for authority in self.all_authorities
            if authority.authority_id not in self.votes
        ]
        if not missing:
            return
        fingerprints = " ".join(authority.fingerprint for authority in missing)
        self.log(
            "notice",
            "We're missing votes from %d authorities (%s). Asking every other authority for a copy."
            % (len(missing), fingerprints),
        )
        missing_ids = [authority.authority_id for authority in missing]
        peer_names = [peer.name for peer in self.peers]
        self._fetch_requested_from.extend(peer_names)
        self.broadcast_message(
            Message(msg_type="V3/VOTE_FETCH", payload=tuple(missing_ids), size_bytes=512),
            targets=peer_names,
            timeout=self.config.connection_timeout,
        )
        self.set_timer(self.config.connection_timeout, self._report_failed_fetches, set(missing_ids))

    def _report_failed_fetches(self, requested_ids: set) -> None:
        still_missing = requested_ids - set(self.votes)
        if not still_missing:
            return
        for peer in self.peers:
            self.log(
                "info",
                "connection_dir_client_request_failed(): Giving up downloading votes from %s"
                % self._address_of(peer.name),
            )

    def _serve_vote_fetch(self, message: Message) -> None:
        requested = message.payload or ()
        available = [self.votes[aid] for aid in requested if aid in self.votes]
        if not available:
            return
        self.send(
            message.sender,
            Message(
                msg_type="V3/VOTE_FETCH_RESPONSE",
                payload=tuple(available),
                size_bytes=sum(vote.size_bytes for vote in available),
            ),
            timeout=self.config.connection_timeout,
        )

    # -- round 3: compute + sign consensus -------------------------------------------
    def _compute_consensus_round(self) -> None:
        self._consensus_round_start = self.now
        self.log("notice", "Time to compute a consensus.")
        if len(self.votes) < self.majority:
            self.log(
                "warn",
                "We don't have enough votes to generate a consensus: %d of %d"
                % (len(self.votes), self.majority),
            )
            self.record_failure("not enough votes: %d of %d" % (len(self.votes), self.majority))
            self.outcome.votes_held = len(self.votes)
            return
        self.outcome.votes_held = len(self.votes)
        consensus = self.compute_consensus(list(self.votes.values()))
        own_record = consensus.signatures[0]
        self._store_signature(own_record, self.now)
        self.log(
            "notice",
            "Consensus computed; broadcasting signature over digest %s."
            % consensus.digest_hex()[:16],
        )
        self.broadcast_message(
            Message(
                msg_type="V3/SIGNATURE",
                payload=own_record,
                size_bytes=self.config.signature_size_bytes,
            ),
            targets=[peer.name for peer in self.peers],
            timeout=self.config.connection_timeout,
        )

    # -- round 4: fetch signatures ---------------------------------------------------------
    def _fetch_signatures_round(self) -> None:
        if self.consensus is None:
            return
        self.log("notice", "Time to fetch any signatures that we're missing.")
        self.broadcast_message(
            Message(msg_type="V3/SIGNATURE_FETCH", payload=None, size_bytes=256),
            targets=[peer.name for peer in self.peers],
            timeout=self.config.connection_timeout,
        )

    def _serve_signature_fetch(self, message: Message) -> None:
        if self.consensus is None:
            return
        own_record = next(
            (
                record
                for record in self.consensus.signatures
                if record.authority_id == self.authority.authority_id
            ),
            None,
        )
        if own_record is None:
            return
        self.send(
            message.sender,
            Message(
                msg_type="V3/SIGNATURE_FETCH_RESPONSE",
                payload=own_record,
                size_bytes=self.config.signature_size_bytes,
            ),
            timeout=self.config.connection_timeout,
        )

    def _network_latency(self) -> Optional[float]:
        """The paper's "network time": vote-round plus signature-round activity."""
        if not self._vote_receipt_times:
            return None
        vote_time = max(self._vote_receipt_times.values()) - self._start_time
        signature_time = 0.0
        if self._signature_receipt_times and self._consensus_round_start is not None:
            signature_time = max(self._signature_receipt_times) - self._consensus_round_start
        return max(vote_time, 0.0) + max(signature_time, 0.0)
