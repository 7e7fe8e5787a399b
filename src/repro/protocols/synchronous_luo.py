"""Luo et al.'s synchronous directory protocol (the "Synchronous" baseline).

Structure reproduced from Figure 5 of the paper:

1. **Propose round** — each authority sends its own relay list (vote) to
   every other authority.
2. **Vote round** — each authority packs *all* the lists it received into a
   vote package and sends the package to every other authority (this is the
   O(n³·d) step that makes the protocol much more bandwidth-hungry than the
   current one).
3. **Synchronize round(s)** — a Dolev–Strong style exchange over the vote
   package of a designated authority: holders of the package relay it along
   with an extended signature chain so that every correct authority ends the
   round holding the same package.
4. **Signature round** — authorities compute the consensus from the lists in
   the agreed package, sign it, and exchange signatures.

The protocol keeps the deployed 150-second lock-step rounds and the same
per-connection timeouts as the current protocol, so its much larger vote
packages are exactly what makes it fail at lower relay counts in Figure 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.crypto.digest import sha256_digest
from repro.crypto.signatures import SignatureChain
from repro.directory.consensus_doc import ConsensusSignature
from repro.directory.vote import VoteDocument
from repro.protocols.base import DirectoryAuthorityNode
from repro.simnet.message import Message

#: Signature-chain context for the Dolev–Strong exchange.
_DS_CONTEXT = "luo/dolev-strong"


class SynchronousLuoAuthority(DirectoryAuthorityNode):
    """One directory authority running Luo et al.'s synchronous protocol."""

    #: Authority ID whose vote package is the Dolev–Strong subject.
    designated_sender_id = 0

    #: The last package digested and its digest (see :meth:`_package_digest`).
    _digested_package: Optional[Tuple[Dict[int, VoteDocument], bytes]] = None

    def on_start(self) -> None:
        self._start_time = self.now
        self.lists: Dict[int, VoteDocument] = {self.authority.authority_id: self.vote}
        self._list_receipt_times: Dict[int, float] = {}
        self._packages: Dict[int, Dict[int, VoteDocument]] = {}
        self._package_receipt_times: Dict[int, float] = {}
        self._vote_round_start: Optional[float] = None
        self._agreed_package: Optional[Dict[int, VoteDocument]] = None
        self._signature_receipt_times: List[float] = []
        self._signature_round_start: Optional[float] = None

        self.log("notice", "Time to send our relay list (propose round).")
        self.broadcast_message(
            Message(msg_type="LUO/LIST", payload=self.vote, size_bytes=self.vote.size_bytes),
            targets=[peer.name for peer in self.peers],
            timeout=self.config.connection_timeout,
        )

        round_length = self.config.round_duration
        self.set_timer_at(self._start_time + round_length, self._vote_round)
        self.set_timer_at(self._start_time + 2 * round_length, self._synchronize_round)
        self.set_timer_at(self._start_time + 3 * round_length, self._signature_round)
        self.set_timer_at(self._start_time + 4 * round_length, self._finalize)

    # -- message handling ----------------------------------------------------
    def on_message(self, message: Message, now: float) -> None:
        if message.msg_type == "LUO/LIST":
            self._store_list(message.payload, now)
        elif message.msg_type == "LUO/VOTE_PACKAGE":
            self._store_package(message.payload, now)
        elif message.msg_type == "LUO/DS_RELAY":
            self._on_ds_relay(message, now)
        elif message.msg_type == "LUO/SIGNATURE":
            self._store_signature(message.payload, now)

    def _store_list(self, vote: VoteDocument, now: float) -> None:
        if not isinstance(vote, VoteDocument) or vote.authority_id in self.lists:
            return
        self.lists[vote.authority_id] = vote
        self._list_receipt_times[vote.authority_id] = now

    def _store_package(self, payload: Tuple[int, Dict[int, VoteDocument]], now: float) -> None:
        sender_id, package = payload
        if sender_id in self._packages:
            return
        self._packages[sender_id] = dict(package)
        self._package_receipt_times[sender_id] = now
        # Lists inside packages also count as received lists.
        for vote in package.values():
            self._store_list(vote, now)

    def _store_signature(self, record: ConsensusSignature, now: float) -> None:
        if self.store_signature(record):
            self._signature_receipt_times.append(now)

    # -- round 2: pack and broadcast all received lists ---------------------------
    def _vote_round(self) -> None:
        self._vote_round_start = self.now
        package = dict(self.lists)
        self.log(
            "notice",
            "Time to vote: packing %d relay lists into our vote." % len(package),
        )
        package_size = sum(vote.size_bytes for vote in package.values())
        self.broadcast_message(
            Message(
                msg_type="LUO/VOTE_PACKAGE",
                payload=(self.authority.authority_id, package),
                size_bytes=package_size,
            ),
            targets=[peer.name for peer in self.peers],
            timeout=self.config.package_transfer_timeout,
        )
        self._packages[self.authority.authority_id] = package

    # -- round 3: Dolev–Strong synchronisation over the designated package -----------
    def _synchronize_round(self) -> None:
        self.log("notice", "Time to synchronize on the designated vote.")
        package = self._packages.get(self.designated_sender_id)
        if package is None:
            self.log("warn", "We do not hold the designated vote package to relay.")
            return
        digest = self._package_digest(package)
        chain = SignatureChain.initial(self.authority.keypair, _DS_CONTEXT, digest)
        package_size = sum(vote.size_bytes for vote in package.values())
        self.broadcast_message(
            Message(
                msg_type="LUO/DS_RELAY",
                payload=(self.designated_sender_id, package, chain),
                size_bytes=package_size + chain.size_bytes,
            ),
            targets=[peer.name for peer in self.peers],
            timeout=self.config.package_transfer_timeout,
        )

    def _on_ds_relay(self, message: Message, now: float) -> None:
        sender_id, package, chain = message.payload
        if not isinstance(chain, SignatureChain):
            return
        digest = self._package_digest(package)
        if chain.value_digest != digest:
            return
        if sender_id not in self._packages:
            self._packages[sender_id] = dict(package)
            for vote in package.values():
                self._store_list(vote, now)

    def _package_digest(self, package: Dict[int, VoteDocument]) -> bytes:
        """Digest of a vote package, remembered for the last distinct package.

        Every peer relays its own copy of the one designated package — equal
        dicts of the same frozen votes, which ``==`` settles by identity per
        member.  The memo keeps a private copy, so no sender can stale it.
        """
        memo = self._digested_package
        if memo is not None and memo[0] == package:
            return memo[1]
        member_digests = "".join(
            package[authority_id].digest_hex() for authority_id in sorted(package)
        )
        digest = sha256_digest(member_digests)
        self._digested_package = (dict(package), digest)
        return digest

    # -- round 4: compute consensus from the agreed package and sign -----------------------
    def _signature_round(self) -> None:
        self._signature_round_start = self.now
        self.log("notice", "Time to compute a consensus from the agreed vote.")
        package = self._packages.get(self.designated_sender_id)
        if package is None or len(package) < self.majority:
            held = 0 if package is None else len(package)
            self.log(
                "warn",
                "We don't have enough relay lists to generate a consensus: %d of %d"
                % (held, self.majority),
            )
            self.record_failure("agreed vote has %d of %d lists" % (held, self.majority))
            self.outcome.votes_held = held
            return
        self._agreed_package = package
        self.outcome.votes_held = len(package)
        consensus = self.compute_consensus(list(package.values()))
        own_record = consensus.signatures[0]
        self._store_signature(own_record, self.now)
        self.broadcast_message(
            Message(
                msg_type="LUO/SIGNATURE",
                payload=own_record,
                size_bytes=self.config.signature_size_bytes,
            ),
            targets=[peer.name for peer in self.peers],
            timeout=self.config.connection_timeout,
        )

    def _network_latency(self) -> Optional[float]:
        """Sum of the active network time of the list, vote-package, and signature exchanges."""
        if not self._list_receipt_times:
            return None
        list_time = max(self._list_receipt_times.values()) - self._start_time
        package_time = 0.0
        if self._package_receipt_times and self._vote_round_start is not None:
            package_time = max(self._package_receipt_times.values()) - self._vote_round_start
        signature_time = 0.0
        if self._signature_receipt_times and self._signature_round_start is not None:
            signature_time = max(self._signature_receipt_times) - self._signature_round_start
        return max(list_time, 0.0) + max(package_time, 0.0) + max(signature_time, 0.0)
