"""Dissemination sub-protocol state (Section 5.2.1).

:class:`DisseminationTracker` holds one node's dissemination state: the
documents and digest claims it received, any equivocation evidence it
collected, and the proposals other nodes sent.  It produces the node's own
:class:`~repro.core.proofs.ProposalMessage` and — when the node acts as a
view leader — the digest vector ``(H, π)`` fed into the agreement
sub-protocol via :func:`build_digest_vector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.documents import Document
from repro.core.proofs import (
    DigestVectorValue,
    EntryProof,
    ProposalEntry,
    ProposalMessage,
    sign_claim,
    validate_proposal,
    verify_claim,
)
from repro.crypto.keys import KeyPair, KeyRing
from repro.crypto.signatures import Signature
from repro.utils.validation import ensure


@dataclass
class _SubjectState:
    """Everything one node knows about another node's document."""

    document: Optional[Document] = None
    digest: Optional[bytes] = None
    signature: Optional[Signature] = None
    # Conflicting (digest, signature) pairs observed for this subject.
    conflicts: List[Tuple[bytes, Signature]] = field(default_factory=list)

    @property
    def equivocated(self) -> bool:
        """True when two different validly signed digests were observed."""
        digests = {digest for digest, _sig in self.conflicts}
        if self.digest is not None:
            digests.add(self.digest)
        return len(digests) >= 2


class DisseminationTracker:
    """One node's view of the dissemination sub-protocol.

    Every signed object is checked before it changes state: a ``DOCUMENT`` or
    a directly recorded claim by ``verify_claim``, a proposal by
    ``validate_proposal``.  A stored proposal is therefore *validated*: its
    entries are in ``nodes`` order and every non-⊥ subject signature verified
    under this tracker's ring.
    """

    def __init__(
        self,
        node_id: str,
        nodes: Sequence[str],
        f: int,
        ring: KeyRing,
        keypair: KeyPair,
    ) -> None:
        ensure(node_id in nodes, "node_id must be one of nodes")
        ensure(f >= 0, "f must be non-negative")
        ensure(len(nodes) >= 3 * f + 1, "ICPS requires n >= 3f + 1")
        self.node_id = node_id
        self.nodes: Tuple[str, ...] = tuple(nodes)
        self.f = f
        self.ring = ring
        self.keypair = keypair
        self._subjects: Dict[str, _SubjectState] = {name: _SubjectState() for name in self.nodes}
        self._index_of: Dict[str, int] = {name: index for index, name in enumerate(self.nodes)}
        self._document_count = 0
        self._proposals: Dict[str, ProposalMessage] = {}

    # -- documents -------------------------------------------------------------
    def record_own_document(self, document: Document) -> Signature:
        """Store this node's own document and return the signed claim to broadcast."""
        digest = document.digest()
        signature = sign_claim(self.keypair, self.node_id, digest)
        state = self._subjects[self.node_id]
        self._store_document(state, document)
        state.digest = digest
        state.signature = signature
        return signature

    def _store_document(self, state: _SubjectState, document: Document) -> None:
        """The one place a document is stored: counts a subject's first only."""
        if state.document is None:
            self._document_count += 1
        state.document = document

    def record_document(self, sender: str, document: Document, signature: Signature) -> bool:
        """Record a DOCUMENT message.  Returns True when accepted.

        Rejects unknown senders and invalid signatures; detects equivocation
        when the sender previously claimed a different digest.
        """
        if sender not in self._subjects:
            return False
        digest = document.digest()
        if signature.signer != sender:
            return False
        if not verify_claim(self.ring, signature, sender, digest):
            return False
        state = self._subjects[sender]
        if state.digest is not None and state.digest != digest:
            state.conflicts.append((digest, signature))
            return False
        if state.digest is None:
            state.digest = digest
            state.signature = signature
        self._store_document(state, document)
        return True

    def store_fetched_document(self, subject: str, document: Document, digest: bytes) -> None:
        """Store a fetched document; the caller matched it against ``digest`` from
        the agreed digest vector, which vouches for it without a claim signature."""
        state = self._subjects[subject]
        self._store_document(state, document)
        if state.digest is None:
            state.digest = digest

    def record_claim(self, subject: str, digest: Optional[bytes], signature: Signature) -> None:
        """Record a digest claim seen inside someone else's proposal.

        Claims carry the subject's own signature, so a claim for a digest that
        differs from what we saw directly is evidence of equivocation.
        """
        if subject not in self._subjects or digest is None or signature.signer != subject:
            return
        if not verify_claim(self.ring, signature, subject, digest):
            return
        self._note_verified_claim(self._subjects[subject], digest, signature)

    @staticmethod
    def _note_verified_claim(state: _SubjectState, digest: bytes, signature: Signature) -> None:
        if state.digest is None:
            # We learn the subject's digest (but not the document itself).
            state.digest = digest
            state.signature = signature
        elif state.digest != digest:
            state.conflicts.append((digest, signature))

    def document_of(self, subject: str) -> Optional[Document]:
        """The full document received from ``subject`` (None if not yet received)."""
        return self._subjects[subject].document

    def digest_claim_of(self, subject: str) -> Tuple[Optional[bytes], Optional[Signature]]:
        """The digest and subject signature recorded for ``subject``."""
        state = self._subjects[subject]
        return state.digest, state.signature

    @property
    def received_document_count(self) -> int:
        """Number of full documents received (including our own)."""
        return self._document_count

    def has_all_documents(self) -> bool:
        """True when every node's document has been received."""
        return self._document_count == len(self.nodes)

    def has_quorum_of_documents(self) -> bool:
        """True when at least ``n - f`` documents have been received."""
        return self._document_count >= len(self.nodes) - self.f

    # -- proposals ------------------------------------------------------------
    def make_proposal(self) -> ProposalMessage:
        """Create this node's proposal ``P_i`` over its current document set."""
        entries: List[ProposalEntry] = []
        for subject in self.nodes:
            state = self._subjects[subject]
            if state.document is not None and state.digest is not None:
                entries.append(
                    ProposalEntry(
                        subject=subject,
                        digest=state.digest,
                        subject_signature=state.signature,
                        proposer_signature=sign_claim(self.keypair, subject, state.digest),
                    )
                )
            else:
                entries.append(
                    ProposalEntry(
                        subject=subject,
                        digest=None,
                        subject_signature=None,
                        proposer_signature=sign_claim(self.keypair, subject, None),
                    )
                )
        return ProposalMessage(proposer=self.node_id, entries=tuple(entries))

    def record_proposal(self, proposal: ProposalMessage) -> bool:
        """Validate and store a proposal (another node's, or this node's own).

        Contract: validated ⇒ every non-⊥ subject signature verified under
        this ring (the verdict is memoised per ``(ring, nodes, f)``, so a
        tracker on another ring validates for itself).  Those are exactly the
        checks :meth:`record_claim` makes, so the entries are mined for digests
        and equivocation evidence without verifying each claim a second time.
        """
        if proposal.proposer not in self._subjects:
            return False
        if not validate_proposal(proposal, self.ring, self.nodes, self.f):
            return False
        self._proposals[proposal.proposer] = proposal
        subjects = self._subjects
        for entry in proposal.entries:
            digest = entry.digest
            if digest is not None:
                state = subjects[entry.subject]
                if state.digest != digest:  # a digest already recorded teaches nothing
                    self._note_verified_claim(state, digest, entry.subject_signature)
        return True

    @property
    def proposal_count(self) -> int:
        """Number of valid proposals recorded (including our own, if recorded)."""
        return len(self._proposals)

    def proposals(self) -> Dict[str, ProposalMessage]:
        """The recorded proposals keyed by proposer."""
        return dict(self._proposals)

    # -- digest-vector construction (the leader's job) ---------------------------
    def equivocation_proof(self, subject: str) -> Optional[EntryProof]:
        """Build an equivocation proof for ``subject`` if evidence exists."""
        state = self._subjects[subject]
        if not state.equivocated:
            return None
        pairs: List[Tuple[bytes, Signature]] = []
        if state.digest is not None and state.signature is not None:
            pairs.append((state.digest, state.signature))
        pairs.extend(state.conflicts)
        # Pick two entries with different digests.
        for index, (digest_a, sig_a) in enumerate(pairs):
            for digest_b, sig_b in pairs[index + 1 :]:
                if digest_a != digest_b:
                    return EntryProof(
                        kind="equivocation",
                        signatures=(sig_a, sig_b),
                        conflicting_digests=(digest_a, digest_b),
                    )
        return None

    def try_build_digest_vector(self) -> Optional[DigestVectorValue]:
        """Attempt to build a ready ``(H, π)`` from the proposals collected so far.

        Returns None until (a) at least ``n - f`` proposals are available and
        (b) the resulting vector has at least ``n - f`` non-⊥ entries.
        """
        quorum = len(self.nodes) - self.f
        if len(self._proposals) < quorum:
            return None

        entries: List[Tuple[str, Optional[bytes], EntryProof]] = []
        for subject in self.nodes:
            entry = self._resolve_subject(subject)
            if entry is None:
                return None
            entries.append(entry)

        value = DigestVectorValue(leader=self.node_id, entries=tuple(entries))
        if value.non_bottom_count < quorum:
            return None
        return value

    def _resolve_subject(self, subject: str) -> Optional[Tuple[str, Optional[bytes], EntryProof]]:
        """Resolve one subject into an (subject, digest, proof) entry, or None."""
        threshold = self.f + 1

        equivocation = self.equivocation_proof(subject)
        if equivocation is not None:
            return (subject, None, equivocation)

        # Stored proposals are validated, so their entries are in ``nodes`` order.
        position = self._index_of[subject]
        by_digest: Dict[Optional[bytes], List[Signature]] = {}
        for proposal in self._proposals.values():
            entry = proposal.entries[position]
            by_digest.setdefault(entry.digest, []).append(entry.proposer_signature)

        for digest, claims in by_digest.items():
            if digest is None:
                continue
            if len(claims) >= threshold:
                return (subject, digest, EntryProof(kind="ok", signatures=tuple(claims[:threshold])))

        bottom_claims = by_digest.get(None, [])
        if len(bottom_claims) >= threshold:
            return (subject, None, EntryProof(kind="timeout", signatures=tuple(bottom_claims[:threshold])))
        return None


def build_digest_vector(tracker: DisseminationTracker) -> Optional[DigestVectorValue]:
    """Functional wrapper over :meth:`DisseminationTracker.try_build_digest_vector`."""
    return tracker.try_build_digest_vector()
