"""Signed claims, proposals, and digest-vector proofs for ICPS.

The dissemination sub-protocol (Section 5.2.1 of the paper) manipulates three
kinds of signed objects:

* a **digest claim** — node ``i``'s signature over "node ``j``'s document has
  digest ``h``" (or over ⊥, meaning "I did not receive ``j``'s document");
* a **proposal** ``P_i`` — node ``i``'s claims about every node's digest,
  paired with the subject's own signature for non-⊥ entries (the paper's
  ``(h_j, σ_j(j, h_j), σ_i(j, h_j))`` triples);
* a **digest vector with proof** ``(H, π)`` — the leader's combination of at
  least ``n - f`` proposals, where every entry carries an externally
  verifiable proof: ``f + 1`` matching claims for an OK entry, a pair of
  conflicting subject signatures for an equivocation entry, or ``f + 1``
  ⊥-claims for a timeout entry.

``(H, π)`` is exactly the value the agreement sub-protocol decides on, and
:func:`validate_digest_vector` is the external-validity predicate handed to
the consensus engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.digest import DIGEST_SIZE_BYTES
from repro.crypto.keys import KeyPair, KeyRing
from repro.crypto.signatures import SIGNATURE_SIZE_BYTES, Signature, sign, verify
from repro.utils.memo import instance_memo
from repro.utils.validation import ValidationError

#: Signature context for digest claims.
CLAIM_CONTEXT = "icps/digest-claim"


def claim_payload(subject: str, digest: Optional[bytes]) -> Optional[bytes]:
    """Canonical signed payload for the claim "subject's document digest is X"."""
    if digest is None:
        return None
    return subject.encode("utf-8") + b"|" + digest


def sign_claim(pair: KeyPair, subject: str, digest: Optional[bytes]) -> Signature:
    """Sign a digest claim (``digest=None`` signs the ⊥ claim)."""
    return sign(pair, CLAIM_CONTEXT + "|" + subject, claim_payload(subject, digest))


def verify_claim(
    ring: KeyRing, signature: Signature, subject: str, digest: Optional[bytes]
) -> bool:
    """Verify that ``signature`` is a claim by its signer about ``(subject, digest)``."""
    if signature.context != CLAIM_CONTEXT + "|" + subject:
        return False
    if signature.message != claim_payload(subject, digest):
        return False
    return verify(ring, signature)


@dataclass(frozen=True)
class ProposalEntry:
    """One entry of a proposal ``P_i``: node ``i``'s claim about node ``subject``."""

    subject: str
    digest: Optional[bytes]
    subject_signature: Optional[Signature]
    proposer_signature: Signature

    @property
    def is_bottom(self) -> bool:
        """True when the proposer claims it did not receive the subject's document."""
        return self.digest is None

    @property
    def size_bytes(self) -> int:
        """Wire size of the entry."""
        size = len(self.subject) + SIGNATURE_SIZE_BYTES
        if self.digest is not None:
            size += DIGEST_SIZE_BYTES
        if self.subject_signature is not None:
            size += SIGNATURE_SIZE_BYTES
        return size


@dataclass(frozen=True)
class ProposalMessage:
    """A full proposal ``P_i``: one :class:`ProposalEntry` per node."""

    proposer: str
    entries: Tuple[ProposalEntry, ...]

    @property
    def non_bottom_count(self) -> int:
        """Number of entries with a concrete digest."""
        return sum(1 for entry in self.entries if not entry.is_bottom)

    @property
    def size_bytes(self) -> int:
        """Wire size of the proposal (entries are frozen, so computed once)."""
        return instance_memo(
            self,
            "_size",
            lambda: sum(entry.size_bytes for entry in self.entries) + len(self.proposer),
        )

    def entry_for(self, subject: str) -> Optional[ProposalEntry]:
        """The entry about ``subject`` (None if absent; the first if repeated)."""
        index = instance_memo(
            self, "_by_subject", lambda: {entry.subject: entry for entry in reversed(self.entries)}
        )
        return index.get(subject)


def _verdict_memo(obj: object, ring: KeyRing, nodes: Sequence[str], f: int):
    """Per-instance validation-verdict cache for frozen signed objects.

    Broadcast dissemination re-validates the *same* proposal or digest vector
    once per receiving authority; the verdict only depends on the (immutable)
    object and the ``(ring, nodes, f)`` validation context, so it is cached on
    the instance.  The ring keys by identity — a different ring (different
    keys) gets its own verdict.  Returns ``(memo, key)``.
    """
    memo = obj.__dict__.get("_verdict_memo")
    if memo is None:
        memo = {}
        object.__setattr__(obj, "_verdict_memo", memo)
    return memo, (ring, tuple(nodes), f)


def validate_proposal(
    proposal: ProposalMessage,
    ring: KeyRing,
    nodes: Sequence[str],
    f: int,
) -> bool:
    """Check a proposal's well-formedness and signatures.

    A valid proposal covers every node exactly once, carries the proposer's
    claim signature on every entry, carries the subject's own signature on
    every non-⊥ entry, and has at least ``n - f`` non-⊥ entries (a node only
    proposes once it received that many documents).

    The verdict is cached per ``(ring, nodes, f)``: every authority receiving
    a relayed copy of the same proposal object reuses the first validation.
    """
    memo, key = _verdict_memo(proposal, ring, nodes, f)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _validate_proposal_uncached(proposal, ring, nodes, f)
    return verdict


def _validate_proposal_uncached(
    proposal: ProposalMessage,
    ring: KeyRing,
    nodes: Sequence[str],
    f: int,
) -> bool:
    expected = list(nodes)
    subjects = [entry.subject for entry in proposal.entries]
    if subjects != expected:
        return False
    if proposal.non_bottom_count < len(expected) - f:
        return False
    for entry in proposal.entries:
        if entry.proposer_signature.signer != proposal.proposer:
            return False
        if not verify_claim(ring, entry.proposer_signature, entry.subject, entry.digest):
            return False
        if entry.is_bottom:
            if entry.subject_signature is not None:
                return False
        else:
            if entry.subject_signature is None:
                return False
            if entry.subject_signature.signer != entry.subject:
                return False
            if not verify_claim(ring, entry.subject_signature, entry.subject, entry.digest):
                return False
    return True


@dataclass(frozen=True)
class EntryProof:
    """Externally verifiable proof attached to one entry of the digest vector.

    ``kind`` is one of:

    * ``"ok"`` — ``signatures`` holds ``f + 1`` distinct proposers' claims on
      the same digest (so at least one correct node has the document);
    * ``"equivocation"`` — ``signatures`` holds two of the *subject's own*
      signatures on different digests;
    * ``"timeout"`` — ``signatures`` holds ``f + 1`` distinct proposers'
      ⊥-claims (so at least one correct node timed out on the subject).
    """

    kind: str
    signatures: Tuple[Signature, ...]
    conflicting_digests: Tuple[bytes, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("ok", "equivocation", "timeout"):
            raise ValidationError("unknown proof kind %r" % self.kind)

    @property
    def size_bytes(self) -> int:
        """Wire size of the proof."""
        return (
            len(self.signatures) * SIGNATURE_SIZE_BYTES
            + len(self.conflicting_digests) * DIGEST_SIZE_BYTES
        )


@dataclass(frozen=True)
class DigestVectorValue:
    """The agreement sub-protocol's value: the digest vector ``H`` plus proof ``π``."""

    leader: str
    entries: Tuple[Tuple[str, Optional[bytes], EntryProof], ...]

    @property
    def non_bottom_count(self) -> int:
        """|H|≠⊥ — number of entries carrying a digest."""
        return sum(1 for _node, digest, _proof in self.entries if digest is not None)

    def digest_of(self, node: str) -> Optional[bytes]:
        """The agreed digest for ``node`` (None for ⊥)."""
        index = instance_memo(
            self, "_by_node", lambda: {name: digest for name, digest, _proof in reversed(self.entries)}
        )
        return index.get(node)

    def digests(self) -> Dict[str, Optional[bytes]]:
        """Mapping node → agreed digest (or None)."""
        return {name: digest for name, digest, _proof in self.entries}

    @property
    def size_bytes(self) -> int:
        """Wire size of the ``(H, π)`` pair (Table 1's O(n²κ) consensus input)."""

        def compute() -> int:
            total = len(self.leader)
            for name, digest, proof in self.entries:
                total += len(name) + (DIGEST_SIZE_BYTES if digest is not None else 0)
                total += proof.size_bytes
            return total

        return instance_memo(self, "_size", compute)

    def canonical_encoding(self) -> bytes:
        """Stable encoding used by the consensus engines' value digests.

        The vector is frozen, so the encoding is computed once and memoised:
        every vote, digest, and view change hashes this value, and at ``n``
        authorities the walk covers ``O(n)`` entries with ``O(f)`` signatures
        each.
        """

        def compute() -> bytes:
            parts: List[bytes] = [self.leader.encode("utf-8")]
            for name, digest, proof in self.entries:
                parts.append(name.encode("utf-8"))
                parts.append(digest if digest is not None else b"<bottom>")
                parts.append(proof.kind.encode("utf-8"))
                for signature in proof.signatures:
                    parts.append(signature.signer.encode("utf-8"))
                    parts.append(signature.tag)
            return b"|".join(parts)

        return instance_memo(self, "_encoding", compute)


def validate_digest_vector(
    value: DigestVectorValue,
    ring: KeyRing,
    nodes: Sequence[str],
    f: int,
) -> bool:
    """External-validity predicate for the agreement sub-protocol.

    Checks, per Section 5.2.1: the vector covers every node once; at least
    ``n - f`` entries are non-⊥; every OK entry carries ``f + 1`` distinct
    valid claims on its digest; every ⊥ entry carries either an equivocation
    proof (two conflicting subject signatures) or ``f + 1`` distinct valid
    ⊥-claims.

    The verdict is cached per ``(ring, nodes, f)`` on the (frozen) value:
    the agreement engine hands the same ``(H, π)`` object to every replica's
    external-validity predicate, and the claim-set checks are the crypto-heavy
    part of the round.
    """
    if not isinstance(value, DigestVectorValue):
        return False
    memo, key = _verdict_memo(value, ring, nodes, f)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = _validate_digest_vector_uncached(value, ring, nodes, f)
    return verdict


def _validate_digest_vector_uncached(
    value: DigestVectorValue,
    ring: KeyRing,
    nodes: Sequence[str],
    f: int,
) -> bool:
    expected = list(nodes)
    subjects = [name for name, _digest, _proof in value.entries]
    if subjects != expected:
        return False
    if value.non_bottom_count < len(expected) - f:
        return False
    for name, digest, proof in value.entries:
        if digest is not None:
            if proof.kind != "ok":
                return False
            if not _validate_claim_set(ring, proof.signatures, name, digest, f + 1):
                return False
        elif proof.kind == "equivocation":
            if not _validate_equivocation(ring, proof, name):
                return False
        elif proof.kind == "timeout":
            if not _validate_claim_set(ring, proof.signatures, name, None, f + 1):
                return False
        else:
            return False
    return True


def _validate_claim_set(
    ring: KeyRing,
    signatures: Sequence[Signature],
    subject: str,
    digest: Optional[bytes],
    minimum: int,
) -> bool:
    signers = set()
    for signature in signatures:
        if not verify_claim(ring, signature, subject, digest):
            return False
        signers.add(signature.signer)
    return len(signers) >= minimum


def _validate_equivocation(ring: KeyRing, proof: EntryProof, subject: str) -> bool:
    if len(proof.signatures) != 2 or len(proof.conflicting_digests) != 2:
        return False
    first, second = proof.conflicting_digests
    if first == second:
        return False
    for signature, digest in zip(proof.signatures, proof.conflicting_digests):
        if signature.signer != subject:
            return False
        if not verify_claim(ring, signature, subject, digest):
            return False
    return True
