"""Tests for digest claims, proposals, and digest-vector validation."""

import pytest

from repro.core.documents import Document
from repro.core.dissemination import DisseminationTracker
from repro.core.proofs import (
    DigestVectorValue,
    EntryProof,
    ProposalEntry,
    ProposalMessage,
    sign_claim,
    validate_digest_vector,
    validate_proposal,
    verify_claim,
)
from repro.crypto.keys import KeyPair, KeyRing

NODES = ("a0", "a1", "a2", "a3")
F = 1


@pytest.fixture()
def pairs_and_ring():
    pairs = {name: KeyPair.generate(name, b"proof-seed") for name in NODES}
    return pairs, KeyRing(pairs.values())


def documents():
    return {name: Document.from_text("document of %s" % name, label=name) for name in NODES}


def full_proposal(proposer, pairs, docs, missing=()):
    """Build a proposal where ``missing`` subjects are reported as ⊥."""
    entries = []
    for subject in NODES:
        if subject in missing:
            entries.append(
                ProposalEntry(
                    subject=subject,
                    digest=None,
                    subject_signature=None,
                    proposer_signature=sign_claim(pairs[proposer], subject, None),
                )
            )
        else:
            digest = docs[subject].digest()
            entries.append(
                ProposalEntry(
                    subject=subject,
                    digest=digest,
                    subject_signature=sign_claim(pairs[subject], subject, digest),
                    proposer_signature=sign_claim(pairs[proposer], subject, digest),
                )
            )
    return ProposalMessage(proposer=proposer, entries=tuple(entries))


class TestClaims:
    def test_claim_round_trip(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        digest = b"d" * 32
        signature = sign_claim(pairs["a0"], "a1", digest)
        assert verify_claim(ring, signature, "a1", digest)
        assert not verify_claim(ring, signature, "a2", digest)
        assert not verify_claim(ring, signature, "a1", b"x" * 32)

    def test_bottom_claim(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        signature = sign_claim(pairs["a0"], "a1", None)
        assert verify_claim(ring, signature, "a1", None)
        assert not verify_claim(ring, signature, "a1", b"d" * 32)


class TestProposalValidation:
    def test_valid_full_proposal(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        proposal = full_proposal("a0", pairs, documents())
        assert validate_proposal(proposal, ring, NODES, F)
        assert proposal.non_bottom_count == 4

    def test_valid_proposal_with_one_bottom(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        proposal = full_proposal("a0", pairs, documents(), missing=("a3",))
        assert validate_proposal(proposal, ring, NODES, F)

    def test_too_many_bottoms_rejected(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        proposal = full_proposal("a0", pairs, documents(), missing=("a2", "a3"))
        assert not validate_proposal(proposal, ring, NODES, F)

    def test_wrong_subject_order_rejected(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        proposal = full_proposal("a0", pairs, documents())
        reordered = ProposalMessage(proposer="a0", entries=tuple(reversed(proposal.entries)))
        assert not validate_proposal(reordered, ring, NODES, F)

    def test_missing_subject_signature_rejected(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        docs = documents()
        proposal = full_proposal("a0", pairs, docs)
        broken_entries = list(proposal.entries)
        broken_entries[1] = ProposalEntry(
            subject=broken_entries[1].subject,
            digest=broken_entries[1].digest,
            subject_signature=None,
            proposer_signature=broken_entries[1].proposer_signature,
        )
        assert not validate_proposal(
            ProposalMessage(proposer="a0", entries=tuple(broken_entries)), ring, NODES, F
        )

    def test_forged_proposer_signature_rejected(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        docs = documents()
        proposal = full_proposal("a0", pairs, docs)
        forged_entries = list(proposal.entries)
        forged_entries[0] = ProposalEntry(
            subject="a0",
            digest=docs["a0"].digest(),
            subject_signature=sign_claim(pairs["a0"], "a0", docs["a0"].digest()),
            proposer_signature=sign_claim(pairs["a1"], "a0", docs["a0"].digest()),  # wrong signer
        )
        assert not validate_proposal(
            ProposalMessage(proposer="a0", entries=tuple(forged_entries)), ring, NODES, F
        )


def build_vector_via_trackers(pairs, ring, docs):
    """Drive dissemination trackers to produce a genuine (H, π)."""
    trackers = {
        name: DisseminationTracker(name, NODES, F, ring, pairs[name]) for name in NODES
    }
    signatures = {name: trackers[name].record_own_document(docs[name]) for name in NODES}
    for receiver in NODES:
        for sender in NODES:
            if sender != receiver:
                trackers[receiver].record_document(sender, docs[sender], signatures[sender])
    proposals = {name: trackers[name].make_proposal() for name in NODES}
    for receiver in NODES:
        for sender in NODES:
            trackers[receiver].record_proposal(proposals[sender])
    return trackers["a0"].try_build_digest_vector()


class TestDigestVectorValidation:
    def test_honestly_built_vector_is_valid(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        vector = build_vector_via_trackers(pairs, ring, documents())
        assert vector is not None
        assert vector.non_bottom_count == 4
        assert validate_digest_vector(vector, ring, NODES, F)
        assert vector.size_bytes > 0
        assert vector.canonical_encoding() == vector.canonical_encoding()

    def test_vector_with_too_few_entries_invalid(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        vector = build_vector_via_trackers(pairs, ring, documents())
        # Blank out two entries -> only 2 non-bottom < n - f = 3.
        doctored = DigestVectorValue(
            leader=vector.leader,
            entries=tuple(
                (name, None if name in ("a2", "a3") else digest, proof)
                for name, digest, proof in vector.entries
            ),
        )
        assert not validate_digest_vector(doctored, ring, NODES, F)

    def test_ok_entry_without_enough_claims_invalid(self, pairs_and_ring):
        pairs, ring = pairs_and_ring
        vector = build_vector_via_trackers(pairs, ring, documents())
        doctored_entries = []
        for name, digest, proof in vector.entries:
            if name == "a1":
                proof = EntryProof(kind="ok", signatures=proof.signatures[:1])
            doctored_entries.append((name, digest, proof))
        doctored = DigestVectorValue(leader=vector.leader, entries=tuple(doctored_entries))
        assert not validate_digest_vector(doctored, ring, NODES, F)

    def test_non_vector_rejected(self, pairs_and_ring):
        _pairs, ring = pairs_and_ring
        assert not validate_digest_vector("not a vector", ring, NODES, F)  # type: ignore[arg-type]

    def test_unknown_proof_kind_rejected(self):
        with pytest.raises(Exception):
            EntryProof(kind="mystery", signatures=())


def test_indexed_lookups_keep_the_scan_semantics(pairs_and_ring):
    """``entry_for``/``digest_of``: absent is None, the first of a repeat wins."""
    pairs, _ring = pairs_and_ring
    docs = documents()
    proposal = full_proposal("a0", pairs, docs, missing=("a3",))
    assert proposal.entry_for("a1") is proposal.entries[1]
    assert proposal.entry_for("a3").is_bottom
    assert proposal.entry_for("zz") is None
    repeated = ProposalMessage(proposer="a0", entries=proposal.entries[2:] + proposal.entries[:3])
    assert repeated.entry_for("a2") is repeated.entries[0]

    proof = EntryProof(kind="timeout", signatures=())
    vector = DigestVectorValue(
        leader="a0", entries=(("a1", b"first", proof), ("a2", None, proof), ("a1", b"second", proof))
    )
    assert vector.digest_of("a1") == b"first"
    assert vector.digest_of("a2") is None and vector.digest_of("zz") is None
