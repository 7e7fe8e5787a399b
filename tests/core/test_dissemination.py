"""Dissemination tracker tests: document recording, proposals, (H, π) building."""

import pytest

from repro.core.documents import Document
from repro.core.dissemination import DisseminationTracker
from repro.core.proofs import (
    ProposalEntry,
    ProposalMessage,
    sign_claim,
    validate_digest_vector,
)
from repro.crypto.keys import KeyPair, KeyRing

NODES = ("a0", "a1", "a2", "a3")
F = 1


@pytest.fixture()
def env():
    pairs = {name: KeyPair.generate(name, b"diss-seed") for name in NODES}
    ring = KeyRing(pairs.values())
    docs = {name: Document.from_text("doc %s" % name, label=name) for name in NODES}
    trackers = {name: DisseminationTracker(name, NODES, F, ring, pairs[name]) for name in NODES}
    return pairs, ring, docs, trackers


def broadcast_documents(pairs, docs, trackers):
    signatures = {name: trackers[name].record_own_document(docs[name]) for name in NODES}
    for receiver in NODES:
        for sender in NODES:
            if sender != receiver:
                assert trackers[receiver].record_document(sender, docs[sender], signatures[sender])
    return signatures


def test_requires_n_at_least_3f_plus_1():
    pairs = {name: KeyPair.generate(name, b"x") for name in ("a", "b", "c")}
    ring = KeyRing(pairs.values())
    with pytest.raises(Exception):
        DisseminationTracker("a", ("a", "b", "c"), 1, ring, pairs["a"])


def test_document_counting_and_quorum(env):
    pairs, ring, docs, trackers = env
    tracker = trackers["a0"]
    tracker.record_own_document(docs["a0"])
    assert tracker.received_document_count == 1
    assert not tracker.has_quorum_of_documents()
    for sender in ("a1", "a2"):
        signature = sign_claim(pairs[sender], sender, docs[sender].digest())
        tracker.record_document(sender, docs[sender], signature)
    assert tracker.has_quorum_of_documents()     # 3 of 4 >= n - f
    assert not tracker.has_all_documents()


def test_invalid_signature_rejected(env):
    pairs, ring, docs, trackers = env
    tracker = trackers["a0"]
    wrong_signer = sign_claim(pairs["a2"], "a1", docs["a1"].digest())
    assert not tracker.record_document("a1", docs["a1"], wrong_signer)
    unknown = sign_claim(KeyPair.generate("mallory", b"z"), "a1", docs["a1"].digest())
    assert not tracker.record_document("a1", docs["a1"], unknown)
    assert tracker.document_of("a1") is None


def test_unknown_sender_rejected(env):
    pairs, ring, docs, trackers = env
    signature = sign_claim(pairs["a1"], "a1", docs["a1"].digest())
    assert not trackers["a0"].record_document("zz", docs["a1"], signature)


def test_conflicting_documents_detected_as_equivocation(env):
    pairs, ring, docs, trackers = env
    tracker = trackers["a0"]
    first = Document.from_text("version one")
    second = Document.from_text("version two")
    assert tracker.record_document("a1", first, sign_claim(pairs["a1"], "a1", first.digest()))
    assert not tracker.record_document("a1", second, sign_claim(pairs["a1"], "a1", second.digest()))
    proof = tracker.equivocation_proof("a1")
    assert proof is not None and proof.kind == "equivocation"


def test_proposal_reflects_received_documents(env):
    pairs, ring, docs, trackers = env
    tracker = trackers["a0"]
    tracker.record_own_document(docs["a0"])
    for sender in ("a1", "a2"):
        tracker.record_document(sender, docs[sender], sign_claim(pairs[sender], sender, docs[sender].digest()))
    proposal = tracker.make_proposal()
    assert proposal.non_bottom_count == 3
    assert proposal.entry_for("a3").is_bottom
    assert proposal.entry_for("a1").digest == docs["a1"].digest()


def test_full_exchange_builds_valid_vector(env):
    pairs, ring, docs, trackers = env
    broadcast_documents(pairs, docs, trackers)
    proposals = {name: trackers[name].make_proposal() for name in NODES}
    for receiver in NODES:
        for sender in NODES:
            assert trackers[receiver].record_proposal(proposals[sender])
    vector = trackers["a2"].try_build_digest_vector()
    assert vector is not None
    assert vector.non_bottom_count == 4
    assert validate_digest_vector(vector, ring, NODES, F)


def test_vector_not_ready_without_quorum_of_proposals(env):
    pairs, ring, docs, trackers = env
    broadcast_documents(pairs, docs, trackers)
    tracker = trackers["a0"]
    tracker.record_proposal(tracker.make_proposal())
    tracker.record_proposal(trackers["a1"].make_proposal())
    assert tracker.try_build_digest_vector() is None  # only 2 of the required 3


def test_vector_marks_silent_node_bottom(env):
    pairs, ring, docs, trackers = env
    # a3 never sends a document; the others exchange everything else.
    signatures = {name: trackers[name].record_own_document(docs[name]) for name in NODES if name != "a3"}
    active = [name for name in NODES if name != "a3"]
    for receiver in active:
        for sender in active:
            if sender != receiver:
                trackers[receiver].record_document(sender, docs[sender], signatures[sender])
    proposals = {name: trackers[name].make_proposal() for name in active}
    for receiver in active:
        for sender in active:
            assert trackers[receiver].record_proposal(proposals[sender])
    vector = trackers["a0"].try_build_digest_vector()
    assert vector is not None
    assert vector.digest_of("a3") is None
    assert vector.non_bottom_count == 3
    assert validate_digest_vector(vector, ring, NODES, F)
    # The bottom entry carries a timeout proof with f + 1 claims.
    proof = dict((name, proof) for name, _d, proof in vector.entries)["a3"]
    assert proof.kind == "timeout"
    assert len(proof.signatures) >= F + 1


def test_invalid_proposal_rejected(env):
    pairs, ring, docs, trackers = env
    broadcast_documents(pairs, docs, trackers)
    good = trackers["a1"].make_proposal()
    # A proposal claiming to be from a2 but signed by a1 must be rejected.
    impostor = ProposalMessage(proposer="a2", entries=good.entries)
    assert not trackers["a0"].record_proposal(impostor)


# -- the document counter ------------------------------------------------------
def assert_count_matches_recount(tracker):
    recount = sum(1 for name in tracker.nodes if tracker.document_of(name) is not None)
    assert tracker.received_document_count == recount
    assert tracker.has_all_documents() == (recount == len(tracker.nodes))
    assert tracker.has_quorum_of_documents() == (recount >= len(tracker.nodes) - tracker.f)
    return recount


def test_document_counter_equals_a_recount_on_every_path(env):
    pairs, ring, docs, trackers = env
    tracker = trackers["a0"]
    assert assert_count_matches_recount(tracker) == 0
    tracker.record_own_document(docs["a0"])
    assert assert_count_matches_recount(tracker) == 1
    signature = sign_claim(pairs["a1"], "a1", docs["a1"].digest())
    assert tracker.record_document("a1", docs["a1"], signature)
    assert assert_count_matches_recount(tracker) == 2
    # A duplicate DOCUMENT is accepted again but is not a second document.
    assert tracker.record_document("a1", docs["a1"], signature)
    assert assert_count_matches_recount(tracker) == 2
    # An equivocating DOCUMENT is rejected and not counted.
    other = Document.from_text("another a1")
    assert not tracker.record_document("a1", other, sign_claim(pairs["a1"], "a1", other.digest()))
    assert tracker.document_of("a1") is docs["a1"]
    assert assert_count_matches_recount(tracker) == 2
    # A badly signed DOCUMENT stores nothing.
    assert not tracker.record_document("a2", docs["a2"], sign_claim(pairs["a3"], "a2", docs["a2"].digest()))
    assert assert_count_matches_recount(tracker) == 2
    # A fetched document counts once, a re-fetched one not at all.
    tracker.store_fetched_document("a2", docs["a2"], docs["a2"].digest())
    assert assert_count_matches_recount(tracker) == 3
    tracker.store_fetched_document("a2", docs["a2"], docs["a2"].digest())
    assert assert_count_matches_recount(tracker) == 3
    assert tracker.digest_claim_of("a2") == (docs["a2"].digest(), None)
    tracker.store_fetched_document("a3", docs["a3"], docs["a3"].digest())
    assert assert_count_matches_recount(tracker) == 4 and tracker.has_all_documents()


# -- soundness of mining a validated proposal without re-verifying it ----------
def forged_proposal(pairs, docs, proposer, forged_subject):
    """A full proposal whose ``forged_subject`` signature is the proposer's own."""
    entries = []
    for subject in NODES:
        digest = docs[subject].digest()
        signer = proposer if subject == forged_subject else subject
        entries.append(
            ProposalEntry(
                subject=subject,
                digest=digest,
                subject_signature=sign_claim(pairs[signer], subject, digest),
                proposer_signature=sign_claim(pairs[proposer], subject, digest),
            )
        )
    return ProposalMessage(proposer=proposer, entries=tuple(entries))


def test_forged_subject_signature_rejects_the_proposal_and_mines_nothing(env):
    pairs, ring, docs, trackers = env
    tracker = trackers["a0"]
    tracker.record_own_document(docs["a0"])
    # a1 equivocates towards a0: the forged proposal would expose the conflict.
    lie = Document.from_text("a1 told a0 something else")
    tracker.record_document("a1", lie, sign_claim(pairs["a1"], "a1", lie.digest()))
    assert not tracker.record_proposal(forged_proposal(pairs, docs, "a2", "a3"))
    assert tracker.proposal_count == 0
    assert tracker.digest_claim_of("a2") == (None, None)      # no digest learned
    assert tracker.digest_claim_of("a3") == (None, None)
    assert tracker.equivocation_proof("a1") is None           # no conflict recorded
    # The same claims inside a well-signed proposal are mined.
    assert tracker.record_proposal(forged_proposal(pairs, docs, "a2", None))
    assert tracker.digest_claim_of("a3")[0] == docs["a3"].digest()
    assert tracker.equivocation_proof("a1") is not None


def test_proposal_verdict_is_per_ring_not_per_object(env):
    pairs, ring, docs, trackers = env
    proposal = forged_proposal(pairs, docs, "a1", None)
    assert trackers["a0"].record_proposal(proposal)
    # Ring B knows a different key for a3: the object already carries a True
    # verdict under ring A, yet a tracker on ring B validates for itself.
    other_pairs = dict(pairs, a3=KeyPair.generate("a3", b"another-seed"))
    other_ring = KeyRing(other_pairs.values())
    stranger = DisseminationTracker("a0", NODES, F, other_ring, other_pairs["a0"])
    assert not stranger.record_proposal(proposal)
    assert stranger.proposal_count == 0
    assert all(stranger.digest_claim_of(name) == (None, None) for name in NODES)
    assert trackers["a2"].record_proposal(proposal)           # ring A still accepts


def test_record_claim_still_verifies_for_direct_callers(env):
    pairs, ring, docs, trackers = env
    tracker = trackers["a0"]
    digest = docs["a1"].digest()
    tracker.record_claim("a1", digest, sign_claim(pairs["a2"], "a1", digest))      # wrong signer
    tracker.record_claim("a1", digest, sign_claim(pairs["a1"], "a1", b"x" * 32))   # wrong digest
    tracker.record_claim("zz", digest, sign_claim(pairs["a1"], "a1", digest))      # unknown subject
    assert tracker.digest_claim_of("a1") == (None, None)
    tracker.record_claim("a1", digest, sign_claim(pairs["a1"], "a1", digest))
    assert tracker.digest_claim_of("a1")[0] == digest
