"""Differential test: the dissemination tracker against a reference model.

:class:`ReferenceTracker` is the tracker as it was before ``record_proposal``
began to rely on ``validate_proposal``'s verdict: it verifies every claim of
every proposal again and finds each subject's entry by scanning.  It is
obviously correct and O(n) slower per proposal; the production tracker must
reach the same state and build the same ``(H, π)`` from any sequence of
documents and proposals, valid or not.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.documents import Document
from repro.core.dissemination import DisseminationTracker
from repro.core.proofs import (
    EntryProof,
    ProposalEntry,
    ProposalMessage,
    sign_claim,
    validate_proposal,
)
from repro.crypto.keys import KeyPair, KeyRing


class ReferenceTracker(DisseminationTracker):
    """Verify-every-claim ``record_proposal`` and scan-based ``_resolve_subject``."""

    def record_proposal(self, proposal):
        if proposal.proposer not in self._subjects:
            return False
        if not validate_proposal(proposal, self.ring, self.nodes, self.f):
            return False
        self._proposals[proposal.proposer] = proposal
        for entry in proposal.entries:
            if entry.digest is not None and entry.subject_signature is not None:
                self.record_claim(entry.subject, entry.digest, entry.subject_signature)
        return True

    def _resolve_subject(self, subject):
        threshold = self.f + 1
        equivocation = self.equivocation_proof(subject)
        if equivocation is not None:
            return (subject, None, equivocation)
        by_digest = {}
        for proposal in self._proposals.values():
            for entry in proposal.entries:
                if entry.subject == subject:
                    by_digest.setdefault(entry.digest, []).append(entry.proposer_signature)
                    break
        for digest, claims in by_digest.items():
            if digest is not None and len(claims) >= threshold:
                return (subject, digest, EntryProof(kind="ok", signatures=tuple(claims[:threshold])))
        bottom_claims = by_digest.get(None, [])
        if len(bottom_claims) >= threshold:
            return (subject, None, EntryProof(kind="timeout", signatures=tuple(bottom_claims[:threshold])))
        return None


class World:
    """Keys, honest documents and an alternate (equivocating) document per node."""

    def __init__(self, n):
        self.nodes = tuple("a%d" % index for index in range(n))
        self.f = (n - 1) // 3
        self.pairs = {name: KeyPair.generate(name, b"reference-seed") for name in self.nodes}
        self.ring = KeyRing(self.pairs.values())
        # docs[name][0] is the honest document, docs[name][1] a conflicting one.
        self.docs = {
            name: (Document.from_text("vote of %s" % name), Document.from_text("lie of %s" % name))
            for name in self.nodes
        }

    def trackers(self):
        me = self.nodes[0]
        args = (me, self.nodes, self.f, self.ring, self.pairs[me])
        return DisseminationTracker(*args), ReferenceTracker(*args)

    def document_message(self, sender, variant):
        document = self.docs[sender][variant]
        return sender, document, sign_claim(self.pairs[sender], sender, document.digest())

    def proposal(self, proposer, choices, forged):
        """``choices[i]``: 0 = ⊥, 1 = honest digest, 2 = the conflicting digest.

        ``forged`` names an entry whose subject signature is made by the
        *proposer's* key instead of the subject's, so validation must fail.
        """
        entries = []
        for index, (subject, choice) in enumerate(zip(self.nodes, choices)):
            digest = None if choice == 0 else self.docs[subject][choice - 1].digest()
            signer = proposer if index == forged else subject
            entries.append(
                ProposalEntry(
                    subject=subject,
                    digest=digest,
                    subject_signature=(
                        None if digest is None else sign_claim(self.pairs[signer], subject, digest)
                    ),
                    proposer_signature=sign_claim(self.pairs[proposer], subject, digest),
                )
            )
        return ProposalMessage(proposer=proposer, entries=tuple(entries))


def observable_state(tracker):
    subjects = {
        name: (state.document, state.digest, state.signature, tuple(state.conflicts))
        for name, state in tracker._subjects.items()
    }
    proofs = {name: tracker.equivocation_proof(name) for name in tracker.nodes}
    return (
        subjects,
        tracker.received_document_count,
        tracker.proposals(),
        proofs,
        tracker.try_build_digest_vector(),
    )


@st.composite
def scripts(draw):
    n = draw(st.sampled_from([4, 7, 10]))
    node = st.integers(min_value=0, max_value=n - 1)
    # Mostly-non-⊥ choices so that a fair share of proposals reaches n - f.
    choice = st.sampled_from([0, 1, 1, 1, 1, 2])
    operation = st.one_of(
        st.tuples(st.just("document"), node, st.sampled_from([0, 0, 1])),
        st.tuples(
            st.just("proposal"),
            node,
            st.lists(choice, min_size=n, max_size=n),
            st.one_of(st.none(), st.none(), node),
        ),
        st.tuples(st.just("own-proposal")),
        st.tuples(st.just("duplicate"), st.integers(min_value=0, max_value=50)),
    )
    return n, draw(st.lists(operation, max_size=40))


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(script=scripts())
def test_tracker_matches_the_reference_model(script):
    n, operations = script
    world = World(n)
    production, reference = world.trackers()
    own = world.docs[world.nodes[0]][0]
    assert production.record_own_document(own) == reference.record_own_document(own)
    sent = []
    for operation in operations:
        kind = operation[0]
        if kind == "document":
            message = world.document_message(world.nodes[operation[1]], operation[2])
            assert production.record_document(*message) == reference.record_document(*message)
            continue
        if kind == "proposal":
            _kind, proposer, choices, forged = operation
            proposals = (world.proposal(world.nodes[proposer], choices, forged),) * 2
        elif kind == "own-proposal":
            proposals = (production.make_proposal(), reference.make_proposal())
            assert proposals[0] == proposals[1]
        elif not sent:
            continue
        else:
            proposals = sent[operation[1] % len(sent)]
        sent.append(proposals)
        assert production.record_proposal(proposals[0]) == reference.record_proposal(proposals[1])
        assert observable_state(production) == observable_state(reference)
    assert observable_state(production) == observable_state(reference)


def test_script_space_reaches_the_interesting_states():
    """The strategy's ingredients do produce vectors, conflicts and rejections."""
    world = World(7)
    production, reference = world.trackers()
    for tracker in (production, reference):
        tracker.record_own_document(world.docs["a0"][0])
        tracker.record_document(*world.document_message("a1", 0))
        # a1's conflicting signature arrives only inside a2's proposal.
        assert tracker.record_proposal(world.proposal("a2", [1, 2, 1, 1, 1, 1, 0], None))
        assert not tracker.record_proposal(world.proposal("a6", [1, 1, 1, 1, 1, 1, 1], 2))
        assert not tracker.record_proposal(world.proposal("a6", [1, 0, 0, 1, 0, 1, 1], None))
        for proposer in ("a1", "a3", "a4", "a5"):
            assert tracker.record_proposal(world.proposal(proposer, [1, 1, 1, 1, 1, 1, 0], None))
    assert observable_state(production) == observable_state(reference)
    vector = production.try_build_digest_vector()
    kinds = [proof.kind for _name, _digest, proof in vector.entries]
    assert kinds == ["ok", "equivocation", "ok", "ok", "ok", "ok", "timeout"]
