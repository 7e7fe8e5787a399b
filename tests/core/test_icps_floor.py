"""Count-based floor of the ``ours`` handler path (no seconds).

Each of ``n`` authorities receives ``n`` proposals of ``n`` claims, so anything
done *per claim per receiver* is n³.  The protocol needs none of that: a
proposal is validated once per ring, a signature's HMAC is computed once per
key pair, and a subject's entry sits at its index.  These tripwires count the
calls on a real run, so a change that re-verifies, re-scans or re-hashes per
receiver fails here without a stopwatch.
"""

import sys
from collections import Counter

import pytest

from repro.core.proofs import DigestVectorValue, ProposalMessage
from repro.crypto import signatures
from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec


def _count_calls(monkeypatch, function, calls):
    """Count calls to ``function`` under every name ``repro`` imported it by."""

    def counted(*args, **kwargs):
        calls[function.__name__] += 1
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro."):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("authorities", [16, 32])
def test_ours_on_latency_only_does_quadratic_bookkeeping(monkeypatch, authorities):
    calls = Counter()
    encodings = Counter()
    _count_calls(monkeypatch, signatures.verify, calls)

    entry_for = ProposalMessage.entry_for
    canonical_encoding = DigestVectorValue.canonical_encoding

    def counted_entry_for(self, subject):
        calls["entry_for"] += 1
        return entry_for(self, subject)

    def counted_encoding(self):
        encodings[id(self)] += 1
        return canonical_encoding(self)

    monkeypatch.setattr(ProposalMessage, "entry_for", counted_entry_for)
    monkeypatch.setattr(DigestVectorValue, "canonical_encoding", counted_encoding)

    result = execute_spec(
        RunSpec(
            protocol="ours",
            relay_count=200,
            bandwidth_mbps=250.0,
            seed=7,
            transport="latency-only",
            authority_count=authorities,
            max_time=600.0,
        )
    )
    assert result.success
    n = authorities
    # Measured 4.3·n²: 2n per first validation of each of n proposals, once per
    # ring, plus the DOCUMENT claims and (H, π) proofs.  Verifying every claim
    # of every received proposal again was n³ + 4·n².
    assert n * n <= calls["verify"] <= 5 * n * n
    assert calls["entry_for"] == 0
    # Only the consensus value digest encodes (H, π), once per object.
    assert encodings and max(encodings.values()) == 1
