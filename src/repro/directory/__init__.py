"""Tor directory data model.

This sub-package models the artefacts that the directory protocols move
around:

* :class:`Relay` — one relay's descriptor summary (the per-router entry of a
  vote), including flags, version, exit-policy summary, and measured
  bandwidth;
* :class:`VoteDocument` — one authority's status vote (its view of all
  relays), serialisable to a dir-spec-like text format so that its wire size
  scales realistically with the number of relays;
* :class:`ConsensusDocument` — the hourly consensus, plus the authority
  signatures attached to it;
* :func:`aggregate_votes` — the deterministic aggregation algorithm from
  Figure 2 of the paper (majority inclusion, per-flag majority, largest
  version, lexicographically larger exit policy, median bandwidth);
* :class:`DirectoryAuthority` / :func:`make_authorities` — authority
  identities (fingerprints, signing keys).
"""

from repro.directory.relay import ExitPolicySummary, Relay, RelayFlag, RELAY_FLAGS
from repro.directory.vote import VoteDocument, VOTE_HEADER_BYTES
from repro.directory.consensus_doc import ConsensusDocument, ConsensusSignature
from repro.directory.aggregate import AggregationConfig, aggregate_votes
from repro.directory.authority import DirectoryAuthority, make_authorities

__all__ = [
    "ExitPolicySummary",
    "Relay",
    "RelayFlag",
    "RELAY_FLAGS",
    "VoteDocument",
    "VOTE_HEADER_BYTES",
    "ConsensusDocument",
    "ConsensusSignature",
    "AggregationConfig",
    "aggregate_votes",
    "DirectoryAuthority",
    "make_authorities",
]
