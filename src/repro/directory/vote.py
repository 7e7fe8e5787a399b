"""Vote (status) documents.

Each authority produces one vote per consensus period, containing metadata
about the voting interval plus one entry per relay the authority knows about.
The paper's bandwidth experiments hinge on the fact that the **size of a vote
grows linearly with the number of relays** (Figure 6/7), so the vote document
here serialises to a realistic dir-spec-like text format and exposes its wire
size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.crypto.digest import digest_hex, sha256_digest
from repro.directory.relay import Relay
from repro.utils.memo import instance_memo
from repro.utils.validation import ensure

#: Approximate size of the vote preamble and key certificate material, bytes.
VOTE_HEADER_BYTES = 4096


@dataclass(frozen=True)
class VoteDocument:
    """One authority's status vote for a single consensus period.

    Attributes
    ----------
    authority_id:
        The voting authority's integer ID.
    authority_fingerprint:
        The voting authority's fingerprint (used in logs and signatures).
    valid_after:
        Start of the consensus period this vote is for (seconds since the
        simulation epoch).
    relays:
        Mapping from relay fingerprint to the authority's :class:`Relay`
        entry.
    voting_interval:
        Length of the consensus period in seconds (3600 on the live network).
    """

    authority_id: int
    authority_fingerprint: str
    valid_after: float
    relays: Dict[str, Relay]
    voting_interval: float = 3600.0
    #: When set, :attr:`size_bytes` reports the size a vote covering this many
    #: relays would have, even though only a sample of relays is materialised.
    #: Large parameter sweeps use this to keep runtimes reasonable without
    #: changing the bandwidth model (see DESIGN-calibration.md).
    padded_relay_count: Optional[int] = None

    def __post_init__(self) -> None:
        ensure(self.voting_interval > 0, "voting interval must be positive")
        if self.padded_relay_count is not None:
            ensure(self.padded_relay_count >= 0, "padded_relay_count must be non-negative")

    # -- content ----------------------------------------------------------
    @property
    def relay_count(self) -> int:
        """Number of relay entries in the vote."""
        return len(self.relays)

    def fingerprints(self) -> Tuple[str, ...]:
        """Sorted tuple of relay fingerprints present in the vote."""
        return tuple(sorted(self.relays))

    def get(self, fingerprint: str) -> Optional[Relay]:
        """Return the entry for ``fingerprint`` or None."""
        return self.relays.get(fingerprint)

    # -- serialisation ----------------------------------------------------
    def header(self) -> str:
        """Serialise the vote preamble."""
        lines = [
            "network-status-version 3",
            "vote-status vote",
            "consensus-methods 28 29 30 31 32 33",
            "published %d" % int(self.valid_after),
            "valid-after %d" % int(self.valid_after),
            "fresh-until %d" % int(self.valid_after + self.voting_interval),
            "valid-until %d" % int(self.valid_after + 3 * self.voting_interval),
            "voting-delay 300 300",
            "dir-source auth-%d %s 127.0.0.1 127.0.0.1 8080 9001"
            % (self.authority_id, self.authority_fingerprint),
            "known-flags Authority BadExit Exit Fast Guard HSDir MiddleOnly"
            " Running Stable StaleDesc V2Dir Valid",
        ]
        return "\n".join(lines) + "\n"

    def serialize(self) -> str:
        """Serialise the full vote (preamble + one entry per relay).

        Memoized: votes are frozen and their relay map is never mutated
        after construction, while serialization is on several per-peer hot
        paths — every aggregation digests every source vote, and Byzantine
        equivocation re-wraps the alternate vote per destination — so the
        text (and the digests below) is computed once per vote, not once
        per use.
        """
        return instance_memo(self, "_serialized", self._build_serialized)

    def _build_serialized(self) -> str:
        parts = [self.header()]
        # Pad the header to the modelled certificate size so small votes do
        # not look unrealistically tiny on the wire.
        header_len = len(parts[0].encode("utf-8"))
        if header_len < VOTE_HEADER_BYTES:
            parts.append("#" * (VOTE_HEADER_BYTES - header_len) + "\n")
        for fingerprint in sorted(self.relays):
            parts.append(self.relays[fingerprint].serialize())
        return "".join(parts)

    @property
    def size_bytes(self) -> int:
        """Wire size of the serialised vote.

        When :attr:`padded_relay_count` is set and exceeds the number of
        materialised relays, the size is extrapolated from the average
        per-relay entry size so that the bandwidth model sees a full-size
        vote.
        """
        return instance_memo(self, "_size_bytes", self._compute_size_bytes)

    def _compute_size_bytes(self) -> int:
        actual = len(self.serialize().encode("utf-8"))
        if (
            self.padded_relay_count is not None
            and self.relay_count > 0
            and self.padded_relay_count > self.relay_count
        ):
            per_relay = (actual - VOTE_HEADER_BYTES) / self.relay_count
            return int(VOTE_HEADER_BYTES + per_relay * self.padded_relay_count)
        return actual

    def digest(self) -> bytes:
        """SHA-256 digest of the serialised vote (memoized, like the text)."""
        return instance_memo(self, "_digest", lambda: sha256_digest(self.serialize()))

    def digest_hex(self) -> str:
        """Hex digest of the serialised vote (memoized, like the text)."""
        return instance_memo(self, "_digest_hex", lambda: digest_hex(self.serialize()))

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_relays(
        cls,
        authority_id: int,
        authority_fingerprint: str,
        relays: Iterable[Relay],
        valid_after: float = 0.0,
        voting_interval: float = 3600.0,
        padded_relay_count: Optional[int] = None,
    ) -> "VoteDocument":
        """Build a vote from an iterable of relay entries."""
        indexed = {relay.fingerprint: relay for relay in relays}
        return cls(
            authority_id=authority_id,
            authority_fingerprint=authority_fingerprint,
            valid_after=valid_after,
            relays=indexed,
            voting_interval=voting_interval,
            padded_relay_count=padded_relay_count,
        )


def estimate_vote_size_bytes(relay_count: int, per_relay_bytes: int = 390) -> int:
    """Analytic estimate of a vote's size for ``relay_count`` relays.

    Used by closed-form analyses (e.g. the Table 1 complexity model and the
    attack-cost calculator) when a full synthetic population is not needed.
    The default per-relay size matches the serialised :class:`Relay` entries
    generated by :mod:`repro.netgen`.
    """
    ensure(relay_count >= 0, "relay count must be non-negative")
    return VOTE_HEADER_BYTES + relay_count * per_relay_bytes
