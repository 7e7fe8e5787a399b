"""Relay descriptors as seen by directory authorities.

A directory authority's vote contains one entry per relay it knows about.
For the purposes of the paper's experiments, the relevant attributes are the
ones that the Figure-2 aggregation algorithm manipulates:

* identity (fingerprint) and nickname,
* the set of flags the authority assigns (Running, Valid, Fast, ...),
* the Tor version and protocol string,
* the exit-policy summary, and
* the measured bandwidth (only some authorities run bandwidth scanners).

The textual serialisation mimics a dir-spec ``r``/``s``/``v``/``w``/``p``
entry so that vote sizes per relay are realistic (a few hundred bytes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.utils.memo import instance_memo
from repro.utils.validation import ValidationError, ensure


class RelayFlag:
    """The relay flags that authorities can assign.

    These mirror the flags in dir-spec §3.4.1.  Only the names matter for the
    reproduction; the aggregation rule treats every flag the same way
    (per-flag majority vote, ties broken towards "not set").
    """

    AUTHORITY = "Authority"
    BAD_EXIT = "BadExit"
    EXIT = "Exit"
    FAST = "Fast"
    GUARD = "Guard"
    HSDIR = "HSDir"
    MIDDLE_ONLY = "MiddleOnly"
    RUNNING = "Running"
    STABLE = "Stable"
    STABLE_DESC = "StaleDesc"
    V2DIR = "V2Dir"
    VALID = "Valid"


#: All known flags in canonical (sorted) order, as dir-spec requires.
RELAY_FLAGS: Tuple[str, ...] = tuple(
    sorted(
        value
        for name, value in vars(RelayFlag).items()
        if not name.startswith("_") and isinstance(value, str)
    )
)


@dataclass(frozen=True, order=True)
class ExitPolicySummary:
    """A compressed exit-policy summary (the ``p`` line of a vote entry).

    ``accept`` is True for an accept-list summary and False for a reject-list
    summary; ``ports`` is the canonical port-range string (e.g.
    ``"80,443,8080-8081"``).  Ordering is lexicographic over the serialised
    form, which is exactly the tie-break rule the aggregation algorithm uses.
    """

    accept: bool = True
    ports: str = "80,443"

    def serialize(self) -> str:
        """Return the dir-spec style one-line summary."""
        keyword = "accept" if self.accept else "reject"
        return "p %s %s" % (keyword, self.ports)

    def sort_key(self) -> str:
        """Key used for the "lexicographically larger" tie-break."""
        return self.serialize()


@dataclass(frozen=True)
class Relay:
    """One relay entry as it appears in a single authority's vote.

    Attributes
    ----------
    fingerprint:
        40-character hex identity fingerprint; the primary key for
        aggregation across votes.
    nickname:
        Relay nickname.  When votes disagree, the consensus keeps the
        nickname voted by the authority with the **largest authority ID**
        (Figure 2).
    address / or_port / dir_port:
        Network location; carried through aggregation unchanged (taken from
        the same vote that supplied the nickname).
    flags:
        Frozen set of flag names assigned by the voting authority.
    version:
        Tor software version string, e.g. ``"Tor 0.4.8.12"``.  The consensus
        keeps the **largest** version.
    protocols:
        Protocol-version summary string; the consensus keeps the largest.
    exit_policy:
        Exit-policy summary; ties are broken towards the lexicographically
        larger serialisation.
    bandwidth:
        The authority's bandwidth weight for the relay in kilobytes/s.
    measured:
        True when the bandwidth value comes from a bandwidth scanner; the
        consensus bandwidth is the **median of measured values** (falling
        back to all values when no vote measured the relay).
    descriptor_digest:
        Digest of the relay's descriptor, carried for realism in document
        sizes.
    """

    fingerprint: str
    nickname: str
    address: str = "127.0.0.1"
    or_port: int = 9001
    dir_port: int = 0
    flags: FrozenSet[str] = frozenset()
    version: str = "Tor 0.4.8.10"
    protocols: str = "Cons=1-2 Desc=1-2 DirCache=2 HSDir=2 Link=4-5 Relay=1-4"
    exit_policy: ExitPolicySummary = ExitPolicySummary()
    bandwidth: int = 1000
    measured: bool = False
    descriptor_digest: str = "0" * 40

    def __post_init__(self) -> None:
        ensure(len(self.fingerprint) == 40, "relay fingerprint must be 40 hex characters")
        ensure(self.nickname != "", "relay nickname must not be empty")
        if self.bandwidth < 0:
            raise ValidationError("relay bandwidth must be non-negative")

    def serialize(self) -> str:
        """Serialise this entry in a dir-spec-like multi-line format.

        The format intentionally mirrors the ``r``/``s``/``v``/``pr``/``w``/
        ``p`` lines of a real vote so that per-relay sizes (and therefore
        vote-document sizes) are realistic.

        Memoized (the dataclass is frozen): the same relay entry appears in
        many authorities' votes and every vote serialisation/digest walks
        its full relay map, so an entry's text is built once per object
        rather than once per vote per digest.
        """
        return instance_memo(self, "_serialized", self._build_serialized)

    def _build_serialized(self) -> str:
        flags_line = " ".join(sorted(self.flags))
        lines = [
            "r %s %s %s %s %d %d" % (
                self.nickname,
                self.fingerprint,
                self.descriptor_digest,
                self.address,
                self.or_port,
                self.dir_port,
            ),
            "a [%s]:%d" % (self.address, self.or_port),
            "s %s" % flags_line,
            "v %s" % self.version,
            "pr %s" % self.protocols,
            "id ed25519 %s" % self.descriptor_digest[:27],
            "m %s,%s sha256=%s" % (self.or_port, self.dir_port, self.descriptor_digest[:43]),
            "w Bandwidth=%d%s" % (self.bandwidth, " Measured=%d" % self.bandwidth if self.measured else ""),
            self.exit_policy.serialize(),
        ]
        return "\n".join(lines) + "\n"

    @property
    def entry_size_bytes(self) -> int:
        """Size of this entry's serialisation in bytes."""
        return len(self.serialize().encode("utf-8"))
