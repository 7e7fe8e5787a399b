"""Declarative fault plans: frozen, hashable descriptions of adversity.

The paper's claims are all about protocol behaviour under adversity — DDoS
floods, lossy links, authorities that crash mid-run or lie.  This module
reifies adversity the same way :mod:`repro.runtime.spec` reifies run
configuration: as frozen, hashable, picklable data that attaches to a
:class:`~repro.runtime.spec.RunSpec`, participates in its content hash, and
therefore round-trips through the :class:`~repro.runtime.cache.ResultCache`.

Three layers of fault, two declarative types:

* :class:`LinkFault` — degradations of one authority's *links*: partition
  windows (the authority is cut off from every peer), independent per-message
  drop probability, and bounded uniform latency jitter.
* :class:`AuthorityFault` — degradations of the authority *itself*: crash
  windows (the process is down: ingress, egress, and timers are all dead until
  the window ends) and Byzantine behaviour (``"equivocate"`` — present
  different votes to different peers — or ``"withhold"`` — never send
  anything).
* :class:`FaultPlan` — a composable bundle of the above, at most one entry
  per authority per category.

What joins the hash and how a plan reads and writes as JSON is derived from
the field declarations by :mod:`repro.utils.records`; ``plan_hash`` seeds the
run's fault RNG, so field order and types here are part of the format.

This module deliberately imports nothing beyond the :mod:`repro.utils`
helpers: :mod:`repro.runtime.spec` imports *us*, and enforcement (which needs
the simulator, documents, and keys) lives in :mod:`repro.faults.injector` /
:mod:`repro.faults.byzantine`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.utils.records import record_from_dict, record_key, record_to_dict
from repro.utils.validation import ensure

#: Byzantine behaviours an :class:`AuthorityFault` can request.
BYZANTINE_MODES = ("equivocate", "withhold")

Window = Tuple[float, float]


def _normalize_windows(windows: Iterable[Sequence[float]], name: str) -> Tuple[Window, ...]:
    """Validate and canonicalize ``(start, end)`` windows (sorted, non-overlapping)."""
    normalized = []
    for window in windows:
        ensure(
            len(tuple(window)) == 2,
            "%s windows must be (start, end) pairs, got %r" % (name, tuple(window)),
        )
        start, end = float(window[0]), float(window[1])
        ensure(start >= 0, "%s window start must be non-negative, got %r" % (name, start))
        ensure(end > start, "%s window end must be after its start, got %r" % (name, (start, end)))
        normalized.append((start, end))
    normalized.sort()
    for (_, earlier_end), (later_start, _) in zip(normalized, normalized[1:]):
        ensure(
            later_start >= earlier_end,
            "%s windows must not overlap, got %r" % (name, normalized),
        )
    return tuple(normalized)


def _windows_cover(windows: Tuple[Window, ...], time: float) -> bool:
    """True when ``time`` falls inside any ``[start, end)`` window."""
    return any(start <= time < end for start, end in windows)


def _windows_seconds(windows: Tuple[Window, ...], until: float) -> float:
    """Total seconds of window coverage clipped to ``[0, until]``."""
    return sum(max(0.0, min(end, until) - start) for start, end in windows if start < until)


@dataclass(frozen=True)
class LinkFault:
    """Degradations of one authority's network links.

    Attributes
    ----------
    authority_id:
        The authority whose links this fault degrades.
    partition_windows:
        ``(start, end)`` windows during which the authority is cut off from
        every peer: messages to or from it are dropped at send initiation and
        again at the delivery instant (a transfer in flight when the
        partition opens is cut).
    drop_probability:
        Independent probability that any single message to or from this
        authority is lost (drawn from the run's seeded fault RNG).
    loss_windows:
        ``(start, end)`` windows confining ``drop_probability`` *and*
        ``jitter_s``: outside every window the link is loss-free and
        jitter-free.  Empty (the default) means both degradations apply for
        the whole run.
    jitter_s:
        Upper bound of uniform extra propagation latency added to deliveries
        to or from this authority (confined by ``loss_windows`` when given).
    """

    authority_id: int
    partition_windows: Tuple[Window, ...] = ()
    drop_probability: float = 0.0
    loss_windows: Tuple[Window, ...] = ()
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        ensure(self.authority_id >= 0, "authority_id must be non-negative")
        ensure(
            0.0 <= self.drop_probability <= 1.0,
            "drop_probability must be within [0, 1], got %r" % (self.drop_probability,),
        )
        ensure(self.jitter_s >= 0, "jitter_s must be non-negative, got %r" % (self.jitter_s,))
        ensure(
            not self.loss_windows or self.drop_probability > 0.0 or self.jitter_s > 0.0,
            "loss_windows without a drop_probability or jitter_s have no effect",
        )
        object.__setattr__(
            self, "partition_windows", _normalize_windows(self.partition_windows, "partition")
        )
        object.__setattr__(self, "loss_windows", _normalize_windows(self.loss_windows, "loss"))

    @property
    def is_noop(self) -> bool:
        """True when this fault degrades nothing."""
        return (
            not self.partition_windows
            and self.drop_probability == 0.0
            and self.jitter_s == 0.0
        )

    def partitioned_at(self, time: float) -> bool:
        """True when the authority is partitioned at virtual time ``time``."""
        return _windows_cover(self.partition_windows, time)

    def loss_probability_at(self, time: float) -> float:
        """Message-loss probability on this link at virtual time ``time``."""
        if self.loss_windows and not _windows_cover(self.loss_windows, time):
            return 0.0
        return self.drop_probability

    def jitter_at(self, time: float) -> float:
        """Jitter bound on this link at virtual time ``time``.

        Bounded exactly like the loss probability: inside the fault's
        ``loss_windows`` when it declares any, for the whole run otherwise.
        """
        if self.loss_windows and not _windows_cover(self.loss_windows, time):
            return 0.0
        return self.jitter_s

    def key(self) -> Tuple:
        """Canonical tuple for hashing."""
        return record_key(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkFault":
        """Inverse of :meth:`to_dict`."""
        return record_from_dict(cls, data)


@dataclass(frozen=True)
class AuthorityFault:
    """Degradations of one authority itself (crash windows, Byzantine modes).

    Attributes
    ----------
    authority_id:
        The faulty authority.
    crash_windows:
        Non-overlapping ``(start, end)`` windows during which the authority's
        process is down: it receives nothing, sends nothing, and timers that
        come due while it is down are *lost* (the process died holding them),
        not deferred.  When a window ends the process is back and reacts to
        incoming messages and any timers it sets afterwards; a boot
        (``on_start``) scheduled inside a window is the one exception — it is
        deferred to the window's end, so an authority crashed at t=0 joins
        the run late rather than never.
    byzantine:
        ``None`` for a merely crashing authority, ``"equivocate"`` to present
        different vote content to different halves of the peer set, or
        ``"withhold"`` to suppress every outgoing message while still
        receiving (a silent Byzantine observer).
    """

    authority_id: int
    crash_windows: Tuple[Window, ...] = ()
    byzantine: Optional[str] = None

    def __post_init__(self) -> None:
        ensure(self.authority_id >= 0, "authority_id must be non-negative")
        ensure(
            self.byzantine is None or self.byzantine in BYZANTINE_MODES,
            "byzantine must be None or one of %r, got %r" % (BYZANTINE_MODES, self.byzantine),
        )
        object.__setattr__(
            self, "crash_windows", _normalize_windows(self.crash_windows, "crash")
        )

    @property
    def is_noop(self) -> bool:
        """True when this fault degrades nothing."""
        return not self.crash_windows and self.byzantine is None

    def down_at(self, time: float) -> bool:
        """True when the authority is crashed at virtual time ``time``."""
        return _windows_cover(self.crash_windows, time)

    def down_until(self, time: float) -> float:
        """``time`` when the authority is up at ``time``, else its restart instant."""
        for start, end in self.crash_windows:
            if start <= time < end:
                return end
        return time

    def key(self) -> Tuple:
        """Canonical tuple for hashing."""
        return record_key(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AuthorityFault":
        """Inverse of :meth:`to_dict`."""
        return record_from_dict(cls, data)


@dataclass(frozen=True)
class FaultPlan:
    """A composable bundle of link and authority faults for one run.

    At most one :class:`LinkFault` and one :class:`AuthorityFault` per
    authority; entries are canonicalized (sorted by authority id, no-ops
    removed) so two plans describing the same adversity compare and hash
    equal.  The empty plan is falsy and enforcement-free: a spec carrying it
    simulates bit-identically to one carrying no plan at all.
    """

    link_faults: Tuple[LinkFault, ...] = ()
    authority_faults: Tuple[AuthorityFault, ...] = ()

    def __post_init__(self) -> None:
        links = tuple(
            sorted((f for f in self.link_faults if not f.is_noop), key=lambda f: f.authority_id)
        )
        authorities = tuple(
            sorted(
                (f for f in self.authority_faults if not f.is_noop),
                key=lambda f: f.authority_id,
            )
        )
        for faults, label in ((links, "link"), (authorities, "authority")):
            seen = set()
            for fault in faults:
                ensure(
                    fault.authority_id not in seen,
                    "duplicate %s fault for authority %d" % (label, fault.authority_id),
                )
                seen.add(fault.authority_id)
        object.__setattr__(self, "link_faults", links)
        object.__setattr__(self, "authority_faults", authorities)

    # -- queries -----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not self.link_faults and not self.authority_faults

    def __bool__(self) -> bool:
        return not self.is_empty

    def link_fault_for(self, authority_id: int) -> Optional[LinkFault]:
        """The link fault declared for ``authority_id``, if any."""
        for fault in self.link_faults:
            if fault.authority_id == authority_id:
                return fault
        return None

    def authority_fault_for(self, authority_id: int) -> Optional[AuthorityFault]:
        """The authority fault declared for ``authority_id``, if any."""
        for fault in self.authority_faults:
            if fault.authority_id == authority_id:
                return fault
        return None

    def faulted_authority_ids(self) -> Tuple[int, ...]:
        """Sorted ids of every authority any fault references."""
        ids = {f.authority_id for f in self.link_faults}
        ids.update(f.authority_id for f in self.authority_faults)
        return tuple(sorted(ids))

    def crashing_authority_ids(self) -> Tuple[int, ...]:
        """Sorted ids of authorities with at least one crash window."""
        return tuple(
            sorted(f.authority_id for f in self.authority_faults if f.crash_windows)
        )

    def byzantine_authority_ids(self, mode: str) -> Tuple[int, ...]:
        """Sorted ids of authorities declared Byzantine with ``mode``."""
        ensure(mode in BYZANTINE_MODES, "unknown byzantine mode %r" % (mode,))
        return tuple(
            sorted(f.authority_id for f in self.authority_faults if f.byzantine == mode)
        )

    def last_fault_end(self) -> float:
        """End of the latest partition/loss/crash window (0.0 for window-less plans).

        Recovery-latency experiments measure consensus latency from this
        instant — the moment the injected adversity is fully over.  Unbounded
        degradations (whole-run loss or jitter) contribute nothing.
        """
        ends = [
            end
            for f in self.link_faults
            for _, end in f.partition_windows + f.loss_windows
        ]
        ends.extend(end for f in self.authority_faults for _, end in f.crash_windows)
        return max(ends) if ends else 0.0

    # -- accounting --------------------------------------------------------
    def partition_seconds(self, until: float) -> float:
        """Authority-seconds of partition within ``[0, until]``, summed over authorities."""
        ensure(until >= 0, "until must be non-negative")
        return sum(_windows_seconds(f.partition_windows, until) for f in self.link_faults)

    def down_seconds(self, until: float) -> float:
        """Authority-seconds of crash downtime within ``[0, until]``, summed over authorities."""
        ensure(until >= 0, "until must be non-negative")
        return sum(_windows_seconds(f.crash_windows, until) for f in self.authority_faults)

    # -- validation against a run -----------------------------------------
    def validate_for(self, authority_count: int) -> None:
        """Reject faults referencing authorities a run does not have."""
        for authority_id in self.faulted_authority_ids():
            ensure(
                authority_id < authority_count,
                "fault references unknown authority id %d (run has %d authorities)"
                % (authority_id, authority_count),
            )

    # -- composition -------------------------------------------------------
    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """Compose two plans; both may not declare faults for the same authority."""
        return FaultPlan(
            link_faults=self.link_faults + other.link_faults,
            authority_faults=self.authority_faults + other.authority_faults,
        )

    def __or__(self, other: "FaultPlan") -> "FaultPlan":
        return self.merged(other)

    # -- hashing and serialization ----------------------------------------
    def key(self) -> Tuple:
        """Canonical tuple of everything the plan injects."""
        return record_key(self)

    def plan_hash(self) -> str:
        """Stable content hash: equal plans hash equally across processes."""
        material = repr(self.key()).encode("utf-8")
        return hashlib.sha256(material).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return record_from_dict(cls, data)

    # -- convenience constructors ------------------------------------------
    @classmethod
    def partition(
        cls, authority_ids: Sequence[int], start: float, end: float
    ) -> "FaultPlan":
        """Partition ``authority_ids`` away from the rest over ``[start, end)``."""
        return cls(
            link_faults=tuple(
                LinkFault(authority_id=aid, partition_windows=((start, end),))
                for aid in authority_ids
            )
        )

    @classmethod
    def lossy_links(
        cls,
        authority_ids: Sequence[int],
        drop_probability: float,
        jitter_s: float = 0.0,
        windows: Sequence[Sequence[float]] = (),
    ) -> "FaultPlan":
        """Independent message loss (and optional jitter) on some authorities' links.

        ``windows`` confines the loss to ``(start, end)`` intervals; empty
        means the whole run.
        """
        return cls(
            link_faults=tuple(
                LinkFault(
                    authority_id=aid,
                    drop_probability=drop_probability,
                    loss_windows=tuple(tuple(w) for w in windows),
                    jitter_s=jitter_s,
                )
                for aid in authority_ids
            )
        )

    @classmethod
    def crash(cls, authority_id: int, windows: Sequence[Sequence[float]]) -> "FaultPlan":
        """Crash/restart one authority over the given windows."""
        return cls(
            authority_faults=(
                AuthorityFault(
                    authority_id=authority_id,
                    crash_windows=tuple(tuple(w) for w in windows),
                ),
            )
        )

    @classmethod
    def byzantine(cls, authority_id: int, mode: str) -> "FaultPlan":
        """Declare one authority Byzantine (``"equivocate"`` or ``"withhold"``)."""
        return cls(authority_faults=(AuthorityFault(authority_id=authority_id, byzantine=mode),))


#: The shared empty plan (the default on :class:`~repro.runtime.spec.RunSpec`).
EMPTY_FAULT_PLAN = FaultPlan()
