"""Run specifications: frozen, hashable descriptions of protocol runs.

Every figure/table of the paper is a grid of *independent* protocol runs, so
run configuration is reified into data:

* :class:`RunSpec` — everything one run needs (protocol, engine, relay count,
  bandwidth, seed, transport model, timeout overrides, per-authority
  bandwidth overrides).  Specs are frozen dataclasses: hashable, picklable
  across process boundaries, and content-addressable via
  :meth:`RunSpec.spec_hash`.  The ``transport`` field selects a registered
  link model (see :mod:`repro.simnet.linkmodel`) and joins the spec hash, so
  runs under different transport models cache independently.
* :class:`BandwidthOverride` — a declarative replacement of one authority's
  bandwidth schedule (baseline rate plus throttling windows), which is how
  DDoS attacks and the Figure 7 search are expressed at the spec level.
* :class:`~repro.faults.plan.FaultPlan` (attached via ``fault_plan``) — the
  declarative fault layer: partitions, message loss, latency jitter,
  crash/restart windows, Byzantine authorities.  Plans participate in
  :meth:`RunSpec.key` exactly like bandwidth overrides do, so a faulted run
  hashes differently from its fault-free twin and caches independently.
* :class:`SweepSpec` — a named grid of RunSpecs, built with
  :meth:`SweepSpec.grid` in the (bandwidth × relay count × protocol) order
  the paper's figures use.

The format — what joins :meth:`RunSpec.key` and how a spec reads and writes
as JSON — is derived from the dataclass field declarations by
:mod:`repro.utils.records`: adding a run parameter is one field (plus its
validation in ``__post_init__``), and every field is in the cache key by
construction.

The module deliberately imports nothing from :mod:`repro.protocols` at module
level (the protocol runner imports *us*); ``DirectoryProtocolConfig`` is
imported lazily where config overrides are validated and materialised.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.clients.workload import ClientWorkload
from repro.faults.plan import EMPTY_FAULT_PLAN, FaultPlan
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.linkmodel import link_model_names
from repro.utils.records import record_from_dict, record_key, record_to_dict
from repro.utils.validation import ensure, ensure_type

#: Names accepted by the protocol runner, matching the paper's legend.
PROTOCOL_NAMES = ("current", "synchronous", "ours")

#: Default cap on how many relays are materialised per vote in large sweeps.
DEFAULT_CONTENT_RELAY_CAP = 120


@dataclass(frozen=True)
class BandwidthOverride:
    """Declarative replacement of one authority's bandwidth schedule.

    Attributes
    ----------
    authority_id:
        The authority whose link this override replaces.
    base_mbps:
        Baseline link capacity outside all windows (Mbit/s).
    windows:
        ``(start, end, mbps)`` throttling windows applied on top of the
        baseline — the spec-level form of a DDoS attack window.
    """

    authority_id: int
    base_mbps: float
    windows: Tuple[Tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        ensure(self.authority_id >= 0, "authority_id must be non-negative")
        ensure(self.base_mbps > 0, "base_mbps must be positive")
        windows = tuple(
            tuple(float(part) for part in window) for window in self.windows
        )
        for window in windows:
            ensure(
                len(window) == 3,
                "bandwidth windows must be (start, end, mbps) triples, got %r" % (window,),
            )
            start, end, mbps = window
            ensure(start >= 0, "bandwidth window start must be non-negative, got %r" % (start,))
            ensure(end > start, "bandwidth window end must be after its start, got %r" % (window,))
            ensure(mbps >= 0, "bandwidth window rate must be non-negative, got %r" % (mbps,))
        object.__setattr__(self, "windows", windows)

    def schedule(self) -> BandwidthSchedule:
        """Materialise this override as a simulator bandwidth schedule."""
        schedule = BandwidthSchedule.constant_mbps(self.base_mbps)
        for start, end, mbps in self.windows:
            schedule = schedule.with_window_mbps(start, end, mbps)
        return schedule

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form."""
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BandwidthOverride":
        """Inverse of :meth:`to_dict`."""
        return record_from_dict(cls, data)


def overrides_from_config(config: Any) -> Tuple[Tuple[str, Any], ...]:
    """Reduce a ``DirectoryProtocolConfig`` to its non-default field pairs.

    The pairs are sorted by field name so that two configs with the same
    values always produce the same spec hash.  ``None`` maps to no overrides.
    """
    if config is None:
        return ()
    default = type(config)()
    return tuple(
        sorted(
            (field_.name, getattr(config, field_.name))
            for field_ in dataclasses.fields(config)
            if getattr(config, field_.name) != getattr(default, field_.name)
        )
    )


@dataclass(frozen=True)
class RunSpec:
    """A frozen, hashable description of one directory-protocol run.

    Two equal specs describe bit-identical simulations: the runner derives
    every stochastic input from ``seed`` and the spec fields, so a spec's
    content hash can address a cached result.
    """

    protocol: str
    relay_count: int
    bandwidth_mbps: float = 250.0
    seed: int = 7
    engine: str = "hotstuff"
    transport: str = "fair"
    authority_count: int = 9
    content_relay_cap: int = DEFAULT_CONTENT_RELAY_CAP
    max_time: float = 3600.0
    delta: float = 30.0
    view_timeout: float = 30.0
    config_overrides: Tuple[Tuple[str, Any], ...] = ()
    bandwidth_overrides: Tuple[BandwidthOverride, ...] = ()
    fault_plan: FaultPlan = EMPTY_FAULT_PLAN
    #: Dir-client population fetching the signed consensus (the consensus-
    #: distribution layer); None keeps the run client-free.  Declared last:
    #: :meth:`key` drops a None workload from the tail.
    client_workload: Optional[ClientWorkload] = None

    def __post_init__(self) -> None:
        ensure(
            self.protocol in PROTOCOL_NAMES,
            "unknown protocol %r; expected one of %r" % (self.protocol, PROTOCOL_NAMES),
        )
        ensure(self.relay_count >= 1, "relay_count must be at least 1")
        ensure(self.bandwidth_mbps > 0, "bandwidth_mbps must be positive")
        ensure(
            self.transport in link_model_names(),
            "unknown transport %r; expected one of %r"
            % (self.transport, link_model_names()),
        )
        ensure(self.authority_count >= 1, "authority_count must be at least 1")
        ensure(self.max_time > 0, "max_time must be positive")
        object.__setattr__(
            self,
            "config_overrides",
            tuple(sorted((str(name), value) for name, value in self.config_overrides)),
        )
        if self.config_overrides:
            from repro.protocols.base import DirectoryProtocolConfig

            known = {field_.name for field_ in dataclasses.fields(DirectoryProtocolConfig)}
            unknown = [name for name, _value in self.config_overrides if name not in known]
            ensure(
                not unknown,
                "unknown config override(s) %r; expected names among %r"
                % (unknown, sorted(known)),
            )
        object.__setattr__(self, "bandwidth_overrides", tuple(self.bandwidth_overrides))
        for override in self.bandwidth_overrides:
            ensure(
                override.authority_id < self.authority_count,
                "bandwidth override references unknown authority id %d (run has %d authorities)"
                % (override.authority_id, self.authority_count),
            )
        ensure_type(self.fault_plan, FaultPlan, "fault_plan")
        self.fault_plan.validate_for(self.authority_count)
        if self.client_workload is not None:
            ensure_type(self.client_workload, ClientWorkload, "client_workload")

    # -- derived configuration --------------------------------------------
    def protocol_config(self):
        """The ``DirectoryProtocolConfig`` this spec's overrides describe."""
        from repro.protocols.base import DirectoryProtocolConfig

        return DirectoryProtocolConfig(**dict(self.config_overrides))

    # -- spec derivation ---------------------------------------------------
    def derive(self, **changes: Any) -> "RunSpec":
        """Return a copy with the given fields replaced (validated anew)."""
        return replace(self, **changes)

    def with_config(self, config: Any) -> "RunSpec":
        """Return a copy whose config overrides mirror ``config``."""
        return replace(self, config_overrides=overrides_from_config(config))

    def with_overrides(self, *overrides: BandwidthOverride) -> "RunSpec":
        """Return a copy with extra per-authority bandwidth overrides appended."""
        return replace(
            self, bandwidth_overrides=self.bandwidth_overrides + tuple(overrides)
        )

    def with_attacked_bandwidth(
        self, authority_ids: Sequence[int], mbps: float
    ) -> "RunSpec":
        """Return a copy where ``authority_ids`` get a constant ``mbps`` link."""
        return self.with_overrides(
            *(
                BandwidthOverride(authority_id=authority_id, base_mbps=mbps)
                for authority_id in authority_ids
            )
        )

    def with_faults(self, plan: FaultPlan) -> "RunSpec":
        """Return a copy with ``plan`` merged into the existing fault plan."""
        return replace(self, fault_plan=self.fault_plan.merged(plan))

    def with_clients(self, workload: Optional[ClientWorkload]) -> "RunSpec":
        """Return a copy with ``workload`` as its dir-client population."""
        return replace(self, client_workload=workload)

    # -- hashing and serialization ----------------------------------------
    def key(self) -> Tuple:
        """Canonical tuple of everything that defines this run: every field.

        The one special case: a ``None`` client workload (the last field) is
        dropped from the tail, so a client-free spec keys (and therefore
        hashes and caches) exactly as it did before the distribution layer
        existed.
        """
        key = record_key(self)
        return key if self.client_workload is not None else key[:-1]

    def spec_hash(self) -> str:
        """Stable content hash: equal specs hash equally across processes."""
        material = repr(self.key()).encode("utf-8")
        return hashlib.sha256(material).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return record_from_dict(cls, data)


@dataclass(frozen=True)
class SweepSpec:
    """A named grid of :class:`RunSpec` instances."""

    name: str
    runs: Tuple[RunSpec, ...]

    def __post_init__(self) -> None:
        ensure(bool(self.name), "sweep needs a name")
        runs = tuple(self.runs)
        ensure(len(runs) >= 1, "sweep %r needs at least one run" % (self.name,))
        for run in runs:
            ensure_type(run, RunSpec, "sweep member")
        object.__setattr__(self, "runs", runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.runs)

    def sweep_hash(self) -> str:
        """Content hash over the ordered member specs."""
        material = repr(tuple(spec.spec_hash() for spec in self.runs)).encode("utf-8")
        return hashlib.sha256(material).hexdigest()

    @classmethod
    def grid(
        cls,
        name: str,
        protocols: Sequence[str],
        bandwidths_mbps: Sequence[float],
        relay_counts: Sequence[int],
        **common: Any,
    ) -> "SweepSpec":
        """Build the (bandwidth × relay count × protocol) product grid.

        The iteration order matches the paper's figure loops: bandwidth
        outermost, relay count next, protocol innermost.  ``common`` keyword
        arguments are forwarded to every :class:`RunSpec`.
        """
        ensure(len(protocols) > 0, "need at least one protocol")
        ensure(len(bandwidths_mbps) > 0, "need at least one bandwidth")
        ensure(len(relay_counts) > 0, "need at least one relay count")
        runs: List[RunSpec] = []
        for bandwidth in bandwidths_mbps:
            for relay_count in relay_counts:
                for protocol in protocols:
                    runs.append(
                        RunSpec(
                            protocol=protocol,
                            relay_count=relay_count,
                            bandwidth_mbps=bandwidth,
                            **common,
                        )
                    )
        return cls(name=name, runs=tuple(runs))
