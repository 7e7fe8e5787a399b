"""Client workloads: frozen descriptions of dir-client populations.

A :class:`ClientWorkload` describes the consensus-*distribution* side of a
run the way :class:`~repro.runtime.spec.RunSpec` describes the consensus-
*production* side: a frozen, hashable value object.  Attached to a spec
(field ``client_workload``) it joins the spec hash, so a run with clients
caches independently of its client-free twin — and a spec without a workload
hashes exactly as before.  Its key and JSON form are derived from the field
declarations by :mod:`repro.utils.records`.

The workload models one homogeneous population class: ``population`` clients
in ``cohort_count`` cohorts sharing a geography (one client↔server latency)
and an access-bandwidth class.  Heterogeneous populations are future work;
see ``DESIGN-clients.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Tuple

from repro.utils.records import record_from_dict, record_key, record_to_dict
from repro.utils.validation import ensure

#: Arrival processes a cohort can run.  ``poisson`` draws per-wave batch
#: sizes from the cohort's seeded stream (each client polls at exponential
#: intervals with mean ``fetch_interval_s``, aggregated per wave tick);
#: ``deterministic`` makes every eligible client fetch at every wave tick
#: and selects servers by rotation — no randomness at all, which is what the
#: cohort-vs-individual conformance property pins exactly.
ARRIVAL_MODES = ("poisson", "deterministic")

#: Modelled wire size of a "consensus not yet available" (HTTP 404) reply,
#: per client.
NOT_READY_RESPONSE_BYTES = 256


def even_split(total: int, parts: int) -> Tuple[int, ...]:
    """Split ``total`` into ``parts`` near-equal integers, remainder up front.

    The one splitting convention of the client layer: cohort populations and
    per-wave batch splits must agree on it, or the cohort-vs-individual
    conformance mapping breaks.
    """
    ensure(parts >= 1, "parts must be at least 1")
    base, remainder = divmod(total, parts)
    return tuple(base + (1 if index < remainder else 0) for index in range(parts))


@dataclass(frozen=True)
class ClientWorkload:
    """A cohort-aggregated dir-client population fetching the consensus.

    Attributes
    ----------
    population:
        Total number of modelled clients across all cohorts.
    cohort_count:
        Number of :class:`~repro.clients.cohort.ClientCohortNode` endpoints
        the population is folded into.  Each cohort is one simulator node of
        ~``population / cohort_count`` clients; ``cohort_count == population``
        degenerates to individually simulated clients (the conformance
        reference).
    arrival:
        ``"poisson"`` or ``"deterministic"`` (see :data:`ARRIVAL_MODES`).
    fetch_interval_s:
        Mean interval between a stale client's fetch attempts (the Poisson
        rate is ``1 / fetch_interval_s`` per client).
    wave_interval_s:
        Aggregation tick: cohorts batch their clients' arrivals at this
        granularity, which is what keeps a 10M-client run at thousands of
        events instead of tens of millions.
    retry_backoff_s:
        How long a client whose attempt failed waits before it becomes
        eligible to retry.
    connection_timeout_s:
        Directory connection timeout for one fetch attempt (request plus
        response); expiry produces the client-side "giving up downloading
        networkstatus" behaviour.
    servers_per_wave:
        How many directory servers one wave's batch is split across.  1 keeps
        the deterministic conformance mapping exact; larger values spread
        load for big populations.
    mirror_count:
        Number of directory-mirror nodes.  0 means clients fetch straight
        from the authorities; otherwise mirrors fetch from the authorities
        and the cohorts fetch from the mirrors (how Tor actually distributes
        the consensus to millions of clients).
    mirror_bandwidth_mbps / mirror_poll_interval_s:
        Mirror link capacity and how often a mirror without a consensus
        re-polls the authorities.
    client_downlink_mbps / client_uplink_mbps:
        Per-client access capacities; the cohort's aggregate endpoint link
        carries these as per-client (unshared) rates.
    client_latency_s:
        Propagation latency between every cohort and every directory server
        (one geography class per workload).
    request_bytes:
        Wire size of one client's consensus request.
    """

    population: int
    cohort_count: int = 32
    arrival: str = "poisson"
    fetch_interval_s: float = 300.0
    wave_interval_s: float = 10.0
    retry_backoff_s: float = 60.0
    connection_timeout_s: float = 18.0
    servers_per_wave: int = 1
    mirror_count: int = 0
    mirror_bandwidth_mbps: float = 250.0
    mirror_poll_interval_s: float = 10.0
    client_downlink_mbps: float = 50.0
    client_uplink_mbps: float = 10.0
    client_latency_s: float = 0.05
    request_bytes: int = 512

    def __post_init__(self) -> None:
        ensure(self.population >= 1, "client population must be at least 1")
        ensure(self.cohort_count >= 1, "cohort_count must be at least 1")
        ensure(
            self.cohort_count <= self.population,
            "cohort_count %d exceeds population %d (cohorts cannot be empty)"
            % (self.cohort_count, self.population),
        )
        ensure(
            self.arrival in ARRIVAL_MODES,
            "unknown arrival mode %r; expected one of %r" % (self.arrival, ARRIVAL_MODES),
        )
        ensure(self.fetch_interval_s > 0, "fetch_interval_s must be positive")
        ensure(self.wave_interval_s > 0, "wave_interval_s must be positive")
        ensure(self.retry_backoff_s >= 0, "retry_backoff_s must be non-negative")
        ensure(self.connection_timeout_s > 0, "connection_timeout_s must be positive")
        ensure(self.servers_per_wave >= 1, "servers_per_wave must be at least 1")
        ensure(self.mirror_count >= 0, "mirror_count must be non-negative")
        ensure(self.mirror_bandwidth_mbps > 0, "mirror_bandwidth_mbps must be positive")
        ensure(self.mirror_poll_interval_s > 0, "mirror_poll_interval_s must be positive")
        ensure(self.client_downlink_mbps > 0, "client_downlink_mbps must be positive")
        ensure(self.client_uplink_mbps > 0, "client_uplink_mbps must be positive")
        ensure(self.client_latency_s >= 0, "client_latency_s must be non-negative")
        ensure(self.request_bytes >= 1, "request_bytes must be at least 1")

    # -- derived -----------------------------------------------------------
    def cohort_populations(self) -> Tuple[int, ...]:
        """Per-cohort client counts (population split as evenly as possible)."""
        return even_split(self.population, self.cohort_count)

    def individualized(self) -> "ClientWorkload":
        """The same workload with every client as its own singleton cohort.

        This is the conformance reference: under deterministic arrivals a
        K-cohort run must produce exactly the metrics of its individualized
        twin (see ``tests/clients/test_conformance.py``).
        """
        return replace(self, cohort_count=self.population)

    # -- hashing and serialization ----------------------------------------
    def key(self) -> Tuple:
        """Canonical tuple of everything that defines this workload."""
        return record_key(self)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return record_to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ClientWorkload":
        """Rebuild a workload from :meth:`to_dict` output."""
        return record_from_dict(cls, data)
