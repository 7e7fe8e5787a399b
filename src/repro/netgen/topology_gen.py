"""Authority network topologies.

Shadow (via tornettools) models the authorities as hosts with configurable
link bandwidth and realistic inter-host latencies.  The reproduction models
the same two quantities:

* a per-authority **link capacity** (the paper cites ~250 Mbit/s for live
  authorities and sweeps lower values to model DDoS throttling), and
* a pairwise **propagation latency** matrix drawn from realistic wide-area
  values (tens of milliseconds), since the nine live authorities are spread
  across Europe and North America.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.directory.authority import DirectoryAuthority
from repro.utils.rng import DeterministicRNG
from repro.utils.units import Bandwidth
from repro.utils.validation import ensure

#: Link capacity of a live directory authority (Mbit/s), per the paper.
DEFAULT_AUTHORITY_BANDWIDTH_MBPS = 250.0


@dataclass
class AuthorityTopology:
    """Bandwidths and latencies for a set of authorities."""

    authorities: List[DirectoryAuthority]
    bandwidth_mbps: Dict[int, float]
    latency_seconds: Dict[Tuple[int, int], float]

    def bandwidth_of(self, authority_id: int) -> Bandwidth:
        """Link capacity of one authority."""
        return Bandwidth.from_mbps(self.bandwidth_mbps[authority_id])

    def latency_between(self, a: int, b: int) -> float:
        """One-way propagation latency between two authorities (seconds)."""
        if a == b:
            return 0.0
        key = (min(a, b), max(a, b))
        return self.latency_seconds[key]

    def with_uniform_bandwidth(self, mbps: float) -> "AuthorityTopology":
        """Return a copy where every authority has the same link capacity."""
        ensure(mbps >= 0, "bandwidth must be non-negative")
        return AuthorityTopology(
            authorities=list(self.authorities),
            bandwidth_mbps={auth.authority_id: float(mbps) for auth in self.authorities},
            latency_seconds=dict(self.latency_seconds),
        )


def generate_topology(
    authorities: Sequence[DirectoryAuthority],
    bandwidth_mbps: float = DEFAULT_AUTHORITY_BANDWIDTH_MBPS,
    min_latency_s: float = 0.02,
    max_latency_s: float = 0.12,
    seed: int = 3,
) -> AuthorityTopology:
    """Generate a topology with uniform bandwidth and random pairwise latency."""
    ensure(len(authorities) >= 1, "need at least one authority")
    ensure(max_latency_s >= min_latency_s, "max latency must be >= min latency")
    rng = DeterministicRNG(seed).child("topology")
    latency: Dict[Tuple[int, int], float] = {}
    ids = [auth.authority_id for auth in authorities]
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            latency[(min(a, b), max(a, b))] = rng.uniform(min_latency_s, max_latency_s)
    return AuthorityTopology(
        authorities=list(authorities),
        bandwidth_mbps={auth.authority_id: float(bandwidth_mbps) for auth in authorities},
        latency_seconds=latency,
    )
