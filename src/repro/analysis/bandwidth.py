"""Bandwidth requirements of the current directory protocol (Figure 7).

Figure 7 answers: *how much usable bandwidth must an attacked authority keep
for the directory protocol to survive?*  The paper measures this on Shadow by
throttling 5 of the 9 authorities and sweeping the throttle until the
protocol fails.  :func:`required_bandwidth_mbps` does the same on our
simulator with a binary search whose probes are
:class:`~repro.runtime.spec.RunSpec` instances executed through a
:class:`~repro.runtime.executor.SweepExecutor` (so a warm
:class:`~repro.runtime.cache.ResultCache` makes repeated searches free);
:func:`analytic_required_bandwidth_mbps` is the closed-form first-order model
(eight concurrent vote transfers must fit inside the directory connection
timeout) used to cross-check the simulation and to pick search bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.directory.vote import VOTE_HEADER_BYTES
from repro.protocols.base import DirectoryProtocolConfig
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import RunSpec, overrides_from_config
from repro.utils.units import bytes_per_s_to_mbps
from repro.utils.validation import ensure

#: Default per-relay vote-entry size (bytes) used by the closed-form model.
DEFAULT_PER_RELAY_BYTES = 390


@dataclass(frozen=True)
class BandwidthRequirementResult:
    """Result of the Figure 7 search at one relay count."""

    relay_count: int
    required_mbps: float
    search_low_mbps: float
    search_high_mbps: float
    iterations: int


def analytic_required_bandwidth_mbps(
    relay_count: int,
    per_relay_bytes: int = DEFAULT_PER_RELAY_BYTES,
    connection_timeout: float = 18.0,
    authority_count: int = 9,
) -> float:
    """First-order model: (n-1) concurrent vote pushes must finish within the timeout."""
    ensure(relay_count >= 0, "relay_count must be non-negative")
    vote_bytes = VOTE_HEADER_BYTES + relay_count * per_relay_bytes
    bytes_per_second = (authority_count - 1) * vote_bytes / connection_timeout
    return bytes_per_s_to_mbps(bytes_per_second)


def required_bandwidth_mbps(
    relay_count: int,
    attacked_count: int = 5,
    baseline_bandwidth_mbps: float = 250.0,
    config: Optional[DirectoryProtocolConfig] = None,
    tolerance_mbps: float = 0.5,
    max_iterations: int = 12,
    seed: int = 7,
    executor: Optional[SweepExecutor] = None,
) -> BandwidthRequirementResult:
    """Binary-search the minimum bandwidth of the attacked authorities.

    ``attacked_count`` authorities are limited to the candidate bandwidth
    while the rest keep ``baseline_bandwidth_mbps``; the search returns the
    smallest bandwidth (within ``tolerance_mbps``) at which the current
    protocol still produces a majority-signed consensus.  Each probe is a
    :class:`RunSpec` executed through ``executor`` (a fresh serial executor
    by default), so an attached cache is consulted per probe.
    """
    ensure(relay_count >= 1, "relay_count must be positive")
    config = config or DirectoryProtocolConfig()
    executor = executor or SweepExecutor()
    base_spec = RunSpec(
        protocol="current",
        relay_count=relay_count,
        bandwidth_mbps=baseline_bandwidth_mbps,
        seed=seed,
        max_time=4 * config.round_duration + 60,
        config_overrides=overrides_from_config(config),
    )
    attacked_ids = tuple(range(attacked_count))

    analytic = analytic_required_bandwidth_mbps(
        relay_count, connection_timeout=config.connection_timeout
    )
    low = 0.05
    high = max(4.0 * analytic, 2.0)

    def succeeds(mbps: float) -> bool:
        probe = base_spec.with_attacked_bandwidth(attacked_ids, mbps)
        return executor.run_one(probe).success

    # Widen the bracket if needed.
    iterations = 0
    while not succeeds(high) and high < baseline_bandwidth_mbps:
        high = min(high * 2, baseline_bandwidth_mbps)
        iterations += 1

    search_low, search_high = low, high
    while high - low > tolerance_mbps and iterations < max_iterations:
        mid = (low + high) / 2
        if succeeds(mid):
            high = mid
        else:
            low = mid
        iterations += 1

    return BandwidthRequirementResult(
        relay_count=relay_count,
        required_mbps=high,
        search_low_mbps=search_low,
        search_high_mbps=search_high,
        iterations=iterations,
    )


def bandwidth_requirement_sweep(
    relay_counts: Sequence[int],
    attacked_count: int = 5,
    config: Optional[DirectoryProtocolConfig] = None,
    seed: int = 7,
    executor: Optional[SweepExecutor] = None,
) -> List[BandwidthRequirementResult]:
    """Run the Figure 7 search for every relay count in ``relay_counts``.

    The searches share one executor (binary-search probes are sequential
    within a relay count, but every probe lands in the shared cache).
    """
    executor = executor or SweepExecutor()
    return [
        required_bandwidth_mbps(
            relay_count,
            attacked_count=attacked_count,
            config=config,
            seed=seed,
            executor=executor,
        )
        for relay_count in relay_counts
    ]
