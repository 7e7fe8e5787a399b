"""Figure 11: recovery latency after a complete 5-minute DDoS.

Five authorities are knocked (almost) offline for the first 300 seconds, then
the network returns to its normal 250 Mbit/s.  The paper reports that the new
protocol produces a consensus within seconds of the attack ending, while the
two synchronous protocols fail the run entirely and have to wait for the
fallback re-run — 25 minutes until the next scheduled attempt plus the
10-minute protocol, i.e. 2,100 seconds.

Every attacked run (ours plus the two baselines, per relay count) is a frozen
:class:`~repro.runtime.spec.RunSpec` carrying the attack as bandwidth
overrides; the whole grid executes through one
:class:`~repro.runtime.executor.SweepExecutor`, so it parallelises and caches
like any other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.analysis.reporting import format_table
from repro.attack.ddos import DDoSAttackPlan
from repro.protocols.base import DirectoryProtocolConfig
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import RunSpec, overrides_from_config

#: Latency of the synchronous protocols' fallback path (25 min wait + 10 min run).
FALLBACK_LATENCY_SECONDS = 2100.0

#: Relay counts plotted in Figure 11.
DEFAULT_RELAY_COUNTS = (1000, 4000, 7000, 10000)


@dataclass
class Figure11Result:
    """Recovery latency of "ours" (and baseline outcomes) at one relay count."""

    relay_count: int
    attack_end: float
    ours_success: bool
    ours_latency_after_attack: Optional[float]
    current_success: bool
    synchronous_success: bool
    fallback_latency: float = FALLBACK_LATENCY_SECONDS


def run_figure11(
    relay_counts: Sequence[int] = DEFAULT_RELAY_COUNTS,
    attacked_count: int = 5,
    attack_duration: float = 300.0,
    residual_bandwidth_mbps: float = 0.05,
    baseline_bandwidth_mbps: float = 250.0,
    config: Optional[DirectoryProtocolConfig] = None,
    include_baselines: bool = True,
    engine: str = "hotstuff",
    seed: int = 7,
    executor: Optional[SweepExecutor] = None,
) -> List[Figure11Result]:
    """Run the full-DDoS recovery experiment for each relay count."""
    config = config or DirectoryProtocolConfig()
    executor = executor or SweepExecutor()
    config_overrides = overrides_from_config(config)
    attack = DDoSAttackPlan(
        target_authority_ids=tuple(range(attacked_count)),
        start=0.0,
        duration=attack_duration,
        residual_bandwidth_mbps=residual_bandwidth_mbps,
        baseline_bandwidth_mbps=baseline_bandwidth_mbps,
    )
    baseline_max_time = 4 * config.round_duration + 60

    specs: List[RunSpec] = []
    for relay_count in relay_counts:
        base = RunSpec(
            protocol="ours",
            relay_count=relay_count,
            bandwidth_mbps=baseline_bandwidth_mbps,
            seed=seed,
            engine=engine,
            max_time=attack.end + 1200.0,
            config_overrides=config_overrides,
            bandwidth_overrides=attack.bandwidth_overrides(),
        )
        specs.append(base)
        if include_baselines:
            for protocol in ("current", "synchronous"):
                specs.append(base.derive(protocol=protocol, max_time=baseline_max_time))

    runs = executor.run(specs)
    by_key = {
        (spec.relay_count, spec.protocol): run for spec, run in zip(specs, runs)
    }

    results: List[Figure11Result] = []
    for relay_count in relay_counts:
        ours = by_key[(relay_count, "ours")]
        current = by_key.get((relay_count, "current"))
        synchronous = by_key.get((relay_count, "synchronous"))
        results.append(
            Figure11Result(
                relay_count=relay_count,
                attack_end=attack.end,
                ours_success=ours.success,
                ours_latency_after_attack=ours.latency_from(attack.end),
                current_success=current.success if current is not None else False,
                synchronous_success=synchronous.success if synchronous is not None else False,
            )
        )
    return results


def render_figure11(results: Sequence[Figure11Result]) -> str:
    """Render the recovery latencies next to the baselines' fallback latency."""
    rows = []
    for result in results:
        rows.append(
            (
                result.relay_count,
                "%.1f s" % result.ours_latency_after_attack
                if result.ours_latency_after_attack is not None
                else "FAIL",
                "FAIL (%.0f s fallback)" % result.fallback_latency
                if not result.current_success
                else "ok",
                "FAIL (%.0f s fallback)" % result.fallback_latency
                if not result.synchronous_success
                else "ok",
            )
        )
    return format_table(
        ["Relays", "Ours (after attack ends)", "Current", "Synchronous"],
        rows,
        title="Figure 11: consensus latency after a 5-minute DDoS on 5 authorities",
    )
