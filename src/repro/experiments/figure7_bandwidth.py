"""Figure 7: bandwidth an attacked authority needs vs. the number of relays.

For each relay count, 5 of the 9 authorities are limited to a candidate
bandwidth and a binary search finds the minimum at which the current
protocol still succeeds.  The resulting curve is (to first order) linear in
the relay count and crosses ≈ 10 Mbit/s around 8,000 relays — far above the
0.5 Mbit/s a host retains under DDoS, which is the paper's point.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.bandwidth import (
    BandwidthRequirementResult,
    analytic_required_bandwidth_mbps,
    bandwidth_requirement_sweep,
)
from repro.analysis.reporting import format_table
from repro.attack.ddos import ATTACK_RESIDUAL_BANDWIDTH_MBPS
from repro.protocols.base import DirectoryProtocolConfig
from repro.runtime.executor import SweepExecutor

#: Relay counts reported in the paper's sweep.
DEFAULT_RELAY_COUNTS = (1000, 2000, 4000, 6000, 8000, 10000)


def run_figure7(
    relay_counts: Sequence[int] = DEFAULT_RELAY_COUNTS,
    attacked_count: int = 5,
    config: Optional[DirectoryProtocolConfig] = None,
    seed: int = 7,
    executor: Optional[SweepExecutor] = None,
) -> List[BandwidthRequirementResult]:
    """Run the bandwidth-requirement search over ``relay_counts``.

    Every binary-search probe executes through ``executor``, so one with a
    cache attached makes re-running the figure free.
    """
    return bandwidth_requirement_sweep(
        relay_counts,
        attacked_count=attacked_count,
        config=config,
        seed=seed,
        executor=executor,
    )


def render_figure7(results: Sequence[BandwidthRequirementResult]) -> str:
    """Render the measured requirement next to the closed-form model."""
    rows = []
    for result in results:
        rows.append(
            (
                result.relay_count,
                round(result.required_mbps, 2),
                round(analytic_required_bandwidth_mbps(result.relay_count), 2),
                ATTACK_RESIDUAL_BANDWIDTH_MBPS,
            )
        )
    return format_table(
        ["Relays", "Required bandwidth (Mbit/s)", "Analytic model (Mbit/s)", "Under attack (Mbit/s)"],
        rows,
        title="Figure 7: bandwidth required by attacked authorities vs. number of relays",
    )
