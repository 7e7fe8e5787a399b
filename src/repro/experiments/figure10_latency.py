"""Figure 10: consensus latency of the three protocols across bandwidths.

Reproduces the five panels (50 / 20 / 10 / 1 / 0.5 Mbit/s): for each panel,
one latency-vs-relay-count series per protocol, with failures marked.  The
shape to check against the paper: the current protocol fails once the relay
count exceeds what its connection timeouts allow at the given bandwidth, the
synchronous protocol fails much earlier (its vote packages are ~n× larger),
and ours keeps producing a consensus all the way down to 0.5 Mbit/s, merely
taking longer.

The grid routes through :class:`~repro.runtime.executor.SweepExecutor`: pass
``executor=`` to fan the cells out over a process pool and/or skip cells
whose results are already in its cache.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.latency import LatencyGrid, sweep_latency
from repro.analysis.reporting import format_table
from repro.protocols.base import DirectoryProtocolConfig
from repro.runtime.executor import SweepExecutor

#: Bandwidth panels of Figure 10 (Mbit/s).
FIGURE10_BANDWIDTHS = (50.0, 20.0, 10.0, 1.0, 0.5)

#: Default (coarse) relay-count grid; the paper sweeps 1,000–10,000.
DEFAULT_RELAY_COUNTS = (1000, 4000, 7000, 10000)


def run_figure10(
    bandwidths_mbps: Sequence[float] = FIGURE10_BANDWIDTHS,
    relay_counts: Sequence[int] = DEFAULT_RELAY_COUNTS,
    protocols: Sequence[str] = ("current", "synchronous", "ours"),
    config: Optional[DirectoryProtocolConfig] = None,
    engine: str = "hotstuff",
    seed: int = 7,
    executor: Optional[SweepExecutor] = None,
) -> LatencyGrid:
    """Run the Figure 10 grid through the sweep executor."""
    return sweep_latency(
        protocols=protocols,
        bandwidths_mbps=bandwidths_mbps,
        relay_counts=relay_counts,
        config=config,
        engine=engine,
        seed=seed,
        executor=executor,
    )


def render_figure10(grid: LatencyGrid) -> str:
    """Render one table per bandwidth panel."""
    sections = []
    for bandwidth in sorted(grid.bandwidths(), reverse=True):
        rows = []
        relay_counts = sorted(
            {cell.relay_count for cell in grid.cells if cell.bandwidth_mbps == bandwidth}
        )
        for relay_count in relay_counts:
            row = [relay_count]
            for protocol in ("current", "synchronous", "ours"):
                cells = [
                    cell
                    for cell in grid.series(protocol, bandwidth)
                    if cell.relay_count == relay_count
                ]
                if not cells:
                    row.append("-")
                elif not cells[0].success:
                    row.append("FAIL")
                else:
                    row.append("%.1f s" % (cells[0].latency_s or 0.0))
            rows.append(row)
        sections.append(
            format_table(
                ["Relays", "Current", "Synchronous", "Ours"],
                rows,
                title="Figure 10 panel: %.1f Mbit/s" % bandwidth,
            )
        )
    return "\n\n".join(sections)
