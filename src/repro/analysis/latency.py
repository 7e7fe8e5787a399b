"""Latency sweeps across bandwidths, relay counts, and protocols (Figures 10/11).

:func:`sweep_latency` reifies the (protocol × bandwidth × relay count) grid
as a :class:`~repro.runtime.spec.SweepSpec` and hands it to a
:class:`~repro.runtime.executor.SweepExecutor` (serial by default; pass
``executor=`` for a pool or a cache), collecting each cell's success flag and
latency with the same accounting as the paper: summed per-round network time
for the two lock-step protocols, wall-clock time to a majority-signed
consensus for ours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.protocols.base import DirectoryProtocolConfig
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepSpec, overrides_from_config
from repro.utils.validation import ensure


@dataclass(frozen=True)
class LatencyCell:
    """One point of the Figure 10 grid."""

    protocol: str
    bandwidth_mbps: float
    relay_count: int
    success: bool
    latency_s: Optional[float]


@dataclass
class LatencyGrid:
    """All cells of a latency sweep, with convenience accessors."""

    cells: List[LatencyCell] = field(default_factory=list)

    def add(self, cell: LatencyCell) -> None:
        """Append one measurement."""
        self.cells.append(cell)

    def series(self, protocol: str, bandwidth_mbps: float) -> List[LatencyCell]:
        """One figure line: a protocol's latency vs. relay count at one bandwidth."""
        return sorted(
            (
                cell
                for cell in self.cells
                if cell.protocol == protocol and abs(cell.bandwidth_mbps - bandwidth_mbps) < 1e-9
            ),
            key=lambda cell: cell.relay_count,
        )

    def failure_threshold(self, protocol: str, bandwidth_mbps: float) -> Optional[int]:
        """Smallest relay count at which the protocol fails (None if it never fails)."""
        for cell in self.series(protocol, bandwidth_mbps):
            if not cell.success:
                return cell.relay_count
        return None

    def protocols(self) -> List[str]:
        """Protocols present in the grid."""
        return sorted({cell.protocol for cell in self.cells})

    def bandwidths(self) -> List[float]:
        """Bandwidth settings present in the grid."""
        return sorted({cell.bandwidth_mbps for cell in self.cells})


def latency_sweep_spec(
    protocols: Sequence[str] = ("current", "synchronous", "ours"),
    bandwidths_mbps: Sequence[float] = (50.0, 20.0, 10.0, 1.0, 0.5),
    relay_counts: Sequence[int] = (1000, 4000, 7000, 10000),
    config: Optional[DirectoryProtocolConfig] = None,
    max_time: float = 2000.0,
    seed: int = 7,
    engine: str = "hotstuff",
    transport: str = "fair",
) -> SweepSpec:
    """The Figure 10 grid as a reified sweep specification."""
    ensure(len(protocols) > 0, "need at least one protocol")
    return SweepSpec.grid(
        "figure10-latency",
        protocols=protocols,
        bandwidths_mbps=bandwidths_mbps,
        relay_counts=relay_counts,
        seed=seed,
        engine=engine,
        transport=transport,
        max_time=max_time,
        config_overrides=overrides_from_config(config),
    )


def sweep_latency(
    protocols: Sequence[str] = ("current", "synchronous", "ours"),
    bandwidths_mbps: Sequence[float] = (50.0, 20.0, 10.0, 1.0, 0.5),
    relay_counts: Sequence[int] = (1000, 4000, 7000, 10000),
    config: Optional[DirectoryProtocolConfig] = None,
    max_time: float = 2000.0,
    seed: int = 7,
    engine: str = "hotstuff",
    transport: str = "fair",
    executor: Optional[SweepExecutor] = None,
) -> LatencyGrid:
    """Run the Figure 10 grid through the sweep executor and collect latencies."""
    sweep = latency_sweep_spec(
        protocols=protocols,
        bandwidths_mbps=bandwidths_mbps,
        relay_counts=relay_counts,
        config=config,
        max_time=max_time,
        seed=seed,
        engine=engine,
        transport=transport,
    )
    executor = executor or SweepExecutor()
    grid = LatencyGrid()
    for spec, result in zip(sweep.runs, executor.run(sweep)):
        grid.add(
            LatencyCell(
                protocol=spec.protocol,
                bandwidth_mbps=spec.bandwidth_mbps,
                relay_count=spec.relay_count,
                success=result.success,
                latency_s=result.latency,
            )
        )
    return grid
