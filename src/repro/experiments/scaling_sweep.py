"""Scaling sweep: transport-model wall-clock cost beyond 10×-paper node counts.

The paper evaluates nine directory authorities — the live Tor configuration.
The ROADMAP's north star is a simulator that scales far beyond that, and the
limiting factor is the transport.  Two levers attack it, and this sweep
measures both:

* **Link model.**  Under a shared model every flow's rate couples through
  link occupancy; the ``latency-only`` model (see
  :mod:`repro.simnet.linkmodel`) removes the coupling entirely, at the
  stated cost of losing congestion (the mechanism behind the paper's DDoS
  results).  It is the fast model for large-N protocol-behaviour studies,
  not for bandwidth-sensitive figures.
* **Scheduler engine.**  The paper-faithful shared models run on two
  engines: the default lazy-advance heap-driven scheduler
  (:mod:`repro.simnet.shared_sched`, O(touched flows) per event) and the
  vectorized structure-of-arrays scheduler (:mod:`repro.simnet.vector_sched`,
  batch rate recompute over numpy slot arrays — requires the ``[perf]``
  extra, silently downgrading to lazy without it).  The sweep times ``fair``
  and ``tcp`` under both, so the committed ``BENCH_scaling.json`` carries
  the lazy→vector speedup tables that ``benchmarks/test_bench_scaling.py``
  asserts against.

The grid runs the same consensus spec at growing authority counts — up to
300, beyond 33× the paper's nine — under ``fair``, ``latency-only``, and
``tcp``.  ``latency-only`` (engine-independent) and ``fair`` on the vector
engine run at every count; ``fair`` on the lazy engine stops at 120, where
the scalar loop is still affordable — the 300-authority shared-transport
cell exists *because* the vector engine makes it tractable.  ``tcp`` runs at
:data:`DEFAULT_TCP_COUNTS` on the lazy engine *and* (numpy present) the
vector engine, pricing per-flow congestion control against the memoryless
``fair`` model and the scalar ack-tick loop against the vector policy's
cohort ticks.  Cells run serially and in-process (never through a result
cache) so the timings measure simulation cost, not cache or pool behaviour.
:func:`write_bench_json` emits the numbers (see
:data:`BENCH_FORMAT_VERSION` for what the payload holds).
"""

from __future__ import annotations

import argparse
import json
import resource
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.reporting import format_table
from repro.runtime.spec import RunSpec
from repro.simnet.flows import effective_shared_engine, use_shared_engine
from repro.utils import phases as phase_timers
from repro.utils.validation import ensure

#: Authority count evaluated throughout the paper (the live Tor network).
PAPER_AUTHORITY_COUNT = 9

#: Default sweep: paper scale, intermediate points, 10× paper scale, the
#: 120-authority point the lazy engine made affordable, and the
#: 300-authority stretch goal the vector engine makes affordable.
DEFAULT_AUTHORITY_COUNTS = (9, 30, 90, 120, 300)

#: Transport models compared by default: the fair shared model the figures
#: use, the sharing-free fast model, and the congestion-controlled ``tcp``
#: model (at :data:`DEFAULT_TCP_COUNTS`).
DEFAULT_TRANSPORTS = ("fair", "latency-only", "tcp")

#: Counts at which ``fair`` runs on the lazy engine.  300 is deliberately
#: absent from the default: the scalar per-touched-flow loop takes minutes
#: there, and the lazy→vector speedup table makes its point at 120.
DEFAULT_LAZY_FAIR_COUNTS = (9, 30, 90, 120)

#: Counts at which ``tcp`` cells run — on the lazy engine and (numpy
#: present) the vector engine, so the committed snapshot carries the
#: lazy→vector tcp speedup table.  120 is the headline point: broadcast
#: waves there are wide enough for the vector policy's cohort ack ticks to
#: amortise, which is what the ≥1.5× bar in ``test_bench_scaling.py``
#: asserts.  The CI perf-smoke budget asserts the tcp@30 cells.
DEFAULT_TCP_COUNTS = (9, 30, 120)

#: Format version of the ``BENCH_scaling.json`` payload.  Version 7 holds:
#: ``cells`` — one per (protocol, transport, authority count, engine), each
#: with the ``engine`` that actually ran (``lazy``/``vector``), wall clock,
#: virtual end time, message count, ``peak_rss_mb`` and ``phases`` (exclusive
#: wall-clock buckets — transport / protocol / crypto / client_wave / other —
#: from :mod:`repro.utils.phases`; the attribution adds ~1–2 % overhead, paid
#: by every cell so the buckets always sum to the recorded wall clock); the
#: ratio tables ``speedup_fair_to_latency_only``,
#: ``speedup_fair_lazy_to_vector`` and ``speedup_tcp_lazy_to_vector`` per
#: ``protocol@N``; and ``non_transport_floor_fair``, each fair cell's
#: non-transport bucket total per ``engine@N``.
BENCH_FORMAT_VERSION = 7


def _peak_rss_mb() -> float:
    """Process-lifetime peak resident set size in MiB (``ru_maxrss``).

    A high-water mark, not a per-cell measurement: a cell's value is the
    largest footprint *any* cell so far has needed, which is exactly the
    capacity-planning number a benchmark consumer wants (the grid runs
    cheapest-first, so growth across cells is attributable to scale).
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass(frozen=True)
class ScalingCell:
    """One timed run of the scaling grid."""

    protocol: str
    transport: str
    authority_count: int
    relay_count: int
    success: bool
    wall_clock_s: float
    virtual_end_s: float
    messages_sent: int
    engine: str = "lazy"
    peak_rss_mb: float = 0.0
    #: Exclusive wall-clock buckets (transport / protocol / crypto /
    #: client_wave / other) from :mod:`repro.utils.phases`.
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def non_transport_floor_s(self) -> float:
        """Seconds of wall clock outside the ``transport`` bucket."""
        return phase_timers.non_transport_total(self.phases)


def scaling_specs(
    authority_counts: Sequence[int] = DEFAULT_AUTHORITY_COUNTS,
    protocols: Sequence[str] = ("current",),
    transports: Sequence[str] = DEFAULT_TRANSPORTS,
    relay_count: int = 200,
    bandwidth_mbps: float = 250.0,
    seed: int = 7,
    max_time: float = 600.0,
) -> List[RunSpec]:
    """The scaling grid, authority count outermost, transport innermost."""
    ensure(len(authority_counts) > 0, "need at least one authority count")
    ensure(len(transports) > 0, "need at least one transport")
    return [
        RunSpec(
            protocol=protocol,
            relay_count=relay_count,
            bandwidth_mbps=bandwidth_mbps,
            seed=seed,
            transport=transport,
            authority_count=authority_count,
            max_time=max_time,
        )
        for authority_count in authority_counts
        for protocol in protocols
        for transport in transports
    ]


def _timed_cell(spec: RunSpec, engine: str) -> ScalingCell:
    from repro.protocols.runner import execute_spec

    with use_shared_engine(engine):
        # Record what actually ran: a vector request on a numpy-less install
        # — or for a transport the switch does not apply to (latency-only) —
        # executes (and must be labelled as) the default.
        effective = effective_shared_engine(spec.transport)
        result, buckets, elapsed = phase_timers.profile(execute_spec, spec)
    return ScalingCell(
        protocol=spec.protocol,
        transport=spec.transport,
        authority_count=spec.authority_count,
        relay_count=spec.relay_count,
        success=result.success,
        wall_clock_s=elapsed,
        virtual_end_s=result.end_time,
        messages_sent=result.stats.messages_sent,
        engine=effective,
        peak_rss_mb=_peak_rss_mb(),
        # Rounded to the microsecond: the JSON is committed, and sub-µs
        # noise would churn every regeneration diff.
        phases={name: round(value, 6) for name, value in buckets.items()},
    )


def run_scaling_sweep(
    authority_counts: Sequence[int] = DEFAULT_AUTHORITY_COUNTS,
    protocols: Sequence[str] = ("current",),
    transports: Sequence[str] = DEFAULT_TRANSPORTS,
    relay_count: int = 200,
    bandwidth_mbps: float = 250.0,
    seed: int = 7,
    max_time: float = 600.0,
    lazy_fair_counts: Optional[Sequence[int]] = None,
    tcp_counts: Sequence[int] = DEFAULT_TCP_COUNTS,
    progress: Optional[Callable[[ScalingCell], None]] = None,
) -> List[ScalingCell]:
    """Execute the scaling grid serially, timing each cell's wall clock.

    ``latency-only`` cells (engine-independent) run on the default lazy
    engine at every count.  ``fair`` cells run per engine schedule: lazy at
    ``lazy_fair_counts`` (default: every requested count ≤ 120) and vector
    at *every* count — the vector engine is what makes the largest
    shared-transport cell affordable at all.  On a numpy-less install the
    vector cells are *skipped*, not downgraded: a downgraded cell would be a
    duplicate lazy run, and at 300 authorities minutes of scalar loop for no
    information.
    ``tcp`` cells run on the lazy engine and (numpy present) the vector
    engine, only at ``tcp_counts`` — counts outside it are skipped, so
    small custom grids stay tcp-free unless asked.
    ``progress`` (if given) fires after each cell — the largest cells take
    minutes on slow machines and silence reads as a hang.
    """
    from repro.simnet.vector_sched import vector_available
    if lazy_fair_counts is None:
        lazy_fair_counts = tuple(
            count for count in authority_counts if count <= max(DEFAULT_LAZY_FAIR_COUNTS)
        )
    cells: List[ScalingCell] = []

    def _run(spec: RunSpec, engine: str) -> None:
        cell = _timed_cell(spec, engine)
        cells.append(cell)
        if progress is not None:
            progress(cell)

    for spec in scaling_specs(
        authority_counts=authority_counts,
        protocols=protocols,
        transports=transports,
        relay_count=relay_count,
        bandwidth_mbps=bandwidth_mbps,
        seed=seed,
        max_time=max_time,
    ):
        if spec.transport == "tcp":
            if spec.authority_count in tcp_counts:
                _run(spec, "lazy")
                if vector_available():
                    _run(spec, "vector")
            continue
        if spec.transport != "fair":
            _run(spec, "lazy")
            continue
        if spec.authority_count in lazy_fair_counts:
            _run(spec, "lazy")
        if vector_available():
            _run(spec, "vector")
    return cells


def _cell_lookup(
    cells: Sequence[ScalingCell], authority_count: int, protocol: str
) -> Dict[Tuple[str, str], ScalingCell]:
    return {
        (cell.transport, cell.engine): cell
        for cell in cells
        if cell.authority_count == authority_count and cell.protocol == protocol
    }


def speedup_at(
    cells: Sequence[ScalingCell],
    authority_count: int,
    protocol: str = "current",
    baseline: str = "fair",
    fast: str = "latency-only",
) -> Optional[float]:
    """Wall-clock speedup of ``fast`` over ``baseline`` at one grid point.

    Compares like with like: both cells on the default (lazy) engine.
    """
    by_key = _cell_lookup(cells, authority_count, protocol)
    baseline_cell = by_key.get((baseline, "lazy"))
    fast_cell = by_key.get((fast, "lazy"))
    if baseline_cell is None or fast_cell is None or fast_cell.wall_clock_s <= 0:
        return None
    return baseline_cell.wall_clock_s / fast_cell.wall_clock_s


def headline_speedups(
    cells: Sequence[ScalingCell],
) -> List[Tuple[str, int, float]]:
    """Every grid point's fair→latency-only speedup as (protocol, N, speedup)."""
    results: List[Tuple[str, int, float]] = []
    for authority_count in sorted({cell.authority_count for cell in cells}):
        for protocol in sorted({cell.protocol for cell in cells}):
            speedup = speedup_at(cells, authority_count, protocol)
            if speedup is not None:
                results.append((protocol, authority_count, speedup))
    return results


def vector_speedup_at(
    cells: Sequence[ScalingCell],
    authority_count: int,
    protocol: str = "current",
    transport: str = "fair",
) -> Optional[float]:
    """Lazy-engine → vector-engine wall-clock speedup at one grid point.

    None where either engine's cell is absent — including numpy-less runs,
    where vector requests execute (and are labelled) as lazy cells.
    """
    by_key = _cell_lookup(cells, authority_count, protocol)
    lazy = by_key.get((transport, "lazy"))
    vector = by_key.get((transport, "vector"))
    if lazy is None or vector is None or vector.wall_clock_s <= 0:
        return None
    return lazy.wall_clock_s / vector.wall_clock_s


def vector_speedups(
    cells: Sequence[ScalingCell],
) -> List[Tuple[str, int, float]]:
    """Every grid point's lazy→vector fair speedup as (protocol, N, speedup)."""
    results: List[Tuple[str, int, float]] = []
    for authority_count in sorted({cell.authority_count for cell in cells}):
        for protocol in sorted({cell.protocol for cell in cells}):
            speedup = vector_speedup_at(cells, authority_count, protocol)
            if speedup is not None:
                results.append((protocol, authority_count, speedup))
    return results


def tcp_vector_speedups(
    cells: Sequence[ScalingCell],
) -> List[Tuple[str, int, float]]:
    """Every grid point's lazy→vector *tcp* speedup as (protocol, N, speedup).

    The tcp counterpart of :func:`vector_speedups`: the ratio prices the
    scalar per-flow ack-tick loop against the vector policy's cohort
    ticks, and the committed snapshot's 120-authority entry is the ≥1.5×
    bar ``benchmarks/test_bench_scaling.py`` asserts.
    """
    results: List[Tuple[str, int, float]] = []
    for authority_count in sorted({cell.authority_count for cell in cells}):
        for protocol in sorted({cell.protocol for cell in cells}):
            speedup = vector_speedup_at(
                cells, authority_count, protocol, transport="tcp"
            )
            if speedup is not None:
                results.append((protocol, authority_count, speedup))
    return results


def render_scaling(cells: Sequence[ScalingCell]) -> str:
    """Render the sweep as a table with per-N speedup annotations."""
    rows = []
    for cell in cells:
        rows.append(
            (
                str(cell.authority_count),
                cell.protocol,
                cell.transport,
                cell.engine,
                "ok" if cell.success else "FAIL",
                "%.2f s" % cell.wall_clock_s,
                "%.0f s" % cell.virtual_end_s,
                str(cell.messages_sent),
            )
        )
    table = format_table(
        [
            "Authorities",
            "Protocol",
            "Transport",
            "Engine",
            "Outcome",
            "Wall clock",
            "Virtual",
            "Messages",
        ],
        rows,
        title="Scaling sweep: transport wall-clock cost vs. node count",
    )
    notes = [
        "N=%d %s: latency-only is %.1fx faster than fair"
        % (authority_count, protocol, speedup)
        for protocol, authority_count, speedup in headline_speedups(cells)
    ]
    notes.extend(
        "N=%d %s: vector fair engine is %.1fx faster than lazy"
        % (authority_count, protocol, speedup)
        for protocol, authority_count, speedup in vector_speedups(cells)
    )
    notes.extend(
        "N=%d %s: vector tcp engine is %.1fx faster than lazy"
        % (authority_count, protocol, speedup)
        for protocol, authority_count, speedup in tcp_vector_speedups(cells)
    )
    return table + ("\n" + "\n".join(notes) if notes else "")


def write_bench_json(
    cells: Sequence[ScalingCell], path: Union[str, Path] = "BENCH_scaling.json"
) -> Path:
    """Write the sweep (cells + headline speedup tables) to ``path``."""
    path = Path(path)
    transport_speedups = {
        "%s@%d" % (protocol, authority_count): speedup
        for protocol, authority_count, speedup in headline_speedups(cells)
    }
    lazy_to_vector = {
        "%s@%d" % (protocol, authority_count): speedup
        for protocol, authority_count, speedup in vector_speedups(cells)
    }
    tcp_lazy_to_vector = {
        "%s@%d" % (protocol, authority_count): speedup
        for protocol, authority_count, speedup in tcp_vector_speedups(cells)
    }
    # The non-transport floor per fair cell, keyed engine@N: the seconds a
    # faster flow scheduler cannot remove.
    floor_fair = {
        "%s@%d" % (cell.engine, cell.authority_count): round(
            cell.non_transport_floor_s, 6
        )
        for cell in cells
        if cell.transport == "fair" and cell.phases
    }
    payload = {
        "format": BENCH_FORMAT_VERSION,
        "paper_authority_count": PAPER_AUTHORITY_COUNT,
        "cells": [asdict(cell) for cell in cells],
        "speedup_fair_to_latency_only": transport_speedups,
        "speedup_fair_lazy_to_vector": lazy_to_vector,
        "speedup_tcp_lazy_to_vector": tcp_lazy_to_vector,
        "non_transport_floor_fair": floor_fair,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run the sweep, print the table, emit the JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_scaling.json", help="output path for the JSON payload"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small-N smoke (9, 18, and 30 authorities; lazy + vector "
        "fair cells; tcp at 9 and 30) for CI wall-clock budgets",
    )
    args = parser.parse_args(argv)

    def progress(cell: ScalingCell) -> None:
        print(
            "cell done: %s@%d transport=%s engine=%s — %.2f s wall"
            % (
                cell.protocol,
                cell.authority_count,
                cell.transport,
                cell.engine,
                cell.wall_clock_s,
            )
        )

    if args.quick:
        cells = run_scaling_sweep(authority_counts=(9, 18, 30), progress=progress)
    else:
        cells = run_scaling_sweep(progress=progress)
    print(render_scaling(cells))
    out = write_bench_json(cells, args.out)
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
