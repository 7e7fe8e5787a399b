"""Figure 13 (beyond the paper): what the DDoS does to Tor's *users*.

The paper's Figures 1/10/11 stop at the authorities: the attack prevents (or
delays) a signed consensus.  The user-visible harm the paper gestures at —
millions of dir-clients bootstrapping from stale or missing consensuses —
needs the consensus-*distribution* layer: this experiment runs the Figure-1
attack (a majority of authorities flooded to ~zero usable bandwidth for the
first 300 s) with a cohort-aggregated client population fetching the signed
consensus through a directory-mirror tier, and reports the recovery curve
clients actually experience:

* the fraction of clients holding a fresh consensus by the end of the run,
* p50/p99 time-to-fresh-consensus and mean staleness-seconds per client,
* the fetch success rate (failed attempts are the "giving up downloading
  networkstatus" lines a real client logs).

Populations sweep 10k → 10M modeled clients across the three protocols,
plus an *extreme* row at 100M clients in 1000 cohorts — and the whole
standard grid repeats under ``transport="tcp"``, so the committed recovery
curve also exists under real congestion control (slow start, fast recovery)
rather than the idealized ``fair`` split.  Cohort aggregation (32 cohorts
for the standard rows, batched wave draws; see ``DESIGN-clients.md``) keeps
the 10M-client cells at thousands of simulator events.
The full grid is committed as ``BENCH_clients.json``: every field is a
simulated quantity, so ``python -m repro.experiments.figure13_clients``
regenerates the file byte for byte, and ``benchmarks/test_bench_clients.py``
asserts its claims and re-runs two of its cells.

The extreme row is also where the mirror tier's *capacity* becomes the
story: 256 mirrors serving 100M clients cannot push everyone a consensus
within the run window, so even the partial-synchrony protocol leaves most
clients stale at t=1800 — the recovering fraction, not recovery of
everyone, is the signal.

The grid routes through :class:`~repro.runtime.executor.SweepExecutor` like
Figures 10–12: pass ``executor=`` to fan the cells out over a process pool
and/or skip cells whose results are already in its cache.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.reporting import format_table
from repro.attack.ddos import majority_attack_plan
from repro.clients.workload import ClientWorkload
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec
from repro.utils.validation import ensure

#: Client populations plotted by default: 10k to 10M modeled clients.
DEFAULT_POPULATIONS = (10_000, 100_000, 1_000_000, 10_000_000)

#: Cohort count used at the standard populations (event cost tracks cohorts
#: × waves, not clients, which is the whole point of the aggregation).
DEFAULT_COHORT_COUNT = 32

#: The extreme row: 100M modeled clients in 1000 cohorts.  Populations at or
#: above this threshold default to the extreme cohort grid.
EXTREME_POPULATION = 100_000_000
EXTREME_COHORT_COUNT = 1_000

#: Directory-mirror tier size (the live network serves clients through
#: thousands of relay caches; 256 keeps per-mirror load realistic for the
#: populations swept here).
DEFAULT_MIRROR_COUNT = 256

def cohort_count_for(population: int) -> int:
    """The default cohort grid for ``population`` (extreme rows get 1000)."""
    return EXTREME_COHORT_COUNT if population >= EXTREME_POPULATION else DEFAULT_COHORT_COUNT


@dataclass(frozen=True)
class Figure13Cell:
    """One (protocol × population) run of the client-recovery grid."""

    protocol: str
    population: int
    cohort_count: int
    mirror_count: int
    run_success: bool
    fresh_fraction: float
    fetch_success_rate: Optional[float]
    time_to_fresh_p50_s: Optional[float]
    time_to_fresh_p99_s: Optional[float]
    mean_staleness_s: float
    first_publish_time_s: Optional[float]
    fetch_attempts: int
    virtual_end_s: float
    transport: str = "fair"


def default_client_workload(
    population: int,
    cohort_count: int = DEFAULT_COHORT_COUNT,
    mirror_count: int = DEFAULT_MIRROR_COUNT,
) -> ClientWorkload:
    """The workload every Figure 13 cell uses, scaled to ``population``.

    Clients poll for a fresh consensus every ~5 minutes on average (Poisson),
    give up an attempt after the 18 s directory connection timeout, and back
    off two minutes after a failure — roughly a live client's schedule while
    bootstrapping.  Batches split across 8 mirrors per wave (at the default
    32-cohort grid) so directory load spreads like independent client
    arrivals would.

    Two knobs coarsen with the cohort grid so simulated-flow count stays
    bounded as the grid grows — they change aggregation granularity, never
    the modeled client behaviour:

    * ``servers_per_wave`` shrinks to hold cohorts × servers-per-wave (the
      flows admitted per tick) near the default 256;
    * ``wave_interval_s`` doubles past an 8×-default grid, halving tick
      count the same way the 32-cohort default already trades arrival
      granularity for event cost.

    At the default 32 cohorts both knobs keep their historical values, so
    standard-row specs (and their cache hashes) are unchanged.
    """
    servers_per_wave = max(
        1, min(8, (8 * DEFAULT_COHORT_COUNT) // max(1, cohort_count))
    )
    wave_interval_s = 10.0 if cohort_count <= 8 * DEFAULT_COHORT_COUNT else 20.0
    return ClientWorkload(
        population=population,
        cohort_count=cohort_count,
        arrival="poisson",
        fetch_interval_s=300.0,
        wave_interval_s=wave_interval_s,
        retry_backoff_s=120.0,
        connection_timeout_s=18.0,
        servers_per_wave=servers_per_wave,
        mirror_count=mirror_count,
    )


def figure13_spec(
    protocol: str,
    population: int,
    cohort_count: int = DEFAULT_COHORT_COUNT,
    mirror_count: int = DEFAULT_MIRROR_COUNT,
    relay_count: int = 120,
    seed: int = 7,
    max_time: float = 1800.0,
    residual_bandwidth_mbps: float = 0.05,
    transport: str = "fair",
) -> RunSpec:
    """One cell's frozen spec: the Figure-1 attack plus the client workload."""
    attack = majority_attack_plan(residual_bandwidth_mbps=residual_bandwidth_mbps)
    return RunSpec(
        protocol=protocol,
        relay_count=relay_count,
        seed=seed,
        max_time=max_time,
        transport=transport,
        bandwidth_overrides=attack.bandwidth_overrides(),
        client_workload=default_client_workload(
            population, cohort_count=cohort_count, mirror_count=mirror_count
        ),
    )


def run_figure13(
    populations: Sequence[int] = DEFAULT_POPULATIONS,
    protocols: Sequence[str] = PROTOCOL_NAMES,
    cohort_count: Optional[int] = None,
    mirror_count: int = DEFAULT_MIRROR_COUNT,
    relay_count: int = 120,
    seed: int = 7,
    max_time: float = 1800.0,
    transport: str = "fair",
    executor: Optional[SweepExecutor] = None,
) -> List[Figure13Cell]:
    """Run the (population × protocol) grid through the sweep executor.

    ``cohort_count`` of None applies the per-population default
    (:func:`cohort_count_for`: 32, or 1000 at the extreme population).
    ``transport`` selects the link model — ``"tcp"`` runs the recovery curve
    under real congestion control.
    """
    ensure(len(populations) > 0, "need at least one population")
    ensure(len(protocols) > 0, "need at least one protocol")
    executor = executor or SweepExecutor()
    specs = [
        figure13_spec(
            protocol,
            population,
            cohort_count=(
                cohort_count if cohort_count is not None else cohort_count_for(population)
            ),
            mirror_count=mirror_count,
            relay_count=relay_count,
            seed=seed,
            max_time=max_time,
            transport=transport,
        )
        for population in populations
        for protocol in protocols
    ]
    summaries = executor.run_summaries(specs)
    return [_cell(spec, summary) for spec, summary in zip(specs, summaries)]


def _cell(spec: RunSpec, summary: Dict[str, Any]) -> Figure13Cell:
    """One grid cell from a run's spec and its summary."""
    workload = spec.client_workload
    clients = summary["clients"]
    return Figure13Cell(
        protocol=spec.protocol,
        population=workload.population,
        cohort_count=workload.cohort_count,
        mirror_count=workload.mirror_count,
        run_success=summary["success"],
        fresh_fraction=clients["fresh_fraction"],
        fetch_success_rate=clients["fetch_success_rate"],
        time_to_fresh_p50_s=clients["time_to_fresh_p50_s"],
        time_to_fresh_p99_s=clients["time_to_fresh_p99_s"],
        mean_staleness_s=clients["mean_staleness_s"],
        first_publish_time_s=clients["first_publish_time_s"],
        fetch_attempts=clients["fetch_attempts"],
        virtual_end_s=summary["end_time"],
        transport=spec.transport,
    )


def render_figure13(cells: Sequence[Figure13Cell]) -> str:
    """Render the client-recovery table (one row per protocol × population)."""
    rows = []
    for cell in cells:
        rows.append(
            (
                "{:,}".format(cell.population),
                cell.protocol,
                cell.transport,
                "ok" if cell.run_success else "FAIL",
                "%.1f%%" % (100.0 * cell.fresh_fraction),
                "%.0f s" % cell.time_to_fresh_p50_s
                if cell.time_to_fresh_p50_s is not None
                else "never",
                "%.0f s" % cell.time_to_fresh_p99_s
                if cell.time_to_fresh_p99_s is not None
                else "never",
                "%.0f s" % cell.mean_staleness_s,
                "%.1f%%" % (100.0 * cell.fetch_success_rate)
                if cell.fetch_success_rate is not None
                else "n/a",
            )
        )
    return format_table(
        [
            "Clients",
            "Protocol",
            "Transport",
            "Consensus",
            "Fresh at end",
            "p50 fresh",
            "p99 fresh",
            "Staleness",
            "Fetch ok",
        ],
        rows,
        title="Figure 13: client recovery under the 5-minute DDoS on 5 authorities",
    )


def write_bench_json(
    cells: Sequence[Figure13Cell], path: Union[str, Path] = "BENCH_clients.json"
) -> Path:
    """Write the grid's cells to ``path`` (simulated fields only)."""
    path = Path(path)
    payload = {"cells": [asdict(cell) for cell in cells]}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: run the grid, print the table, emit the JSON."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_clients.json", help="output path for the JSON payload"
    )
    parser.add_argument(
        "--populations",
        type=int,
        nargs="+",
        default=None,
        help="override the population grid",
    )
    parser.add_argument(
        "--no-extreme",
        action="store_true",
        help="skip the 100M-client/1000-cohort row",
    )
    parser.add_argument(
        "--transport",
        default=None,
        help="run the grid on one link model only (default: the fair grid "
        "plus a full tcp grid)",
    )
    args = parser.parse_args(argv)
    extreme = not args.no_extreme
    if args.populations is not None:
        populations: Sequence[int] = tuple(args.populations)
        extreme = False
    else:
        populations = DEFAULT_POPULATIONS

    def progress(index: int, spec: RunSpec, summary: Dict[str, Any], cached: bool) -> None:
        # A 12-cell grid with 10M clients is not instant, and silence reads
        # as a hang.
        print(
            "cell done: %s @ %s clients transport=%s — fresh %.1f%%"
            % (
                spec.protocol,
                "{:,}".format(spec.client_workload.population),
                spec.transport,
                100.0 * summary["clients"]["fresh_fraction"],
            )
        )

    executor = SweepExecutor(on_result=progress)

    if args.transport is not None:
        cells = run_figure13(
            populations=populations, transport=args.transport, executor=executor
        )
        extreme = False
    else:
        cells = run_figure13(populations=populations, executor=executor)
        # The realistic-transport grid: the same populations under tcp
        # congestion control — the curve DESIGN-transport.md documents.
        cells += run_figure13(populations=populations, transport="tcp", executor=executor)
    if extreme:
        cells += run_figure13(populations=(EXTREME_POPULATION,), executor=executor)
    print(render_figure13(cells))
    out = write_bench_json(cells, args.out)
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
