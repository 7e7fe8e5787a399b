"""Profiling harness for the transport hot path.

Future perf PRs should start from data, not vibes: this script cProfiles a
single scaling-sweep cell (default: the headline ``fair`` run at 90
authorities on the lazy engine) and dumps the top-N functions by cumulative
time.  It is how the lazy-advance PR found, for example, that vote
re-serialisation — not the scheduler — had become the next bottleneck once
rate recomputation was incremental.

Usage::

    PYTHONPATH=src python benchmarks/profile_scaling.py
    PYTHONPATH=src python benchmarks/profile_scaling.py --engine vector
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 30 --transport fifo --sort tottime --top 40
    PYTHONPATH=src python benchmarks/profile_scaling.py --out cell.prof
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 9 --clients 1000000 --cohorts 32
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 120 --compare
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 120 --transport tcp --engine vector
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 120 --transport tcp --compare --repeats 5
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 120 --phases

``--out`` writes the raw pstats dump for ``snakeviz``/``pstats`` digging;
without it the report just prints.  The cell always executes in-process and
uncached, so the profile measures simulation cost only.  ``--clients``
attaches a consensus-distribution workload (``--cohorts`` cohorts, the
Figure 13 defaults otherwise), making the client layer profilable exactly
like the transport.  ``--compare`` skips the profiler and instead times the
same cell on each engine (lazy and vector), printing a scalar-vs-vector
speedup table (the quick sanity check before trusting a profile's relative
numbers); with ``--transport tcp`` the vector row runs the tcp vector
policy, so the table prices cohort ack ticks directly.  The scenario is
built once before the first timed run, so no row pays the cold build the
others get from the process memo; ``--repeats N`` times every engine N
times, alternating which goes first, and prints medians with min–max.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro.protocols.runner import execute_spec, scenario_cache_info, scenario_from_spec
from repro.runtime.spec import RunSpec
from repro.simnet.flows import (
    SHARED_ENGINES,
    effective_shared_engine,
    use_shared_engine,
)
from repro.utils import phases

#: Default cohort count for --clients (the Figure 13 grid's).
DEFAULT_COHORTS = 32


def _cell_spec(
    authorities: int,
    transport: str,
    protocol: str,
    relay_count: int,
    seed: int,
    max_time: float,
    clients: int,
    cohorts: int,
) -> RunSpec:
    workload = None
    if clients:
        # Imported lazily: client-free transport profiling must not depend
        # on the experiments package.
        from repro.experiments.figure13_clients import default_client_workload

        workload = default_client_workload(clients, cohort_count=cohorts)
    return RunSpec(
        protocol=protocol,
        relay_count=relay_count,
        bandwidth_mbps=250.0,
        seed=seed,
        transport=transport,
        authority_count=authorities,
        max_time=max_time,
        client_workload=workload,
    )


def profile_cell(
    authorities: int = 90,
    transport: str = "fair",
    engine: str = "lazy",
    protocol: str = "current",
    relay_count: int = 200,
    seed: int = 7,
    max_time: float = 600.0,
    clients: int = 0,
    cohorts: int = DEFAULT_COHORTS,
) -> cProfile.Profile:
    """Run one scaling cell under cProfile and return the profiler."""
    spec = _cell_spec(
        authorities, transport, protocol, relay_count, seed, max_time, clients, cohorts
    )
    profiler = cProfile.Profile()
    with use_shared_engine(engine):
        profiler.enable()
        result = execute_spec(spec)
        profiler.disable()
    print(
        "cell: %s@%d transport=%s engine=%s success=%s messages=%d"
        % (protocol, authorities, transport, engine, result.success, result.stats.messages_sent)
    )
    if result.client_summary:
        print(
            "clients: %d in %d cohorts — fresh %.1f%%, %d fetch attempts"
            % (
                result.client_summary["population"],
                result.client_summary["cohorts"],
                100.0 * result.client_summary["fresh_fraction"],
                result.client_summary["fetch_attempts"],
            )
        )
    return profiler


def compare_engines(
    authorities: int = 90,
    transport: str = "fair",
    protocol: str = "current",
    relay_count: int = 200,
    seed: int = 7,
    max_time: float = 600.0,
    clients: int = 0,
    cohorts: int = DEFAULT_COHORTS,
    engines: Sequence[str] = SHARED_ENGINES,
    repeats: int = 1,
) -> Dict[str, List[float]]:
    """Time the same cell ``repeats`` times per engine and print a speedup table.

    The baseline row is the lazy engine (the default); each row reports its
    median wall clock with min–max, the lazy/engine ratio of the medians and
    the rate passes and flows rated per message (lazy only: the vector engine
    does not count them).  The engines take turns going first, and the scenario's
    ingredients are built before anything is timed — otherwise the first row
    alone pays the cold build.  On a numpy-less install the ``vector`` row
    runs the lazy fallback and says so.  Returns the wall clocks per engine.
    """
    spec = _cell_spec(
        authorities, transport, protocol, relay_count, seed, max_time, clients, cohorts
    )
    scenario_from_spec(spec)
    walls: Dict[str, List[float]] = {engine: [] for engine in engines}
    rows = {}
    for repeat in range(repeats):
        for engine in engines if repeat % 2 == 0 else reversed(engines):
            with use_shared_engine(engine):
                effective = effective_shared_engine(transport)
                started = time.perf_counter()
                result = execute_spec(spec)
                walls[engine].append(time.perf_counter() - started)
            rows[engine] = (effective, result)
    medians = {engine: statistics.median(times) for engine, times in walls.items()}
    baseline = medians.get("lazy", medians[engines[0]])
    print(
        "engine comparison: %s@%d transport=%s (%d engines, %d repeats, baseline lazy)"
        % (protocol, authorities, transport, len(engines), repeats)
    )
    header = "%-8s %-16s %10s %15s %8s %10s %10s %10s" % (
        "engine", "effective", "median (s)", "min-max (s)", "lazy/x", "messages",
        "passes/msg", "rated/msg",
    )
    print(header)
    print("-" * len(header))
    for engine in engines:
        effective, result = rows[engine]
        messages = result.stats.messages_sent
        per_message = [
            "-" if count is None else "%.2f" % (count / max(messages, 1))
            for count in map(result.engine_counters.get, ("rate_passes", "flows_rated"))
        ]
        print(
            "%-8s %-16s %10.2f %15s %8.2f %10d %10s %10s"
            % (
                engine,
                effective if effective == engine else "%s (fallback)" % effective,
                medians[engine],
                "%.2f-%.2f" % (min(walls[engine]), max(walls[engine])),
                baseline / medians[engine] if medians[engine] else 0.0,
                messages,
                *per_message,
            )
        )
    return walls


def phase_cell(
    authorities: int = 90,
    transport: str = "fair",
    engine: str = "lazy",
    protocol: str = "current",
    relay_count: int = 200,
    seed: int = 7,
    max_time: float = 600.0,
    clients: int = 0,
    cohorts: int = DEFAULT_COHORTS,
) -> dict:
    """Run one cell with phase attribution enabled and print the buckets.

    The phase timers split the run's wall clock into *exclusive* buckets —
    transport (engine loop + flow admission/rate recompute), protocol
    (timer and delivery callbacks), crypto (HMAC sign/verify), client_wave
    (cohort wave ticks) — plus an ``other`` remainder (setup, aggregation,
    summary).  Everything except ``transport`` is the **non-transport
    floor**: the budget a perf regression should be attributed against
    before blaming the flow scheduler.  Returns the bucket dict.
    """
    spec = _cell_spec(
        authorities, transport, protocol, relay_count, seed, max_time, clients, cohorts
    )
    with use_shared_engine(engine):
        result, buckets, wall_s = phases.profile(execute_spec, spec)
    print(
        "cell: %s@%d transport=%s engine=%s success=%s messages=%d wall=%.2fs"
        % (
            protocol,
            authorities,
            transport,
            engine,
            result.success,
            result.stats.messages_sent,
            wall_s,
        )
    )
    # The layer number behind the transport bucket: heap events are the
    # engine's unit of work, so events/message says whether a transport
    # change did less work or the same work faster.
    executed = result.engine_counters["executed"]
    print(
        "events: %d executed, %.2f per message (%d compactions)"
        % (
            executed,
            executed / max(result.stats.messages_sent, 1),
            result.engine_counters["compactions"],
        )
    )
    # Scenario ingredients built vs. taken from the process-wide memo: one
    # cell builds each once; over a loop of specs the builds stay put.
    print(
        "scenario: %s (process-wide, built/reused)"
        % ", ".join(
            "%s %d/%d" % (layer, info["misses"], info["hits"])
            for layer, info in scenario_cache_info().items()
        )
    )
    print("%-12s %10s %7s" % ("phase", "time (s)", "share"))
    print("-" * 31)
    for bucket in (*phases.BUCKETS, "other"):
        spent = buckets.get(bucket, 0.0)
        print(
            "%-12s %10.2f %6.1f%%"
            % (bucket, spent, 100.0 * spent / wall_s if wall_s else 0.0)
        )
    # non_transport_total sums every non-transport entry, "other" included.
    floor = phases.non_transport_total(buckets)
    print("-" * 31)
    print("%-12s %10.2f %6.1f%%" % (
        "floor", floor, 100.0 * floor / wall_s if wall_s else 0.0,
    ))
    return buckets


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--authorities", type=int, default=90)
    parser.add_argument("--transport", default="fair")
    parser.add_argument("--engine", default="lazy", choices=SHARED_ENGINES)
    parser.add_argument("--protocol", default="current")
    parser.add_argument(
        "--clients",
        type=int,
        default=0,
        help="attach a client workload of this population (0: no clients)",
    )
    parser.add_argument(
        "--cohorts",
        type=int,
        default=DEFAULT_COHORTS,
        help="cohort count for --clients",
    )
    parser.add_argument(
        "--compare",
        action="store_true",
        help="time the cell once per engine and print a speedup table "
        "instead of profiling",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="with --compare: timed runs per engine, alternating which engine "
        "goes first (median and min-max are printed)",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="run the cell with phase attribution (transport / protocol / "
        "crypto / client_wave buckets) instead of cProfile",
    )
    parser.add_argument("--top", type=int, default=30, help="functions to print")
    parser.add_argument(
        "--sort", default="cumulative", help="pstats sort key (cumulative, tottime, ...)"
    )
    parser.add_argument("--out", default=None, help="write raw pstats dump here")
    args = parser.parse_args(argv)

    if args.compare:
        compare_engines(
            authorities=args.authorities,
            transport=args.transport,
            protocol=args.protocol,
            clients=args.clients,
            cohorts=args.cohorts,
            repeats=args.repeats,
        )
        return 0

    if args.phases:
        phase_cell(
            authorities=args.authorities,
            transport=args.transport,
            engine=args.engine,
            protocol=args.protocol,
            clients=args.clients,
            cohorts=args.cohorts,
        )
        return 0

    profiler = profile_cell(
        authorities=args.authorities,
        transport=args.transport,
        engine=args.engine,
        protocol=args.protocol,
        clients=args.clients,
        cohorts=args.cohorts,
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI
    raise SystemExit(main())
