"""Profiling harness for the transport hot path.

Future perf PRs should start from data, not vibes: this script cProfiles a
single scaling-sweep cell (default: the headline ``fair`` run at 90
authorities) and dumps the top-N functions by cumulative
time.  It is how the lazy-advance PR found, for example, that vote
re-serialisation — not the scheduler — had become the next bottleneck once
rate recomputation was incremental.

Usage::

    PYTHONPATH=src python benchmarks/profile_scaling.py
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 30 --transport fifo --sort tottime --top 40
    PYTHONPATH=src python benchmarks/profile_scaling.py --out cell.prof
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 9 --clients 1000000 --cohorts 32
    PYTHONPATH=src python benchmarks/profile_scaling.py \\
        --authorities 120 --phases

``--out`` writes the raw pstats dump for ``snakeviz``/``pstats`` digging;
without it the report just prints.  The cell always executes in-process and
uncached, so the profile measures simulation cost only.  ``--clients``
attaches a consensus-distribution workload (``--cohorts`` cohorts, the
Figure 13 defaults otherwise), making the client layer profilable exactly
like the transport.  ``--phases`` skips the profiler and prints the run's
phase buckets instead.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
from typing import Optional, Sequence

from repro.protocols.runner import execute_spec, scenario_cache_info
from repro.runtime.spec import RunSpec
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
    profiler.enable()
    result = execute_spec(spec)
    profiler.disable()
    print(
        "cell: %s@%d transport=%s success=%s messages=%d"
        % (protocol, authorities, transport, result.success, result.stats.messages_sent)
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


def phase_cell(
    authorities: int = 90,
    transport: str = "fair",
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
    result, buckets, wall_s = phases.profile(execute_spec, spec)
    print(
        "cell: %s@%d transport=%s success=%s messages=%d wall=%.2fs"
        % (
            protocol,
            authorities,
            transport,
            result.success,
            result.stats.messages_sent,
            wall_s,
        )
    )
    # The layer number behind the transport bucket: heap events are the
    # engine's unit of work, so events/message says whether a transport
    # change did less work or the same work faster.
    counters = result.engine_counters
    messages = max(result.stats.messages_sent, 1)
    print(
        "events: %d executed, %.2f per message (%d compactions)"
        % (counters["executed"], counters["executed"] / messages, counters["compactions"])
    )
    # The shared scheduler's own work per message (zero on latency-only,
    # whose transfers are planned at admission): what a rate-pass, tcp-tick
    # or departure-walk change moves.
    print(
        "scheduler: %.2f flows rated, %.2f wakes, %.2f departure scans per message"
        % tuple(
            counters.get(name, 0) / messages
            for name in ("flows_rated", "wakes", "departure_scans")
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

    if args.phases:
        phase_cell(
            authorities=args.authorities,
            transport=args.transport,
            protocol=args.protocol,
            clients=args.clients,
            cohorts=args.cohorts,
        )
        return 0

    profiler = profile_cell(
        authorities=args.authorities,
        transport=args.transport,
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
