"""Layer microbenchmarks: one layer's public functions on synthetic input.

Each benchmark builds seeded input, times calls into one layer and checks
its own output (delivered == sent, every node decided, …).  A rate is the
median over ``passes`` passes, each repeating the call until ``pass_seconds``
have been measured.  Set-up that a call needs afresh (un-memoised objects,
a cleared cache) runs outside the clock.

Which end-to-end number each of these should move is tabulated in
``perfbench/README.md``; none of them is gated.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.clients.sampling import batch_gaussian_binomial, gaussian_binomial
from repro.consensus import EngineConfig, LocalDriver, make_engine
from repro.crypto import KeyPair, KeyRing, sha256_digest, sign, verify
from repro.directory.aggregate import aggregate_votes, clear_aggregation_caches
from repro.directory.authority import make_authorities
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.netgen.relaygen import RelayPopulationConfig, generate_population
from repro.netgen.topology_gen import generate_topology
from repro.netgen.views import AuthorityViewConfig, generate_authority_votes
from repro.runtime import ResultCache, SweepExecutor, execute_spec_summary
from repro.simnet import (
    BandwidthSchedule,
    LinkConfig,
    Message,
    ProtocolNode,
    SimNetwork,
    Simulator,
)
from repro.simnet.vector_sched import vector_available

from perfbench import OUT_DIR
from perfbench.workloads import paper_grid


class MicroCheckError(Exception):
    """A microbenchmark's output was wrong."""


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise MicroCheckError(what)


class Timer:
    """Turns a callable into a rate (operations per second)."""

    def __init__(self, passes: int, pass_seconds: float) -> None:
        self.passes = passes
        self.pass_seconds = pass_seconds

    def rate(
        self,
        call: Callable[[Any], float],
        setup: Optional[Callable[[], Any]] = None,
    ) -> float:
        """Median ops/s of ``call(state)``, which returns the ops it did.

        ``setup()`` builds a fresh ``state`` for every call, off the clock.
        """
        rates = []
        for _ in range(self.passes):
            operations = 0.0
            elapsed = 0.0
            while elapsed < self.pass_seconds:
                state = setup() if setup is not None else None
                started = perf_counter()
                operations += call(state)
                elapsed += perf_counter() - started
            rates.append(operations / elapsed)
        return statistics.median(rates)


# -- simnet.engine ------------------------------------------------------------

def bench_engine(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """``Simulator`` schedule + drain, micro-batched, and half cancelled."""
    events = 20_000 if quick else 200_000
    rng = random.Random(seed)
    times = [rng.uniform(0.0, 1000.0) for _ in range(events)]

    def plain(_state) -> float:
        simulator = Simulator()
        fired = [0]

        def callback() -> None:
            fired[0] += 1

        for time in times:
            simulator.schedule(time, callback)
        simulator.run()
        _expect(fired[0] == events, "engine: %d of %d events fired" % (fired[0], events))
        return events

    def batched(_state) -> float:
        # 10 items per (instant, key) slot, as a broadcast wave produces.
        simulator = Simulator()
        drained = [0]

        def drain(items: List[int]) -> None:
            drained[0] += len(items)

        slots = events // 10
        for index in range(events):
            slot = index % slots
            simulator.schedule_batch(float(slot // 10), slot % 10, drain, index)
        simulator.run()
        _expect(drained[0] == events, "engine: %d of %d items drained" % (drained[0], events))
        return events

    def cancelling(_state) -> float:
        simulator = Simulator()
        fired = [0]

        def callback() -> None:
            fired[0] += 1

        handles = [simulator.schedule(time, callback) for time in times]
        for handle in handles[::2]:
            simulator.cancel(handle)
        simulator.run()
        _expect(fired[0] == events // 2, "engine: %d events survived cancel" % fired[0])
        return events

    return {
        "micro.simnet.engine.events_per_s": timer.rate(plain),
        "micro.simnet.engine.batch_events_per_s": timer.rate(batched),
        "micro.simnet.engine.cancel_events_per_s": timer.rate(cancelling),
    }


# -- simnet.flows -------------------------------------------------------------

class _Sink(ProtocolNode):
    def on_message(self, message, now):
        pass


def _wave(
    seed: int,
    transport: str,
    nodes: int,
    engine: Optional[str] = None,
    windowed: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Callable[[Any], float]:
    """An all-pairs broadcast wave between ``nodes`` sink nodes."""
    rng = random.Random(seed)
    names = ["node-%d" % index for index in range(nodes)]
    sizes = [rng.randrange(20_000, 200_000) for _ in names]
    latencies = {
        (a, b): rng.uniform(0.02, 0.12)
        for i, a in enumerate(names)
        for b in names[i + 1:]
    }
    plain = BandwidthSchedule.constant_mbps(100.0)
    # Every other node is flooded to 1 Mbit/s while the wave is in flight.
    attacked = plain.with_window_mbps(0.1, 2.0, 1.0)

    def call(_state) -> float:
        network = SimNetwork(transport=transport, shared_engine=engine)
        for index, name in enumerate(names):
            schedule = attacked if windowed and index % 2 == 0 else plain
            network.add_node(_Sink(name), LinkConfig.symmetric(schedule))
        for (a, b), latency in latencies.items():
            network.set_latency(a, b, latency)
        if fault_plan is not None:
            FaultInjector(fault_plan, seed, dict(enumerate(names))).install(network)
        for name, size in zip(names, sizes):
            network.send_many(
                name,
                [other for other in names if other != name],
                Message("BLOB", size_bytes=size),
            )
        network.run()
        stats = network.stats
        _expect(
            stats.messages_delivered + stats.messages_dropped == stats.messages_sent
            and stats.messages_sent == nodes * (nodes - 1)
            and (fault_plan is not None or stats.messages_dropped == 0),
            "%s wave: sent %d delivered %d dropped %d"
            % (transport, stats.messages_sent, stats.messages_delivered, stats.messages_dropped),
        )
        return stats.messages_sent

    return call


def _weighted_wave(seed: int, servers: int, cohorts: int) -> Callable[[Any], float]:
    """Servers pushing weighted flows to per-client aggregate endpoints."""
    rng = random.Random(seed)
    server_names = ["mirror-%d" % index for index in range(servers)]
    cohort_names = ["cohort-%d" % index for index in range(cohorts)]
    weights = {
        (server, cohort): rng.randrange(1, 500)
        for server in server_names
        for cohort in cohort_names
    }

    def call(_state) -> float:
        network = SimNetwork(transport="fair")
        for name in server_names:
            network.add_node(_Sink(name), LinkConfig.symmetric_mbps(250.0))
        for name in cohort_names:
            network.add_node(_Sink(name), LinkConfig.per_client(5.0, 20.0))
        for (server, cohort), weight in weights.items():
            network.send(
                server, cohort, Message("CONSENSUS", size_bytes=50_000 * weight), weight=weight
            )
        network.run()
        stats = network.stats
        _expect(
            stats.messages_delivered == stats.messages_sent == sum(weights.values()),
            "weighted wave: sent %d delivered %d" % (stats.messages_sent, stats.messages_delivered),
        )
        return len(weights)

    return call


def bench_flows(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """Flow admit/complete per link model, default engine and vector."""
    nodes = 12 if quick else 40
    results = {
        "micro.simnet.flows.%s.flows_per_s" % transport: timer.rate(_wave(seed, transport, nodes))
        for transport in ("latency-only", "fair", "fifo", "tcp")
    }
    results["micro.simnet.flows.fair-weighted.flows_per_s"] = timer.rate(
        _weighted_wave(seed, servers=4 if quick else 8, cohorts=8 if quick else 32)
    )
    results["micro.simnet.flows.fair-windowed.flows_per_s"] = timer.rate(
        _wave(seed, "fair", nodes, windowed=True)
    )
    if vector_available():
        # Without numpy a vector request silently runs the lazy engine, which
        # the plain wave above already measures: skip it, not a duplicate.
        for transport in ("fair", "tcp"):
            results["micro.simnet.flows.%s-vector.flows_per_s" % transport] = timer.rate(
                _wave(seed, transport, nodes, engine="vector")
            )
    return results


def bench_faults(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """The fair wave with a drop+jitter plan on every other node."""
    nodes = 12 if quick else 40
    plan = FaultPlan.lossy_links(tuple(range(0, nodes, 2)), 0.05, jitter_s=0.05)
    return {
        "micro.faults.injected_flows_per_s": timer.rate(
            _wave(seed, "fair", nodes, fault_plan=plan)
        )
    }


# -- crypto ---------------------------------------------------------------------

def bench_crypto(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """HMAC sign and verify (un-memoised signatures), SHA-256 throughput."""
    count = 200 if quick else 2000
    pair = KeyPair.generate("auth-0", seed=seed.to_bytes(8, "big"))
    ring = KeyRing([pair])
    messages = ["document-%d-%d" % (seed, index) for index in range(count)]
    blob = random.Random(seed).randbytes(1 << 20)

    def signing(_state) -> float:
        signatures = [sign(pair, "perfbench", message) for message in messages]
        _expect(len({s.tag for s in signatures}) == count, "crypto: signature tags collide")
        return count

    def fresh_signatures():
        # verify() memoises its verdict on the instance: time new instances.
        return [sign(pair, "perfbench", message) for message in messages]

    def verifying(signatures) -> float:
        _expect(all(verify(ring, s) for s in signatures), "crypto: a signature failed")
        return count

    def digesting(_state) -> float:
        _expect(len(sha256_digest(blob)) == 32, "crypto: digest length")
        return len(blob) / 1e6

    return {
        "micro.crypto.sign_per_s": timer.rate(signing),
        "micro.crypto.verify_per_s": timer.rate(verifying, setup=fresh_signatures),
        "micro.crypto.digest_mb_per_s": timer.rate(digesting),
    }


# -- directory, netgen ------------------------------------------------------------

def _votes(seed: int, relays: int):
    authorities, _ring = make_authorities(9, seed=seed)
    population = generate_population(RelayPopulationConfig(relay_count=relays, seed=seed))
    votes = generate_authority_votes(
        population, authorities, config=AuthorityViewConfig(seed=seed)
    )
    return authorities, population, list(votes.values())


def bench_directory(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """Vote serialisation and aggregation, memo missed and memo hit."""
    relays = 60 if quick else 300
    _authorities, _population, votes = _votes(seed, relays)

    def unserialised():
        # Votes and their relay entries memoise their text on the instance:
        # only newly generated votes serialise anything.
        return _votes(seed, relays)[2]

    def serialising(fresh) -> float:
        _expect(all(vote.size_bytes > 0 for vote in fresh), "directory: empty vote")
        return len(fresh)

    def aggregating(_state) -> float:
        _expect(aggregate_votes(votes).relay_count > 0, "directory: empty consensus")
        return 1

    miss = timer.rate(aggregating, setup=clear_aggregation_caches)
    aggregate_votes(votes)  # warm the relay-map memo for the hit rate
    return {
        "micro.directory.vote_serialize_per_s": timer.rate(serialising, setup=unserialised),
        "micro.directory.aggregate_miss_per_s": miss,
        "micro.directory.aggregate_hit_per_s": timer.rate(aggregating),
    }


def bench_netgen(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """Relay population, per-authority views, authority topology."""
    relays = 60 if quick else 300
    authorities, population, _votes_unused = _votes(seed, relays)
    many, _ring = make_authorities(20 if quick else 90, seed=seed)

    def populating(_state) -> float:
        made = generate_population(RelayPopulationConfig(relay_count=relays, seed=seed))
        _expect(made.relay_count == relays, "netgen: population size")
        return relays

    def viewing(_state) -> float:
        votes = generate_authority_votes(
            population, authorities, config=AuthorityViewConfig(seed=seed)
        )
        _expect(len(votes) == len(authorities), "netgen: one vote per authority")
        return len(votes)

    def wiring(_state) -> float:
        topology = generate_topology(many, seed=seed)
        _expect(
            len(topology.latency_seconds) == len(many) * (len(many) - 1) // 2,
            "netgen: one latency per pair",
        )
        return 1

    return {
        "micro.netgen.population_relays_per_s": timer.rate(populating),
        "micro.netgen.authority_votes_per_s": timer.rate(viewing),
        "micro.netgen.topology_per_s": timer.rate(wiring),
    }


# -- consensus --------------------------------------------------------------------

def bench_consensus(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """One single-shot instance per BFT engine on the ``LocalDriver``."""
    nodes = tuple("n%d" % index for index in range(10 if quick else 31))
    value = "value-%d" % seed

    def single_shot(engine: str) -> Callable[[Any], float]:
        def call(_state) -> float:
            driver = LocalDriver(
                {
                    name: make_engine(engine, EngineConfig(node_id=name, nodes=nodes))
                    for name in nodes
                }
            )
            driver.start({name: value for name in nodes})
            result = driver.run(until=100)
            _expect(
                len(result.decisions) == len(nodes) and result.all_agree(),
                "%s: %d of %d decided" % (engine, len(result.decisions), len(nodes)),
            )
            return len(result.decisions)

        return call

    return {
        "micro.consensus.%s.decisions_per_s" % engine: timer.rate(single_shot(engine))
        for engine in ("hotstuff", "pbft", "tendermint")
    }


# -- clients ----------------------------------------------------------------------

def bench_clients(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """Cohort wave draws: one numpy batch against the scalar loop."""
    rng = random.Random(seed)
    cohorts = 1000
    eligible = [rng.randrange(1_000, 1_000_000) for _ in range(cohorts)]
    probability = [rng.uniform(0.001, 0.2) for _ in range(cohorts)]
    z = [rng.gauss(0.0, 1.0) for _ in range(cohorts)]
    scalar_draws = [gaussian_binomial(n, p, zz) for n, p, zz in zip(eligible, probability, z)]

    def scalar(_state) -> float:
        draws = [gaussian_binomial(n, p, zz) for n, p, zz in zip(eligible, probability, z)]
        _expect(draws == scalar_draws, "clients: scalar draws changed")
        return cohorts

    def batch(_state) -> float:
        draws = batch_gaussian_binomial(eligible, probability, z)
        _expect(list(draws) == scalar_draws, "clients: batch draws differ from scalar")
        return cohorts

    results = {"micro.clients.sampling.scalar_draws_per_s": timer.rate(scalar)}
    # Without numpy the batch path does not exist (callers use the loop).
    if vector_available():
        results["micro.clients.sampling.batch_draws_per_s"] = timer.rate(batch)
    return results


# -- runtime ----------------------------------------------------------------------

def bench_runtime(seed: int, timer: Timer, quick: bool) -> Dict[str, float]:
    """Spec hashing, cache write/read, and the warm sweep ``paper_grid`` reads.

    The cached summary is one real run's, stored under every spec: the cache
    and the executor never look inside it, and 100+ real runs would cost
    more than every other microbenchmark together.
    """
    OUT_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="micro-", dir=str(OUT_DIR)))
    try:
        return _bench_runtime(seed, timer, quick, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _bench_runtime(seed: int, timer: Timer, quick: bool, scratch: Path) -> Dict[str, float]:
    specs = paper_grid(seed, smoke=quick)
    summary = execute_spec_summary(specs[0])
    warm = ResultCache(scratch / "warm")
    for spec in specs:
        warm.put(spec, summary)

    def hashing(_state) -> float:
        _expect(len({spec.spec_hash() for spec in specs}) == len(specs), "runtime: hash clash")
        return len(specs)

    def empty_cache() -> ResultCache:
        shutil.rmtree(scratch / "cold", ignore_errors=True)
        return ResultCache(scratch / "cold")

    def putting(cache: ResultCache) -> float:
        for spec in specs:
            cache.put(spec, summary)
        _expect(len(cache) == len(specs), "runtime: cache holds %d entries" % len(cache))
        return len(specs)

    def hitting(_state) -> float:
        _expect(all(warm.get(spec) == summary for spec in specs), "runtime: cache miss")
        return len(specs)

    def sweeping(_state) -> float:
        executor = SweepExecutor(workers=1, cache=warm)
        results = executor.run(specs)
        _expect(
            executor.executed_runs == 0 and len(results) == len(specs),
            "runtime: warm sweep executed %d runs" % executor.executed_runs,
        )
        return len(specs)

    return {
        "micro.runtime.spec_hash_per_s": timer.rate(hashing),
        "micro.runtime.cache_put_per_s": timer.rate(putting, setup=empty_cache),
        "micro.runtime.cache_hit_per_s": timer.rate(hitting),
        "micro.runtime.warm_sweep_specs_per_s": timer.rate(sweeping),
    }


#: Every microbenchmark, in reporting order.  ``BENCHMARK.json`` declares the
#: metric names they return; the smoke test holds the two together.
BENCHES: Tuple[Callable[[int, Timer, bool], Dict[str, float]], ...] = (
    bench_engine,
    bench_flows,
    bench_faults,
    bench_crypto,
    bench_directory,
    bench_netgen,
    bench_consensus,
    bench_clients,
    bench_runtime,
)


#: Rates of code paths that exist only with numpy.  Without it they are
#: skipped: left out of ``metrics`` and named under ``skipped``.
NEEDS_NUMPY = (
    "micro.simnet.flows.fair-vector.flows_per_s",
    "micro.simnet.flows.tcp-vector.flows_per_s",
    "micro.clients.sampling.batch_draws_per_s",
)


def run_micro(seed: int, passes: int, pass_seconds: float, quick: bool) -> Dict[str, Any]:
    """Run every microbenchmark; a failing one reports no metrics.

    Returns ``{"metrics": {...}, "skipped": [names], "attempted": benches
    run, "failures": [[bench, traceback], ...]}``.
    """
    timer = Timer(passes, pass_seconds)
    metrics: Dict[str, float] = {}
    failures: List[List[str]] = []
    for bench in BENCHES:
        try:
            metrics.update(bench(seed, timer, quick))
        except Exception:  # boundary: one broken layer must not hide the others
            failures.append([bench.__name__, traceback.format_exc()])
    return {
        "metrics": metrics,
        "skipped": [] if vector_available() else list(NEEDS_NUMPY),
        "attempted": len(BENCHES),
        "failures": failures,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the micro child: prints one JSON object."""
    parser = argparse.ArgumentParser(prog="perfbench micro-child")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--pass-seconds", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run_micro(args.seed, args.passes, args.pass_seconds, args.quick)))
    return 0
