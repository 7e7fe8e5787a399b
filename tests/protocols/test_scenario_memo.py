"""The scenario-ingredient memo: sharing must be invisible and bounded.

``build_scenario`` takes its seed-determined ingredients (authorities + key
ring, relay population, per-authority view entries, wrapped votes, topology)
from a process-global memo.  These tests pin the four things that make that
safe: a warm process computes byte-identical summaries to a cold one, no run
mutates what it shares, each ingredient is generated once per key (counted,
not timed), and the memo is bounded.
"""

import hashlib
import json
from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.latency import latency_sweep_spec
from repro.attack.ddos import DDoSAttackPlan
from repro.experiments.figure12_faults import default_fault_mixes, figure12_sweep
from repro.faults.plan import EMPTY_FAULT_PLAN, FaultPlan
from repro.protocols import runner
from repro.protocols.runner import (
    build_scenario,
    execute_spec,
    run_protocol,
    scenario_cache_info,
    scenario_from_spec,
)
from repro.runtime import PROTOCOL_NAMES, RunSpec, SweepExecutor, clear_process_caches

BYZANTINE = FaultPlan.byzantine(0, "equivocate").merged(FaultPlan.byzantine(1, "withhold"))
FLOOD = DDoSAttackPlan(
    target_authority_ids=tuple(range(5)),
    start=0.0,
    duration=300.0,
    residual_bandwidth_mbps=0.05,
    baseline_bandwidth_mbps=250.0,
)

#: Specs that all draw on one population and one set of view entries, but
#: differ in everything layered on top: protocol, fault mix (Figure 12's,
#: including equivocate/withhold), attack overrides, padding, bandwidth.
POOL = tuple(
    RunSpec(
        protocol=protocol,
        relay_count=relay_count,
        bandwidth_mbps=bandwidth,
        content_relay_cap=30,
        max_time=1500.0,
        transport=transport,
        fault_plan=plan,
        bandwidth_overrides=overrides,
    )
    for protocol in PROTOCOL_NAMES
    for plan, transport in [(EMPTY_FAULT_PLAN, "fair"), (BYZANTINE, "fair")]
    + [(mix.plan, mix.transport) for mix in default_fault_mixes()[:2]]
    for overrides in ((), FLOOD.bandwidth_overrides())
    for relay_count, bandwidth in ((400, 250.0), (1000, 250.0), (1000, 20.0))
)

_COLD: dict = {}


def _canonical(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def _cold_summary(spec: RunSpec) -> str:
    """``spec``'s summary from a process with nothing cached (computed once)."""
    if spec not in _COLD:
        clear_process_caches()
        _COLD[spec] = _canonical(execute_spec(spec).summary())
    return _COLD[spec]


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(st.sampled_from(POOL), min_size=2, max_size=6))
def test_warm_equals_cold(specs):
    """Any order of specs sharing ingredients == each spec run from scratch."""
    cold = [_cold_summary(spec) for spec in specs]
    clear_process_caches()
    warm = [_canonical(execute_spec(spec).summary()) for spec in specs]
    assert warm == cold
    # The list really did share: one population however many specs ran.
    assert scenario_cache_info()["population"]["misses"] == 1


def _rebuilt_text(vote) -> str:
    """The vote's serialisation recomputed from its fields, ignoring memos."""
    fresh = replace(vote, relays={fp: replace(r) for fp, r in vote.relays.items()})
    return "%s|%d|%r" % (fresh.serialize(), fresh.size_bytes, vote.padded_relay_count)


def _shared_state_digest(scenario, population=None) -> str:
    """Digest of everything a scenario shares with its siblings, from fields."""
    digest = hashlib.sha256()
    for votes in (scenario.votes, scenario.alternate_votes):
        for authority_id in sorted(votes):
            digest.update(_rebuilt_text(votes[authority_id]).encode("utf-8"))
    for relay in population.relays if population is not None else ():
        digest.update(replace(relay).serialize().encode("utf-8"))
    ring = scenario.ring
    digest.update(repr([(owner, ring.get(owner)) for owner in ring.owners()]).encode("utf-8"))
    digest.update(repr(scenario.authorities).encode("utf-8"))
    digest.update(repr(sorted(scenario.topology.latency_seconds.items())).encode("utf-8"))
    digest.update(repr(sorted(scenario.topology.bandwidth_mbps.items())).encode("utf-8"))
    return digest.hexdigest()


def test_no_run_mutates_what_it_shares(monkeypatch):
    populations = []
    generate = runner.generate_population

    def capturing(config):
        populations.append(generate(config))
        return populations[-1]

    monkeypatch.setattr(runner, "generate_population", capturing)
    clear_process_caches()
    scenario = build_scenario(
        relay_count=600, seed=13, content_relay_cap=40, fault_plan=BYZANTINE
    )
    assert scenario.alternate_votes, "the plan's equivocator presents a second vote"
    (population,) = populations
    before = _shared_state_digest(scenario, population)
    for protocol in PROTOCOL_NAMES:
        run_protocol(protocol, scenario, max_time=1500.0)
        assert _shared_state_digest(scenario, population) == before, protocol
        # A sibling scenario sees the very same (unchanged) objects.
        sibling = build_scenario(
            relay_count=600, seed=13, content_relay_cap=40, fault_plan=BYZANTINE
        )
        assert sibling.votes is not scenario.votes
        assert all(sibling.votes[k] is scenario.votes[k] for k in scenario.votes)
        assert _shared_state_digest(sibling, population) == before, protocol
    assert len(populations) == 1


def _smoke_grid(seed: int):
    """Figures 10 + 11 + 12 at smoke sizes (the shape ``paper_grid`` has)."""
    specs = list(
        latency_sweep_spec(
            bandwidths_mbps=(50.0, 10.0), relay_counts=(1000, 2800, 4600), seed=seed
        ).runs
    )
    for relay_count in (1000, 4000):
        for protocol in PROTOCOL_NAMES:
            specs.append(
                RunSpec(
                    protocol=protocol,
                    relay_count=relay_count,
                    seed=seed,
                    bandwidth_overrides=FLOOD.bandwidth_overrides(),
                )
            )
    mixes = default_fault_mixes()
    specs += list(figure12_sweep((mixes[0], mixes[-1]), seed=seed)[0].runs)
    return specs


def test_each_ingredient_is_generated_once_per_key(monkeypatch):
    calls = {}

    def counting(name):
        real = getattr(runner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, name, wrapper)

    for name in (
        "make_authorities",
        "generate_population",
        "generate_authority_view_entries",
        "generate_topology",
    ):
        counting(name)
    clear_process_caches()
    specs = _smoke_grid(seed=11)
    assert any(spec.fault_plan.byzantine_authority_ids("equivocate") for spec in specs)
    for spec in specs:
        scenario_from_spec(spec)
    assert calls == {
        "make_authorities": 1,
        "generate_population": 1,
        # The authorities' views, and the equivocator's alternate view seed.
        "generate_authority_view_entries": 2,
        "generate_topology": len({spec.bandwidth_mbps for spec in specs}),
    }
    info = scenario_cache_info()
    assert info["population"]["misses"] == 1
    assert info["view_entries"]["misses"] == 2
    assert info["authorities"] == {"hits": len(specs) - 1, "misses": 1, "size": 1}


def test_memo_is_bounded_and_evicts_oldest_first():
    bound = runner._SCENARIO_MEMO_MAX
    clear_process_caches()

    def build(seed):
        return build_scenario(
            relay_count=50, authority_count=4, seed=seed, content_relay_cap=20
        )

    first = _shared_state_digest(build(0))
    for seed in range(1, bound + 1):
        build(seed)
    info = scenario_cache_info()
    assert {layer["size"] for layer in info.values()} == {bound}
    assert {layer["misses"] for layer in info.values()} == {bound + 1}

    # Seed 1 is now the oldest survivor: still a hit.  Seed 0 was evicted:
    # it is rebuilt — equal to what it was — at the cost of one miss.
    build(1)
    assert scenario_cache_info()["view_entries"]["misses"] == bound + 1
    assert _shared_state_digest(build(0)) == first
    info = scenario_cache_info()
    assert {layer["misses"] for layer in info.values()} == {bound + 2}
    assert {layer["size"] for layer in info.values()} == {bound}

    clear_process_caches()
    assert all(
        layer == {"hits": 0, "misses": 0, "size": 0}
        for layer in scenario_cache_info().values()
    )


def test_serial_equals_two_workers_with_a_warm_parent():
    specs = [spec for spec in POOL if spec.relay_count == 1000][:12]
    cold = [_cold_summary(spec) for spec in specs]
    clear_process_caches()
    serial = SweepExecutor(workers=1).run_summaries(specs)
    assert scenario_cache_info()["votes"]["hits"] > 0, "the parent is warm"
    parallel = SweepExecutor(workers=2).run_summaries(specs)
    assert serial == parallel
    assert [_canonical(summary) for summary in serial] == cold
