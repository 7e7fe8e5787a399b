"""Scenario construction and protocol execution on the network simulator.

The module has two halves, split so run configuration can be reified:

* **Scenario construction** (pure, spec-driven): a :class:`Scenario` bundles
  everything one directory-protocol run needs — authority identities and
  keys, one vote per authority, pairwise latencies, and a bandwidth schedule
  per authority (constant for plain sweeps, windowed for DDoS experiments).
  :func:`build_scenario` assembles one from explicit arguments;
  :func:`scenario_from_spec` is the factory that derives the same thing from
  a frozen :class:`~repro.runtime.spec.RunSpec`, applying its declarative
  bandwidth overrides and fault plan (including pre-generating the
  conflicting votes any equivocating authorities will present).
* **Execution**: :func:`run_protocol` instantiates the requested protocol's
  authority nodes on a fresh simulator, runs it, and returns a
  :class:`~repro.protocols.base.ProtocolRunResult`; :func:`execute_spec` is
  the spec-level composition (``scenario_from_spec`` + ``run_protocol``) that
  :class:`~repro.runtime.executor.SweepExecutor` workers call.

Large sweeps (Figures 7 and 10 go up to 10,000 relays) materialise a capped
sample of relays per vote and use ``padded_relay_count`` so the bandwidth
model still sees full-size documents; see DESIGN-calibration.md for the
calibration discussion.

**Shared ingredients.**  Everything a scenario is made of is a pure function
of a few seed-determined keys, and the specs of a sweep repeat those keys
(the 120 runs behind Figures 10-12 draw on one relay population and one set
of per-authority views), so :func:`build_scenario` takes its ingredients
from a small process-global memo — see :data:`_SCENARIO_MEMO_MAX` for the
layers and the bound.  The contract that makes this sound: a
:class:`Scenario`'s containers (``authorities``, ``votes``,
``alternate_votes``, ``bandwidth_schedules``) are fresh per call and the
caller's to edit, but the objects *in* them — authorities, the key ring, vote
documents and their relay entries, the topology — are shared with other
scenarios of the process and are **read-only**.  Nothing in the library
mutates them (tests/protocols/test_scenario_memo.py checks), which is also
why their serialisation/size/digest instance memos carry over from run to run.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.clients.distribution import ConsensusDistribution
from repro.clients.workload import ClientWorkload
from repro.crypto.keys import KeyRing
from repro.directory.authority import DirectoryAuthority, make_authorities
from repro.directory.vote import VoteDocument
from repro.faults.byzantine import build_rewriters
from repro.faults.injector import FaultInjector
from repro.faults.plan import EMPTY_FAULT_PLAN, FaultPlan
from repro.netgen.relaygen import RelayPopulationConfig, generate_population
from repro.netgen.topology_gen import AuthorityTopology, generate_topology
from repro.netgen.views import (
    AuthorityViewConfig,
    generate_authority_view_entries,
    votes_from_view_entries,
)
from repro.protocols.base import DirectoryProtocolConfig, ProtocolRunResult
from repro.protocols.current_v3 import CurrentProtocolAuthority
from repro.protocols.partialsync import PartialSyncAuthority
from repro.protocols.synchronous_luo import SynchronousLuoAuthority
from repro.runtime.spec import DEFAULT_CONTENT_RELAY_CAP, PROTOCOL_NAMES, RunSpec
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.network import LinkConfig, SimNetwork
from repro.utils.validation import ValidationError, ensure

#: Seed offset used to derive an equivocator's conflicting alternate vote.
_ALTERNATE_VOTE_SEED_OFFSET = 7919


@dataclass
class Scenario:
    """Everything needed to run one directory-protocol instance."""

    authorities: List[DirectoryAuthority]
    ring: KeyRing
    votes: Dict[int, VoteDocument]
    topology: AuthorityTopology
    bandwidth_schedules: Dict[int, BandwidthSchedule]
    relay_count: int
    transport: str = "fair"
    seed: int = 7
    fault_plan: FaultPlan = EMPTY_FAULT_PLAN
    #: Conflicting votes presented by equivocating authorities (authority id →
    #: alternate vote); populated only when the fault plan declares equivocators.
    alternate_votes: Dict[int, VoteDocument] = field(default_factory=dict)
    #: Dir-client population fetching the signed consensus (None: the run
    #: has no client side, exactly the pre-distribution behaviour).
    client_workload: Optional[ClientWorkload] = None

    def with_bandwidth_schedules(self, schedules: Dict[int, BandwidthSchedule]) -> "Scenario":
        """Return a copy with some authorities' bandwidth schedules replaced."""
        merged = dict(self.bandwidth_schedules)
        merged.update(schedules)
        return replace(self, bandwidth_schedules=merged)


#: How many entries each layer of the scenario memo keeps before evicting its
#: oldest.  Adjacent specs of a sweep share keys (the three protocols of a
#: cell, the relay counts and bandwidths of a figure, the fault mixes of
#: Figure 12), so a few per layer is all a sweep can use — and a sweep over
#: authority counts must not pin every large entry set it has ever built.
_SCENARIO_MEMO_MAX = 4


class _MemoLayer:
    """One layer of the scenario memo: a bounded key → ingredient map.

    Recency-ordered like the aggregation memo (a hit moves the key to the
    young end, an insert past the bound drops the oldest).  ``hits`` and
    ``misses`` are bumped once per scenario build, nothing per message.
    """

    def __init__(self) -> None:
        self.entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The ingredient under ``key``, built (and kept) on first request."""
        value = self.entries.get(key)
        if value is None:
            self.misses += 1
            value = build()
            self.entries[key] = value
            if len(self.entries) > _SCENARIO_MEMO_MAX:
                self.entries.popitem(last=False)
        else:
            self.hits += 1
            self.entries.move_to_end(key)
        return value

    def clear(self) -> None:
        self.entries.clear()
        self.hits = 0
        self.misses = 0


#: The memo's layers, each a pure function of its key (``generate_*`` and
#: ``make_authorities`` themselves stay uncached):
#:
#: * ``authorities`` — ``(authority_count, seed)`` → authorities + key ring;
#: * ``population`` — the frozen ``RelayPopulationConfig`` → relay population;
#: * ``view_entries`` — ``(population key, authorities key,
#:   AuthorityViewConfig)`` → every authority's relay entries;
#: * ``votes`` — ``(view-entries key, padded_relay_count)`` → those entries
#:   wrapped in ``VoteDocument``s (an equivocator's alternate votes are the
#:   same layer under another view seed);
#: * ``topology`` — ``(authority_count, bandwidth_mbps, seed)`` → latencies.
_SCENARIO_MEMO: Dict[str, _MemoLayer] = {
    name: _MemoLayer()
    for name in ("authorities", "population", "view_entries", "votes", "topology")
}


def clear_scenario_caches() -> None:
    """Drop every shared scenario ingredient and zero the hit/miss counters."""
    for layer in _SCENARIO_MEMO.values():
        layer.clear()


def scenario_cache_info() -> Dict[str, Dict[str, int]]:
    """Per-layer ``{hits, misses, size}`` of the scenario memo.

    ``misses`` is how often the layer's ingredient was actually built, so
    "one population for 120 runs" reads directly off this.
    """
    return {
        name: {"hits": layer.hits, "misses": layer.misses, "size": len(layer.entries)}
        for name, layer in _SCENARIO_MEMO.items()
    }


def _shared_votes(
    authorities_key: Tuple[int, int],
    authorities: Tuple[DirectoryAuthority, ...],
    population_config: RelayPopulationConfig,
    view_config: AuthorityViewConfig,
    padded_relay_count: int,
) -> Dict[int, VoteDocument]:
    """The (read-only) votes of one view of one population at one padding."""
    views_key = (population_config, authorities_key, view_config)

    def draw_entries():
        population = _SCENARIO_MEMO["population"].get(
            population_config, lambda: generate_population(population_config)
        )
        return generate_authority_view_entries(population, authorities, view_config)

    def wrap_entries():
        return votes_from_view_entries(
            _SCENARIO_MEMO["view_entries"].get(views_key, draw_entries),
            authorities,
            padded_relay_count=padded_relay_count,
        )

    return _SCENARIO_MEMO["votes"].get((views_key, padded_relay_count), wrap_entries)


def build_scenario(
    relay_count: int,
    bandwidth_mbps: float = 250.0,
    authority_count: int = 9,
    seed: int = 7,
    content_relay_cap: int = DEFAULT_CONTENT_RELAY_CAP,
    transport: str = "fair",
    view_config: Optional[AuthorityViewConfig] = None,
    fault_plan: FaultPlan = EMPTY_FAULT_PLAN,
) -> Scenario:
    """Build a scenario with ``relay_count`` relays and uniform authority bandwidth.

    The ingredients come from the process-global scenario memo: the returned
    containers are fresh, what they hold is shared and read-only (see the
    module docstring).
    """
    ensure(relay_count >= 1, "relay_count must be at least 1")
    ensure(bandwidth_mbps > 0, "bandwidth_mbps must be positive")
    fault_plan.validate_for(authority_count)
    authorities_key = (authority_count, seed)

    def make_identities():
        made, made_ring = make_authorities(authority_count, seed=seed)
        return tuple(made), made_ring

    authorities, ring = _SCENARIO_MEMO["authorities"].get(authorities_key, make_identities)
    population_config = RelayPopulationConfig(
        relay_count=min(relay_count, content_relay_cap), seed=seed
    )
    view_config = view_config or AuthorityViewConfig(seed=seed)
    votes = _shared_votes(
        authorities_key, authorities, population_config, view_config, relay_count
    )
    alternate_votes: Dict[int, VoteDocument] = {}
    equivocators = fault_plan.byzantine_authority_ids("equivocate")
    if equivocators:
        # The same view under a different seed yields conflicting-but-plausible
        # vote content for the equivocators to present to the second half of
        # their peers.
        conflicting = _shared_votes(
            authorities_key,
            authorities,
            population_config,
            replace(view_config, seed=view_config.seed + _ALTERNATE_VOTE_SEED_OFFSET),
            relay_count,
        )
        alternate_votes = {aid: conflicting[aid] for aid in equivocators}
    topology = _SCENARIO_MEMO["topology"].get(
        (authority_count, bandwidth_mbps, seed),
        lambda: generate_topology(authorities, bandwidth_mbps=bandwidth_mbps, seed=seed),
    )
    schedules = {
        authority.authority_id: BandwidthSchedule.constant_mbps(bandwidth_mbps)
        for authority in authorities
    }
    return Scenario(
        authorities=list(authorities),
        ring=ring,
        votes=dict(votes),
        topology=topology,
        bandwidth_schedules=schedules,
        relay_count=relay_count,
        transport=transport,
        seed=seed,
        fault_plan=fault_plan,
        alternate_votes=alternate_votes,
    )


def scenario_from_spec(spec: RunSpec) -> Scenario:
    """Build the :class:`Scenario` a :class:`~repro.runtime.spec.RunSpec` describes.

    Pure with respect to the spec: equal specs produce identical scenarios
    (every stochastic input derives from ``spec.seed``), which is what makes
    spec hashes valid cache keys — and what lets scenarios of one process
    share their seed-determined ingredients.  The votes, authorities, key
    ring and topology of the result are therefore read-only (module
    docstring); swap entries of the ``votes`` dict rather than editing a
    :class:`~repro.directory.vote.VoteDocument` in place.
    """
    scenario = build_scenario(
        relay_count=spec.relay_count,
        bandwidth_mbps=spec.bandwidth_mbps,
        authority_count=spec.authority_count,
        seed=spec.seed,
        content_relay_cap=spec.content_relay_cap,
        transport=spec.transport,
        fault_plan=spec.fault_plan,
    )
    if spec.bandwidth_overrides:
        scenario = scenario.with_bandwidth_schedules(
            {
                override.authority_id: override.schedule()
                for override in spec.bandwidth_overrides
            }
        )
    if spec.client_workload is not None:
        scenario = replace(scenario, client_workload=spec.client_workload)
    return scenario


def execute_spec(spec: RunSpec) -> ProtocolRunResult:
    """Run the protocol instance ``spec`` describes, end to end."""
    return run_protocol(
        spec.protocol,
        scenario_from_spec(spec),
        config=spec.protocol_config(),
        max_time=spec.max_time,
        engine=spec.engine,
        delta=spec.delta,
        view_timeout=spec.view_timeout,
    )


def _make_authority_node(
    protocol: str,
    authority: DirectoryAuthority,
    scenario: Scenario,
    config: DirectoryProtocolConfig,
    engine: str,
    delta: float,
    view_timeout: float,
):
    vote = scenario.votes[authority.authority_id]
    if protocol == "current":
        return CurrentProtocolAuthority(authority, scenario.authorities, vote, scenario.ring, config)
    if protocol == "synchronous":
        return SynchronousLuoAuthority(authority, scenario.authorities, vote, scenario.ring, config)
    if protocol == "ours":
        return PartialSyncAuthority(
            authority,
            scenario.authorities,
            vote,
            scenario.ring,
            config,
            engine=engine,
            delta=delta,
            view_timeout=view_timeout,
        )
    raise ValidationError("unknown protocol %r; expected one of %r" % (protocol, PROTOCOL_NAMES))


def run_protocol(
    protocol: str,
    scenario: Scenario,
    config: Optional[DirectoryProtocolConfig] = None,
    max_time: float = 3600.0,
    engine: str = "hotstuff",
    delta: float = 30.0,
    view_timeout: float = 30.0,
) -> ProtocolRunResult:
    """Run ``protocol`` ("current", "synchronous", or "ours") over ``scenario``."""
    config = config or DirectoryProtocolConfig()
    network = SimNetwork(transport=scenario.transport)
    nodes = []
    for authority in scenario.authorities:
        node = _make_authority_node(
            protocol, authority, scenario, config, engine, delta, view_timeout
        )
        schedule = scenario.bandwidth_schedules[authority.authority_id]
        network.add_node(node, LinkConfig.symmetric(schedule))
        nodes.append(node)

    for i, a in enumerate(scenario.authorities):
        for b in scenario.authorities[i + 1 :]:
            network.set_latency(
                a.name, b.name, scenario.topology.latency_between(a.authority_id, b.authority_id)
            )

    injector = _install_fault_injector(scenario, network)

    # The consensus-distribution layer: cohort (and mirror) nodes join the
    # network before start() so their wave/poll timers boot with everyone
    # else, and the authorities publish into the distribution hook instead
    # of the run terminating at signing.
    distribution: Optional[ConsensusDistribution] = None
    if scenario.client_workload is not None:
        distribution = ConsensusDistribution(
            scenario.client_workload, network, nodes, seed=scenario.seed
        )

    network.start(at=0.0)
    end_time = network.run(until=max_time)

    outcomes = {node.authority.authority_id: node.outcome for node in nodes}
    successes = [outcome for outcome in outcomes.values() if outcome.success]
    run_success = len(successes) >= (len(scenario.authorities) // 2 + 1)

    latency: Optional[float] = None
    if run_success:
        if protocol == "ours":
            values = [
                outcome.completion_time
                for outcome in successes
                if outcome.completion_time is not None
            ]
        else:
            values = [
                outcome.network_latency
                for outcome in successes
                if outcome.network_latency is not None
            ]
        if values:
            latency = sum(values) / len(values)

    return ProtocolRunResult(
        protocol=protocol,
        success=run_success,
        latency=latency,
        outcomes=outcomes,
        stats=network.stats,
        trace=network.trace,
        start_time=0.0,
        end_time=end_time,
        relay_count=scenario.relay_count,
        fault_summary=injector.fault_summary(end_time) if injector is not None else {},
        client_summary=distribution.summary(end_time) if distribution is not None else {},
        engine_counters=network.engine_counters(),
    )


def _install_fault_injector(
    scenario: Scenario, network: SimNetwork
) -> Optional[FaultInjector]:
    """Build and attach the scenario's fault injector (None for empty plans).

    With an empty plan no injector is attached at all, so fault-free runs
    stay bit-identical to runs executed before the fault layer existed.
    """
    plan = scenario.fault_plan
    if plan.is_empty:
        return None
    authority_names = {a.authority_id: a.name for a in scenario.authorities}
    rewriters = build_rewriters(
        plan.byzantine_authority_ids("equivocate"),
        authority_names,
        scenario.alternate_votes,
        {a.authority_id: a.keypair for a in scenario.authorities},
        [a.name for a in scenario.authorities],
    )
    injector = FaultInjector(
        plan,
        seed=scenario.seed,
        authority_names=authority_names,
        rewriters=rewriters,
    )
    injector.install(network)
    return injector
