"""The six workloads: each a seeded list of ``RunSpec``.

A builder takes the benchmark seed and returns the specs one pass executes;
the simulator sees only those specs.  Every spec is what a plain ``RunSpec``
gives: no ``REPRO_*`` switch, no ``use_shared_engine`` — the end-to-end
numbers describe the default engine path.

Sizes are set by the benchmark contract's cap (136 driver runs in 3420 s):
a pass must take about 5 s on the 2-core reference box so that three
fresh-process repeats fit in one driver run.  ``event_floor`` and
``ours_handlers`` fit at the size the issue named; the other four are cut
to the nearest size that does (see README.md, "Sizes").

``smoke=True`` builds the same shapes at 9–20 authorities for the tier-1
smoke test.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.analysis.latency import latency_sweep_spec
from repro.attack.ddos import DDoSAttackPlan
from repro.experiments.figure10_latency import FIGURE10_BANDWIDTHS
from repro.experiments.figure12_faults import default_fault_mixes, figure12_sweep
from repro.experiments.figure13_clients import figure13_spec
from repro.protocols.base import DirectoryProtocolConfig
from repro.runtime.spec import RunSpec


def _figure11_specs(seed: int, relay_counts) -> List[RunSpec]:
    """Figure 11's grid, as ``run_figure11`` builds it with its defaults."""
    attack = DDoSAttackPlan(
        target_authority_ids=tuple(range(5)),
        start=0.0,
        duration=300.0,
        residual_bandwidth_mbps=0.05,
        baseline_bandwidth_mbps=250.0,
    )
    baseline_max_time = 4 * DirectoryProtocolConfig().round_duration + 60
    specs: List[RunSpec] = []
    for relay_count in relay_counts:
        ours = RunSpec(
            protocol="ours",
            relay_count=relay_count,
            bandwidth_mbps=250.0,
            seed=seed,
            max_time=attack.end + 1200.0,
            bandwidth_overrides=attack.bandwidth_overrides(),
        )
        specs.append(ours)
        for protocol in ("current", "synchronous"):
            specs.append(ours.derive(protocol=protocol, max_time=baseline_max_time))
    return specs


def paper_grid(seed: int, smoke: bool = False) -> List[RunSpec]:
    """Figures 10, 11 and 12 at the paper's nine authorities."""
    if smoke:
        bandwidths, fig10_relays, fig11_relays = (10.0,), (1000,), (1000,)
        mixes = default_fault_mixes()[:1]
    else:
        bandwidths = FIGURE10_BANDWIDTHS
        fig10_relays = tuple(range(1000, 10001, 1800))
        fig11_relays = (1000, 4000, 7000, 10000)
        mixes = default_fault_mixes()
    specs = list(
        latency_sweep_spec(
            bandwidths_mbps=bandwidths, relay_counts=fig10_relays, seed=seed
        ).runs
    )
    specs += _figure11_specs(seed, fig11_relays)
    specs += list(figure12_sweep(mixes, seed=seed)[0].runs)
    return specs


def _scale_spec(protocol: str, authorities: int, transport: str, seed: int) -> RunSpec:
    """One cell of the scaling study (the shape ``scaling_specs`` uses)."""
    return RunSpec(
        protocol=protocol,
        relay_count=200,
        bandwidth_mbps=250.0,
        seed=seed,
        transport=transport,
        authority_count=authorities,
        max_time=600.0,
    )


def scale_fair(seed: int, smoke: bool = False) -> List[RunSpec]:
    """All three protocols on the shared ``fair`` link model."""
    authorities = 12 if smoke else 72
    return [
        _scale_spec(protocol, authorities, "fair", seed)
        for protocol in ("current", "synchronous", "ours")
    ]


def event_floor(seed: int, smoke: bool = False) -> List[RunSpec]:
    """``current`` on ``latency-only``: flows never interact."""
    return [_scale_spec("current", 20 if smoke else 200, "latency-only", seed)]


def ours_handlers(seed: int, smoke: bool = False) -> List[RunSpec]:
    """The paper's protocol at scale, transport out of the way."""
    return [_scale_spec("ours", 12 if smoke else 100, "latency-only", seed)]


def scale_tcp(seed: int, smoke: bool = False) -> List[RunSpec]:
    """``current`` and ``ours`` under per-flow congestion control."""
    authorities = 9 if smoke else 50
    return [
        _scale_spec(protocol, authorities, "tcp", seed)
        for protocol in ("current", "ours")
    ]


def clients_flood(seed: int, smoke: bool = False) -> List[RunSpec]:
    """Figure 13's majority flood with a cohort client population.

    The residual bandwidth is 0.02 Mbit/s, not ``figure13_spec``'s default
    0.05: at 0.05 "ours" signs *during* the flood on about a third of seeds
    (first publish ≈ 175 s instead of ≈ 396 s, 23 % fewer fetch attempts),
    which makes wall time bimodal in the seed.  At 0.02 every seed publishes
    within a second of the flood ending and the simulated work is the same
    to 0.1 %.
    """
    if smoke:
        shape = dict(cohort_count=4, mirror_count=16, max_time=400.0)
        population = 10_000
    else:
        shape = dict(max_time=900.0)
        population = 1_000_000
    return [
        figure13_spec(
            protocol, population, seed=seed, residual_bandwidth_mbps=0.02, **shape
        )
        for protocol in ("current", "ours")
    ]


#: Name → spec builder, in reporting order.  The names are fixed: later
#: issues refer to them, and ``BENCHMARK.json`` lists exactly these with the
#: reason each exists.
WORKLOADS: Dict[str, Callable[..., List[RunSpec]]] = {
    "paper_grid": paper_grid,
    "scale_fair": scale_fair,
    "event_floor": event_floor,
    "ours_handlers": ours_handlers,
    "scale_tcp": scale_tcp,
    "clients_flood": clients_flood,
}
