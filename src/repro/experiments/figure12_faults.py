"""Figure 12 (extension): recovery latency under declarative fault mixes.

The paper's adversity experiments stop at bandwidth starvation (Figures 1,
10, 11).  This experiment widens the threat model using the declarative
fault layer: every mix below is a frozen
:class:`~repro.faults.plan.FaultPlan` attached to a
:class:`~repro.runtime.spec.RunSpec`, so the whole grid executes, caches,
and parallelises through one :class:`~repro.runtime.executor.SweepExecutor`
like any other sweep — and is bit-identical at any worker count.

Default mixes (all three protocols each):

``authority-churn``
    Two authorities crash and restart in staggered windows.
``minority-partition``
    Two authorities are cut off from every peer early in the run, healing
    after three minutes.
``lossy-links``
    A majority of authorities suffer 5% independent message loss plus up to
    250 ms of extra jitter for the entire run.
``flash-flood``
    The paper's majority DDoS re-expressed as a fault plan
    (:meth:`~repro.attack.ddos.DDoSAttackPlan.fault_plan`): a total flood
    partitions 5 of 9 authorities for the first 300 s.  Unlike the
    bandwidth-override form (transfers crawl but survive), dropped messages
    are *gone* — so this mix also shows which protocols rely on
    retransmission to recover.
``flash-flood-tcp``
    The same flood with a sliver of residual bandwidth, run on the ``tcp``
    transport (every mix has a ``transport``; this is the only non-default
    one).  The residual turns the plan drop-typed (p ≈ 0.998 inside the
    window), and on ``tcp`` those drops feed
    :meth:`~repro.faults.injector.FaultInjector.tcp_loss_event`: the
    authorities' congestion windows collapse for the whole window, so the
    cell shows the fault → congestion-control coupling end-to-end.
``byzantine``
    One vote-equivocating authority plus one withholding authority.

For each (mix, protocol) cell the table reports success, consensus
latency, recovery latency measured from the end of the last fault window,
and the fault accounting (messages dropped, partition seconds, authority
down-seconds) from :attr:`ProtocolRunResult.fault_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.analysis.reporting import format_table
from repro.attack.ddos import DDoSAttackPlan
from repro.faults.plan import AuthorityFault, FaultPlan
from repro.protocols.base import DirectoryProtocolConfig, ProtocolRunResult
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec, SweepSpec, overrides_from_config
from repro.utils.validation import ensure


@dataclass(frozen=True)
class FaultMix:
    """A named fault plan swept by the experiment.

    ``transport`` selects the link model the mix runs under — almost always
    the default ``fair``, but drop-typed plans only couple into congestion
    control on ``tcp`` (see ``flash-flood-tcp``).
    """

    name: str
    plan: FaultPlan
    transport: str = "fair"


def default_fault_mixes(authority_count: int = 9) -> Tuple[FaultMix, ...]:
    """The standard mixes for ``authority_count`` authorities (≥ 5 required)."""
    ensure(authority_count >= 5, "fault mixes need at least 5 authorities")
    majority = authority_count // 2 + 1
    flood = DDoSAttackPlan(
        target_authority_ids=tuple(range(majority)),
        start=0.0,
        duration=300.0,
        residual_bandwidth_mbps=0.0,
    )
    # The drop-typed variant: a sliver of residual bandwidth turns the
    # plan from partition windows into per-message loss (p ≈ 0.998), the
    # form that drives tcp's multiplicative decrease.
    leaky_flood = DDoSAttackPlan(
        target_authority_ids=tuple(range(majority)),
        start=0.0,
        duration=300.0,
        residual_bandwidth_mbps=0.5,
    )
    return (
        FaultMix(
            "authority-churn",
            FaultPlan(
                authority_faults=(
                    AuthorityFault(authority_id=0, crash_windows=((30.0, 210.0),)),
                    AuthorityFault(authority_id=1, crash_windows=((120.0, 300.0),)),
                )
            ),
        ),
        FaultMix(
            "minority-partition",
            FaultPlan.partition((0, 1), start=10.0, end=190.0),
        ),
        FaultMix(
            "lossy-links",
            FaultPlan.lossy_links(
                tuple(range(majority)), drop_probability=0.05, jitter_s=0.25
            ),
        ),
        FaultMix("flash-flood", flood.fault_plan()),
        FaultMix("flash-flood-tcp", leaky_flood.fault_plan(), transport="tcp"),
        FaultMix(
            "byzantine",
            FaultPlan.byzantine(0, "equivocate").merged(
                FaultPlan.byzantine(1, "withhold")
            ),
        ),
    )


@dataclass
class Figure12Result:
    """Outcome of one protocol under one fault mix."""

    mix: str
    protocol: str
    success: bool
    latency: Optional[float]
    recovery_latency: Optional[float]
    fault_end: float
    messages_dropped: int
    partition_seconds: float
    authority_down_seconds: float

    @classmethod
    def from_run(
        cls, mix: FaultMix, spec: RunSpec, run: ProtocolRunResult
    ) -> "Figure12Result":
        """Fold a finished run and its spec into a table row."""
        fault_end = mix.plan.last_fault_end()
        recovery = run.latency_from(fault_end) if run.success else None
        if recovery is not None:
            # Consensus may complete while later fault windows are still
            # open (e.g. churn that only ever downs a minority); recovery
            # latency is "time past the end of all adversity", floored at 0.
            recovery = max(0.0, recovery)
        faults = run.fault_summary
        return cls(
            mix=mix.name,
            protocol=spec.protocol,
            success=run.success,
            latency=run.latency,
            recovery_latency=recovery,
            fault_end=fault_end,
            messages_dropped=int(faults.get("messages_dropped", 0)),
            partition_seconds=float(faults.get("partition_seconds", 0.0)),
            authority_down_seconds=float(faults.get("authority_down_seconds", 0.0)),
        )


def figure12_sweep(
    mixes: Sequence[FaultMix],
    protocols: Sequence[str] = PROTOCOL_NAMES,
    relay_count: int = 150,
    bandwidth_mbps: float = 250.0,
    authority_count: int = 9,
    seed: int = 7,
    engine: str = "hotstuff",
    config: Optional[DirectoryProtocolConfig] = None,
    max_time: float = 1500.0,
) -> Tuple[SweepSpec, List[Tuple[FaultMix, RunSpec]]]:
    """The (mix × protocol) grid as a :class:`SweepSpec` plus row bookkeeping."""
    config_overrides = overrides_from_config(config) if config is not None else ()
    cells: List[Tuple[FaultMix, RunSpec]] = []
    for mix in mixes:
        for protocol in protocols:
            spec = RunSpec(
                protocol=protocol,
                relay_count=relay_count,
                bandwidth_mbps=bandwidth_mbps,
                seed=seed,
                engine=engine,
                authority_count=authority_count,
                max_time=max_time,
                transport=mix.transport,
                config_overrides=config_overrides,
                fault_plan=mix.plan,
            )
            cells.append((mix, spec))
    sweep = SweepSpec(name="figure12-faults", runs=tuple(spec for _, spec in cells))
    return sweep, cells


def run_figure12(
    mixes: Optional[Sequence[FaultMix]] = None,
    protocols: Sequence[str] = PROTOCOL_NAMES,
    relay_count: int = 150,
    bandwidth_mbps: float = 250.0,
    authority_count: int = 9,
    seed: int = 7,
    engine: str = "hotstuff",
    config: Optional[DirectoryProtocolConfig] = None,
    max_time: float = 1500.0,
    executor: Optional[SweepExecutor] = None,
) -> List[Figure12Result]:
    """Run every fault mix against every protocol and collect the rows."""
    mixes = tuple(mixes) if mixes is not None else default_fault_mixes(authority_count)
    executor = executor or SweepExecutor()
    sweep, cells = figure12_sweep(
        mixes,
        protocols=protocols,
        relay_count=relay_count,
        bandwidth_mbps=bandwidth_mbps,
        authority_count=authority_count,
        seed=seed,
        engine=engine,
        config=config,
        max_time=max_time,
    )
    runs = executor.run(sweep)
    return [
        Figure12Result.from_run(mix, spec, run)
        for (mix, spec), run in zip(cells, runs)
    ]


def render_figure12(results: Sequence[Figure12Result]) -> str:
    """Render the recovery-latency table across fault mixes."""
    rows = []
    for result in results:
        rows.append(
            (
                result.mix,
                result.protocol,
                "ok" if result.success else "FAIL",
                "%.1f s" % result.latency if result.latency is not None else "-",
                "%.1f s" % result.recovery_latency
                if result.recovery_latency is not None
                else "-",
                result.messages_dropped,
                "%.0f" % result.partition_seconds,
                "%.0f" % result.authority_down_seconds,
            )
        )
    return format_table(
        [
            "Fault mix",
            "Protocol",
            "Run",
            "Latency",
            "Recovery",
            "Dropped",
            "Partition s",
            "Down s",
        ],
        rows,
        title="Figure 12: consensus and recovery latency under injected fault mixes",
    )
