"""One module per table/figure of the paper's evaluation.

Each experiment module exposes a ``run_*`` function returning structured
results and a ``render_*`` helper that prints the same rows/series the paper
reports.  The benchmark suite under ``benchmarks/`` calls these functions so
that ``pytest benchmarks/ --benchmark-only`` regenerates every artefact; the
examples under ``examples/`` reuse them for human-readable walkthroughs.

Every module that executes protocol runs (Figures 1/7/10/11/12/13, Table 1,
the ablations) describes them as :class:`~repro.runtime.spec.RunSpec` grids
and routes them through a :class:`~repro.runtime.executor.SweepExecutor`;
pass ``executor=`` to parallelise grids across processes and reuse cached
cells between artefacts.
Host time and memory are not measured here: ``perfbench/`` is the one
instrument for those.

Index (design notes live in the DESIGN-*.md files at the repo root:
DESIGN-transport.md, DESIGN-faults.md, DESIGN-clients.md,
DESIGN-calibration.md):

========  =====================================================  =========================
Artefact  What it shows                                           Module
========  =====================================================  =========================
Figure 1  Authority log while 5 authorities are DDoS-ed           figure1_attack_log
Figure 6  Tor relay count over time (avg ≈ 7141.79)               figure6_relay_counts
Figure 7  Bandwidth required by the current protocol vs relays    figure7_bandwidth
§4.3      Attack cost ($0.074 per run, $53.28 per month)          cost_table
Figure 10 Latency of Current / Synchronous / Ours across          figure10_latency
          bandwidths and relay counts
Figure 11 Recovery latency of Ours after a 5-minute DDoS          figure11_recovery
Figure 12 Recovery latency under declarative fault mixes          figure12_faults
          (churn, partitions, loss, crash/Byzantine authorities)
Table 1   Design comparison and communication complexity          table1_complexity
Table 2   Round complexity of the sub-protocols                   table2_rounds
(extra)   Ablations: transport link model, agreement engine       ablations
Figure 13 Client recovery under the DDoS, 10k–10M dir-clients    figure13_clients
========  =====================================================  =========================
"""

from repro.experiments.figure1_attack_log import AttackDemoResult, run_attack_demo
from repro.experiments.figure6_relay_counts import run_figure6, render_figure6
from repro.experiments.figure7_bandwidth import run_figure7, render_figure7
from repro.experiments.figure10_latency import run_figure10, render_figure10
from repro.experiments.figure11_recovery import Figure11Result, run_figure11, render_figure11
from repro.experiments.figure12_faults import (
    FaultMix,
    Figure12Result,
    default_fault_mixes,
    run_figure12,
    render_figure12,
)
from repro.experiments.figure13_clients import (
    Figure13Cell,
    default_client_workload,
    figure13_spec,
    render_figure13,
    run_figure13,
)
from repro.experiments.table1_complexity import run_table1, render_table1
from repro.experiments.table2_rounds import run_table2, render_table2
from repro.experiments.cost_table import run_cost_analysis, render_cost_analysis
from repro.experiments.ablations import run_scheduling_ablation, run_engine_ablation

__all__ = [
    "AttackDemoResult",
    "run_attack_demo",
    "run_figure6",
    "render_figure6",
    "run_figure7",
    "render_figure7",
    "run_figure10",
    "render_figure10",
    "Figure11Result",
    "run_figure11",
    "render_figure11",
    "FaultMix",
    "Figure12Result",
    "default_fault_mixes",
    "run_figure12",
    "render_figure12",
    "Figure13Cell",
    "default_client_workload",
    "figure13_spec",
    "run_figure13",
    "render_figure13",
    "run_table1",
    "render_table1",
    "run_table2",
    "render_table2",
    "run_cost_analysis",
    "render_cost_analysis",
    "run_scheduling_ablation",
    "run_engine_ablation",
]
