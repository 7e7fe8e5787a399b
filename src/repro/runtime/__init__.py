"""Run orchestration: reified run configuration, sweep execution, caching.

The paper's evaluation is a pile of independent protocol runs (Figures 6, 7,
10, 11; Tables 1, 2; the ablations).  This package turns "one run" into data
and "many runs" into an executor:

* :class:`~repro.runtime.spec.RunSpec` / :class:`~repro.runtime.spec.SweepSpec`
  — frozen, hashable, picklable descriptions of runs and grids of runs;
* :class:`~repro.runtime.executor.SweepExecutor` — executes grids serially or
  over a ``multiprocessing`` pool with deterministic per-run seeding (results
  are identical for any worker count);
* :class:`~repro.runtime.cache.ResultCache` — a content-addressed on-disk
  store of run summaries, so repeated sweeps execute nothing;
* :func:`~repro.runtime.executor.clear_process_caches` — the one reset for
  the in-process memos (aggregation, shared scenario ingredients) that make
  the runs of a sweep cheaper without changing any of them.

Every experiment module, analysis sweep, benchmark, and example routes its
protocol runs through this layer; it is also the seam future sharding or
multi-backend execution plugs into.
"""

from repro.clients.workload import ClientWorkload
from repro.faults.plan import AuthorityFault, FaultPlan, LinkFault
from repro.runtime.spec import (
    DEFAULT_CONTENT_RELAY_CAP,
    PROTOCOL_NAMES,
    BandwidthOverride,
    RunSpec,
    SweepSpec,
    overrides_from_config,
)
from repro.runtime.cache import ResultCache
from repro.runtime.executor import (
    SweepExecutor,
    clear_process_caches,
    execute_spec_summary,
)

__all__ = [
    "DEFAULT_CONTENT_RELAY_CAP",
    "PROTOCOL_NAMES",
    "AuthorityFault",
    "BandwidthOverride",
    "ClientWorkload",
    "FaultPlan",
    "LinkFault",
    "RunSpec",
    "SweepSpec",
    "overrides_from_config",
    "ResultCache",
    "SweepExecutor",
    "clear_process_caches",
    "execute_spec_summary",
]
