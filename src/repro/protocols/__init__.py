"""Directory protocols wired onto the network simulator.

Three protocols are implemented, matching the three columns of the paper's
evaluation (Figure 10, Table 1):

* :mod:`repro.protocols.current_v3` — the deployed version-3 directory
  protocol: four 150-second lock-step rounds (vote, fetch votes, signature,
  fetch signatures) with per-connection timeouts;
* :mod:`repro.protocols.synchronous_luo` — Luo et al.'s synchronous fix:
  propose round, vote round (each vote packs every received list), a
  Dolev–Strong style synchronisation round, then signatures;
* :mod:`repro.protocols.partialsync` — the paper's new protocol: an
  :class:`~repro.core.icps.ICPSNode` per authority (dissemination, view-based
  agreement, aggregation) followed by Tor-level consensus signing.

:mod:`repro.protocols.runner` builds simulator scenarios (authorities, votes,
link schedules, attacks) and runs any of the three, returning a uniform
:class:`~repro.protocols.base.ProtocolRunResult`.  Runs are usually described
by a frozen :class:`~repro.runtime.spec.RunSpec` and executed through
:func:`~repro.protocols.runner.execute_spec` (directly or via the
:class:`~repro.runtime.executor.SweepExecutor`).
"""

from repro.protocols.base import (
    AuthorityOutcome,
    DirectoryProtocolConfig,
    ProtocolRunResult,
)
from repro.protocols.current_v3 import CurrentProtocolAuthority
from repro.protocols.synchronous_luo import SynchronousLuoAuthority
from repro.protocols.partialsync import PartialSyncAuthority
from repro.protocols.runner import (
    PROTOCOL_NAMES,
    Scenario,
    build_scenario,
    execute_spec,
    run_protocol,
    scenario_cache_info,
    scenario_from_spec,
)

__all__ = [
    "AuthorityOutcome",
    "DirectoryProtocolConfig",
    "ProtocolRunResult",
    "CurrentProtocolAuthority",
    "SynchronousLuoAuthority",
    "PartialSyncAuthority",
    "PROTOCOL_NAMES",
    "Scenario",
    "build_scenario",
    "execute_spec",
    "run_protocol",
    "scenario_cache_info",
    "scenario_from_spec",
]
