"""Batched cohort wave scheduling: one timer per tick instant, not per cohort.

Under per-cohort timers a 1000-cohort workload costs 1000 simulator events
per wave interval, each doing a few floats of draw arithmetic — exactly the
per-item interpreter overhead the vectorized core removes elsewhere.  The
:class:`CohortWaveScheduler` enrolls cohorts into time buckets keyed by
their next tick instant and services a whole bucket with **one** event:
draw each cohort's batch size from its own stream, then run each cohort's
sends in registration order.  It is the only wave driver in ``src/``.

Equivalence with per-cohort timers is *exact*, not statistical:

* every cohort draws from its own seeded stream with the same pulls in the
  same per-cohort order (no pull when nothing is eligible, one uniform on
  the exact path, one z-score on the Gaussian path);
* buckets fire at the same instants the individual timers would have, and
  cohorts within a bucket run in registration order — which is the order
  their timers would have fired (timers are scheduled in registration
  order, and same-instant events fire in schedule order);
* crash-fault semantics match ``SimNetwork.schedule_node_timer``: a cohort
  whose owner is crashed at its tick instant is dropped from the wave *and
  never re-enrolled* — a suppressed wave timer never fires again, so the
  cohort is dead for the rest of the run, exactly as before.

The per-cohort timers are a test fixture (``PerCohortTimers`` in
``tests/clients/test_waves.py``: one ``schedule_node_timer`` per cohort);
that file asserts summary equality between the fixture and this driver, so
the bucketed path needs no golden of its own.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List

from repro.clients.sampling import binomial_from_uniform, gaussian_binomial
from repro.utils import phases

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clients.cohort import ClientCohortNode
    from repro.simnet.network import SimNetwork


class CohortWaveScheduler:
    """Time-bucketed wave ticks shared by every cohort of a distribution."""

    def __init__(self, network: "SimNetwork") -> None:
        self._network = network
        self._simulator = network.simulator
        #: Tick instant -> cohorts due then, in enrollment order.  Distinct
        #: boot times (crash-deferred cohorts) simply produce distinct
        #: buckets; fully-aligned workloads produce exactly one.
        self._buckets: Dict[float, List["ClientCohortNode"]] = {}

    def enroll(self, cohort: "ClientCohortNode", when: float) -> None:
        """Schedule ``cohort``'s next wave at absolute instant ``when``."""
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = []
            self._simulator.schedule(when, self._on_tick, when)
        bucket.append(cohort)

    # -- tick servicing ----------------------------------------------------
    def _on_tick(self, when: float) -> None:
        if phases.ENABLED:
            phases.enter(phases.CLIENT_WAVE)
            try:
                self._service_tick(when)
            finally:
                phases.leave()
            return
        self._service_tick(when)

    def _service_tick(self, when: float) -> None:
        injector = self._network.fault_injector
        for cohort in self._buckets.pop(when):
            if injector is not None and injector.timer_suppressed(cohort.name, when):
                # A crashed owner runs nothing and is never re-enrolled,
                # matching a suppressed per-cohort wave timer.
                continue
            cohort._run_wave(_draw_batch(cohort))
            if cohort.fresh_clients < cohort.population:
                self.enroll(cohort, when + cohort.workload.wave_interval_s)


def _draw_batch(cohort: "ClientCohortNode") -> int:
    """How many of ``cohort``'s eligible clients start a fetch this tick.

    A pure function of the cohort's own eligible count and its own stream
    (no pull when nothing is eligible or arrivals are deterministic, one
    uniform on the exact path, one z-score on the Gaussian path), so a
    cohort's draw does not depend on who shares its tick.
    """
    eligible, workload = cohort.eligible_clients, cohort.workload
    if eligible <= 0:
        return 0
    if workload.arrival == "deterministic":
        return eligible
    probability = 1.0 - math.exp(-workload.wave_interval_s / workload.fetch_interval_s)
    if eligible <= cohort.exact_binomial_limit:
        return binomial_from_uniform(eligible, probability, cohort.rng.random())
    return gaussian_binomial(eligible, probability, cohort.rng.gauss(0.0, 1.0))
