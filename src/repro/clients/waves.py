"""Batched cohort wave scheduling: one timer per tick instant, not per cohort.

Under per-cohort timers a 1000-cohort workload costs 1000 simulator events
per wave interval, each doing a few floats of draw arithmetic — exactly the
per-item interpreter overhead the vectorized core removes elsewhere.  The
:class:`CohortWaveScheduler` enrolls cohorts into time buckets keyed by
their next tick instant and services a whole bucket with **one** event:
batch-classify the cohorts, draw every Gaussian-path batch size in one
vectorized expression (:func:`repro.clients.sampling.batch_gaussian_binomial`),
then run each cohort's sends in registration order.  It is the only wave
driver in ``src/``.

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
``tests/clients/test_waves.py``: one ``schedule_node_timer`` per cohort, the
scalar draw); that file asserts summary equality between the fixture and
this driver, so the batched path needs no golden of its own.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.clients.sampling import (
    batch_gaussian_binomial,
    binomial_from_uniform,
    gaussian_binomial,
)
from repro.utils import phases

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clients.cohort import ClientCohortNode
    from repro.simnet.network import SimNetwork

#: Below this many cohorts in a bucket the scalar draw loop beats the numpy
#: round trip; the cutover only changes speed, never values.
_BATCH_DRAW_MIN_COHORTS = 16


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
        cohorts = self._buckets.pop(when)
        injector = self._network.fault_injector
        if injector is not None:
            # A crashed owner runs nothing: dropped cohorts are never
            # re-enrolled, matching a suppressed per-cohort wave timer.
            cohorts = [
                cohort
                for cohort in cohorts
                if not injector.timer_suppressed(cohort.name, when)
            ]
        if not cohorts:
            return
        for cohort, batch in zip(cohorts, self._draw_batches(cohorts)):
            cohort._run_wave(batch)
            if cohort.fresh_clients < cohort.population:
                self.enroll(cohort, when + cohort.workload.wave_interval_s)

    def _draw_batches(self, cohorts: List["ClientCohortNode"]) -> List[int]:
        """Per-cohort batch sizes for this tick, batching the float math.

        Classification (deterministic / exact-Binomial / Gaussian) is a pure
        function of each cohort's own eligible count, and each cohort pulls
        from its own stream, so a cohort's draw does not depend on who shares
        its tick.  Only the Gaussian-path arithmetic is deferred and
        evaluated for all such cohorts in one vectorized expression.
        """
        batches = [0] * len(cohorts)
        gaussian: List[Tuple[int, int, float, float]] = []  # (pos, n, p, z)
        p_by_workload: Dict[int, float] = {}
        for position, cohort in enumerate(cohorts):
            eligible = cohort.eligible_clients
            if eligible <= 0:
                continue
            workload = cohort.workload
            if workload.arrival == "deterministic":
                batches[position] = eligible
                continue
            probability = p_by_workload.get(id(workload))
            if probability is None:
                # math.exp, never np.exp: vectorized exp implementations are
                # not guaranteed bit-identical to libm, and driver parity is
                # exact, not approximate.  One workload -> one exp per tick.
                probability = 1.0 - math.exp(
                    -workload.wave_interval_s / workload.fetch_interval_s
                )
                p_by_workload[id(workload)] = probability
            if eligible <= cohort.exact_binomial_limit:
                batches[position] = binomial_from_uniform(
                    eligible, probability, cohort.rng.random()
                )
                continue
            gaussian.append(
                (position, eligible, probability, cohort.rng.gauss(0.0, 1.0))
            )
        if gaussian:
            if len(gaussian) >= _BATCH_DRAW_MIN_COHORTS:
                drawn = batch_gaussian_binomial(
                    [entry[1] for entry in gaussian],
                    [entry[2] for entry in gaussian],
                    [entry[3] for entry in gaussian],
                )
            else:
                drawn = None
            if drawn is None:  # few cohorts, or numpy unavailable
                drawn = [
                    gaussian_binomial(eligible, probability, z)
                    for _pos, eligible, probability, z in gaussian
                ]
            for (position, _n, _p, _z), batch in zip(gaussian, drawn):
                batches[position] = int(batch)
        return batches
