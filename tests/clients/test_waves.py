"""Wave-driver conformance: batched cohort ticks ≡ per-cohort timers, exactly.

The batched :class:`~repro.clients.waves.CohortWaveScheduler` claims *exact*
equivalence with per-cohort wave timers (same stream pulls per cohort, same
tick instants, same ordering, same crash semantics) — not a float-tolerance
contract like the transport engines.  These tests hold it to that: full run
summaries with the scheduler and with :class:`PerCohortTimers` — the
reference below, one node timer and one scalar draw per cohort — patched in
its place must be ``==``, across arrivals, protocols, transports, and random
fault plans (which exercise the suppressed-tick → cohort-death path).

The count-based draw primitives of :mod:`repro.clients.sampling` are pinned
here too: the inverse-transform Binomial must match the CDF it claims to
walk, and the batched Gaussian expression must reproduce the scalar one
bit-for-bit.
"""

import math
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clients.sampling import (
    batch_gaussian_binomial,
    binomial_from_uniform,
    gaussian_binomial,
)
from repro.clients import distribution
from repro.clients.workload import ClientWorkload
from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec
from tests.faults.test_conformance import random_fault_plan


class PerCohortTimers:
    """Every cohort owns its wave timer and draws its own batch size."""

    def __init__(self, network):
        self._network = network

    def enroll(self, cohort, when):
        self._network.schedule_node_timer(cohort.name, when, self._on_wave, cohort, when)

    def _on_wave(self, cohort, when):
        cohort._run_wave(self._draw(cohort))
        if cohort.fresh_clients < cohort.population:
            self.enroll(cohort, when + cohort.workload.wave_interval_s)

    @staticmethod
    def _draw(cohort):
        eligible, workload = cohort.eligible_clients, cohort.workload
        if eligible <= 0:
            return 0
        if workload.arrival == "deterministic":
            return eligible
        probability = 1.0 - math.exp(-workload.wave_interval_s / workload.fetch_interval_s)
        if eligible <= cohort.exact_binomial_limit:
            return binomial_from_uniform(eligible, probability, cohort.rng.random())
        return gaussian_binomial(eligible, probability, cohort.rng.gauss(0.0, 1.0))


def run_both_drivers(spec: RunSpec):
    with mock.patch.object(distribution, "CohortWaveScheduler", PerCohortTimers):
        per_cohort = execute_spec(spec).summary()
    batched = execute_spec(spec).summary()
    return per_cohort, batched


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    arrival=st.sampled_from(("poisson", "deterministic")),
    transport=st.sampled_from(("fair", "fifo", "latency-only")),
    cohorts=st.integers(min_value=1, max_value=6),
)
def test_batched_waves_reproduce_per_cohort_timers_exactly(
    seed, arrival, transport, cohorts
):
    workload = ClientWorkload(
        population=cohorts * 40,
        cohort_count=cohorts,
        arrival=arrival,
        fetch_interval_s=60.0,
        wave_interval_s=15.0,
        retry_backoff_s=30.0,
        mirror_count=seed % 3,
        servers_per_wave=1 + seed % 2,
    )
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        seed=seed % 1000,
        transport=transport,
        max_time=800.0,
        client_workload=workload,
    )
    per_cohort, batched = run_both_drivers(spec)
    assert per_cohort == batched


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_batched_waves_match_under_random_fault_plans(seed):
    # Fault plans exercise the crash path: a cohort whose tick is suppressed
    # must die identically under both drivers (the driver drops it from the
    # bucket and never re-enrolls; the timer path never fires again).
    workload = ClientWorkload(
        population=160,
        cohort_count=4,
        arrival="poisson",
        fetch_interval_s=60.0,
        wave_interval_s=15.0,
        retry_backoff_s=30.0,
        mirror_count=2,
    )
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        seed=seed % 1000,
        max_time=800.0,
        client_workload=workload,
        fault_plan=random_fault_plan(seed),
    )
    per_cohort, batched = run_both_drivers(spec)
    assert per_cohort == batched


def test_batched_waves_match_with_large_gaussian_cohorts():
    # Cohorts above the exact-Binomial limit take the Gaussian path (one
    # z-score pull each), many of them sharing one bucket.
    workload = ClientWorkload(
        population=20_000,
        cohort_count=25,
        arrival="poisson",
        fetch_interval_s=120.0,
        wave_interval_s=10.0,
        retry_backoff_s=60.0,
        mirror_count=4,
        servers_per_wave=2,
    )
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        seed=42,
        max_time=900.0,
        client_workload=workload,
    )
    per_cohort, batched = run_both_drivers(spec)
    assert per_cohort == batched


# -- sampling primitives -------------------------------------------------------

def test_binomial_from_uniform_inverts_the_binomial_cdf():
    count, probability = 12, 0.3
    q = 1.0 - probability

    def cdf(k):
        total, pmf = 0.0, q ** count
        for i in range(k + 1):
            total += pmf
            pmf *= (count - i) / (i + 1.0) * (probability / q)
        return total

    # Just below each CDF step the sample is k; at/above the step it is k+1.
    for k in range(count):
        step = cdf(k)
        assert binomial_from_uniform(count, probability, step - 1e-12) == k
        assert binomial_from_uniform(count, probability, step + 1e-12) == k + 1
    assert binomial_from_uniform(count, probability, 0.0) == 0
    assert binomial_from_uniform(count, probability, 1.0 - 1e-15) == count


def test_binomial_from_uniform_degenerate_probabilities():
    assert binomial_from_uniform(10, 0.0, 0.5) == 0
    assert binomial_from_uniform(10, 1.0, 0.5) == 10
    assert binomial_from_uniform(0, 0.5, 0.5) == 0


def test_binomial_from_uniform_mean_tracks_n_p():
    import random

    rng = random.Random(7)
    count, probability, trials = 50, 0.2, 4000
    total = sum(
        binomial_from_uniform(count, probability, rng.random()) for _ in range(trials)
    )
    mean = total / trials
    sigma = math.sqrt(count * probability * (1 - probability) / trials)
    assert abs(mean - count * probability) < 5 * sigma


def test_batch_gaussian_binomial_is_bit_identical_to_scalar():
    import random

    rng = random.Random(3)
    eligible = [rng.randrange(65, 5_000_000) for _ in range(200)]
    probability = [rng.uniform(1e-4, 0.9) for _ in range(200)]
    z = [rng.gauss(0.0, 1.0) for _ in range(200)]
    batched = batch_gaussian_binomial(eligible, probability, z)
    if batched is None:  # numpy-less install: the scalar loop IS the path
        return
    scalar = [gaussian_binomial(n, p, s) for n, p, s in zip(eligible, probability, z)]
    assert list(map(int, batched)) == scalar
