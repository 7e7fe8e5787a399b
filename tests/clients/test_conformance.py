"""Cohort-aggregation conformance: K cohorts of N ≡ K·N individual clients.

The counting-distribution cohort model is only admissible if it cannot be
distinguished — at the summary-metric level — from simulating every client
as its own endpoint.  The comparison runs the *same* spec twice, changing
nothing but ``cohort_count``: the individualized twin
(``workload.individualized()``) puts each client in its own singleton
cohort, which degenerates to per-endpoint simulation through exactly the
public API.

Two regimes, as the model documents:

* **Deterministic arrivals** (every eligible client fetches at every wave
  tick, server selection by wave rotation): the runs must agree **exactly** —
  integer counts equal, time metrics to float tolerance (weighted flows
  change the order of float operations, not their values).  Hypothesis
  drives random small workloads across both shared transports and every
  shared engine that runs them, plus the sharing-free latency-only model.
* **Poisson arrivals**: the cohort draws batch sizes from its own stream, so
  equality is distributional, not exact.  The property checks the structural
  invariants (population conservation, accounting inequalities) and that
  the two runs land within a loose statistical envelope of each other.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clients.workload import ClientWorkload
from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec

from tests.simnet.reference_sched import RUN_CASES, VECTOR, use_engine

#: Float tolerance for time metrics: weighted aggregation reorders float
#: arithmetic (``(w·s)/(c·w/W)`` vs ``s/(c/W)``) without changing values
#: beyond rounding.
REL_TOLERANCE = 1e-9

EXACT_METRIC_KEYS = (
    "population",
    "states",
    "fetch_attempts",
    "fetch_successes",
    "fetch_timeouts",
    "fetch_not_ready",
)
FLOAT_METRIC_KEYS = (
    "time_to_fresh_p50_s",
    "time_to_fresh_p99_s",
    "mean_staleness_s",
)


def run_client_metrics(spec: RunSpec) -> dict:
    return execute_spec(spec).client_summary


def assert_conformant(cohorted: dict, individual: dict) -> None:
    for key in EXACT_METRIC_KEYS:
        assert cohorted[key] == individual[key], (key, cohorted[key], individual[key])
    for key in FLOAT_METRIC_KEYS:
        a, b = cohorted[key], individual[key]
        if a is None or b is None:
            assert a == b, (key, a, b)
        else:
            assert math.isclose(a, b, rel_tol=REL_TOLERANCE, abs_tol=1e-9), (key, a, b)


@st.composite
def deterministic_workloads(draw):
    cohorts = draw(st.integers(min_value=1, max_value=4))
    per_cohort = draw(st.integers(min_value=1, max_value=6))
    return ClientWorkload(
        population=cohorts * per_cohort,
        cohort_count=cohorts,
        arrival="deterministic",
        # Off-round values keep completions away from tick boundaries.
        wave_interval_s=draw(st.sampled_from((17.0, 23.0, 31.0))),
        retry_backoff_s=draw(st.sampled_from((0.0, 19.0, 41.0))),
        fetch_interval_s=120.0,
        connection_timeout_s=draw(st.sampled_from((9.0, 18.0))),
        mirror_count=draw(st.integers(min_value=0, max_value=2)),
    )


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    workload=deterministic_workloads(),
    engine_transport=st.sampled_from(RUN_CASES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_cohorts_match_individual_clients_exactly_under_deterministic_arrivals(
    workload, engine_transport, seed
):
    engine, transport = engine_transport
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        seed=seed,
        transport=transport,
        max_time=800.0,
        client_workload=workload,
    )
    with use_engine(engine):
        cohorted = run_client_metrics(spec)
        individual = run_client_metrics(
            spec.derive(client_workload=workload.individualized())
        )
    if transport == "fifo" and workload.population > workload.cohort_count:
        # Fifo serves uplink queues in arrival order, so batch granularity is
        # observable (one aggregated response serializes differently from N
        # unit responses).  Aggregate conservation still holds exactly.
        assert cohorted["population"] == individual["population"]
        assert sum(cohorted["states"].values()) == cohorted["population"]
        assert sum(individual["states"].values()) == individual["population"]
        return
    assert_conformant(cohorted, individual)


@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    cohorts=st.integers(min_value=1, max_value=3),
    per_cohort=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_poisson_cohorts_obey_structural_invariants(cohorts, per_cohort, seed):
    workload = ClientWorkload(
        population=cohorts * per_cohort,
        cohort_count=cohorts,
        arrival="poisson",
        fetch_interval_s=45.0,
        wave_interval_s=15.0,
        retry_backoff_s=20.0,
    )
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        seed=seed,
        max_time=800.0,
        client_workload=workload,
    )
    for candidate in (workload, workload.individualized()):
        clients = run_client_metrics(spec.derive(client_workload=candidate))
        assert clients["population"] == workload.population
        assert sum(clients["states"].values()) == workload.population
        assert clients["fetch_successes"] == clients["states"]["fresh"]
        assert clients["fetch_successes"] <= clients["fetch_attempts"]
        assert (
            clients["fetch_timeouts"] + clients["fetch_not_ready"]
            <= clients["fetch_attempts"]
        )
        rate = clients["fetch_success_rate"]
        assert rate is None or 0.0 <= rate <= 1.0


def test_poisson_runs_are_deterministic_per_seed_and_vary_across_seeds():
    workload = ClientWorkload(
        population=200, cohort_count=4, arrival="poisson", fetch_interval_s=60.0
    )
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        max_time=800.0,
        client_workload=workload,
    )
    first = run_client_metrics(spec)
    assert run_client_metrics(spec) == first
    assert run_client_metrics(spec.derive(seed=99)) != first


@pytest.mark.parametrize("engine", ["reference", VECTOR])
def test_client_runs_agree_across_shared_engines(engine):
    # The lazy/reference/vector equivalence contract of the shared transport
    # extends to weighted client flows: identical integer accounting, float
    # metrics to rounding.
    workload = ClientWorkload(
        population=120,
        cohort_count=3,
        arrival="poisson",
        fetch_interval_s=60.0,
        mirror_count=2,
    )
    spec = RunSpec(
        protocol="current",
        relay_count=20,
        authority_count=5,
        max_time=800.0,
        client_workload=workload,
    )
    lazy = run_client_metrics(spec)
    with use_engine(engine):
        other = run_client_metrics(spec)
    for key in EXACT_METRIC_KEYS:
        assert other[key] == lazy[key], key
    for key in FLOAT_METRIC_KEYS:
        a, b = other[key], lazy[key]
        if a is None or b is None:
            assert a == b, key
        else:
            assert math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9), (key, a, b)
