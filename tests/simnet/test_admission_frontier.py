"""Admission frontiers against per-call admission, on whole runs.

The lazy shared scheduler rates the same-instant ``start_flows`` calls of one
*frontier* — a maximal run of them with no scheduler transition between — in
one pass; ``EagerAdmission`` (``eager_admission.py``) is the same scheduler
rating inside every call, a pass per send.  Rates depend on final occupancy
only and every intermediate rate lives for zero width, so the two may differ
in event bookkeeping alone: which heap serials re-aims consume, hence
same-instant tie-breaks, and (an event that no longer fires early no longer
chips progress there) the last bits of a completion time.  Everything integer
in a run summary must therefore agree **exactly** and every float to 1e-9
relative (the bar ``test_batch_dispatch.py`` sets for batched against
per-message dispatch), over seeded specs on all three shared models, with and
without a random fault plan, and on a small cohort + mirror flood, where most
sends share their instant with another.

The directed cases — what settles first at one instant, and in which order
callbacks fire — are in ``test_shared_sched.py``.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.figure13_clients import figure13_spec
from repro.faults.plan import EMPTY_FAULT_PLAN
from repro.protocols.runner import execute_spec
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec

from tests.faults.test_conformance import random_fault_plan
from tests.simnet.eager_admission import use_eager_admission
from tests.simnet.test_shared_sched import assert_equivalent

SHARED_TRANSPORTS = ("fair", "fifo", "tcp")

#: Float slack between the two admissions (``test_batch_dispatch.py``'s).
REL_TOLERANCE = 1e-9


def frontier_and_eager(spec: RunSpec):
    """Run ``spec`` both ways, hold the summaries equal, return the frontier run."""
    frontier = execute_spec(spec)
    with use_eager_admission():
        eager = execute_spec(spec)
    # Both ran what they are named for: eager settles once per call, the
    # frontier at most that often, and both admit the same flows.
    assert eager.engine_counters["admission_frontiers"] >= (
        frontier.engine_counters["admission_frontiers"]
    )
    assert eager.engine_counters["flows_admitted"] == frontier.engine_counters["flows_admitted"]
    assert_equivalent(eager.summary(), frontier.summary(), rel_tol=REL_TOLERANCE)
    return frontier


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    protocol=st.sampled_from(PROTOCOL_NAMES),
    transport=st.sampled_from(SHARED_TRANSPORTS),
    authorities=st.sampled_from((5, 9)),
    faulty=st.booleans(),
)
def test_frontier_admission_is_summary_equal_to_per_call_admission(
    seed, protocol, transport, authorities, faulty
):
    spec = RunSpec(
        protocol=protocol,
        relay_count=30,
        authority_count=authorities,
        seed=seed % 1000,
        max_time=700.0,
        transport=transport,
        fault_plan=random_fault_plan(seed, authorities) if faulty else EMPTY_FAULT_PLAN,
    )
    frontier_and_eager(spec)


@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    protocol=st.sampled_from(("current", "ours")),
    # Not fifo: sixteen identical mirrors finish identical fetches into one
    # authority at bit-identical instants, the tie-break decides the order of
    # its delivery batch, and on fifo that order *is* the order its answers
    # are served in — the one model where a permuted tie moves integers.
    transport=st.sampled_from(("fair", "tcp")),
)
def test_frontier_admission_is_summary_equal_on_a_cohort_and_mirror_flood(
    seed, protocol, transport
):
    # Four cohorts fetching through sixteen mirrors under the majority flood:
    # one wave tick sends from every cohort at one instant and a mirror
    # answers a delivery batch request by request, so frontiers hold many
    # calls — the shape the frontier exists for.
    spec = figure13_spec(
        protocol, 10_000, cohort_count=4, mirror_count=16, seed=seed,
        max_time=400.0, transport=transport,
    )
    frontier = frontier_and_eager(spec)
    assert frontier.client_summary["fetch_attempts"] > 0
    counters = frontier.engine_counters
    assert counters["flows_admitted"] > 5 * counters["admission_frontiers"]
