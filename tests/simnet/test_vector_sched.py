"""Vector-engine conformance: SoA batch scheduling ≡ lazy, summary-level.

The vectorized shared-link scheduler (:mod:`repro.simnet.vector_sched`)
coalesces same-instant work and recomputes rates over numpy slot arrays, so
it does *not* reproduce the lazy engine's event order or float rounding —
flows chip progress at recompute instants rather than per flow event, and
same-instant completions settle in flow-id batches.  Its contract is
therefore pinned one level up, exactly where the lazy/reference contract
lives: **summary equivalence** on ``fair`` — integer accounting (deliveries,
timeouts, drops, per-phase message counts) equal exactly, continuous values
(bytes, timestamps, latencies) within ``REL_TOLERANCE`` — plus the canonical
transport workload compared as an event *multiset* (never order).  The
edge-case battery in ``test_shared_sched.py`` runs on both engines.

A network gets this engine only by asking for it, and an ask it cannot
honour fails: without numpy, or for a model with no vector policy.  That
test runs on every install; the rest skip without numpy.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.protocols.runner import execute_spec
from repro.runtime.spec import PROTOCOL_NAMES, RunSpec
from repro.simnet import vector_sched
from repro.simnet.linkmodel import LINK_MODELS, FairShareLinkModel
from repro.simnet.network import SimNetwork
from repro.simnet.vector_sched import VECTOR_POLICIES, VectorSharedLinkScheduler
from repro.utils.validation import ValidationError
from tests.faults.test_conformance import random_fault_plan
from tests.simnet.reference_sched import needs_numpy, use_engine
from tests.simnet.test_shared_sched import REL_TOLERANCE, assert_equivalent
from tests.simnet.test_transport_golden import run_transport_workload


# -- building the engine -------------------------------------------------------

class _RenamedFair(FairShareLinkModel):
    name = "test-vector-renamed-fair"


@pytest.mark.parametrize(
    "transport, hide_numpy",
    [
        ("fifo", False),  # no vector policy
        (_RenamedFair.name, False),  # nor for a newly registered model
        ("fair", True),  # a policy, but no numpy
    ],
    ids=["fifo", "registered-subclass", "numpy-hidden"],
)
def test_a_vector_request_it_cannot_run_raises(transport, hide_numpy, monkeypatch):
    monkeypatch.setitem(LINK_MODELS, _RenamedFair.name, _RenamedFair)
    if hide_numpy:
        monkeypatch.setattr(vector_sched, "_np", None)
    with pytest.raises(ValidationError):
        SimNetwork(transport=transport, shared_engine="vector")


@needs_numpy
@pytest.mark.parametrize("transport", sorted(VECTOR_POLICIES))
def test_a_vector_request_builds_the_vector_engine(transport):
    network = SimNetwork(transport=transport, shared_engine="vector")
    assert type(network._scheduler) is VectorSharedLinkScheduler
    # The fixture the spec-level checks below use reaches the same engine.
    with use_engine("vector"):
        assert type(SimNetwork(transport=transport)._scheduler) is VectorSharedLinkScheduler


# -- conformance: vector engine vs lazy engine ---------------------------------

@needs_numpy
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    protocol=st.sampled_from(PROTOCOL_NAMES),
)
def test_vector_engine_is_summary_equivalent_to_lazy_under_random_fault_plans(seed, protocol):
    spec = RunSpec(
        protocol=protocol,
        relay_count=30,
        authority_count=5,
        seed=seed % 1000,
        max_time=700.0,
        transport="fair",
        fault_plan=random_fault_plan(seed),
    )
    lazy = execute_spec(spec).summary()
    with use_engine("vector"):
        vector = execute_spec(spec).summary()
    assert lazy["success"] == vector["success"]
    assert lazy["stats"]["messages_sent"] == vector["stats"]["messages_sent"]
    assert lazy["stats"]["messages_delivered"] == vector["stats"]["messages_delivered"]
    assert lazy["stats"]["messages_timed_out"] == vector["stats"]["messages_timed_out"]
    assert lazy["stats"]["messages_dropped"] == vector["stats"]["messages_dropped"]
    if lazy["faults"]:
        assert lazy["faults"]["drops_by_cause"] == vector["faults"]["drops_by_cause"]
    assert_equivalent(lazy, vector)


@needs_numpy
def test_vector_engine_matches_lazy_on_the_golden_workload_as_a_multiset():
    # The canonical mixed workload: the vector engine settles same-instant
    # completions in flow-id batches, so event ORDER may legitimately differ
    # from lazy — the comparison sorts both streams by a timestamp-free key
    # and checks each matched pair's timestamp to tolerance.
    lazy = run_transport_workload("fair")
    with use_engine("vector"):
        vector = run_transport_workload("fair")
    assert lazy["stats"] == vector["stats"]
    assert len(lazy["events"]) == len(vector["events"])

    def keyed(record):
        kind, msg_type, sender, dst, size, now = record
        return ((kind, msg_type, sender, dst, size), now)

    old = sorted(map(keyed, lazy["events"]))
    new = sorted(map(keyed, vector["events"]))
    for (old_key, old_now), (new_key, new_now) in zip(old, new):
        assert old_key == new_key
        assert math.isclose(old_now, new_now, rel_tol=REL_TOLERANCE, abs_tol=1e-9)
