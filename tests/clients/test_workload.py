"""ClientWorkload tests: validation, splitting, hashing, serialization.

Field-by-field key sensitivity lives in tests/runtime/test_records.py.
"""

import pytest

from repro.clients.workload import ClientWorkload
from repro.runtime.spec import RunSpec


def test_workload_is_frozen_and_hashable():
    a = ClientWorkload(population=1000)
    b = ClientWorkload(population=1000)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.population = 2000


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(population=0),
        dict(population=10, cohort_count=0),
        dict(population=10, cohort_count=11),  # empty cohorts
        dict(population=10, arrival="fractal"),
        dict(population=10, fetch_interval_s=0.0),
        dict(population=10, wave_interval_s=-1.0),
        dict(population=10, retry_backoff_s=-0.1),
        dict(population=10, connection_timeout_s=0.0),
        dict(population=10, servers_per_wave=0),
        dict(population=10, mirror_count=-1),
        dict(population=10, client_downlink_mbps=0.0),
        dict(population=10, request_bytes=0),
    ],
)
def test_invalid_workloads_are_rejected(kwargs):
    with pytest.raises(Exception):
        ClientWorkload(**kwargs)


def test_cohort_populations_split_evenly_with_remainder_up_front():
    workload = ClientWorkload(population=10, cohort_count=3)
    assert workload.cohort_populations() == (4, 3, 3)
    assert sum(workload.cohort_populations()) == 10

    exact = ClientWorkload(population=9, cohort_count=3)
    assert exact.cohort_populations() == (3, 3, 3)


def test_individualized_puts_every_client_in_its_own_cohort():
    workload = ClientWorkload(population=12, cohort_count=3)
    singles = workload.individualized()
    assert singles.cohort_count == 12
    assert singles.cohort_populations() == (1,) * 12
    # Everything else is unchanged.
    assert singles.fetch_interval_s == workload.fetch_interval_s
    assert singles.arrival == workload.arrival


def test_to_dict_round_trips():
    workload = ClientWorkload(
        population=5000,
        cohort_count=8,
        arrival="deterministic",
        mirror_count=4,
        servers_per_wave=2,
        client_latency_s=0.12,
    )
    assert ClientWorkload.from_dict(workload.to_dict()) == workload


def test_spec_hash_unchanged_without_a_workload_and_sensitive_with_one():
    base = RunSpec(protocol="current", relay_count=1000)
    # The pinned pre-v5 digest (see test_spec.py): attaching no workload must
    # not move it, attaching one must.
    assert base.spec_hash() == (
        "77d77617e5f628d657be029d2ce3f072d0a6dd0e6888b79b20e04d75150e732f"
    )
    with_clients = base.with_clients(ClientWorkload(population=1000))
    assert with_clients.spec_hash() != base.spec_hash()
    assert with_clients.with_clients(None).spec_hash() == base.spec_hash()
    assert (
        base.with_clients(ClientWorkload(population=2000)).spec_hash()
        != with_clients.spec_hash()
    )


def test_spec_with_workload_round_trips_through_to_dict():
    spec = RunSpec(
        protocol="ours",
        relay_count=50,
        client_workload=ClientWorkload(population=640, cohort_count=4, mirror_count=2),
    )
    data = spec.to_dict()
    assert data["client_workload"]["population"] == 640
    assert RunSpec.from_dict(data) == spec
    # Workload-free specs serialize a null workload, and dicts written before
    # the field existed (no "client_workload") read back as workload-free.
    bare = RunSpec(protocol="ours", relay_count=50)
    bare_data = bare.to_dict()
    assert bare_data.pop("client_workload") is None
    assert RunSpec.from_dict(bare_data) == bare
