"""The run-description format: every declared field keys, writes and reads.

One walk over ``dataclasses.fields()`` of the six classes whose ``key()`` /
``to_dict()`` / ``from_dict()`` are derived by :mod:`repro.utils.records`.
Adding a field to any of them means adding one changed value to ``CHANGED``
below — the walk fails until it is there, and then holds the field to moving
the cache key and surviving a JSON round trip.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.clients.workload import ClientWorkload
from repro.faults.plan import AuthorityFault, FaultPlan, LinkFault
from repro.runtime.spec import BandwidthOverride, RunSpec
from repro.utils.records import record_from_dict, record_key, record_to_dict

DATA = Path(__file__).resolve().parent.parent / "data"

_LINK = LinkFault(
    authority_id=1,
    partition_windows=((0.0, 10.0),),
    drop_probability=0.1,
    loss_windows=((5.0, 6.0),),
    jitter_s=0.01,
)
_CRASH = AuthorityFault(authority_id=1, crash_windows=((0.0, 10.0),), byzantine="withhold")

#: One instance per class; each field of it is changed in turn.
BASE = {
    BandwidthOverride: BandwidthOverride(
        authority_id=1, base_mbps=100.0, windows=((0.0, 300.0, 0.5),)
    ),
    LinkFault: _LINK,
    AuthorityFault: _CRASH,
    FaultPlan: FaultPlan(link_faults=(_LINK,), authority_faults=(_CRASH,)),
    ClientWorkload: ClientWorkload(population=1000),
    RunSpec: RunSpec(protocol="current", relay_count=1000),
}

#: A different valid value for every field of every class.
CHANGED = {
    BandwidthOverride: dict(
        authority_id=2, base_mbps=50.0, windows=((0.0, 300.0, 0.25),)
    ),
    LinkFault: dict(
        authority_id=2,
        partition_windows=((0.0, 20.0),),
        drop_probability=0.2,
        loss_windows=((5.0, 7.0),),
        jitter_s=0.02,
    ),
    AuthorityFault: dict(
        authority_id=2, crash_windows=((0.0, 20.0),), byzantine="equivocate"
    ),
    FaultPlan: dict(link_faults=(), authority_faults=()),
    ClientWorkload: dict(
        population=2000,
        cohort_count=16,
        arrival="deterministic",
        fetch_interval_s=60.0,
        wave_interval_s=5.0,
        retry_backoff_s=30.0,
        connection_timeout_s=9.0,
        servers_per_wave=4,
        mirror_count=8,
        mirror_bandwidth_mbps=100.0,
        mirror_poll_interval_s=5.0,
        client_downlink_mbps=10.0,
        client_uplink_mbps=1.0,
        client_latency_s=0.1,
        request_bytes=1024,
    ),
    RunSpec: dict(
        protocol="ours",
        relay_count=2000,
        bandwidth_mbps=10.0,
        seed=8,
        engine="pbft",
        transport="fifo",
        authority_count=7,
        content_relay_cap=60,
        max_time=60.0,
        delta=15.0,
        view_timeout=20.0,
        config_overrides=(("connection_timeout", 30.0),),
        bandwidth_overrides=(BandwidthOverride(authority_id=0, base_mbps=0.5),),
        fault_plan=FaultPlan.partition((0, 1), 0.0, 300.0),
        client_workload=ClientWorkload(population=1000),
    ),
}


def _key(record):
    # BandwidthOverride has no key() of its own: it keys as part of its spec.
    return record.key() if hasattr(record, "key") else record_key(record)


@pytest.mark.parametrize(
    "cls, name",
    [(cls, field.name) for cls in BASE for field in dataclasses.fields(cls)],
    ids=lambda value: getattr(value, "__name__", value),
)
def test_every_field_moves_the_key_and_survives_a_json_round_trip(cls, name):
    assert name in CHANGED[cls], "new field %s.%s: add a changed value" % (cls.__name__, name)
    base = BASE[cls]
    variant = dataclasses.replace(base, **{name: CHANGED[cls][name]})
    assert _key(variant) != _key(base)
    for record in (base, variant):
        rebuilt = cls.from_dict(json.loads(json.dumps(record.to_dict())))
        assert rebuilt == record
        assert _key(rebuilt) == _key(record)
    if cls is RunSpec:
        assert variant.spec_hash() != base.spec_hash()


def test_a_client_free_spec_keys_without_a_trailing_none():
    base = BASE[RunSpec]
    assert len(base.key()) == len(dataclasses.fields(RunSpec)) - 1
    assert base.with_clients(ClientWorkload(population=1000)).key()[:-1] == base.key()


def test_from_dict_takes_missing_keys_from_the_defaults_and_ignores_unknown_ones():
    assert ClientWorkload.from_dict({"population": 50, "cohort_count": 5}) == ClientWorkload(
        population=50, cohort_count=5
    )
    assert RunSpec.from_dict(
        {"protocol": "ours", "relay_count": 10, "format": 4, "retired_field": 1}
    ) == RunSpec(protocol="ours", relay_count=10)
    with pytest.raises(TypeError):  # a required field has no default to fall back on
        RunSpec.from_dict({"protocol": "ours"})


def _without_format(node):
    if isinstance(node, dict):
        return {k: _without_format(v) for k, v in node.items() if k != "format"}
    if isinstance(node, list):
        return [_without_format(v) for v in node]
    return node


def test_a_committed_spec_block_with_legacy_format_keys_reads_equal_to_its_spec():
    block = json.loads((DATA / "golden_client_run.json").read_text())["spec"]
    # Written when to_dict() still stamped three version numbers nobody read.
    assert block["format"] == 5
    assert block["fault_plan"]["format"] == 1
    assert block["client_workload"]["format"] == 1
    spec = RunSpec.from_dict(block)
    assert spec == RunSpec.from_dict(_without_format(block))
    assert spec.to_dict() == _without_format(block)
    assert spec.client_workload == ClientWorkload(
        population=40,
        cohort_count=4,
        fetch_interval_s=90.0,
        wave_interval_s=20.0,
        retry_backoff_s=30.0,
        servers_per_wave=2,
        mirror_count=2,
    )


def test_an_annotation_the_codec_does_not_know_is_an_error_not_a_silent_identity():
    @dataclasses.dataclass(frozen=True)
    class Odd:
        values: frozenset = frozenset()

    for use in (record_key, record_to_dict):
        with pytest.raises(TypeError):
            use(Odd())
    with pytest.raises(TypeError):
        record_from_dict(Odd, {})
