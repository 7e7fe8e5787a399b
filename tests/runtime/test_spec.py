"""RunSpec/SweepSpec tests: hashing stability, serialization, grid building."""

import pytest

from repro.protocols.base import DirectoryProtocolConfig
from repro.runtime.spec import (
    BandwidthOverride,
    RunSpec,
    SweepSpec,
    overrides_from_config,
)
from repro.utils.units import mbps_to_bytes_per_s
from repro.utils.validation import ValidationError


def test_specs_are_frozen_hashable_and_comparable():
    a = RunSpec(protocol="current", relay_count=1000)
    b = RunSpec(protocol="current", relay_count=1000)
    c = RunSpec(protocol="ours", relay_count=1000)
    assert a == b and hash(a) == hash(b)
    assert a != c
    with pytest.raises(Exception):
        a.protocol = "ours"


def test_spec_hash_is_stable_and_sensitive_to_every_field():
    base = RunSpec(protocol="current", relay_count=1000)
    assert base.spec_hash() == RunSpec(protocol="current", relay_count=1000).spec_hash()
    # Recorded digest: guards the derivation against accidental changes that
    # would silently invalidate (or worse, alias) existing on-disk caches.
    # (Recomputed when the fault plan joined the key; CACHE_FORMAT_VERSION 2.)
    assert base.spec_hash() == (
        "77d77617e5f628d657be029d2ce3f072d0a6dd0e6888b79b20e04d75150e732f"
    )
    # Sensitivity is held field by field, for every declared field, by
    # tests/runtime/test_records.py; the helper below is not a field.
    assert base.with_attacked_bandwidth((0, 1), 0.5).spec_hash() != base.spec_hash()


def test_unknown_config_override_names_are_rejected_at_construction():
    # Used to construct, hash into the cache key, and only fail as a bare
    # TypeError from DirectoryProtocolConfig.__init__ inside a pool worker.
    with pytest.raises(ValidationError, match="conection_timeout"):
        RunSpec(
            protocol="current",
            relay_count=1000,
            config_overrides=(("conection_timeout", 30.0),),
        )
    with pytest.raises(ValidationError, match="conection_timeout"):
        RunSpec.from_dict(
            {
                "protocol": "current",
                "relay_count": 1000,
                "config_overrides": [["conection_timeout", 30.0]],
            }
        )


def test_config_override_int_and_float_values_hash_equally():
    as_int = RunSpec(
        protocol="current", relay_count=1000, config_overrides=(("connection_timeout", 30),)
    )
    as_float = RunSpec(
        protocol="current", relay_count=1000, config_overrides=(("connection_timeout", 30.0),)
    )
    assert as_int == as_float
    assert as_int.spec_hash() == as_float.spec_hash()


def test_config_override_order_does_not_change_the_hash():
    a = RunSpec(
        protocol="current",
        relay_count=1000,
        config_overrides=(("round_duration", 100.0), ("connection_timeout", 30.0)),
    )
    b = RunSpec(
        protocol="current",
        relay_count=1000,
        config_overrides=(("connection_timeout", 30.0), ("round_duration", 100.0)),
    )
    assert a.spec_hash() == b.spec_hash()


def test_to_dict_round_trip_preserves_hash():
    spec = RunSpec(
        protocol="ours",
        relay_count=4000,
        bandwidth_mbps=20.0,
        engine="tendermint",
        config_overrides=(("connection_timeout", 30.0),),
        bandwidth_overrides=(
            BandwidthOverride(authority_id=0, base_mbps=250.0, windows=((0.0, 300.0, 0.5),)),
        ),
    )
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.spec_hash() == spec.spec_hash()


def test_overrides_from_config_only_keeps_non_defaults():
    assert overrides_from_config(None) == ()
    assert overrides_from_config(DirectoryProtocolConfig()) == ()
    config = DirectoryProtocolConfig(connection_timeout=30.0)
    assert overrides_from_config(config) == (("connection_timeout", 30.0),)
    spec = RunSpec(protocol="current", relay_count=100).with_config(config)
    assert spec.protocol_config() == config


def test_invalid_specs_rejected():
    with pytest.raises(Exception):
        RunSpec(protocol="carrier-pigeon", relay_count=100)
    with pytest.raises(Exception):
        RunSpec(protocol="current", relay_count=0)
    with pytest.raises(Exception):
        RunSpec(protocol="current", relay_count=100, bandwidth_mbps=0.0)
    with pytest.raises(Exception):
        RunSpec(protocol="current", relay_count=100, max_time=0.0)


def test_bandwidth_override_schedule_applies_windows():
    override = BandwidthOverride(
        authority_id=3, base_mbps=250.0, windows=((100.0, 400.0, 0.5),)
    )
    schedule = override.schedule()
    assert schedule.rate_at(0.0) == pytest.approx(mbps_to_bytes_per_s(250.0))
    assert schedule.rate_at(200.0) == pytest.approx(mbps_to_bytes_per_s(0.5))
    assert schedule.rate_at(500.0) == pytest.approx(mbps_to_bytes_per_s(250.0))


def test_sweep_grid_order_matches_figure_loops():
    sweep = SweepSpec.grid(
        "g",
        protocols=("current", "ours"),
        bandwidths_mbps=(50.0, 10.0),
        relay_counts=(1000, 2000),
        seed=3,
    )
    assert len(sweep) == 8
    assert [(s.bandwidth_mbps, s.relay_count, s.protocol) for s in sweep][:4] == [
        (50.0, 1000, "current"),
        (50.0, 1000, "ours"),
        (50.0, 2000, "current"),
        (50.0, 2000, "ours"),
    ]
    assert all(spec.seed == 3 for spec in sweep)
    assert sweep.sweep_hash() == SweepSpec.grid(
        "g",
        protocols=("current", "ours"),
        bandwidths_mbps=(50.0, 10.0),
        relay_counts=(1000, 2000),
        seed=3,
    ).sweep_hash()


# -- transport model on specs (PR 3) -------------------------------------------

def test_transport_is_validated_against_the_link_model_registry():
    assert RunSpec(protocol="current", relay_count=10, transport="latency-only")
    with pytest.raises(Exception):
        RunSpec(protocol="current", relay_count=10, transport="token-ring")


def test_transport_round_trips_and_differentiates_the_hash():
    fair = RunSpec(protocol="current", relay_count=10)
    fast = fair.derive(transport="latency-only")
    assert fair.spec_hash() != fast.spec_hash()
    rebuilt = RunSpec.from_dict(fast.to_dict())
    assert rebuilt == fast
    assert rebuilt.transport == "latency-only"


# -- fault plans on specs (PR 2) ----------------------------------------------

def test_fault_plan_participates_in_spec_hash_and_serialization():
    from repro.faults.plan import FaultPlan

    base = RunSpec(protocol="ours", relay_count=500)
    faulted = base.with_faults(FaultPlan.partition((0, 1), 0.0, 300.0))
    assert faulted.fault_plan
    # A non-empty plan hashes differently from its fault-free twin...
    assert faulted.spec_hash() != base.spec_hash()
    # ...and differently from a different plan.
    other = base.with_faults(FaultPlan.byzantine(0, "withhold"))
    assert faulted.spec_hash() != other.spec_hash()
    # Serialization round-trips the plan and the hash.
    rebuilt = RunSpec.from_dict(faulted.to_dict())
    assert rebuilt == faulted
    assert rebuilt.spec_hash() == faulted.spec_hash()


def test_with_faults_merges_into_the_existing_plan():
    from repro.faults.plan import FaultPlan

    spec = (
        RunSpec(protocol="ours", relay_count=100)
        .with_faults(FaultPlan.crash(1, [(10.0, 20.0)]))
        .with_faults(FaultPlan.partition((2,), 0.0, 50.0))
    )
    assert spec.fault_plan.authority_fault_for(1) is not None
    assert spec.fault_plan.link_fault_for(2) is not None


def test_fault_plan_referencing_unknown_authority_is_rejected():
    from repro.faults.plan import FaultPlan

    with pytest.raises(Exception):
        RunSpec(
            protocol="current",
            relay_count=100,
            authority_count=5,
            fault_plan=FaultPlan.crash(7, [(0.0, 10.0)]),
        )


def test_fault_plan_must_be_a_fault_plan_instance():
    with pytest.raises(Exception):
        RunSpec(protocol="current", relay_count=100, fault_plan={"link_faults": []})


# -- validation gaps closed while testing the fault layer ---------------------

def test_bandwidth_override_referencing_unknown_authority_is_rejected():
    with pytest.raises(Exception):
        RunSpec(
            protocol="current",
            relay_count=100,
            authority_count=5,
            bandwidth_overrides=(BandwidthOverride(authority_id=9, base_mbps=10.0),),
        )


def test_malformed_bandwidth_override_windows_are_rejected():
    with pytest.raises(Exception):  # inverted window
        BandwidthOverride(authority_id=0, base_mbps=250.0, windows=((300.0, 100.0, 0.5),))
    with pytest.raises(Exception):  # negative start
        BandwidthOverride(authority_id=0, base_mbps=250.0, windows=((-1.0, 100.0, 0.5),))
    with pytest.raises(Exception):  # negative rate
        BandwidthOverride(authority_id=0, base_mbps=250.0, windows=((0.0, 100.0, -0.5),))
    with pytest.raises(Exception):  # not a triple
        BandwidthOverride(authority_id=0, base_mbps=250.0, windows=((0.0, 100.0),))


def test_sweeps_reject_empty_grids_and_non_spec_members():
    with pytest.raises(Exception):
        SweepSpec(name="empty", runs=())
    with pytest.raises(Exception):
        SweepSpec(name="bad", runs=("current",))
