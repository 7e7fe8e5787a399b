"""Scenario builder and protocol runner tests."""

import pytest

from repro.protocols.runner import PROTOCOL_NAMES, build_scenario, run_protocol
from repro.simnet.bandwidth import BandwidthSchedule
from repro.utils.validation import ValidationError


def test_build_scenario_structure():
    scenario = build_scenario(relay_count=3000, bandwidth_mbps=50.0, seed=1)
    assert len(scenario.authorities) == 9
    assert set(scenario.votes) == {auth.authority_id for auth in scenario.authorities}
    assert scenario.relay_count == 3000
    # Votes are padded to the requested relay count even though fewer relays
    # are materialised.
    assert scenario.votes[0].relay_count <= 120
    assert scenario.votes[0].size_bytes > 800_000


def test_build_scenario_validation():
    with pytest.raises(Exception):
        build_scenario(relay_count=0)
    with pytest.raises(Exception):
        build_scenario(relay_count=100, bandwidth_mbps=0)


def test_with_bandwidth_schedules_merges_without_mutating():
    scenario = build_scenario(relay_count=1000, bandwidth_mbps=100.0, seed=1)
    override = {0: BandwidthSchedule.constant_mbps(1.0)}
    patched = scenario.with_bandwidth_schedules(override)
    assert patched.bandwidth_schedules[0].rate_at(0) < scenario.bandwidth_schedules[0].rate_at(0)
    assert patched.bandwidth_schedules[1] is scenario.bandwidth_schedules[1]
    assert scenario.bandwidth_schedules[0].rate_at(0) > 1e6


def test_unknown_protocol_rejected():
    scenario = build_scenario(relay_count=1000, seed=1)
    with pytest.raises(ValidationError):
        run_protocol("carrier-pigeon", scenario)


def test_protocol_names_constant():
    assert set(PROTOCOL_NAMES) == {"current", "synchronous", "ours"}


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES)
def test_all_protocols_succeed_at_live_bandwidth(protocol):
    scenario = build_scenario(relay_count=2000, bandwidth_mbps=250.0, seed=2)
    result = run_protocol(protocol, scenario, max_time=1200.0)
    assert result.success
    assert result.latency is not None and result.latency > 0
    assert len(result.successful_authorities) >= 5
    # All successful authorities agreed on the same consensus digest.
    digests = {
        outcome.consensus_digest
        for outcome in result.outcomes.values()
        if outcome.success and outcome.consensus_digest
    }
    assert len(digests) == 1


def test_result_latency_from_reference_time():
    scenario = build_scenario(relay_count=1000, bandwidth_mbps=250.0, seed=3)
    result = run_protocol("ours", scenario, max_time=1200.0)
    assert result.success
    shifted = result.latency_from(0.0)
    assert shifted == pytest.approx(
        sum(
            outcome.completion_time
            for outcome in result.outcomes.values()
            if outcome.success
        )
        / len(result.successful_authorities)
    )


def test_stats_and_trace_populated():
    scenario = build_scenario(relay_count=1000, bandwidth_mbps=250.0, seed=4)
    result = run_protocol("current", scenario, max_time=1200.0)
    assert result.stats.total_bytes_delivered > 0
    assert result.stats.bytes_by_type.get("V3/VOTE", 0) > 0
    assert len(result.trace) > 0


def test_alternate_votes_honour_the_callers_view_config():
    """An equivocator's conflicting vote is the caller's view under another seed."""
    from dataclasses import replace

    from repro.faults.plan import FaultPlan
    from repro.netgen.relaygen import RelayPopulationConfig, generate_population
    from repro.netgen.views import AuthorityViewConfig, generate_authority_votes
    from repro.protocols.runner import _ALTERNATE_VOTE_SEED_OFFSET

    view = AuthorityViewConfig(miss_probability=0.5, flag_flip_probability=0.2, seed=3)
    scenario = build_scenario(
        relay_count=100,
        seed=5,
        view_config=view,
        fault_plan=FaultPlan.byzantine(2, "equivocate"),
    )
    assert set(scenario.alternate_votes) == {2}
    alternate = scenario.alternate_votes[2]
    # Half the relays are missed, as in the real vote — not the default 1%.
    assert alternate.relay_count < 75
    assert alternate.digest() != scenario.votes[2].digest()
    expected = generate_authority_votes(
        generate_population(RelayPopulationConfig(relay_count=100, seed=5)),
        scenario.authorities,
        config=replace(view, seed=view.seed + _ALTERNATE_VOTE_SEED_OFFSET),
        padded_relay_count=100,
    )[2]
    assert alternate.serialize() == expected.serialize()
