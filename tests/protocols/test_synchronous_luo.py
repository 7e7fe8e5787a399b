"""Synchronous (Luo et al.) protocol behaviour tests."""


from repro.crypto.digest import sha256_digest
from repro.protocols import synchronous_luo
from repro.protocols.base import DirectoryProtocolConfig
from repro.protocols.runner import build_scenario, run_protocol
from repro.protocols.synchronous_luo import SynchronousLuoAuthority

CONFIG = DirectoryProtocolConfig()


def run_sync(scenario, config=CONFIG):
    return run_protocol(
        "synchronous", scenario, config=config, max_time=4 * config.round_duration + 60
    )


def test_succeeds_at_high_bandwidth_with_higher_latency_than_current():
    scenario = build_scenario(relay_count=2000, bandwidth_mbps=100.0, seed=21)
    sync_result = run_sync(scenario)
    current_result = run_protocol("current", scenario, config=CONFIG, max_time=700)
    assert sync_result.success and current_result.success
    # Packing every list into the vote makes the synchronous protocol slower.
    assert sync_result.latency > current_result.latency


def test_uses_much_more_bandwidth_than_current():
    scenario = build_scenario(relay_count=2000, bandwidth_mbps=100.0, seed=21)
    sync_result = run_sync(scenario)
    current_result = run_protocol("current", scenario, config=CONFIG, max_time=700)
    assert (
        sync_result.stats.total_bytes_delivered
        > 3 * current_result.stats.total_bytes_delivered
    )


def test_fails_at_lower_relay_count_than_current():
    # At 10 Mbit/s the synchronous protocol collapses around 2,000+ relays
    # while the current protocol still works (Figure 10's key ordering).
    scenario = build_scenario(relay_count=4000, bandwidth_mbps=10.0, seed=22)
    assert not run_sync(scenario).success
    assert run_protocol("current", scenario, config=CONFIG, max_time=700).success


def test_fails_under_ddos_residual_bandwidth():
    scenario = build_scenario(relay_count=1000, bandwidth_mbps=0.5, seed=23)
    assert not run_sync(scenario).success


def test_successful_run_agrees_on_single_digest():
    scenario = build_scenario(relay_count=1000, bandwidth_mbps=100.0, seed=24)
    result = run_sync(scenario)
    assert result.success
    digests = {
        outcome.consensus_digest for outcome in result.outcomes.values() if outcome.success
    }
    assert len(digests) == 1


def test_relayed_copies_of_one_package_are_digested_once(
    monkeypatch, nine_authorities, small_votes
):
    authorities, ring = nine_authorities
    node = SynchronousLuoAuthority(authorities[0], authorities, small_votes[0], ring, CONFIG)
    hashed = []

    def counting_sha256(text):
        hashed.append(text)
        return sha256_digest(text)

    monkeypatch.setattr(synchronous_luo, "sha256_digest", counting_sha256)
    package = dict(small_votes)
    digest = node._package_digest(package)
    # Every relayer forwards its own dict of the same vote objects.
    assert all(node._package_digest(dict(package)) == digest for _ in range(8))
    assert len(hashed) == 1
    # A sender mutating the dict it sent cannot stale the memo …
    del package[8]
    assert node._package_digest(package) != digest
    # … and any different package is digested afresh, in both directions.
    assert node._package_digest(dict(small_votes)) == digest
    assert len(hashed) == 3
    members = "".join(small_votes[authority_id].digest_hex() for authority_id in sorted(small_votes))
    assert digest == sha256_digest(members)
