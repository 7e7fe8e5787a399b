"""Relay descriptor tests."""

import pytest

from repro.directory.relay import RELAY_FLAGS, ExitPolicySummary, Relay, RelayFlag
from repro.utils.validation import ValidationError


def make_relay(**overrides):
    defaults = dict(fingerprint="A" * 40, nickname="relay0")
    defaults.update(overrides)
    return Relay(**defaults)


def test_fingerprint_must_be_40_chars():
    with pytest.raises(ValidationError):
        make_relay(fingerprint="ABC")


def test_nickname_must_not_be_empty():
    with pytest.raises(ValidationError):
        make_relay(nickname="")


def test_negative_bandwidth_rejected():
    with pytest.raises(ValidationError):
        make_relay(bandwidth=-1)


def test_flag_constants_are_sorted_and_complete():
    assert list(RELAY_FLAGS) == sorted(RELAY_FLAGS)
    assert RelayFlag.RUNNING in RELAY_FLAGS
    assert RelayFlag.EXIT in RELAY_FLAGS


def test_serialization_contains_expected_lines():
    relay = make_relay(flags=frozenset({RelayFlag.RUNNING, RelayFlag.FAST}))
    text = relay.serialize()
    assert text.startswith("r relay0 " + "A" * 40)
    assert "\ns Fast Running\n" in text
    assert "\nv Tor " in text
    assert "\nw Bandwidth=" in text
    assert text.endswith("\n")


def test_serialized_flags_are_sorted():
    relay = make_relay(flags=frozenset({RelayFlag.VALID, RelayFlag.EXIT, RelayFlag.GUARD}))
    s_line = [line for line in relay.serialize().splitlines() if line.startswith("s ")][0]
    flags = s_line[2:].split()
    assert flags == sorted(flags)


def test_entry_size_realistic():
    # Vote entries on the live network are a few hundred bytes; the bandwidth
    # calibration in DESIGN-calibration.md assumes roughly 300-450 bytes per
    # relay.
    size = make_relay().entry_size_bytes
    assert 250 <= size <= 600


def test_measured_flag_changes_w_line():
    relay = make_relay(bandwidth=500, measured=True)
    assert "Measured=500" in relay.serialize()
    relay = make_relay(bandwidth=500, measured=False)
    assert "Measured" not in relay.serialize()


def test_exit_policy_serialization_and_ordering():
    accept = ExitPolicySummary(accept=True, ports="80,443")
    reject = ExitPolicySummary(accept=False, ports="1-65535")
    assert accept.serialize() == "p accept 80,443"
    assert reject.serialize() == "p reject 1-65535"
    # "reject" > "accept" lexicographically, matching the tie-break rule.
    assert max([accept, reject], key=lambda p: p.sort_key()) is reject
