"""Per-authority views of a relay population.

Real directory authorities do not see identical relay populations: a relay's
self-published descriptor may have reached one authority and not another,
reachability tests disagree, and only bandwidth authorities attach measured
bandwidths.  Those disagreements are exactly what makes the Figure-2
aggregation algorithm non-trivial, so the vote generator models them:

* each authority *misses* a small fraction of relays entirely,
* each authority flips Running/Stable/Guard flags on a small fraction,
* bandwidth authorities attach noisy measured bandwidths,
* a small fraction of nicknames disagree (exercising the largest-authority-ID
  rule).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Mapping, Optional, Sequence

from repro.directory.authority import DirectoryAuthority
from repro.directory.relay import Relay, RelayFlag
from repro.directory.vote import VoteDocument
from repro.netgen.relaygen import RelayPopulation
from repro.utils.rng import DeterministicRNG
from repro.utils.validation import ensure


@dataclass(frozen=True)
class AuthorityViewConfig:
    """Controls how much authorities' views disagree."""

    miss_probability: float = 0.01
    flag_flip_probability: float = 0.03
    nickname_disagreement_probability: float = 0.002
    measurement_noise: float = 0.10
    seed: int = 11

    def __post_init__(self) -> None:
        for name in (
            "miss_probability",
            "flag_flip_probability",
            "nickname_disagreement_probability",
        ):
            value = getattr(self, name)
            ensure(0.0 <= value <= 1.0, "%s must be within [0, 1]" % name)
        ensure(self.measurement_noise >= 0.0, "measurement_noise must be non-negative")


def _perturbed_flags(
    rng: DeterministicRNG, relay: Relay, config: AuthorityViewConfig
) -> FrozenSet[str]:
    flags = set(relay.flags)
    for flag in (RelayFlag.RUNNING, RelayFlag.STABLE, RelayFlag.GUARD, RelayFlag.FAST):
        if rng.bernoulli(config.flag_flip_probability):
            if flag in flags:
                flags.discard(flag)
            else:
                flags.add(flag)
    return frozenset(flags)


def _authority_entry(
    rng: DeterministicRNG,
    relay: Relay,
    authority: DirectoryAuthority,
    config: AuthorityViewConfig,
) -> Relay:
    # The draws keep their order (flags, nickname, bandwidth noise) — seeded
    # content depends on it — but the entry is constructed once at the end.
    flags = _perturbed_flags(rng, relay, config)
    nickname = relay.nickname
    if rng.bernoulli(config.nickname_disagreement_probability):
        nickname += "x"
    bandwidth, measured = relay.bandwidth, relay.measured
    if authority.is_bandwidth_authority:
        noise = 1.0 + rng.uniform(-config.measurement_noise, config.measurement_noise)
        bandwidth, measured = max(1, int(relay.bandwidth * noise)), True
    return replace(
        relay, flags=flags, nickname=nickname, bandwidth=bandwidth, measured=measured
    )


def generate_authority_view_entries(
    population: RelayPopulation,
    authorities: Sequence[DirectoryAuthority],
    config: AuthorityViewConfig = AuthorityViewConfig(),
) -> Dict[int, Dict[str, Relay]]:
    """Draw every authority's view of ``population``: the stochastic half.

    Returns a mapping from authority ID to the relay entries that authority
    lists, indexed by fingerprint (in population order) — the ``relays`` map
    of its vote.  Everything random about a vote is decided here;
    :func:`votes_from_view_entries` only wraps the maps in documents, so one
    entry set serves votes of any ``padded_relay_count``.
    """
    ensure(len(authorities) > 0, "need at least one authority")
    base_rng = DeterministicRNG(config.seed).child("authority-views")
    entries: Dict[int, Dict[str, Relay]] = {}
    for authority in authorities:
        auth_rng = base_rng.child(authority.authority_id)
        seen: Dict[str, Relay] = {}
        for index, relay in enumerate(population.relays):
            relay_rng = auth_rng.child(index)
            if relay_rng.bernoulli(config.miss_probability):
                continue
            seen[relay.fingerprint] = _authority_entry(relay_rng, relay, authority, config)
        entries[authority.authority_id] = seen
    return entries


def votes_from_view_entries(
    entries: Mapping[int, Dict[str, Relay]],
    authorities: Sequence[DirectoryAuthority],
    valid_after: float = 0.0,
    voting_interval: float = 3600.0,
    padded_relay_count: "Optional[int]" = None,
) -> Dict[int, VoteDocument]:
    """Wrap per-authority view entries in one vote document per authority.

    Deterministic: ``padded_relay_count`` only changes the wire size each
    vote reports (used by large parameter sweeps that materialise only a
    relay sample), never which entries it holds.  The documents take the
    entry maps as they are — votes of different paddings wrapped from one
    entry set share them, and like every vote's ``relays`` they are never
    mutated after construction.
    """
    return {
        authority.authority_id: VoteDocument(
            authority_id=authority.authority_id,
            authority_fingerprint=authority.fingerprint,
            valid_after=valid_after,
            relays=entries[authority.authority_id],
            voting_interval=voting_interval,
            padded_relay_count=padded_relay_count,
        )
        for authority in authorities
    }


def generate_authority_votes(
    population: RelayPopulation,
    authorities: Sequence[DirectoryAuthority],
    config: AuthorityViewConfig = AuthorityViewConfig(),
    valid_after: float = 0.0,
    voting_interval: float = 3600.0,
    padded_relay_count: "Optional[int]" = None,
) -> Dict[int, VoteDocument]:
    """Generate one vote per authority over ``population``.

    Returns a mapping from authority ID to that authority's
    :class:`~repro.directory.vote.VoteDocument`: the entries
    :func:`generate_authority_view_entries` draws, wrapped by
    :func:`votes_from_view_entries`.
    """
    return votes_from_view_entries(
        generate_authority_view_entries(population, authorities, config),
        authorities,
        valid_after=valid_after,
        voting_interval=voting_interval,
        padded_relay_count=padded_relay_count,
    )
