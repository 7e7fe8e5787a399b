"""Seeded content is pinned: the generators' RNG stream must never drift.

Every golden, pinned fingerprint and on-disk ``ResultCache`` entry depends on
``generate_population`` / ``generate_authority_votes`` drawing exactly the
values they always drew.  The digests below were computed at the commit
*before* ``DeterministicRNG.hex_string`` stopped calling ``random.choice``
per character and ``_authority_entry`` started building each entry once, so
a faster generator that draws anything differently fails here first.
"""

import hashlib

import pytest

from repro.directory.authority import make_authorities
from repro.netgen.relaygen import RelayPopulationConfig, generate_population
from repro.netgen.views import AuthorityViewConfig, generate_authority_votes

#: (seed, relays, authorities) → (sha256 of the population's entries,
#: sha256 of every authority's serialised vote, in authority order).
PINNED = {
    (7, 120, 9): (
        "7a5f6e0e0f7fa4771b65e75e505ca518e288d47244b21f0a4dc7ce9fd23ab593",
        "11a72e2c9ea64c6a1162a47599ca4fe21c05faeb1db84b8b501b13122b9857e9",
    ),
    (23, 40, 20): (
        "c9e2b687e80ed68f45764ca3ab0c29893920d518aa6b2c87c73fa181a22e9ba9",
        "36eb3681f5fa09729180ca73d646f594c606a8340e06edceed4f7be0c9c27a3d",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed,relays,authority_count", sorted(PINNED))
def test_generated_content_matches_the_pinned_stream(seed, relays, authority_count):
    authorities, _ring = make_authorities(authority_count, seed=seed)
    population = generate_population(RelayPopulationConfig(relay_count=relays, seed=seed))
    votes = generate_authority_votes(
        population, authorities, config=AuthorityViewConfig(seed=seed)
    )
    population_sha, votes_sha = PINNED[(seed, relays, authority_count)]
    assert _sha256("".join(relay.serialize() for relay in population.relays)) == population_sha
    assert (
        _sha256("".join(votes[a.authority_id].serialize() for a in authorities)) == votes_sha
    )
