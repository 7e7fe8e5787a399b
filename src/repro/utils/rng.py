"""Deterministic random number generation.

All stochastic behaviour in the reproduction (relay populations, latency
jitter, leader schedules for randomized ablations) flows through
:class:`DeterministicRNG`, a thin wrapper over :class:`random.Random` that

* forbids unseeded construction, and
* supports hierarchical seed derivation so that independent subsystems get
  independent, reproducible streams.

The event-driven simulator itself is fully deterministic; randomness only
appears in workload generation.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, *labels: object) -> int:
    """Derive a new 64-bit seed from a base seed and a label path.

    The derivation is stable across processes and Python versions because it
    uses SHA-256 over a canonical string encoding rather than ``hash()``.
    """
    material = repr((int(base_seed),) + tuple(str(label) for label in labels))
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class DeterministicRNG:
    """A seeded random stream with convenience samplers.

    Parameters
    ----------
    seed:
        Integer seed.  Two instances created with the same seed produce the
        same sequence of samples.
    """

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._random = random.Random(self._seed)

    @property
    def seed(self) -> int:
        """The seed this stream was created with."""
        return self._seed

    def child(self, *labels: object) -> "DeterministicRNG":
        """Return an independent stream derived from this one and ``labels``."""
        return DeterministicRNG(derive_seed(self._seed, *labels))

    # -- scalar samplers -------------------------------------------------
    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def gauss(self, mu: float, sigma: float) -> float:
        """Normal sample."""
        return self._random.gauss(mu, sigma)

    def expovariate(self, rate: float) -> float:
        """Exponential sample with the given rate."""
        return self._random.expovariate(rate)

    def lognormal(self, mu: float, sigma: float) -> float:
        """Log-normal sample (used for relay bandwidth distributions)."""
        return self._random.lognormvariate(mu, sigma)

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        return self._random.random() < p

    # -- collection samplers ---------------------------------------------
    def choice(self, items: Sequence[T]) -> T:
        """Pick one element uniformly."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._random.choice(items)

    def sample(self, items: Sequence[T], k: int) -> List[T]:
        """Pick ``k`` distinct elements uniformly without replacement."""
        return self._random.sample(list(items), k)

    def shuffle(self, items: Iterable[T]) -> List[T]:
        """Return a shuffled copy of ``items`` (the input is not mutated)."""
        copied = list(items)
        self._random.shuffle(copied)
        return copied

    def hex_string(self, length: int) -> str:
        """Return a deterministic uppercase hex string of the given length."""
        # The exact draws ``random.choice(alphabet)`` makes — ``getrandbits``
        # of ``len(alphabet).bit_length()`` = 5 bits, redrawn while the value
        # is out of range — without a Python-level ``choice`` → ``_randbelow``
        # call pair per character.  Seeded content depends on this stream
        # (tests/netgen/test_stream_identity.py pins it).
        alphabet = "0123456789ABCDEF"
        getrandbits = self._random.getrandbits
        chars: List[str] = []
        while len(chars) < length:
            value = getrandbits(5)
            if value < 16:
                chars.append(alphabet[value])
        return "".join(chars)
