"""Count-based batch sampling for cohort wave draws.

The cohort model's per-wave question is "how many of the ``eligible``
clients start a fetch this tick" — a Binomial(eligible, p) count.  The
original implementation answered it with ``eligible`` Bernoulli stream
pulls, an O(population) Python loop that defeated the whole point of
counting distributions.  This module answers it count-based:

* :func:`binomial_from_uniform` — an exact Binomial sample from **one**
  uniform pull, by inverse-transform along the CDF.  The walk visits
  ``k+1`` terms for a sample of ``k``, so its expected cost is
  ``eligible·p`` (the mean batch), not ``eligible``.
* :func:`gaussian_binomial` — the Gaussian approximation for large
  cohorts: one z-score pull, three float operations.
  :func:`batch_gaussian_binomial`, its numpy twin over a whole tick's
  cohorts, has no caller in ``src/`` (see its docstring).

Stream semantics, documented as required: the exact path now consumes one
``random()`` pull per wave instead of ``eligible`` pulls, so seeded poisson
runs draw *different* (equally valid) trajectories than pre-vectorization
builds — the client golden was regenerated.  The Gaussian path consumes
exactly the same single ``gauss()`` pull as before and reproduces the
scalar expression bit-for-bit (same association order, IEEE-exact ``sqrt``,
round-half-even).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def binomial_from_uniform(count: int, probability: float, u: float) -> int:
    """Exact Binomial(``count``, ``probability``) sample from one uniform.

    Inverse-transform sampling: walk the CDF from ``k = 0`` upward until it
    exceeds ``u``, updating the pmf term by the Binomial recurrence
    ``pmf(k+1) = pmf(k) · (count-k)/(k+1) · p/q``.  Exact for the moderate
    ``count`` the cohort model uses it for (the exact-draw limit, 64); for
    large counts and tiny ``q`` the leading term ``q**count`` underflows,
    which is why bigger cohorts switch to the Gaussian approximation.
    """
    if count <= 0 or probability <= 0.0:
        return 0
    if probability >= 1.0:
        return count
    q = 1.0 - probability
    pmf = q ** count
    cdf = pmf
    k = 0
    while u >= cdf and k < count:
        pmf *= (count - k) / (k + 1.0) * (probability / q)
        k += 1
        cdf += pmf
    return k


def gaussian_binomial(eligible: int, probability: float, z: float) -> int:
    """The Gaussian-approximation draw (one cohort, one z-score).

    ``min(n, max(0, round(n·p + sqrt(n·p·(1-p))·z)))``.
    """
    mean = eligible * probability
    sigma = math.sqrt(eligible * probability * (1.0 - probability))
    return min(eligible, max(0, round(mean + sigma * z)))


def batch_gaussian_binomial(
    eligible: Sequence[int], probability: Sequence[float], z: Sequence[float]
) -> Optional[Sequence[int]]:
    """Vectorized :func:`gaussian_binomial` over parallel per-cohort inputs.

    Unused by ``src/``: the wave driver calls the scalar draw for every
    cohort (measured at parity on 32 and on 1000 cohorts).  It stays defined,
    with its bit-equality test, only because ``perfbench/micro.py`` imports
    it; it goes in the ``benchmark`` PR that retires that micro row, together
    with the vector transport engine.

    Returns None when numpy is unavailable; numpy is imported here, not at
    module level, so no run a spec describes loads it.  Matches the scalar
    expression exactly: the products associate identically, ``sqrt`` is
    IEEE-exactly rounded in both, and ``np.rint`` rounds half to even like
    Python's ``round``.
    """
    try:
        import numpy as _np
    except ImportError:  # pragma: no cover - absence exercised by the no-numpy CI leg
        return None
    n = _np.asarray(eligible, dtype=_np.float64)
    p = _np.asarray(probability, dtype=_np.float64)
    zs = _np.asarray(z, dtype=_np.float64)
    mean = n * p
    sigma = _np.sqrt(n * p * (1.0 - p))
    raw = _np.rint(mean + sigma * zs)
    return _np.minimum(n, _np.maximum(0.0, raw)).astype(_np.int64)
