"""Client-side metrics: counting distributions over interchangeable clients.

Clients inside a cohort are interchangeable, so nothing is tracked per
client.  Fetch accounting is a handful of weighted counters and the
time-to-fresh distribution is a list of ``(time, weight)`` samples — one
entry per completed *batch*, not per client — which keeps metric state
O(number of fetch waves) no matter how many million clients a run models.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.utils.validation import ensure

#: Format version of the ``clients`` block in run summaries.  Read by nothing,
#: but its value sits inside the block that the goldens and
#: ``perfbench/expected/seed7.json`` fingerprint, so it stays.
CLIENT_SUMMARY_VERSION = 1


def weighted_percentile(samples: List[Tuple[float, int]], quantile: float) -> Optional[float]:
    """Nearest-rank percentile of a weighted sample set.

    ``samples`` are ``(value, weight)`` pairs; the result is the smallest
    value whose cumulative weight reaches ``quantile`` of the total — always
    one of the submitted values (the same convention as the directory
    algorithm's low median).  Returns None for an empty sample set.
    """
    ensure(0.0 <= quantile <= 1.0, "quantile must be within [0, 1]")
    total = sum(weight for _value, weight in samples)
    if total <= 0:
        return None
    threshold = quantile * total
    cumulative = 0
    result = None
    for value, weight in sorted(samples):
        result = value
        cumulative += weight
        if cumulative >= threshold:
            break
    return result


class ClientMetrics:
    """Weighted fetch accounting shared by every cohort of one run."""

    def __init__(self) -> None:
        self.fetch_attempts = 0
        self.fetch_successes = 0
        self.fetch_timeouts = 0
        self.fetch_not_ready = 0
        #: (virtual time a batch obtained a fresh consensus, batch weight).
        self.fresh_samples: List[Tuple[float, int]] = []

    # -- recording ---------------------------------------------------------
    def record_attempts(self, weight: int) -> None:
        """Account ``weight`` clients starting a fetch attempt."""
        self.fetch_attempts += weight

    def record_success(self, weight: int, time: float) -> None:
        """Account ``weight`` clients obtaining a fresh consensus at ``time``."""
        self.fetch_successes += weight
        self.fresh_samples.append((time, weight))

    def record_timeout(self, weight: int) -> None:
        """Account ``weight`` clients whose attempt hit the connection timeout."""
        self.fetch_timeouts += weight

    def record_not_ready(self, weight: int) -> None:
        """Account ``weight`` clients served a "no consensus yet" response."""
        self.fetch_not_ready += weight

    # -- derived -----------------------------------------------------------
    @property
    def fresh_clients(self) -> int:
        """Clients holding a fresh consensus."""
        return sum(weight for _time, weight in self.fresh_samples)

    def success_rate(self) -> Optional[float]:
        """Completed attempts over started attempts (None before any attempt)."""
        if self.fetch_attempts <= 0:
            return None
        return self.fetch_successes / self.fetch_attempts

    def time_to_fresh(self, quantile: float) -> Optional[float]:
        """Weighted percentile of per-client time to a fresh consensus."""
        return weighted_percentile(self.fresh_samples, quantile)

    def mean_staleness_s(self, population: int, end_time: float) -> float:
        """Mean seconds per client spent without a fresh consensus.

        Clients that obtained the consensus at ``t`` were stale for ``t``
        seconds (virtual time starts at 0 with every client stale); clients
        still without one at the end of the run were stale for the whole
        ``end_time``.
        """
        ensure(population >= 1, "population must be positive")
        stale_seconds = sum(time * weight for time, weight in self.fresh_samples)
        stale_seconds += (population - self.fresh_clients) * end_time
        return stale_seconds / population

    # -- summary -----------------------------------------------------------
    def summary(
        self,
        population: int,
        end_time: float,
        state_counts: Dict[str, int],
        first_publish_time: Optional[float],
        cohort_count: int,
        mirrors_serving: int,
        mirror_count: int,
    ) -> Dict[str, Any]:
        """The JSON-serializable ``clients`` block of a run summary."""
        return {
            "version": CLIENT_SUMMARY_VERSION,
            "population": population,
            "cohorts": cohort_count,
            "states": dict(state_counts),
            "fetch_attempts": self.fetch_attempts,
            "fetch_successes": self.fetch_successes,
            "fetch_timeouts": self.fetch_timeouts,
            "fetch_not_ready": self.fetch_not_ready,
            "fetch_success_rate": self.success_rate(),
            "fresh_fraction": self.fresh_clients / population,
            "time_to_fresh_p50_s": self.time_to_fresh(0.50),
            "time_to_fresh_p99_s": self.time_to_fresh(0.99),
            "mean_staleness_s": self.mean_staleness_s(population, end_time),
            "first_publish_time_s": first_publish_time,
            "mirrors_serving": mirrors_serving,
            "mirror_count": mirror_count,
        }
