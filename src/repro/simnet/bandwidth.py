"""Piecewise-constant bandwidth schedules.

A node's available bandwidth over time is the central modelling device of the
paper's attack section: following Jansen et al., a host under volumetric DDoS
is modelled as having its usable bandwidth reduced (to ~0.5 Mbit/s) for the
duration of the attack.  :class:`BandwidthSchedule` expresses exactly that —
a piecewise-constant rate function with helpers to apply throttling windows —
and provides the integration primitives the flow-based transport needs
(capacity transferred over an interval, time to move N bytes starting at T).
"""

from __future__ import annotations

import bisect
from typing import List, Optional, Sequence, Tuple

from repro.utils.units import mbps_to_bytes_per_s
from repro.utils.validation import ValidationError, ensure


class BandwidthSchedule:
    """A piecewise-constant bandwidth (bytes/second) over virtual time.

    The schedule is defined by breakpoints ``t_0 = 0 < t_1 < ... < t_k`` and
    rates ``r_0 ... r_k`` where rate ``r_i`` applies on ``[t_i, t_{i+1})`` and
    ``r_k`` applies forever after ``t_k``.
    """

    def __init__(self, breakpoints: Sequence[float], rates: Sequence[float]):
        ensure(len(breakpoints) == len(rates), "breakpoints and rates must align")
        ensure(len(breakpoints) >= 1, "schedule needs at least one segment")
        ensure(breakpoints[0] == 0.0, "first breakpoint must be time 0")
        for earlier, later in zip(breakpoints, breakpoints[1:]):
            ensure(later > earlier, "breakpoints must be strictly increasing")
        for rate in rates:
            ensure(rate >= 0, "rates must be non-negative")
        self._breakpoints: Tuple[float, ...] = tuple(float(b) for b in breakpoints)
        self._rates: Tuple[float, ...] = tuple(float(r) for r in rates)

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, bytes_per_s: float) -> "BandwidthSchedule":
        """A schedule with a single constant rate."""
        return cls([0.0], [bytes_per_s])

    @classmethod
    def constant_mbps(cls, mbps: float) -> "BandwidthSchedule":
        """A constant schedule specified in Mbit/s."""
        return cls.constant(mbps_to_bytes_per_s(mbps))

    def with_window(self, start: float, end: float, bytes_per_s: float) -> "BandwidthSchedule":
        """Return a copy where the rate is ``bytes_per_s`` on ``[start, end)``.

        This is how DDoS attack windows are applied to a baseline capacity.
        """
        ensure(end > start, "window end must be after start")
        ensure(start >= 0, "window start must be non-negative")
        points: List[float] = []
        rates: List[float] = []

        def append(time: float, rate: float) -> None:
            if points and abs(points[-1] - time) < 1e-12:
                rates[-1] = rate
                return
            if points and abs(rates[-1] - rate) < 1e-15 and time > points[-1]:
                return
            points.append(time)
            rates.append(rate)

        sample_points = sorted(set(list(self._breakpoints) + [start, end]))
        for time in sample_points:
            if start <= time < end:
                append(time, bytes_per_s)
            else:
                append(time, self.rate_at(time))
        if points[0] != 0.0:
            points.insert(0, 0.0)
            rates.insert(0, self.rate_at(0.0))
        return BandwidthSchedule(points, rates)

    def with_window_mbps(self, start: float, end: float, mbps: float) -> "BandwidthSchedule":
        """Like :meth:`with_window` but the rate is given in Mbit/s."""
        return self.with_window(start, end, mbps_to_bytes_per_s(mbps))

    # -- queries --------------------------------------------------------------
    @property
    def breakpoints(self) -> Tuple[float, ...]:
        """The schedule's breakpoints."""
        return self._breakpoints

    @property
    def rates(self) -> Tuple[float, ...]:
        """The schedule's per-segment rates (bytes/second)."""
        return self._rates

    def rate_at(self, time: float) -> float:
        """Available bandwidth (bytes/second) at virtual time ``time``."""
        if not time >= 0:
            raise ValidationError("time must be non-negative")
        if len(self._rates) == 1:  # constant: every unattacked link
            return self._rates[0]
        return self._rates[bisect.bisect_right(self._breakpoints, time) - 1]

    def next_change_after(self, time: float) -> Optional[float]:
        """The next breakpoint strictly after ``time`` (None when constant)."""
        if len(self._rates) == 1:
            return None
        index = bisect.bisect_right(self._breakpoints, time)
        if index >= len(self._breakpoints):
            return None
        return self._breakpoints[index]

    def capacity_between(self, start: float, end: float) -> float:
        """Total bytes this schedule can move over ``[start, end]``."""
        ensure(end >= start, "end must be >= start")
        total = 0.0
        time = start
        while time < end:
            rate = self.rate_at(time)
            next_change = self.next_change_after(time)
            segment_end = end if next_change is None else min(end, next_change)
            total += rate * (segment_end - time)
            time = segment_end
        return total

    def time_to_transfer(self, nbytes: float, start: float) -> float:
        """Virtual time at which ``nbytes`` finish transferring if started at ``start``.

        Returns ``float('inf')`` when the remaining schedule can never move
        the requested volume (e.g. the rate drops to zero forever).
        """
        ensure(nbytes >= 0, "nbytes must be non-negative")
        remaining = float(nbytes)
        time = start
        if remaining == 0:
            return start
        while True:
            rate = self.rate_at(time)
            next_change = self.next_change_after(time)
            if rate > 0:
                finish = time + remaining / rate
                if next_change is None or finish <= next_change:
                    return finish
                remaining -= rate * (next_change - time)
            else:
                if next_change is None:
                    return float("inf")
            if next_change is None:
                return float("inf")
            time = next_change

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        segments = ", ".join(
            "t>=%.1f: %.0fB/s" % (t, r) for t, r in zip(self._breakpoints, self._rates)
        )
        return "BandwidthSchedule(%s)" % segments
