"""Phase-attributed wall-clock accounting for the simulation hot path.

``perfbench/`` answers "how fast is the run"; this module answers "*where
did the wall clock go*", and is what ``perfbench`` builds its per-layer
``trace.*`` metrics on.  A run's time is split into named buckets —
``transport`` (event loop, flow scheduling, rate maintenance), ``protocol``
(node timer bodies and message handlers), ``crypto`` (HMAC signing and
verification), and ``client_wave`` (cohort wave ticks) — so a regression can
be attributed to a layer instead of re-profiled from scratch
(``benchmarks/profile_scaling.py --phases`` prints the table).

Accounting is **exclusive** (self-time): entering a nested bucket stops the
clock of the enclosing one, so the buckets sum to the instrumented span and
``sum(buckets) - transport`` is exactly the *non-transport floor* the perf
work tracks.  The mechanism is a stack of ``[bucket, last_stamp]`` frames:
``enter`` charges the elapsed slice to the current top and pushes, ``leave``
charges the top and pops, re-stamping the parent.

Cost discipline: instrumentation sites guard with ``if phases.ENABLED:``
(a module-global bool read), so the disabled path costs one attribute load
per site — unmeasurable against the work it wraps.  Enabled, each
enter/leave pair is two ``perf_counter`` calls and a few dict/list
operations (~1–2 % on protocol-heavy cells), which is why collection is
opt-in per run rather than always-on.

Not thread-safe and not re-entrant across simulators: one process measures
one run at a time (sweep workers each own a process, so this holds in
practice).
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List

#: Instrumentation master switch.  Sites check this inline; use
#: :func:`measuring` (or :func:`enable`/:func:`disable`) to flip it.
ENABLED = False

#: Bucket names, in reporting order.  ``transport`` is the outermost bucket
#: (the simulator's run loop); the others carve their self-time out of it.
TRANSPORT = "transport"
PROTOCOL = "protocol"
CRYPTO = "crypto"
CLIENT_WAVE = "client_wave"
BUCKETS = (TRANSPORT, PROTOCOL, CRYPTO, CLIENT_WAVE)

#: Accumulated self-time per bucket (seconds of wall clock).
_totals: Dict[str, float] = {}

#: Stack of ``[bucket, last_stamp]`` frames; the top owns the clock.
_stack: List[List] = []


def reset() -> None:
    """Clear accumulated totals and any dangling stack frames."""
    _totals.clear()
    del _stack[:]


def enter(bucket: str) -> None:
    """Start charging wall clock to ``bucket`` (pausing the enclosing one)."""
    now = perf_counter()
    if _stack:
        top = _stack[-1]
        _totals[top[0]] = _totals.get(top[0], 0.0) + (now - top[1])
        top[1] = now
    _stack.append([bucket, now])


def leave() -> None:
    """Stop the innermost bucket and resume its parent."""
    now = perf_counter()
    top = _stack.pop()
    _totals[top[0]] = _totals.get(top[0], 0.0) + (now - top[1])
    if _stack:
        _stack[-1][1] = now


def snapshot() -> Dict[str, float]:
    """The accumulated self-time per bucket so far (a copy)."""
    return dict(_totals)


def non_transport_total(buckets: Dict[str, float]) -> float:
    """The non-transport floor: every bucket except ``transport``."""
    return sum(value for name, value in buckets.items() if name != TRANSPORT)


@contextmanager
def measuring() -> Iterator[None]:
    """Enable instrumentation for the block; totals reset on entry.

    Read the result with :func:`snapshot` *inside* the block or after it —
    exiting restores the previous ``ENABLED`` state but keeps the totals, so
    callers can collect them after the measured run returns.
    """
    global ENABLED
    previous = ENABLED
    reset()
    ENABLED = True
    try:
        yield
    finally:
        ENABLED = previous


def profile(fn, *args, **kwargs):
    """Run ``fn`` with phases enabled; return ``(result, buckets, wall_s)``.

    ``buckets`` includes an ``other`` entry for wall clock spent outside any
    instrumented bucket (setup, teardown, result assembly), so the entries
    always sum to ``wall_s``.
    """
    started = perf_counter()
    with measuring():
        result = fn(*args, **kwargs)
    wall = perf_counter() - started
    buckets = snapshot()
    buckets["other"] = max(0.0, wall - sum(buckets.values()))
    reset()
    return result, buckets, wall
