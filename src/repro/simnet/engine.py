"""The discrete-event simulation engine.

A deliberately small, deterministic event loop:

* virtual time is a float number of seconds starting at 0;
* events are ordered by ``(time, sequence_number)`` so that ties are broken
  by scheduling order, never by memory layout or hashing.  The heap holds
  ``(time, seq, handle)`` tuples so ordering uses C-level tuple comparison
  rather than a Python ``__lt__`` call per sift step;
* cancelled events stay in the heap but are skipped, which keeps cancellation
  O(1), and :meth:`Simulator.reschedule` moves an event with one push,
  leaving its old entry behind the same way.  Once such retired entries are
  more than half of the heap it is compacted in one O(n) pass (amortized O(1)
  each), so re-aim-heavy workloads (the lazy transport scheduler moving flow
  events earlier) keep the heap bounded by the number of live events.

Every protocol, transport flow, and timer in the library is ultimately an
event in this loop, which is what makes whole-experiment runs reproducible
bit-for-bit.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.utils import phases
from repro.utils.validation import ReproError, ensure


class SimulationError(ReproError):
    """Raised for impossible simulation operations (e.g. scheduling in the past)."""


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule`; supports cancellation."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner", "_executed")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: Tuple, owner=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner: "Optional[Simulator]" = owner
        self._executed = False

    def cancel(self) -> None:
        """Cancel the event; cancelled events are skipped by the loop.

        Idempotent, and a no-op once the event has executed — in both cases
        the owning simulator's pending counter is only ever decremented once.
        """
        if self.cancelled or self._executed:
            return
        self.cancelled = True
        self.seq = 0  # the heap entry whose seq is not its handle's is retired
        if self._owner is not None:
            self._owner._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        state = "cancelled" if self.cancelled else "pending"
        return "EventHandle(t=%.6f, seq=%d, %s)" % (self.time, self.seq, state)


class Simulator:
    """A deterministic virtual-time event loop."""

    #: Below this heap size compaction is pointless churn; rebuilds only
    #: trigger once the heap is at least this large.
    _COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._serial = 0
        self._processed_events = 0
        self._pending = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self._rescheduled = self._cancelled = 0
        # Open micro-batches: (time, key) -> (drain event, queued items), each
        # drained by its one heap event (see schedule_batch).
        self._batches: Dict[Tuple[float, Any], Tuple[EventHandle, List[Any]]] = {}

    # -- time --------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (useful for run-away detection)."""
        return self._processed_events

    @property
    def pending_events(self) -> int:
        """Number of non-cancelled events still queued (O(1): kept incrementally)."""
        return self._pending

    def counters(self) -> Dict[str, int]:
        """Events scheduled (each now executed, cancelled or pending),
        rescheduled, cancelled, executed and pending; retired entries still in
        the heap, the heap's length including them, and compaction passes."""
        return {
            "scheduled": self._processed_events + self._cancelled + self._pending,
            "rescheduled": self._rescheduled,
            "cancelled": self._cancelled,
            "executed": self._processed_events,
            "pending": self._pending,
            "cancelled_in_heap": self._cancelled_in_heap,
            "heap_size": len(self._heap),
            "compactions": self._compactions,
        }

    # -- serials -------------------------------------------------------------
    def next_serial(self) -> int:
        """The next value of the simulator-owned monotonic counter.

        One counter serves every ordering need in a run — event tie-breaking
        and transport flow ids — so consumers share a single deterministic
        sequence instead of each layer minting its own ``itertools.count``.
        Only relative order is meaningful; values are not contiguous per
        consumer.
        """
        self._serial += 1
        return self._serial

    # -- scheduling ----------------------------------------------------------
    def schedule(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual time ``time``."""
        now = self._now
        if time < now:
            if time < now - 1e-12:
                raise SimulationError(
                    "cannot schedule event at %.6f, current time is %.6f" % (time, now)
                )
            time = now
        self._serial = seq = self._serial + 1
        handle = EventHandle(time, seq, callback, args, self)
        heapq.heappush(self._heap, (time, seq, handle))
        self._pending += 1
        return handle

    def reschedule(self, handle: EventHandle, time: float) -> None:
        """Move the pending event ``handle`` to ``time``: exactly a cancel
        plus a schedule of its callback (a fresh ``(time, seq)``, kept on the
        same handle), for one heap push — the old entry is left retired."""
        if handle.seq == 0 or handle._executed or time < self._now - 1e-12:
            raise SimulationError("can only move a pending event, and not into the past")
        self._serial = seq = self._serial + 1
        handle.time = time = max(time, self._now)
        handle.seq = seq
        heapq.heappush(self._heap, (time, seq, handle))
        self._rescheduled += 1
        self._note_retired()

    def schedule_in(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` after ``delay`` seconds of virtual time."""
        ensure(delay >= 0, "delay must be non-negative")
        return self.schedule(self._now + delay, callback, *args)

    def cancel(self, handle: Optional[EventHandle]) -> None:
        """Cancel a previously scheduled event (no-op for None)."""
        if handle is not None:
            handle.cancel()

    # -- micro-batching --------------------------------------------------------
    def schedule_batch(
        self, time: float, key: Any, drain: Callable[[List[Any]], None], item: Any
    ) -> Tuple[float, Any]:
        """Queue ``item`` for the micro-batch at ``(time, key)``; returns that
        slot, which :meth:`unbatch` takes.

        Handlers that opt in (the network's delivery path) coalesce all
        same-instant work sharing a key — e.g. every message arriving at one
        node at one instant — into a **single** heap event: the first item
        schedules one drain event at ``time``, later items just append.  When
        it fires, ``drain(items)`` receives the batch in append order, which
        is exactly the order the per-item events would have fired (same
        instant, scheduling order).  Every append to one open batch must pass
        the same ``drain``; the one captured first runs.

        Relative order *across* keys at the same instant changes (a batch
        drains contiguously at its first item's serial); the network's
        per-item reference for it is a test fixture
        (``tests/simnet/per_message.py``), not a switch.
        """
        slot = (time, key)
        batch = self._batches.get(slot)
        if batch is None:
            # Scheduled before the batch is opened: a refused instant (in the
            # past) must not leave an open batch that no event will drain.
            self._batches[slot] = (self.schedule(time, self._drain_batch, slot, drain), [item])
        else:
            batch[1].append(item)
        return slot

    def unbatch(self, slot: Tuple[float, Any], item: Any) -> None:
        """Withdraw ``item`` (by identity) from the open batch at ``slot``.

        The batch keeps its place in the event order; withdrawing its last
        item cancels its event, so an emptied batch keeps no run alive.
        """
        handle, items = self._batches[slot]
        for index, queued in enumerate(items):
            if queued is item:
                del items[index]
                break
        else:
            raise SimulationError("item is not queued in batch %r" % (slot,))
        if not items:
            del self._batches[slot]
            handle.cancel()

    def _drain_batch(self, slot: Tuple[float, Any], drain: Callable[[List[Any]], None]) -> None:
        drain(self._batches.pop(slot)[1])

    def schedule_window(
        self,
        start: float,
        end: float,
        on_enter: Callable[..., None],
        on_exit: Callable[..., None],
    ) -> Tuple[EventHandle, EventHandle]:
        """Schedule a paired ``on_enter``/``on_exit`` over ``[start, end)``.

        The fault-window primitive: crash windows, partition windows, and any
        other "state holds for an interval" behaviour schedule their
        transitions through here so both edges land on the event loop in
        deterministic order.  Returns both handles for cancellation.
        """
        ensure(end > start, "window end must be after its start")
        ensure(start >= self._now - 1e-12, "window must not start in the past")
        return self.schedule(start, on_enter), self.schedule(end, on_exit)

    # -- heap hygiene ----------------------------------------------------------
    def _note_cancelled(self) -> None:
        self._pending -= 1
        self._cancelled += 1
        self._note_retired()

    def _note_retired(self) -> None:
        """Account one freshly retired heap entry; compact when they dominate.

        Each compaction pass is O(heap) but removes at least half of it, so
        retirements pay amortized O(1) and the heap stays within a small
        constant factor of the live event count.
        """
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self._COMPACT_MIN_SIZE
            and self._cancelled_in_heap * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop every retired entry and re-heapify (order is unchanged:
        entries keep their ``(time, seq)`` keys)."""
        self._heap = [entry for entry in self._heap if entry[1] == entry[2].seq]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0
        self._compactions += 1

    # -- execution -------------------------------------------------------------
    def _fire_next(self, until: Optional[float] = None, fire: bool = True) -> bool:
        """Whether a live event is due by ``until``; pops and runs it when ``fire``.

        The single place retired heap entries are skipped and the single
        place an event executes; :meth:`step` and :meth:`run` both loop on it.
        """
        heap = self._heap
        while heap:
            time, seq, handle = heap[0]
            if seq != handle.seq:
                heapq.heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if until is not None and time > until:
                return False
            if fire:
                heapq.heappop(heap)
                handle._executed = True
                self._pending -= 1
                self._now = time
                self._processed_events += 1
                handle.callback(*handle.args)
            return True
        return False

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when the queue is empty."""
        return self._fire_next()

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> float:
        """Run events until the queue empties or virtual time passes ``until``.

        Returns the virtual time at which the run stopped (never earlier than
        it started: an ``until`` in the past executes nothing and leaves the
        clock alone).  ``max_events`` is an exact bound protecting against
        runaway protocols in tests: at most ``max_events`` events execute,
        and the error is raised only when a further live event is still due.

        The cyclic garbage collector is paused for the length of the run and
        left as it was found, also when the run raises or is nested in a
        callback.  The loop makes no cyclic garbage — reference counting
        frees everything it drops (``tests/simnet/test_collector.py``) — so
        the collector's passes over the live heap would change nothing.
        """
        executed = 0
        # The run loop is the outermost `transport` phase bucket: everything
        # not claimed by a nested bucket (protocol handlers, crypto, client
        # waves) is event-loop and flow-scheduling machinery.
        measured = phases.ENABLED
        if measured:
            phases.enter(phases.TRANSPORT)
        paused = gc.isenabled()
        if paused:
            gc.disable()
        try:
            while self._fire_next(until, executed < max_events):
                if executed >= max_events:
                    raise SimulationError(
                        "exceeded max_events=%d; runaway simulation?" % max_events
                    )
                executed += 1
        finally:
            if paused:
                gc.enable()
            if measured:
                phases.leave()
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain; returns the final virtual time."""
        return self.run(until=None, max_events=max_events)
