"""The event loop against an executable reference model.

``ReferenceSimulator`` is the specification of :class:`Simulator` in the
plainest form that can run: one list kept sorted by ``(time, seq)``, where a
reschedule is a drop plus a schedule with a fresh serial.  The stateful test
drives it and the real loop with the same random sequence of schedule /
cancel / reschedule (from outside or from a callback) /
schedule-from-a-callback / ``schedule_batch`` / ``run(until, max_events)`` /
``step()`` calls and requires the same firing order, clock and counters after
every call.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.simnet.engine import SimulationError, Simulator


class ReferenceSimulator:
    """Sorted-list event loop: O(n log n) per schedule, obviously ordered."""

    def __init__(self):
        self.now, self.serial, self.processed_events = 0.0, 0, 0
        self.queue = []  # [time, seq, callback, args], sorted by (time, seq)
        self.batches = {}
        self.scheduled = self.rescheduled = self.cancelled = 0

    pending_events = property(lambda self: len(self.queue))

    def _is_pending(self, entry):
        return any(e is entry for e in self.queue)

    def schedule(self, time, callback, *args):
        if time < self.now - 1e-12:
            raise SimulationError("in the past")
        self.serial += 1
        self.scheduled += 1
        entry = [max(time, self.now), self.serial, callback, args]
        self.queue.append(entry)
        self.queue.sort(key=lambda e: (e[0], e[1]))
        return entry

    def cancel(self, entry):
        if self._is_pending(entry):
            self.cancelled += 1
        self.queue = [e for e in self.queue if e is not entry]

    def reschedule(self, entry, time):
        """Drop ``entry`` and schedule its callback again at ``time``, under
        a fresh serial, in the same entry (so the caller's handle stays
        good)."""
        if not self._is_pending(entry) or time < self.now - 1e-12:
            raise SimulationError("not pending, or in the past")
        self.serial += 1
        self.rescheduled += 1
        entry[0], entry[1] = max(time, self.now), self.serial
        self.queue.sort(key=lambda e: (e[0], e[1]))

    def schedule_batch(self, time, key, drain, item):
        if (time, key) not in self.batches:
            self.schedule(time, lambda: drain(self.batches.pop((time, key))))
            self.batches[(time, key)] = []
        self.batches[(time, key)].append(item)

    def step(self):
        if not self.queue:
            return False
        self.now, _seq, callback, args = self.queue.pop(0)
        self.processed_events += 1
        callback(*args)
        return True

    def run(self, until=None, max_events=10_000_000):
        executed = 0
        while self.queue and (until is None or self.queue[0][0] <= until):
            if executed >= max_events:
                raise SimulationError("runaway")
            self.step()
            executed += 1
        self.now = self.now if until is None else max(self.now, until)
        return self.now


DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5])

#: What a callback does when it fires, built from the same few moves the
#: machine makes from outside: spawn a child (delay 0 is schedule-at-``now``),
#: cancel or reschedule some earlier handle (the firing one included, which
#: is refused), or queue a batch item.
PLANS = st.recursive(
    st.just(("noop",)),
    lambda inner: st.one_of(
        st.tuples(st.just("spawn"), DELAYS, inner),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
        st.tuples(st.just("reschedule"), st.integers(0, 40), DELAYS),
        st.tuples(st.just("batch"), DELAYS, st.sampled_from("xy")),
    ),
    max_leaves=4,
)


class _Side:
    """One simulator with its firing log and the handles it gave out."""

    def __init__(self, sim, cancel):
        self.sim, self.cancel = sim, cancel
        self.log, self.handles = [], []

    def schedule(self, time, label, plan):
        self.handles.append(self.sim.schedule(time, self.fire, label, plan))

    def batch(self, time, key, item):
        self.sim.schedule_batch(time, key, lambda items: self.log.append(tuple(items)), item)

    def cancel_index(self, index):
        if self.handles:
            self.cancel(self.handles[index % len(self.handles)])

    def reschedule_index(self, index, time):
        if self.handles:
            self.sim.reschedule(self.handles[index % len(self.handles)], time)

    def fire(self, label, plan):
        now = self.sim.now
        self.log.append((label, now))
        if plan[0] == "spawn":
            self.schedule(now + plan[1], label + ".c", plan[2])
        elif plan[0] == "cancel":
            self.cancel_index(plan[1])
        elif plan[0] == "reschedule":
            self.reschedule_index(plan[1], now + plan[2])
        elif plan[0] == "batch":
            self.batch(now + plan[1], plan[2], label)


class EngineAgainstReference(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        reference = ReferenceSimulator()
        self.sides = (
            _Side(Simulator(), lambda handle: handle.cancel()),
            _Side(reference, reference.cancel),
        )
        self.labels = 0

    def both(self, call):
        """Apply ``call`` to both sides; results (or refusals) must agree."""
        results = []
        for side in self.sides:
            try:
                results.append(call(side))
            except SimulationError:
                results.append("SimulationError")
        assert results[0] == results[1]

    # -1.0 is refused, -1e-13 is inside the clamp-to-now slack.
    @rule(delay=st.one_of(DELAYS, st.sampled_from([-1.0, -1e-13])), plan=PLANS)
    def schedule(self, delay, plan):
        self.labels += 1
        label = str(self.labels)
        self.both(lambda side: side.schedule(side.sim.now + delay, label, plan))

    @rule(index=st.integers(0, 40))
    def cancel(self, index):
        self.both(lambda side: side.cancel_index(index))

    # A handle that was cancelled, has fired or is firing is refused, and so
    # is an instant in the past; one moved before may be moved again.
    @rule(index=st.integers(0, 40), delay=st.one_of(DELAYS, st.sampled_from([-1.0, -1e-13])))
    def reschedule(self, index, delay):
        self.both(lambda side: side.reschedule_index(index, side.sim.now + delay))

    @rule(delay=st.one_of(DELAYS, st.just(-1.0)), key=st.sampled_from("xy"))
    def schedule_batch(self, delay, key):
        self.labels += 1
        label = "b%d" % self.labels
        self.both(lambda side: side.batch(side.sim.now + delay, key, label))

    @rule()
    def step(self):
        self.both(lambda side: side.sim.step())

    @rule(
        ahead=st.one_of(st.none(), st.sampled_from([-1.0, 0.0, 0.25, 1.0, 3.0])),
        max_events=st.sampled_from([0, 1, 2, 5, 10_000]),
    )
    def run(self, ahead, max_events):
        self.both(
            lambda side: side.sim.run(
                until=None if ahead is None else side.sim.now + ahead, max_events=max_events
            )
        )

    @invariant()
    def same_observable_state(self):
        real, reference = self.sides
        assert real.log == reference.log
        assert real.sim.now == reference.sim.now
        assert real.sim.pending_events == reference.sim.pending_events
        assert real.sim.processed_events == reference.sim.processed_events
        counters = real.sim.counters()
        assert counters["executed"] == real.sim.processed_events
        assert counters["pending"] == real.sim.pending_events
        # Rescheduled-away entries count as retired, like cancelled ones.
        assert counters["heap_size"] == counters["pending"] + counters["cancelled_in_heap"]
        assert (counters["scheduled"], counters["rescheduled"], counters["cancelled"]) == (
            reference.sim.scheduled,
            reference.sim.rescheduled,
            reference.sim.cancelled,
        )


EngineAgainstReference.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestEngineAgainstReference = EngineAgainstReference.TestCase
