"""Event-loop tests."""

import pytest

from repro.simnet.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(3.0, order.append, "middle")
    sim.run_until_idle()
    assert order == ["early", "middle", "late"]
    assert sim.now == 5.0


def test_ties_break_by_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(1.0, order.append, tag)
    sim.run_until_idle()
    assert order == ["first", "second", "third"]


def test_schedule_in_uses_relative_delay():
    sim = Simulator()
    seen = []
    sim.schedule_in(2.0, lambda: sim.schedule_in(3.0, lambda: seen.append(sim.now)))
    sim.run_until_idle()
    assert seen == [5.0]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.schedule(5.0, lambda: None)
    with pytest.raises(Exception):
        sim.schedule_in(-1.0, lambda: None)


def test_cancelled_events_are_skipped():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    handle.cancel()
    sim.run_until_idle()
    assert fired == ["kept"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(10.0, fired.append, "b")
    stop_time = sim.run(until=5.0)
    assert fired == ["a"]
    assert stop_time == 5.0
    sim.run_until_idle()
    assert fired == ["a", "b"]


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    seen = []

    def chain(depth):
        seen.append(depth)
        if depth < 3:
            sim.schedule_in(1.0, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run_until_idle()
    assert seen == [0, 1, 2, 3]
    assert sim.processed_events == 4


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule_in(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(until=None, max_events=100)


def test_pending_event_count():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    handle.cancel()
    assert sim.pending_events == 1


def test_pending_count_is_maintained_incrementally():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
    assert sim.pending_events == 4
    handles[0].cancel()
    handles[0].cancel()  # idempotent: no double decrement
    assert sim.pending_events == 3
    sim.step()  # executes the event at t=2
    assert sim.pending_events == 2
    sim.run_until_idle()
    assert sim.pending_events == 0


def test_cancel_after_execution_does_not_corrupt_pending_count():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.step()
    handle.cancel()  # already executed: must be a no-op
    assert sim.pending_events == 1
    sim.run_until_idle()
    assert sim.pending_events == 0


def test_max_events_is_an_exact_bound():
    sim = Simulator()
    fired = []
    for i in range(6):
        sim.schedule(float(i), fired.append, i)
    with pytest.raises(SimulationError):
        sim.run(max_events=5)
    # Exactly max_events executed before the guard tripped.
    assert fired == [0, 1, 2, 3, 4]
    assert sim.processed_events == 5


def test_max_events_allows_exactly_that_many_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i), fired.append, i)
    sim.run(max_events=5)  # queue drains exactly at the bound: no error
    assert fired == [0, 1, 2, 3, 4]


def test_cancel_heavy_workload_keeps_heap_size_bounded():
    # Without compaction the heap grows with the total cancellation history
    # instead of the live event count.
    sim = Simulator()
    live = [sim.schedule(1000.0 + i, lambda: None) for i in range(10)]
    for round_number in range(200):
        handles = [sim.schedule(500.0 + i, lambda: None) for i in range(50)]
        for handle in handles:
            handle.cancel()
        # Cancelled corpses never dominate: the heap stays within a small
        # constant factor of the live entries.
        assert len(sim._heap) <= max(2 * (len(live) + 50), Simulator._COMPACT_MIN_SIZE)
    assert sim.pending_events == len(live)


def test_reschedule_heavy_workload_keeps_heap_size_bounded():
    # The lazy transport scheduler moves a flow's event earlier on every
    # share rise; each move leaves a retired entry behind, swept like a
    # cancelled one.
    sim = Simulator()
    fired = []
    handles = [sim.schedule(1000.0 + i, fired.append, i) for i in range(10)]
    for _ in range(200):
        for handle in handles:
            sim.reschedule(handle, handle.time - 1.0)
        assert len(sim._heap) <= max(2 * len(handles) + 1, Simulator._COMPACT_MIN_SIZE)
    assert sim.pending_events == len(handles)
    counters = sim.counters()
    assert (counters["scheduled"], counters["rescheduled"], counters["cancelled"]) == (10, 2000, 0)
    assert sim.run_until_idle() == 809.0
    assert fired == list(range(10))


def test_compaction_preserves_event_order():
    import random

    rng = random.Random(99)
    sim = Simulator()
    fired = []
    expected = []
    kept = []
    for i in range(500):
        time = rng.uniform(0.0, 100.0)
        handle = sim.schedule(time, fired.append, i)
        if rng.random() < 0.8:
            handle.cancel()
        else:
            kept.append((handle.time, handle.seq, i))
    expected = [i for _t, _s, i in sorted(kept)]
    sim.run_until_idle()
    assert fired == expected


def test_cancelled_events_do_not_count_against_max_events():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i), fired.append, i).cancel()
    sim.schedule(10.0, fired.append, "live")
    sim.run(max_events=1)
    assert fired == ["live"]
