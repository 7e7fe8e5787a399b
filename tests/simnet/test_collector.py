"""The event loop makes no cyclic garbage, so pausing the collector is safe.

``Simulator.run`` disables Python's cyclic garbage collector for the length
of the loop.  That changes no result only if everything the loop drops is
freed by reference counting alone.  These tests run whole protocol runs with
``SimNetwork.run`` wrapped: collect before the run, so earlier garbage does
not count, then collect again under ``gc.DEBUG_SAVEALL`` right after it,
while the network is still alive, and require nothing unreachable.  The grid
covers every protocol on every transport class, a fault plan with each kind
of fault the injector draws for, and a client workload.

The other tests pin the guard itself: the collector is left as the run found
it, also when a callback raises and when a run is nested in a callback.
"""

import gc
from collections import Counter

import pytest

from repro.clients import ClientWorkload
from repro.faults.plan import FaultPlan
from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec
from repro.simnet.engine import Simulator
from repro.simnet.network import SimNetwork

_GRID = [
    RunSpec(protocol=protocol, relay_count=60, transport=transport, authority_count=authorities)
    for protocol, authorities in (("current", 15), ("synchronous", 12), ("ours", 9))
    for transport in ("latency-only", "fair", "tcp")
]

_FAULTED = RunSpec(
    protocol="ours",
    relay_count=60,
    authority_count=9,
    fault_plan=FaultPlan.byzantine(0, "equivocate")
    | FaultPlan.crash(2, [(20.0, 120.0)])
    | FaultPlan.lossy_links((4, 5), 0.1, jitter_s=0.5),
)

_CLIENTS = RunSpec(
    protocol="current",
    relay_count=30,
    authority_count=9,
    max_time=900.0,
    client_workload=ClientWorkload(
        population=40, cohort_count=4, arrival="deterministic", wave_interval_s=20.0
    ),
)


def _id(spec):
    kind = "faults" if spec.fault_plan else "clients" if spec.client_workload else "plain"
    return "%s-%s-%d-%s" % (spec.protocol, spec.transport, spec.authority_count, kind)


@pytest.mark.parametrize("spec", _GRID + [_FAULTED, _CLIENTS], ids=_id)
def test_a_run_leaves_no_cyclic_garbage(spec, monkeypatch):
    run = SimNetwork.run
    garbage = Counter()

    def run_then_collect(network, until=None):
        gc.collect()
        end = run(network, until)
        flags = gc.get_debug()
        gc.set_debug(flags | gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            garbage.update(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        return end

    monkeypatch.setattr(SimNetwork, "run", run_then_collect)
    result = execute_spec(spec)
    assert result.stats.messages_delivered > 0
    assert not garbage, "cyclic garbage by type: %s" % dict(garbage.most_common())


def _raise():
    raise RuntimeError("callback failed")


def test_the_collector_is_back_on_after_a_run():
    simulator = Simulator()
    seen = []
    simulator.schedule(1.0, lambda: seen.append(gc.isenabled()))
    simulator.run()
    assert seen == [False]
    assert gc.isenabled()


def test_the_collector_is_back_on_after_a_callback_raises():
    simulator = Simulator()
    simulator.schedule(1.0, _raise)
    with pytest.raises(RuntimeError):
        simulator.run()
    assert gc.isenabled()


def test_a_nested_run_leaves_the_outer_run_paused():
    outer, inner = Simulator(), Simulator()
    seen = []
    inner.schedule(1.0, lambda: seen.append(("inner", gc.isenabled())))

    def nested():
        inner.run()
        seen.append(("after inner", gc.isenabled()))

    outer.schedule(1.0, nested)
    outer.run()
    assert seen == [("inner", False), ("after inner", False)]
    assert gc.isenabled()


def test_a_run_started_with_the_collector_off_leaves_it_off():
    simulator = Simulator()
    simulator.schedule(1.0, lambda: None)
    gc.disable()
    try:
        simulator.run()
        assert not gc.isenabled()
    finally:
        gc.enable()
