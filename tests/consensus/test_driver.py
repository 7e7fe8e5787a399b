"""Local driver and delivery-policy tests."""

import pytest

from repro.attack.adversary import SilentICPSAdversary
from repro.consensus import ENGINE_REGISTRY, EngineConfig, LocalDriver, make_engine
from repro.consensus.driver import (
    gst_delivery,
    partition_delivery,
    synchronous_delivery,
)
from repro.consensus.interfaces import ConsensusMessage
from repro.simnet.engine import SimulationError


def test_synchronous_delivery_constant_latency():
    policy = synchronous_delivery(latency=0.5)
    message = ConsensusMessage(msg_type="X", sender="a", view=0)
    assert policy("a", "b", message, 10.0) == 10.5


def test_gst_delivery_holds_back_early_messages():
    policy = gst_delivery(gst=100.0, latency=0.5)
    message = ConsensusMessage(msg_type="X", sender="a", view=0)
    assert policy("a", "b", message, 10.0) == 100.5
    assert policy("a", "b", message, 200.0) == 200.5


def test_partition_delivery_blocks_across_groups_until_heal():
    policy = partition_delivery((("a", "b"), ("c",)), heal_time=50.0, latency=0.1)
    message = ConsensusMessage(msg_type="X", sender="a", view=0)
    assert policy("a", "b", message, 1.0) == pytest.approx(1.1)
    assert policy("a", "c", message, 1.0) == pytest.approx(50.1)
    assert policy("a", "c", message, 60.0) == pytest.approx(60.1)


def test_driver_requires_engines():
    with pytest.raises(Exception):
        LocalDriver({})


def test_driver_counts_messages_and_collects_decision_times():
    nodes = tuple("n%d" % index for index in range(4))
    engines = {
        name: make_engine("pbft", EngineConfig(node_id=name, nodes=nodes)) for name in nodes
    }
    driver = LocalDriver(engines)
    driver.start({name: "v" for name in nodes})
    result = driver.run(until=100)
    assert result.messages_delivered > 0
    assert set(result.decision_times) == set(nodes)
    assert all(time >= 0 for time in result.decision_times.values())


def test_crashed_nodes_never_receive_or_act():
    nodes = tuple("n%d" % index for index in range(4))
    engines = {
        name: make_engine("hotstuff", EngineConfig(node_id=name, nodes=nodes)) for name in nodes
    }
    driver = LocalDriver(engines, crashed=("n2",))
    driver.start({name: "v" for name in nodes})
    result = driver.run(until=100)
    assert "n2" not in result.decisions
    assert not engines["n2"].decided


def _crashed_leader_driver(engine_name):
    # n0 leads view 0 and is crashed: only the correct nodes' view-0 timers,
    # due at t=3.0, move the run on.
    nodes = tuple("n%d" % index for index in range(4))
    engines = {
        name: make_engine(engine_name, EngineConfig(node_id=name, nodes=nodes, base_timeout=3.0))
        for name in nodes
    }
    driver = LocalDriver(engines, crashed=("n0",))
    driver.start({name: "v" for name in nodes})
    return driver


@pytest.mark.parametrize("engine_name", sorted(ENGINE_REGISTRY))
def test_a_run_split_before_the_view_change_decides_like_one_run(engine_name):
    whole = _crashed_leader_driver(engine_name).run(until=600)
    assert set(whole.decisions) == {"n1", "n2", "n3"}
    split = _crashed_leader_driver(engine_name)
    # The first run stops short of the timers; the event it looked at past
    # its horizon must still be queued for the second.
    assert split.run(until=1.0).decisions == {}
    assert split.run(until=600) == whole


def test_max_events_is_an_exact_bound():
    def good_case():
        nodes = tuple("n%d" % index for index in range(4))
        engines = {
            name: make_engine("pbft", EngineConfig(node_id=name, nodes=nodes)) for name in nodes
        }
        driver = LocalDriver(engines)
        driver.start({name: "v" for name in nodes})
        return driver

    # All decide before any timer fires: every executed event is a delivery.
    events = good_case().run(until=100).messages_delivered
    assert len(good_case().run(until=100, max_events=events).decisions) == 4
    driver = good_case()
    with pytest.raises(SimulationError):
        driver.run(until=100, max_events=events - 1)
    assert driver.messages_delivered == events - 1


def test_final_time_is_until_when_the_queue_drains_first():
    # n3 stays silent and never decides, so the run does not stop early; the
    # last events are the deciders' view-0 timers at t=30.
    nodes = ("n0", "n1", "n2", "n3")
    engines = {
        name: make_engine("hotstuff", EngineConfig(node_id=name, nodes=nodes, base_timeout=30.0))
        for name in nodes[:3]
    }
    engines["n3"] = SilentICPSAdversary("n3")
    driver = LocalDriver(engines)
    driver.start({name: "v" for name in nodes})
    result = driver.run(until=100)
    assert set(result.decisions) == {"n0", "n1", "n2"}
    assert driver.simulator.pending_events == 0
    assert result.final_time == 100


def test_all_agree_with_no_decisions_is_true():
    nodes = ("n0", "n1", "n2", "n3")
    engines = {
        name: make_engine("hotstuff", EngineConfig(node_id=name, nodes=nodes)) for name in nodes
    }
    driver = LocalDriver(engines)
    # No start: nothing happens.
    result = driver.run(until=1.0)
    assert result.decisions == {}
    assert result.all_agree()
