"""Behavioural tests shared by all three consensus engines.

Each test is parameterised over HotStuff, PBFT, and Tendermint and checks the
core single-shot properties the ICPS agreement phase relies on: termination
and agreement in the good case, tolerance of a crashed minority, recovery
from a crashed leader through view change, agreement under network partition
healing (GST), and respect for the external-validity predicate.
"""

import pytest

from repro.consensus import ENGINE_REGISTRY, EngineConfig, LocalDriver, make_engine
from repro.consensus.driver import gst_delivery, partition_delivery

ENGINES = sorted(ENGINE_REGISTRY)


def build(engine_name, node_count=4, validator=None, base_timeout=5.0):
    nodes = tuple("n%d" % index for index in range(node_count))
    engines = {
        name: make_engine(
            engine_name,
            EngineConfig(node_id=name, nodes=nodes, base_timeout=base_timeout, validator=validator),
        )
        for name in nodes
    }
    return nodes, engines


def inputs_for(nodes):
    return {name: "value-from-%s" % name for name in nodes}


@pytest.mark.parametrize("engine_name", ENGINES)
def test_good_case_all_decide_and_agree(engine_name):
    nodes, engines = build(engine_name)
    driver = LocalDriver(engines)
    driver.start(inputs_for(nodes))
    result = driver.run(until=200)
    assert set(result.decisions) == set(nodes)
    assert result.all_agree()
    # With an honest first leader the decision is the leader's input.
    assert list(result.decisions.values())[0] == "value-from-n0"


@pytest.mark.parametrize("engine_name", ENGINES)
def test_nine_nodes_good_case(engine_name):
    nodes, engines = build(engine_name, node_count=9)
    driver = LocalDriver(engines)
    driver.start(inputs_for(nodes))
    result = driver.run(until=300)
    assert len(result.decisions) == 9
    assert result.all_agree()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_tolerates_f_crashed_followers(engine_name):
    nodes, engines = build(engine_name, node_count=4)
    driver = LocalDriver(engines, crashed=("n3",))
    driver.start(inputs_for(nodes))
    result = driver.run(until=300)
    assert set(result.decisions) == {"n0", "n1", "n2"}
    assert result.all_agree()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_crashed_leader_triggers_view_change(engine_name):
    nodes, engines = build(engine_name, node_count=4, base_timeout=2.0)
    driver = LocalDriver(engines, crashed=("n0",))  # n0 leads view 0
    driver.start(inputs_for(nodes))
    result = driver.run(until=600)
    assert set(result.decisions) == {"n1", "n2", "n3"}
    assert result.all_agree()
    # The decision must have happened in a later view.
    assert all(view >= 1 for view in result.decision_views.values())


@pytest.mark.parametrize("engine_name", ENGINES)
def test_decides_after_partition_heals(engine_name):
    nodes, engines = build(engine_name, node_count=4, base_timeout=3.0)
    policy = partition_delivery((("n0", "n1"), ("n2", "n3")), heal_time=20.0, latency=0.01)
    driver = LocalDriver(engines, delivery_policy=policy)
    driver.start(inputs_for(nodes))
    result = driver.run(until=2000)
    assert set(result.decisions) == set(nodes)
    assert result.all_agree()
    assert all(time >= 20.0 for time in result.decision_times.values())


@pytest.mark.parametrize("engine_name", ENGINES)
def test_decides_despite_gst_delay(engine_name):
    nodes, engines = build(engine_name, node_count=4, base_timeout=3.0)
    driver = LocalDriver(engines, delivery_policy=gst_delivery(gst=15.0, latency=0.01))
    driver.start(inputs_for(nodes))
    result = driver.run(until=2000)
    assert set(result.decisions) == set(nodes)
    assert result.all_agree()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_external_validity_rejects_invalid_leader_value(engine_name):
    # The view-0 leader's input is invalid; agreement must settle on a valid
    # value from a later leader instead of the invalid one.
    def validator(value):
        return isinstance(value, str) and value.startswith("valid")
    nodes, engines = build(engine_name, node_count=4, validator=validator, base_timeout=2.0)
    driver = LocalDriver(engines)
    inputs = {name: "valid-%s" % name for name in nodes}
    inputs["n0"] = "INVALID"
    driver.start(inputs)
    result = driver.run(until=600)
    assert result.decisions, "someone must eventually decide"
    assert result.all_agree()
    for value in result.decisions.values():
        assert value.startswith("valid")


@pytest.mark.parametrize("engine_name", ENGINES)
def test_late_input_via_set_input(engine_name):
    # Engines start without input (as in ICPS, where (H, π) is only ready
    # after the dissemination phase) and receive it later.
    nodes, engines = build(engine_name, node_count=4, base_timeout=3.0)
    driver = LocalDriver(engines)
    driver.start({name: None for name in nodes})
    driver.run(until=1.0)
    for name in nodes:
        driver.set_input(name, "late-value-%s" % name)
    result = driver.run(until=600)
    assert set(result.decisions) == set(nodes)
    assert result.all_agree()


@pytest.mark.parametrize("engine_name", ENGINES)
def test_decision_is_stable_after_first_decision(engine_name):
    nodes, engines = build(engine_name)
    driver = LocalDriver(engines)
    driver.start(inputs_for(nodes))
    result = driver.run(until=200)
    first = dict(result.decisions)
    # Keep running past the early stop: no engine may change its decision.
    driver.simulator.run(until=400)
    assert driver.result().decisions == first


@pytest.mark.parametrize("engine_name", ENGINES)
def test_good_case_rounds_metadata(engine_name):
    engine_cls = ENGINE_REGISTRY[engine_name]
    assert engine_cls.good_case_rounds >= 3
    if engine_name == "hotstuff":
        # The paper's round-complexity total (9) assumes a 5-round HotStuff.
        assert engine_cls.good_case_rounds == 5
