"""Link-model layer tests: registry, rate policies, scheduler selection.

The shared models' rate arithmetic is stated once, from scratch, by the
reference model's rate functions (``tests/simnet/reference_sched.py``); the
rate-policy tests below pin those, and the stateful comparison in
``test_flow_scheduler_reference.py`` holds the production models to them.
"""

import pytest

from repro.simnet.flows import Flow, IndependentFlowScheduler, make_flow_scheduler
from repro.simnet.linkmodel import (
    FairShareLinkModel,
    LINK_MODELS,
    FifoLinkModel,
    LatencyOnlyLinkModel,
    LinkModel,
    TcpLinkModel,
    get_link_model,
    link_model_names,
    register_link_model,
)
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode
from repro.utils.validation import ValidationError

from tests.simnet.reference_sched import fair_rates, fifo_rates, occupancy, use_engine


def make_flow(flow_id, src, dst, size=1_000_000):
    return Flow(
        flow_id=flow_id,
        src=src,
        dst=dst,
        message=Message(msg_type="DOC", size_bytes=size),
        start_time=0.0,
        deadline=None,
        on_timeout=None,
        on_delivered=None,
    )


def links_for(mbps_by_node):
    return {name: LinkConfig.symmetric_mbps(mbps) for name, mbps in mbps_by_node.items()}


# -- registry ------------------------------------------------------------------

def test_registry_knows_the_four_shipped_models():
    assert set(link_model_names()) >= {"fair", "fifo", "tcp", "latency-only"}
    assert isinstance(get_link_model("fair"), FairShareLinkModel)
    assert isinstance(get_link_model("fifo"), FifoLinkModel)
    assert isinstance(get_link_model("tcp"), TcpLinkModel)
    assert isinstance(get_link_model("latency-only"), LatencyOnlyLinkModel)


def test_unknown_transport_is_rejected_with_the_known_names():
    with pytest.raises(ValidationError) as excinfo:
        get_link_model("weighted")
    assert "fair" in str(excinfo.value)
    # The error enumerates every registered model, the new tcp one included.
    assert "tcp" in str(excinfo.value)
    assert "latency-only" in str(excinfo.value)


def test_registering_a_custom_model_and_name_collisions():
    class WeightedModel(LinkModel):
        name = "test-weighted"
        shared = False

        def flow_rate(self, flow, links, now):
            return 1.0

    try:
        register_link_model(WeightedModel)
        assert "test-weighted" in link_model_names()
        # Re-registering the same class is idempotent...
        register_link_model(WeightedModel)

        class Impostor(LinkModel):
            name = "test-weighted"

        # ...but a different class may not steal the name.
        with pytest.raises(ValidationError):
            register_link_model(Impostor)
        # A registered model is constructible through SimNetwork.
        network = SimNetwork(transport="test-weighted")
        assert network.transport_name == "test-weighted"
    finally:
        LINK_MODELS.pop("test-weighted", None)


def test_nameless_models_are_rejected():
    class Nameless(LinkModel):
        pass

    with pytest.raises(ValidationError):
        register_link_model(Nameless)


def test_scheduler_selection_follows_the_coupling_flag_and_engine():
    from repro.simnet.shared_sched import LazySharedLinkScheduler

    # Shared models run the lazy engine unless a network asks for vector
    # (``test_vector_sched.py`` holds that request)...
    for name in ("fair", "fifo", "tcp"):
        for engine in (None, "lazy"):
            sched = make_flow_scheduler(get_link_model(name), None, {}, None, None, engine)
            assert isinstance(sched, LazySharedLinkScheduler)
    # ...and uncoupled models keep per-flow scheduling whatever is asked.
    for engine in (None, "lazy", "vector"):
        sched = make_flow_scheduler(get_link_model("latency-only"), None, {}, None, None, engine)
        assert isinstance(sched, IndependentFlowScheduler)


def test_a_shared_model_that_implements_no_hooks_fails_on_first_use():
    class OpaqueShared(LinkModel):
        name = "test-opaque-shared"
        shared = True

    network = SimNetwork(transport=OpaqueShared(), default_latency_s=0.0)
    for name in ("a", "b"):
        network.add_node(ProtocolNode(name), LinkConfig.symmetric_mbps(8.0))
    network.send("a", "b", Message(msg_type="DOC", size_bytes=1_000))
    with pytest.raises(NotImplementedError):
        network.run(until=1.0)


def _broadcast_wave(transport):
    """One all-to-all wave over unequal links: its stats and delivery log."""
    deliveries = []

    class Sink(ProtocolNode):
        def on_message(self, message, now):
            deliveries.append((now, message.sender, self.name))

    network = SimNetwork(transport=transport, default_latency_s=0.01)
    names = ["n%d" % index for index in range(5)]
    for index, name in enumerate(names):
        network.add_node(Sink(name), LinkConfig.symmetric_mbps(4.0 + 2.0 * index))
    for index, name in enumerate(names):
        others = [other for other in names if other != name]
        message = Message(msg_type="DOC", size_bytes=200_000 + 50_000 * index, sender=name)
        network.send_many(name, others, message)
    network.run(until=60.0)
    return network.stats, deliveries


def test_a_registered_subclass_is_a_complete_model():
    # One class, one registry: nothing but ``register_link_model`` stands
    # between a new shared model and a run on the default engine.
    class RenamedFair(FairShareLinkModel):
        name = "test-renamed-fair"

    register_link_model(RenamedFair)
    try:
        stats, deliveries = _broadcast_wave("test-renamed-fair")
    finally:
        LINK_MODELS.pop("test-renamed-fair", None)
    fair_stats, fair_deliveries = _broadcast_wave("fair")
    assert len(deliveries) == 20
    assert deliveries == fair_deliveries
    assert stats == fair_stats


def test_unknown_shared_engine_is_rejected():
    with pytest.raises(ValidationError):
        make_flow_scheduler(
            get_link_model("fair"), None, {}, None, None, shared_engine="eager"
        )


# -- rate policies -------------------------------------------------------------

def test_fair_model_splits_each_link_equally():
    links = links_for({"a": 8.0, "b": 8.0, "c": 8.0})  # 1 MB/s each
    rates = fair_rates([make_flow(1, "a", "b"), make_flow(2, "a", "c")], links, now=0.0)
    # Two flows share a's uplink: 500 kB/s each; downlinks are uncontended.
    assert rates[1] == pytest.approx(500_000.0)
    assert rates[2] == pytest.approx(500_000.0)


def test_fair_model_rates_each_flow_from_the_weighted_recount_of_its_two_links():
    links = links_for({"a": 8.0, "b": 8.0, "c": 4.0, "d": 2.0})
    flows = [
        make_flow(1, "a", "b"),
        make_flow(2, "a", "c"),
        make_flow(3, "d", "b"),
        make_flow(4, "c", "d"),
    ]
    flows[1].weight = 3
    up, down = occupancy(flows)
    assert up == {"a": 4, "d": 1, "c": 1} and down == {"b": 2, "c": 3, "d": 1}
    rates = fair_rates(flows, links, now=0.0)
    # Flow 2 holds 3 of a's 4 uplink shares (750 kB/s) but c's 500 kB/s
    # downlink, which it has to itself, is the tighter of the two.
    assert rates[2] == pytest.approx(500_000.0)
    assert rates[1] == pytest.approx(250_000.0)  # the other share of a's uplink
    assert rates[3] == pytest.approx(250_000.0)  # all of d's 2 Mbit/s uplink
    assert rates[4] == pytest.approx(250_000.0)  # all of d's 2 Mbit/s downlink


def test_fifo_model_serves_one_flow_per_uplink():
    links = links_for({"a": 8.0, "b": 8.0, "c": 8.0})
    rates = fifo_rates([make_flow(1, "a", "b"), make_flow(2, "a", "c")], links, now=0.0)
    assert rates[1] == pytest.approx(1_000_000.0)  # oldest gets full rate
    assert rates[2] == 0.0  # queued behind it


def test_fifo_model_orders_by_arrival_seq_not_flow_id():
    # A flow with a *smaller* id but a *later* arrival stamp must queue
    # behind the earlier arrival: FIFO service is defined over the
    # scheduler-stamped arrival_seq, never over how ids happen to be
    # assigned.
    links = links_for({"a": 8.0, "b": 8.0, "c": 8.0})
    first = make_flow(90, "a", "b")
    second = make_flow(10, "a", "c")
    first.arrival_seq = 0
    second.arrival_seq = 1
    rates = fifo_rates([second, first], links, now=0.0)
    assert rates[90] == pytest.approx(1_000_000.0)
    assert rates[10] == 0.0


@pytest.mark.parametrize("engine", ["lazy", "reference"])
def test_fifo_scheduler_serves_flows_started_out_of_id_order(engine):
    # Start flows whose ids *descend* (as a future id source that recycles
    # or reorders ids could produce): every engine must serve them in start
    # order, because the scheduler stamps arrival_seq in _add.
    deliveries = []

    class Sink(ProtocolNode):
        def on_message(self, message, now):
            deliveries.append((message.msg_type, now))

    with use_engine(engine):
        network = SimNetwork(transport="fifo", default_latency_s=0.0)
    for name in ("a", "b", "c"):
        network.add_node(Sink(name), LinkConfig.symmetric_mbps(8.0))  # 1 MB/s
    scheduler = network._scheduler

    def start(flow_id, msg_type, dst):
        flow = make_flow(flow_id, "a", dst, size=1_000_000)
        flow.message.msg_type = msg_type
        flow.message.sender = "a"
        scheduler.start_flows([flow], network.simulator.now)

    network.simulator.schedule(0.0, start, 90, "FIRST", "b")
    network.simulator.schedule(0.5, start, 10, "SECOND", "c")
    network.run(until=30.0)
    assert [kind for kind, _ in deliveries] == ["FIRST", "SECOND"]
    # Strict serial service: SECOND only starts once FIRST finishes at t=1.
    assert deliveries[0][1] == pytest.approx(1.0)
    assert deliveries[1][1] == pytest.approx(2.0)


def test_latency_only_model_gives_every_flow_the_full_min_capacity():
    model = LatencyOnlyLinkModel()
    assert model.shared is False
    links = links_for({"a": 8.0, "b": 4.0})
    flow = make_flow(1, "a", "b")
    # min(1 MB/s uplink, 500 kB/s downlink) regardless of other flows.
    assert model.flow_rate(flow, links, 0.0) == pytest.approx(500_000.0)
