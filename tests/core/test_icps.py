"""End-to-end ICPS tests on the local driver (good case and engine variants)."""

import pytest

from repro.consensus import LocalDriver
from repro.consensus.driver import gst_delivery
from repro.core import (
    Document,
    ICPSConfig,
    ICPSNode,
    check_agreement,
    check_common_set_validity,
    check_termination,
    check_value_validity,
)
from repro.core.icps import ICPSMessage
from repro.crypto.keys import KeyPair, KeyRing


def build_cluster(n=4, engine="hotstuff", delta=5.0, view_timeout=10.0):
    names = tuple("a%d" % index for index in range(n))
    pairs = {name: KeyPair.generate(name, b"icps-seed") for name in names}
    ring = KeyRing(pairs.values())
    nodes = {
        name: ICPSNode(
            ICPSConfig(
                node_id=name, nodes=names, delta=delta, engine=engine, view_timeout=view_timeout
            ),
            ring,
            pairs[name],
        )
        for name in names
    }
    docs = {name: Document.from_text("vote of %s" % name, label=name) for name in names}
    return names, pairs, ring, nodes, docs


def run_cluster(nodes, docs, delivery_policy=None, crashed=(), until=1000.0):
    driver = LocalDriver(nodes, delivery_policy=delivery_policy, crashed=crashed, loopback_broadcast=False)
    driver.start(docs)
    driver.run(until=until)
    return driver


class TestConfig:
    def test_fault_tolerance(self):
        names = tuple("a%d" % index for index in range(9))
        config = ICPSConfig(node_id="a0", nodes=names)
        assert config.n == 9 and config.f == 2

    def test_invalid_config(self):
        with pytest.raises(Exception):
            ICPSConfig(node_id="zzz", nodes=("a0", "a1"))
        with pytest.raises(Exception):
            ICPSConfig(node_id="a0", nodes=("a0",), delta=0)


class TestMessageSizes:
    def test_document_message_dominated_by_document(self):
        document = Document(data=b"x" * 100_000)
        message = ICPSMessage(msg_type="DOCUMENT", sender="a0", payload={"document": document, "signature": None})
        assert message.size_bytes > 100_000

    def test_fetch_response_sums_documents(self):
        docs = {"a0": Document(data=b"x" * 1000), "a1": Document(data=b"y" * 2000)}
        message = ICPSMessage(msg_type="FETCH_RESPONSE", sender="a2", payload=docs)
        assert message.size_bytes >= 3000

    def test_unknown_type_gets_base_size(self):
        assert ICPSMessage(msg_type="OTHER", sender="a0").size_bytes == 64


@pytest.mark.parametrize("engine", ["hotstuff", "pbft", "tendermint"])
def test_good_case_all_properties_hold(engine):
    names, _pairs, _ring, nodes, docs = build_cluster(engine=engine)
    run_cluster(nodes, docs)
    outputs = {name: nodes[name].output for name in names}
    assert check_termination(outputs, names)
    assert check_agreement(outputs, names)
    assert check_value_validity(outputs, docs, names, gst_zero=True)
    assert check_common_set_validity(outputs, names, n=len(names), f=1)
    # GST = 0 and no faults: every document is delivered.
    assert all(output.non_bottom_count == len(names) for output in outputs.values())


def test_driver_result_agrees_on_an_agreeing_cluster():
    # The outputs differ only in which node produced them.
    names, _pairs, _ring, nodes, docs = build_cluster()
    result = run_cluster(nodes, docs).result()
    assert set(result.decisions) == set(names)
    assert check_agreement(result.decisions, names)
    assert result.all_agree()


def test_nine_node_cluster_decides():
    names, _pairs, _ring, nodes, docs = build_cluster(n=9)
    run_cluster(nodes, docs)
    outputs = {name: nodes[name].output for name in names}
    assert check_termination(outputs, names)
    assert check_agreement(outputs, names)
    assert check_common_set_validity(outputs, names, n=9, f=2)


def test_outputs_expose_documents_and_views():
    names, _pairs, _ring, nodes, docs = build_cluster()
    run_cluster(nodes, docs)
    output = nodes["a1"].output
    assert output.document_of("a0").data == docs["a0"].data
    assert output.decided_view >= 0
    assert nodes["a1"].decision is output
    assert nodes["a1"].agreed_vector is not None


def test_gst_delay_still_terminates_with_all_correct():
    names, _pairs, _ring, nodes, docs = build_cluster(delta=5.0, view_timeout=5.0)
    run_cluster(nodes, docs, delivery_policy=gst_delivery(gst=30.0, latency=0.05), until=3000)
    outputs = {name: nodes[name].output for name in names}
    assert check_termination(outputs, names)
    assert check_agreement(outputs, names)
    assert check_common_set_validity(outputs, names, n=len(names), f=1)
    # Under a non-zero GST the weaker value-validity clause applies.
    assert check_value_validity(outputs, docs, names, gst_zero=False)


def test_node_cannot_start_twice():
    names, _pairs, _ring, nodes, docs = build_cluster()
    node = nodes["a0"]
    node.start(docs["a0"])
    with pytest.raises(Exception):
        node.start(docs["a0"])


def test_messages_before_start_are_ignored():
    names, _pairs, _ring, nodes, docs = build_cluster()
    node = nodes["a0"]
    assert node.on_message(ICPSMessage(msg_type="DOCUMENT", sender="a1", payload={})) == []
    assert node.on_timeout("dissemination") == []


def test_fetched_documents_go_through_the_tracker_and_count_once():
    names, _pairs, _ring, nodes, docs = build_cluster()

    def lose_a1_document_to_a0(sender, receiver, message, now):
        if (sender, receiver, message.msg_type) == ("a1", "a0", "DOCUMENT"):
            return None
        return now + 0.01

    run_cluster(nodes, docs, delivery_policy=lose_a1_document_to_a0)
    outputs = {name: nodes[name].output for name in names}
    assert check_termination(outputs, names) and check_agreement(outputs, names)
    # a0 never got a1's DOCUMENT, so what it outputs for a1 was fetched.
    assert outputs["a0"].document_of("a1") == docs["a1"]
    for node in nodes.values():
        tracker = node.tracker
        held = sum(1 for name in names if tracker.document_of(name) is not None)
        assert tracker.received_document_count == held == len(names)
        assert tracker.has_all_documents()
