"""Pinned event trajectories of the local driver.

Every node runs behind a recording wrapper that logs, per executed event,
``(time, node, kind, type, sender)``.  A scenario's fingerprint is the sha256
of that log plus the decisions, decision views, decision times and the number
of delivered messages.  The pinned values fix the exact order in which the
driver delivers messages, fires timers and stops once every correct node has
decided, so a rewrite of the driver's loop or of the engines' shared
scaffolding must leave every one of them where it is.

The scenarios: each engine under four delivery schedules (synchronous, GST,
partition, crashed leader), each run whole and split in two ``run`` calls;
and an ICPS cluster on each engine with no adversary, an equivocating one and
a crashing one.
"""

import hashlib

import pytest

from repro.attack.adversary import CrashingICPSAdversary, EquivocatingICPSAdversary
from repro.consensus import ConsensusMessage, EngineConfig, LocalDriver, make_engine
from repro.consensus.driver import gst_delivery, partition_delivery
from repro.core import Document, ICPSConfig, ICPSNode
from repro.crypto.keys import KeyPair, KeyRing

NODES = ("n0", "n1", "n2", "n3")


class Recorder:
    """Wraps one driver participant and logs every event it handles."""

    def __init__(self, inner, node, log, clock):
        self.inner = inner
        self.node = node
        self.log = log
        self.clock = clock

    @property
    def decided(self):
        return self.inner.decided

    @property
    def decision(self):
        return self.inner.decision

    @property
    def decision_view(self):
        return self.inner.decision_view

    def start(self, value):
        return self.inner.start(value)

    def set_input(self, value):
        return self.inner.set_input(value)

    def on_message(self, message):
        kind = message.msg_type
        if isinstance(message.payload, ConsensusMessage):
            kind += ":" + message.payload.msg_type
        self.log.append((self.clock(), self.node, "deliver", kind, message.sender))
        return self.inner.on_message(message)

    def on_timeout(self, timer_id):
        self.log.append((self.clock(), self.node, "timeout", timer_id, None))
        return self.inner.on_timeout(timer_id)


def _value_key(value):
    vector = getattr(value, "agreed_vector", None)
    if vector is not None:
        return repr(sorted(vector.digests().items()))
    return repr(value)


def _recorded_driver(participants, **driver_options):
    log = []
    driver = None

    def clock():
        return driver.result().final_time

    wrapped = {node: Recorder(inner, node, log, clock) for node, inner in participants.items()}
    driver = LocalDriver(wrapped, **driver_options)
    return driver, log


def _fingerprint(driver, log):
    result = driver.result()
    blob = repr(
        (
            log,
            sorted((node, _value_key(value)) for node, value in result.decisions.items()),
            sorted(result.decision_views.items()),
            sorted(result.decision_times.items()),
            result.messages_delivered,
        )
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# -- bare engines -------------------------------------------------------------------

#: name -> (driver options, base_timeout, until, split instant)
SCHEDULES = {
    "synchronous": ({}, 10.0, 200.0, 0.025),
    "gst": ({"delivery_policy": gst_delivery(gst=15.0, latency=0.01)}, 3.0, 2000.0, 15.0),
    "partition": (
        {"delivery_policy": partition_delivery((NODES[:2], NODES[2:]), heal_time=20.0, latency=0.01)},
        3.0,
        2000.0,
        10.0,
    ),
    "crashed-leader": ({"crashed": ("n0",)}, 2.0, 600.0, 2.0),
}


def _engine_fingerprint(engine_name, schedule, split):
    options, base_timeout, until, split_at = SCHEDULES[schedule]
    engines = {
        name: make_engine(engine_name, EngineConfig(node_id=name, nodes=NODES, base_timeout=base_timeout))
        for name in NODES
    }
    driver, log = _recorded_driver(engines, **options)
    driver.start({name: "value-from-%s" % name for name in NODES})
    if split:
        driver.run(until=split_at)
    driver.run(until=until)
    return _fingerprint(driver, log)


ENGINE_PINS = {
    ("hotstuff", "synchronous"): "91566fbec82affb5c80019fab988b23a12d83748f9b2a5101b08ddc27c9f884b",
    ("hotstuff", "gst"): "4c2a62a8745feb7b8e2ee29adfb0184036b49013343524745171ef63eeb78786",
    ("hotstuff", "partition"): "3e7938f4a44982290411a2b47bf7a0f0e24a9f0efb82daffdb75aff655640e2d",
    ("hotstuff", "crashed-leader"): "2155c62c2cfaff8cdb00c87a3815a1ba62c11b8200eff998f9a857d18d3d1f36",
    ("pbft", "synchronous"): "a99b5d1900838b4f5abba4bbe4a60af6dc62f126fa5cc4daf6d33aed685802cf",
    ("pbft", "gst"): "1e00c344602ba2e9ffb40dc24aeaf7de39492483cb3f291ef9122788ccb84a79",
    ("pbft", "partition"): "576144008c6728054cc04327f18b6a35a1958d1c8df3ea4c5ccb7547d534950c",
    ("pbft", "crashed-leader"): "6b39da4cb931c0777411c48b73bdd1e4eaa5d456450cd14d089b4e39844b0271",
    ("tendermint", "synchronous"): "07e41c013843fcdb75c21b32ebd02c9ae0d7e128a1471b4012dab612815768fc",
    ("tendermint", "gst"): "865bc96144e80c5da627a3e60c7794ae322fb516c8ed1c6ffc2600cad860671a",
    ("tendermint", "partition"): "1590b5933092a5257bca031c3bb8622a952448370a4e7d9178b9d4db44b0141b",
    ("tendermint", "crashed-leader"): "a68ebb85725e65587d90910c3d43c9a105c5a4a966e6bd649cfe7add1d863d12",
}


@pytest.mark.parametrize("split", [False, True], ids=["whole", "split"])
@pytest.mark.parametrize("engine_name, schedule", sorted(ENGINE_PINS))
def test_engine_trajectory_is_pinned(engine_name, schedule, split):
    assert _engine_fingerprint(engine_name, schedule, split) == ENGINE_PINS[engine_name, schedule]


# -- ICPS clusters ------------------------------------------------------------------


def _icps_fingerprint(engine_name, adversary):
    names = tuple("a%d" % index for index in range(4))
    pairs = {name: KeyPair.generate(name, b"pin-seed") for name in names}
    ring = KeyRing(pairs.values())
    configs = {
        name: ICPSConfig(node_id=name, nodes=names, delta=5.0, engine=engine_name, view_timeout=8.0)
        for name in names
    }
    nodes = {name: ICPSNode(configs[name], ring, pairs[name]) for name in names[:-1]}
    if adversary == "equivocating":
        nodes["a3"] = EquivocatingICPSAdversary(
            "a3",
            peers=names,
            keypair=pairs["a3"],
            document_a=Document.from_text("lie A", label="a3"),
            document_b=Document.from_text("lie B", label="a3"),
        )
    elif adversary == "crashing":
        nodes["a3"] = CrashingICPSAdversary(configs["a3"], ring, pairs["a3"], crash_after_events=2)
    else:
        nodes["a3"] = ICPSNode(configs["a3"], ring, pairs["a3"])
    docs = {name: Document.from_text("vote of %s" % name, label=name) for name in names}
    driver, log = _recorded_driver(nodes, loopback_broadcast=False)
    driver.start(docs)
    driver.run(until=2000.0)
    return _fingerprint(driver, log)


ICPS_PINS = {
    ("hotstuff", "none"): "ed68f184d923f4a5a501c1cce5e24e7452720d53e9238bdeed960e7af4963e28",
    ("hotstuff", "equivocating"): "823fabc5e33a841431667f948a872afedf97ddf8aa2a42fb6afdec3b439944e7",
    ("hotstuff", "crashing"): "e0957f76945c0c268fbd7803ef8d9aeb126503376614abc3745ec2acfea655ea",
    ("pbft", "none"): "e6ff3f54768733fc0fe4bc078a2982c719ee068b285fdde2a419782643302fe0",
    ("pbft", "equivocating"): "a06397462f5e441ef1ae691e3cd690dbf3e7460b9585c549947c22b9cdfb5b4e",
    ("pbft", "crashing"): "3adeae55ab30401d03eb4759d199ce5cc6575637fc3082e144a909a68b0a41d9",
    ("tendermint", "none"): "34f6c492eedcc584c4ab61cc4604221876f5937b166324e04bbf7d0728b74be9",
    ("tendermint", "equivocating"): "6b8e13bb51653ad0855e95da0df34e238316f78b52d903b4a76487a489298d9b",
    ("tendermint", "crashing"): "7a80350a4250fd97d733cf83b28295f03b5995172e43e69ee5e92646471338fe",
}


@pytest.mark.parametrize("engine_name, adversary", sorted(ICPS_PINS))
def test_icps_trajectory_is_pinned(engine_name, adversary):
    assert _icps_fingerprint(engine_name, adversary) == ICPS_PINS[engine_name, adversary]
