"""Engine-specific behaviour: locking, view change carry-over, equivocation."""

import pytest

from repro.consensus import EngineConfig, LocalDriver
from repro.consensus.hotstuff import HotStuffEngine
from repro.consensus.pbft import PBFTEngine
from repro.consensus.tendermint import TendermintEngine
from repro.consensus.interfaces import (
    BroadcastAction,
    ConsensusMessage,
    SendAction,
    SetTimerAction,
)
from repro.consensus.values import NIL_DIGEST, value_digest

NODES = ("n0", "n1", "n2", "n3")


def config_for(name, **kwargs):
    return EngineConfig(node_id=name, nodes=NODES, base_timeout=5.0, **kwargs)


class TestEngineConfig:
    def test_fault_tolerance_thresholds(self):
        config = config_for("n0")
        assert config.n == 4 and config.f == 1 and config.quorum == 3
        nine = EngineConfig(node_id="a0", nodes=tuple("a%d" % i for i in range(9)))
        assert nine.f == 2 and nine.quorum == 7

    def test_leader_rotation_round_robin(self):
        config = config_for("n0")
        assert [config.leader_of(v) for v in range(5)] == ["n0", "n1", "n2", "n3", "n0"]

    def test_view_timeout_grows(self):
        config = config_for("n0")
        assert config.view_timeout(3) > config.view_timeout(0)

    def test_invalid_configs(self):
        with pytest.raises(Exception):
            EngineConfig(node_id="zzz", nodes=NODES)
        with pytest.raises(Exception):
            EngineConfig(node_id="n0", nodes=("n0", "n0"))


class TestHotStuff:
    def test_leader_proposes_on_start(self):
        engine = HotStuffEngine(config_for("n0"))
        actions = engine.start("value")
        proposes = [a for a in actions if isinstance(a, BroadcastAction)]
        assert len(proposes) == 1
        assert proposes[0].message.msg_type == "HS/PROPOSE"
        assert any(isinstance(a, SetTimerAction) for a in actions)

    def test_follower_does_not_propose(self):
        engine = HotStuffEngine(config_for("n1"))
        actions = engine.start("value")
        assert not any(isinstance(a, BroadcastAction) for a in actions)

    def test_replica_votes_only_once_per_view(self):
        engine = HotStuffEngine(config_for("n1"))
        engine.start("own")
        proposal = ConsensusMessage(
            msg_type="HS/PROPOSE",
            sender="n0",
            view=0,
            payload={"value": "v", "justify": engine.high_qc, "digest": value_digest("v")},
        )
        first = engine.on_message(proposal)
        second = engine.on_message(proposal)
        assert any(isinstance(a, SendAction) and a.message.msg_type == "HS/VOTE1" for a in first)
        assert second == []

    def test_proposal_from_non_leader_ignored(self):
        engine = HotStuffEngine(config_for("n1"))
        engine.start("own")
        bogus = ConsensusMessage(
            msg_type="HS/PROPOSE",
            sender="n2",  # not the leader of view 0
            view=0,
            payload={"value": "v", "justify": engine.high_qc, "digest": value_digest("v")},
        )
        assert engine.on_message(bogus) == []

    def test_locked_replica_rejects_conflicting_old_justification(self):
        engine = HotStuffEngine(config_for("n1"))
        engine.start("own")
        from repro.consensus.quorum import QuorumCertificate

        lock = QuorumCertificate(
            view=3, value_digest=value_digest("locked"), voters=frozenset({"n0", "n1", "n2"}),
            phase="prepare",
        )
        engine.locked_qc = lock
        engine.view = 4
        conflicting = ConsensusMessage(
            msg_type="HS/PROPOSE",
            sender=engine.config.leader_of(4),
            view=4,
            payload={
                "value": "different",
                "justify": engine.high_qc,  # genesis, older than the lock
                "digest": value_digest("different"),
            },
        )
        assert engine.on_message(conflicting) == []

    def test_timeout_advances_view_and_sends_new_view(self):
        engine = HotStuffEngine(config_for("n2"))
        engine.start("own")
        actions = engine.on_timeout("view-0")
        assert engine.view == 1
        sends = [a for a in actions if isinstance(a, SendAction)]
        assert sends and sends[0].to == "n1"  # leader of view 1
        assert sends[0].message.msg_type == "HS/NEW-VIEW"


class TestPBFT:
    def test_full_local_round_decides(self):
        engines = {name: PBFTEngine(config_for(name)) for name in NODES}
        driver = LocalDriver(engines)
        driver.start({name: "value-%s" % name for name in NODES})
        result = driver.run(until=100)
        assert result.all_agree() and len(result.decisions) == 4
        assert list(result.decisions.values())[0] == "value-n0"

    def test_prepared_value_carried_over_on_view_change(self):
        engine = PBFTEngine(config_for("n1"))
        engine.start("own")
        digest = value_digest("committed-value")
        engine.on_message(
            ConsensusMessage(
                msg_type="PBFT/PRE-PREPARE",
                sender="n0",
                view=0,
                payload={"value": "committed-value", "digest": digest},
            )
        )
        for sender in ("n0", "n2", "n3"):
            engine.on_message(
                ConsensusMessage(
                    msg_type="PBFT/PREPARE", sender=sender, view=0, payload={"digest": digest}
                )
            )
        assert engine.prepared is not None
        actions = engine.on_timeout("view-0")
        view_changes = [
            a
            for a in actions
            if isinstance(a, BroadcastAction) and a.message.msg_type == "PBFT/VIEW-CHANGE"
        ]
        assert view_changes
        assert view_changes[0].message.payload["prepared"].value == "committed-value"


class TestTendermint:
    def test_nil_prevote_for_invalid_proposal(self):
        def validator(value):
            return value == "good"
        engine = TendermintEngine(config_for("n1", validator=validator))
        engine.start("good")
        actions = engine.on_message(
            ConsensusMessage(
                msg_type="TM/PROPOSAL",
                sender="n0",
                view=0,
                payload={"value": "bad", "digest": value_digest("bad"), "valid_round": -1},
            )
        )
        prevotes = [a for a in actions if isinstance(a, BroadcastAction)]
        assert prevotes and prevotes[0].message.payload["digest"] == NIL_DIGEST

    def test_polka_locks_value(self):
        engine = TendermintEngine(config_for("n1"))
        engine.start("own")
        digest = value_digest("candidate")
        engine.on_message(
            ConsensusMessage(
                msg_type="TM/PROPOSAL",
                sender="n0",
                view=0,
                payload={"value": "candidate", "digest": digest, "valid_round": -1},
            )
        )
        for sender in ("n0", "n2", "n3"):
            engine.on_message(
                ConsensusMessage(
                    msg_type="TM/PREVOTE", sender=sender, view=0, payload={"digest": digest}
                )
            )
        assert engine.locked_value == "candidate"
        assert engine.locked_round == 0

    def test_locked_node_rejects_conflicting_proposal_in_next_round(self):
        engine = TendermintEngine(config_for("n0"))
        engine.start("own")
        engine.locked_value = "locked"
        engine.locked_round = 2
        engine.view = 3
        actions = engine.on_message(
            ConsensusMessage(
                msg_type="TM/PROPOSAL",
                sender="n3",  # leader of round 3
                view=3,
                payload={"value": "other", "digest": value_digest("other"), "valid_round": -1},
            )
        )
        prevotes = [a for a in actions if isinstance(a, BroadcastAction)]
        assert prevotes and prevotes[0].message.payload["digest"] == NIL_DIGEST
