"""View-based Byzantine agreement engines (the agreement sub-protocol substrate).

The paper's new directory protocol delegates its agreement phase to "any
view-based consensus protocol, such as PBFT, Tendermint, or HotStuff".  This
sub-package provides all three as **pure state machines**:

* engines never touch a clock or a socket — they consume
  :class:`ConsensusMessage` / timeout notifications and emit
  :class:`Action` lists (send, broadcast, set-timer, decide);
* the same engine therefore runs under the deterministic
  :class:`LocalDriver` (unit tests, Byzantine adversaries, partition
  schedules) and under the network simulator (integration tests and the
  paper's benchmarks);
* all engines are single-shot (one decision per instance), support external
  validity predicates, and rotate leaders round-robin across views;
* they share one skeleton, :class:`ConsensusEngine`, which owns the view,
  leader check, view timer, digest memory, input handling, dispatch and
  ``view-N`` timeouts.  An engine supplies only its protocol rules: a
  ``_HANDLERS`` map from message type to handler name, the ``_UNBUFFERED``
  types it handles even for a later view (all others wait in a buffer until
  the engine enters that view), ``_maybe_propose()`` and ``_enter_view(view)``;
* :class:`LocalDriver` runs engines on a :class:`~repro.simnet.engine.Simulator`
  — the same event loop as the network simulator — and stops a ``run`` once
  every correct node has decided.

``n >= 3f + 1`` is required, matching the partial-synchrony bound the paper
moves to (and the corresponding drop from tolerating 4 to 2 faulty
authorities out of 9).
"""

from repro.consensus.interfaces import (
    Action,
    BroadcastAction,
    ConsensusEngine,
    ConsensusMessage,
    DecideAction,
    EngineConfig,
    SendAction,
    SetTimerAction,
)
from repro.consensus.quorum import QuorumCertificate, quorum_size
from repro.consensus.hotstuff import HotStuffEngine
from repro.consensus.pbft import PBFTEngine
from repro.consensus.tendermint import TendermintEngine
from repro.consensus.driver import DriverResult, LocalDriver

ENGINE_REGISTRY = {
    "hotstuff": HotStuffEngine,
    "pbft": PBFTEngine,
    "tendermint": TendermintEngine,
}


def make_engine(name: str, config: EngineConfig) -> ConsensusEngine:
    """Instantiate a consensus engine by name (``hotstuff``/``pbft``/``tendermint``)."""
    try:
        engine_cls = ENGINE_REGISTRY[name]
    except KeyError:
        raise ValueError("unknown consensus engine %r; known: %s" % (name, sorted(ENGINE_REGISTRY)))
    return engine_cls(config)


__all__ = [
    "Action",
    "BroadcastAction",
    "ConsensusEngine",
    "ConsensusMessage",
    "DecideAction",
    "EngineConfig",
    "SendAction",
    "SetTimerAction",
    "QuorumCertificate",
    "quorum_size",
    "HotStuffEngine",
    "PBFTEngine",
    "TendermintEngine",
    "LocalDriver",
    "DriverResult",
    "ENGINE_REGISTRY",
    "make_engine",
]
