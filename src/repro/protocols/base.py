"""Shared configuration, outcome types, and the authority-node base class."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.crypto.keys import KeyRing
from repro.crypto.signatures import verify
from repro.directory.aggregate import AggregationConfig, aggregate_votes
from repro.directory.authority import DirectoryAuthority
from repro.directory.consensus_doc import ConsensusDocument, ConsensusSignature
from repro.directory.vote import VoteDocument
from repro.simnet.message import Message
from repro.simnet.network import TransferStats
from repro.simnet.node import ProtocolNode
from repro.simnet.trace import TraceLog
from repro.utils.validation import ensure


@dataclass(frozen=True)
class DirectoryProtocolConfig:
    """Parameters shared by all directory protocols.

    Attributes
    ----------
    round_duration:
        Lock-step round length for the synchronous protocols (150 s live).
    connection_timeout:
        Directory connection timeout: a vote push or fetch that has not
        completed within this window is abandoned (what produces the
        "Giving up downloading votes" lines in Figure 1).
    package_transfer_timeout:
        Transfer window for the synchronous (Luo et al.) protocol's large
        vote packages, which are streamed within a round rather than going
        through the dir-client request path.  Calibrated so the protocol's
        failure threshold lands near the paper's (~2,000 relays at 10 Mbit/s).
    consensus_interval:
        Period between consensus runs (3600 s live); used for lifetime rules
        and the attack-cost model.
    signature_size_bytes:
        Modelled wire size of a detached consensus signature message.
    inclusion_rule:
        Relay-inclusion rule handed to the aggregation algorithm.
    """

    round_duration: float = 150.0
    connection_timeout: float = 18.0
    package_transfer_timeout: float = 45.0
    consensus_interval: float = 3600.0
    signature_size_bytes: int = 512
    inclusion_rule: str = "at-least-half"

    def __post_init__(self) -> None:
        ensure(self.round_duration > 0, "round_duration must be positive")
        ensure(self.connection_timeout > 0, "connection_timeout must be positive")
        ensure(self.package_transfer_timeout > 0, "package_transfer_timeout must be positive")
        ensure(self.consensus_interval > 0, "consensus_interval must be positive")

    def aggregation_config(self) -> AggregationConfig:
        """The aggregation configuration used when computing a consensus."""
        return AggregationConfig(
            inclusion_rule=self.inclusion_rule,
            voting_interval=self.consensus_interval,
        )


@dataclass
class AuthorityOutcome:
    """What one authority ended up with after a protocol run."""

    authority_id: int
    success: bool = False
    consensus_digest: Optional[str] = None
    signature_count: int = 0
    votes_held: int = 0
    completion_time: Optional[float] = None
    network_latency: Optional[float] = None
    failure_reason: Optional[str] = None


#: Format version of :meth:`ProtocolRunResult.summary` payloads.
#: Version 2 added fault accounting (``stats.messages_dropped`` + ``faults``).
#: Version 3 added the consensus-distribution layer's ``clients`` block
#: (empty for runs without a client workload).
RESULT_SUMMARY_VERSION = 3


@dataclass
class ProtocolRunResult:
    """Aggregate result of one directory-protocol run on the simulator."""

    protocol: str
    success: bool
    latency: Optional[float]
    outcomes: Dict[int, AuthorityOutcome]
    stats: TransferStats
    trace: TraceLog
    start_time: float
    end_time: float
    relay_count: int = 0
    #: Fault accounting from the run's :class:`~repro.faults.injector.FaultInjector`
    #: (empty for fault-free runs): messages dropped (with a by-cause
    #: breakdown), partition and crash authority-seconds, and which
    #: authorities were crashed / Byzantine.
    fault_summary: Dict[str, Any] = field(default_factory=dict)
    #: Client-side metrics from the run's
    #: :class:`~repro.clients.distribution.ConsensusDistribution` (empty for
    #: runs without a :class:`~repro.clients.workload.ClientWorkload`): state
    #: counts, fetch success rate, p50/p99 time-to-fresh, staleness-seconds.
    client_summary: Dict[str, Any] = field(default_factory=dict)
    #: :meth:`repro.simnet.network.SimNetwork.engine_counters` at the end of
    #: the run: events executed and heap state, plus the scheduler's own
    #: counts (rate passes, admission frontiers, wakes, departure scans on the
    #: lazy shared engine).  Like the trace, not part of :meth:`summary`: it
    #: describes the engine, not the simulated outcome.
    engine_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def successful_authorities(self) -> List[int]:
        """IDs of authorities that obtained a fully signed consensus."""
        return sorted(aid for aid, outcome in self.outcomes.items() if outcome.success)

    def latency_from(self, reference_time: float) -> Optional[float]:
        """Mean completion latency measured from ``reference_time`` (Figure 11)."""
        times = [
            outcome.completion_time - reference_time
            for outcome in self.outcomes.values()
            if outcome.success and outcome.completion_time is not None
        ]
        if not times:
            return None
        return sum(times) / len(times)

    # -- compact serialization --------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """A compact, JSON-serializable summary of this run.

        Keeps every per-authority outcome and the byte/message accounting
        (what the figures and Table 1 consume) but drops the trace log, which
        is what makes summaries cheap to cache on disk and to ship across
        process boundaries from sweep workers.
        """
        return {
            "version": RESULT_SUMMARY_VERSION,
            "protocol": self.protocol,
            "success": self.success,
            "latency": self.latency,
            "start_time": self.start_time,
            "end_time": self.end_time,
            "relay_count": self.relay_count,
            "outcomes": [
                asdict(self.outcomes[authority_id]) for authority_id in sorted(self.outcomes)
            ],
            "stats": asdict(self.stats),
            "faults": dict(self.fault_summary),
            "clients": dict(self.client_summary),
        }

    @classmethod
    def from_summary(cls, data: Dict[str, Any]) -> "ProtocolRunResult":
        """Rebuild a result from :meth:`summary` output.

        The reconstruction round-trips everything except the trace log, which
        comes back empty (use ``SweepExecutor.run_one(spec, full=True)`` when
        a run's log is needed).
        """
        version = data.get("version")
        ensure(
            version == RESULT_SUMMARY_VERSION,
            "unsupported result summary version %r" % (version,),
        )
        outcomes = {
            int(entry["authority_id"]): AuthorityOutcome(**entry)
            for entry in data["outcomes"]
        }
        return cls(
            protocol=data["protocol"],
            success=data["success"],
            latency=data["latency"],
            outcomes=outcomes,
            stats=TransferStats(**data["stats"]),
            trace=TraceLog(),
            start_time=data["start_time"],
            end_time=data["end_time"],
            relay_count=data.get("relay_count", 0),
            fault_summary=dict(data.get("faults", {})),
            client_summary=dict(data.get("clients", {})),
        )


class DirectoryAuthorityNode(ProtocolNode):
    """Base class for the per-protocol authority implementations.

    Holds the authority's identity, its vote, the shared key ring, and the
    outcome record; provides the consensus computation + signing helper and
    the signature exchange's verify-and-count step that all three protocols
    share (they differ only in *which* votes reach the aggregation and
    *when*, and in whether success is declared at a round boundary or the
    moment a majority has signed).

    Authorities are also the origin servers of the consensus-*distribution*
    layer: a run no longer terminates at signing.  Two seams carry that:

    * **Consensus-published hook** — listeners registered with
      :meth:`add_consensus_listener` fire inside :meth:`record_success`, the
      moment this authority holds a majority-signed consensus it can serve.
    * **Client service** — with a service attached
      (:meth:`attach_client_service`, done by
      :class:`~repro.clients.distribution.ConsensusDistribution`), incoming
      ``CLIENT/*`` messages are routed to it instead of the protocol's own
      ``on_message``, so the three protocol implementations stay oblivious
      to the client plane.  Without a service the node behaves exactly as
      before.
    """

    def __init__(
        self,
        authority: DirectoryAuthority,
        peers: Sequence[DirectoryAuthority],
        vote: VoteDocument,
        ring: KeyRing,
        config: DirectoryProtocolConfig,
    ) -> None:
        super().__init__(name=authority.name)
        self.authority = authority
        self.peers = [peer for peer in peers if peer.authority_id != authority.authority_id]
        self.all_authorities = sorted(peers, key=lambda a: a.authority_id)
        self.vote = vote
        self.ring = ring
        self.config = config
        self.outcome = AuthorityOutcome(authority_id=authority.authority_id)
        self.consensus: Optional[ConsensusDocument] = None
        #: Verified signature records, by consensus digest then signer.
        self._signatures: Dict[str, Dict[int, ConsensusSignature]] = {}
        self._client_service = None
        self._consensus_listeners: List[Any] = []

    # -- common helpers ----------------------------------------------------
    @property
    def total_authorities(self) -> int:
        """Number of directory authorities in the run."""
        return len(self.all_authorities)

    @property
    def majority(self) -> int:
        """Strict majority of authorities (5 of 9 on the live network)."""
        return self.total_authorities // 2 + 1

    def peer_names(self) -> List[str]:
        """Simulator node names of every other authority."""
        return [peer.name for peer in self.peers]

    def peer_by_name(self, name: str) -> Optional[DirectoryAuthority]:
        """Look up a peer authority by simulator node name."""
        for peer in self.all_authorities:
            if peer.name == name:
                return peer
        return None

    def compute_consensus(self, votes: Sequence[VoteDocument]) -> ConsensusDocument:
        """Aggregate ``votes`` and attach this authority's signature."""
        consensus = aggregate_votes(
            list(votes),
            config=self.config.aggregation_config(),
            valid_after=self.vote.valid_after,
        )
        consensus.sign_with(
            self.authority.authority_id, self.authority.fingerprint, self.authority.keypair
        )
        self.consensus = consensus
        return consensus

    # -- the signing exchange ------------------------------------------------
    def store_signature(self, record: ConsensusSignature) -> bool:
        """Verify ``record`` and file it under its digest; True when it is new."""
        if not isinstance(record, ConsensusSignature) or not verify(self.ring, record.signature):
            return False
        digest = record.signature.message
        key = digest.hex().upper() if isinstance(digest, bytes) else str(digest)
        per_digest = self._signatures.setdefault(key, {})
        if record.authority_id in per_digest:
            return False
        per_digest[record.authority_id] = record
        return True

    def has_signature_majority(self) -> bool:
        """Count the signatures over our own consensus digest into the outcome."""
        matching = self._signatures.get(self.consensus.digest_hex(), {})
        self.outcome.signature_count = len(matching)
        return len(matching) >= self.majority

    def _finalize(self) -> None:
        """End of a lock-step protocol's last round: succeed on a majority.

        The lock-step protocols set this as their final timer and provide
        ``_network_latency()``, their own notion of active network time.
        """
        if self.consensus is None:
            self.record_failure("no consensus computed")
            self.log("warn", "No consensus document at the end of the voting period.")
            return
        if self.has_signature_majority():
            self.record_success(self.now, self._network_latency())
            self.log(
                "notice",
                "Consensus is valid with %d of %d signatures."
                % (self.outcome.signature_count, self.total_authorities),
            )
        else:
            self.record_failure(
                "only %d of %d required signatures"
                % (self.outcome.signature_count, self.majority)
            )
            self.log(
                "warn",
                "Consensus does not have a majority of signatures: %d of %d."
                % (self.outcome.signature_count, self.majority),
            )

    # -- consensus distribution seams ---------------------------------------
    def attach_client_service(self, service) -> None:
        """Route this node's ``CLIENT/*`` messages to ``service``.

        ``service`` needs one method,
        ``handle_fetch(server_node, message, now)`` (see
        :class:`~repro.clients.distribution.ConsensusDistribution`).
        ``None`` detaches.
        """
        self._client_service = service

    def add_consensus_listener(self, listener) -> None:
        """Register ``listener(node, consensus, time)`` for publication.

        Fires inside :meth:`record_success` — the instant this authority
        holds a consensus with a majority of signatures.
        """
        self._consensus_listeners.append(listener)

    def serveable_consensus(self) -> Optional[ConsensusDocument]:
        """The consensus this authority can serve to dir-clients, if any.

        An authority serves only a *fully valid* consensus — one its own run
        declared successful (majority signatures over its digest) — matching
        a live authority answering consensus requests only once the document
        is signed.
        """
        return self.consensus if self.outcome.success else None

    def receive(self, message: Message, now: float) -> None:
        """Deliver ``message``, routing the client plane to the service."""
        if self._client_service is not None and message.msg_type.startswith("CLIENT/"):
            self._client_service.handle_fetch(self, message, now)
            return
        self.on_message(message, now)

    def record_success(self, completion_time: float, network_latency: Optional[float] = None) -> None:
        """Mark this authority's run as successful and publish the consensus."""
        self.outcome.success = True
        self.outcome.completion_time = completion_time
        self.outcome.network_latency = network_latency
        if self.consensus is not None:
            self.outcome.consensus_digest = self.consensus.digest_hex()
            for listener in self._consensus_listeners:
                listener(self, self.consensus, completion_time)

    def record_failure(self, reason: str) -> None:
        """Mark this authority's run as failed (idempotent, keeps first reason)."""
        if self.outcome.success:
            return
        if self.outcome.failure_reason is None:
            self.outcome.failure_reason = reason
