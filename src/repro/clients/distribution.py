"""Wiring the consensus-distribution layer into a protocol run.

:class:`ConsensusDistribution` is built by the protocol runner when a
:class:`~repro.runtime.spec.RunSpec` carries a
:class:`~repro.clients.workload.ClientWorkload`.  It owns everything on the
client side of the run:

* it adds the cohort nodes (aggregate endpoints with per-client link
  capacity) and optional mirror nodes to the network, with the workload's
  client↔server latency;
* it subscribes to every authority's consensus-published hook (the seam
  :meth:`repro.protocols.base.DirectoryAuthorityNode.record_success` fires),
  so the run no longer *terminates* at signing — signing is where
  distribution starts;
* it implements the directory-server side of the ``CLIENT/*`` message plane
  (:meth:`handle_fetch`), shared by authorities and mirrors: serve the
  signed consensus as a weighted flow bounded by the requester's deadline,
  or answer "not ready";
* it aggregates the per-cohort counting distributions and the shared
  :class:`~repro.clients.metrics.ClientMetrics` into the ``clients`` block
  of the run summary.

Client fetches travel the existing transport, timeout, and fault seams:
an attacked authority's starved uplink slows (and times out) consensus
responses exactly as it does vote transfers, which is what produces the
user-facing recovery curves of ``experiments/figure13_clients.py``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.clients.cohort import (
    CONSENSUS_MSG,
    NOT_READY_MSG,
    ClientCohortNode,
    ConsensusFetchRequest,
    ConsensusFetchResponse,
)
from repro.clients.metrics import ClientMetrics
from repro.clients.mirror import DirectoryMirrorNode
from repro.clients.waves import CohortWaveScheduler
from repro.clients.workload import NOT_READY_RESPONSE_BYTES, ClientWorkload
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.utils.rng import DeterministicRNG, derive_seed


def cohort_node_name(index: int) -> str:
    """Simulator node name of cohort ``index`` (the one naming rule)."""
    return "cohort-%d" % index


def mirror_node_name(index: int) -> str:
    """Simulator node name of mirror ``index`` (the one naming rule)."""
    return "mirror-%d" % index


class ConsensusDistribution:
    """Client cohorts, mirrors, and the directory-server message plane."""

    def __init__(
        self,
        workload: ClientWorkload,
        network: SimNetwork,
        authority_nodes: Sequence[Any],
        seed: int,
    ) -> None:
        self.workload = workload
        self.network = network
        self.metrics = ClientMetrics()
        self.first_publish_time: Optional[float] = None
        self._mirrors_serving = 0

        authority_names = [node.name for node in authority_nodes]
        self.mirrors: List[DirectoryMirrorNode] = []
        for index in range(workload.mirror_count):
            mirror = DirectoryMirrorNode(
                mirror_node_name(index),
                authority_names,
                workload,
                service=self,
                # Stagger the round-robin so mirrors do not all hit the same
                # authority on the same poll tick.
                poll_offset=index,
            )
            network.add_node(
                mirror, LinkConfig.symmetric_mbps(workload.mirror_bandwidth_mbps)
            )
            self.mirrors.append(mirror)

        # Clients fetch from the mirror tier when it exists (as on the live
        # network), from the authorities directly otherwise.
        servers = [mirror.name for mirror in self.mirrors] or list(authority_names)

        # One wave driver for the whole cohort set: a tick is one simulator
        # event doing batched draw arithmetic, not one event per cohort.
        self.wave_scheduler = CohortWaveScheduler(network)
        self.cohorts: List[ClientCohortNode] = []
        for index, population in enumerate(workload.cohort_populations()):
            rng = DeterministicRNG(derive_seed(seed, "client-cohort", index))
            cohort = ClientCohortNode(
                cohort_node_name(index),
                population,
                workload,
                servers,
                rng,
                self.metrics,
            )
            cohort.wave_scheduler = self.wave_scheduler
            network.add_node(
                cohort,
                LinkConfig.per_client(
                    uplink_mbps=workload.client_uplink_mbps,
                    downlink_mbps=workload.client_downlink_mbps,
                ),
            )
            for server in servers:
                network.set_latency(cohort.name, server, workload.client_latency_s)
            self.cohorts.append(cohort)

        for node in authority_nodes:
            node.attach_client_service(self)
            node.add_consensus_listener(self._on_consensus_published)

    # -- publish hook -------------------------------------------------------
    def _on_consensus_published(self, node: Any, consensus: Any, time: float) -> None:
        """An authority obtained a fully signed consensus at ``time``."""
        if self.first_publish_time is None or time < self.first_publish_time:
            self.first_publish_time = time

    def note_mirror_serving(self, mirror: DirectoryMirrorNode, time: float) -> None:
        """A mirror obtained the consensus and started serving clients."""
        self._mirrors_serving += 1

    # -- directory-server side of the CLIENT/* plane -------------------------
    def handle_fetch(self, server: Any, message: Message, now: float) -> None:
        """Answer one ``CLIENT/FETCH`` on behalf of ``server``.

        ``server`` is any node with a ``serveable_consensus()`` — an
        authority (which serves once its run succeeded) or a mirror.  The
        response is a weighted flow of ``weight × document size`` bytes
        bounded by the requester's deadline; a deadline already passed (the
        request itself crawled in through a starved link) sends nothing —
        the requester's attempt timer has already fired.
        """
        request = message.payload
        if not isinstance(request, ConsensusFetchRequest):
            return
        remaining = request.deadline - now
        if remaining <= 0:
            return
        document = server.serveable_consensus()
        if document is None:
            response = Message(
                msg_type=NOT_READY_MSG,
                payload=ConsensusFetchResponse(attempt_id=request.attempt_id),
                size_bytes=NOT_READY_RESPONSE_BYTES * request.weight,
            )
        else:
            response = Message(
                msg_type=CONSENSUS_MSG,
                payload=ConsensusFetchResponse(
                    attempt_id=request.attempt_id, document=document
                ),
                size_bytes=document.size_bytes * request.weight,
            )
        server.send(
            message.sender,
            response,
            timeout=remaining,
            weight=request.weight,
        )

    # -- reporting ----------------------------------------------------------
    def state_counts(self) -> Dict[str, int]:
        """Population-wide counting distribution over client states."""
        totals = {"stale": 0, "fetching": 0, "failed": 0, "fresh": 0}
        for cohort in self.cohorts:
            for state, count in cohort.state_counts().items():
                totals[state] += count
        return totals

    def summary(self, end_time: float) -> Dict[str, Any]:
        """The ``clients`` block of the run summary."""
        return self.metrics.summary(
            population=self.workload.population,
            end_time=end_time,
            state_counts=self.state_counts(),
            first_publish_time=self.first_publish_time,
            cohort_count=len(self.cohorts),
            mirrors_serving=self._mirrors_serving,
            mirror_count=len(self.mirrors),
        )
