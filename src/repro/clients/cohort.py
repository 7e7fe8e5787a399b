"""Cohort-aggregated dir-clients: one simnet node standing in for N clients.

A :class:`ClientCohortNode` folds ``population`` identical clients (same
geography, same access-bandwidth class) into one aggregate endpoint.
Per-client state lives in counting distributions — how many clients are
*stale* (never fetched), *fetching* (attempt in flight), *failed* (last
attempt failed, waiting to retry) and *fresh* (hold the signed consensus) —
and fetch traffic is issued as *weighted flows*: a batch of ``w`` clients
fetching from the same server is one flow of weight ``w`` carrying
``w × document size`` bytes, which under weighted fair sharing is exactly
equivalent to ``w`` unit flows started at the same instant (see
:mod:`repro.simnet.linkmodel`).

Arrivals are aggregated at ``wave_interval_s`` granularity.  The cohort
enrolls with the distribution's
:class:`~repro.clients.waves.CohortWaveScheduler`, which every wave tick
draws how many of the cohort's eligible clients start a fetch and hands the
batch to :meth:`ClientCohortNode._run_wave`:

* ``poisson`` — each client polls at exponential intervals with mean
  ``fetch_interval_s``; over one tick a client starts with probability
  ``p = 1 - exp(-tick / interval)``, so the batch is a Binomial(eligible, p)
  draw from the cohort's seeded stream: one inverse-transform sample from a
  single uniform pull for small cohorts, the Gaussian approximation from a
  single z-score beyond (see :mod:`repro.clients.sampling`).  Either way
  the draw costs one stream pull per wave, never one per client.
* ``deterministic`` — every eligible client fetches at every tick and the
  serving directory rotates with the wave index.  No randomness at all:
  a K-cohort run is *exactly* equal to the same population simulated as
  individual clients, which the conformance property pins.

One attempt is bounded by ``connection_timeout_s`` end to end (request and
response share the deadline).  A timeout or an explicit "not ready" reply
sends the batch to the failed pool; after ``retry_backoff_s`` it becomes
eligible again.  The cohort stops scheduling waves once every client is
fresh, so successful runs drain instead of ticking until ``max_time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.clients.metrics import ClientMetrics
from repro.clients.workload import ClientWorkload, even_split
from repro.simnet.engine import EventHandle
from repro.simnet.message import Message
from repro.simnet.node import ProtocolNode
from repro.utils.rng import DeterministicRNG
from repro.utils.validation import ensure

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.clients.waves import CohortWaveScheduler

#: A cohort (or mirror) asking a directory server for the signed consensus.
FETCH_MSG = "CLIENT/FETCH"
#: A directory server returning the signed consensus.
CONSENSUS_MSG = "CLIENT/CONSENSUS"
#: A directory server answering "no consensus available yet" (HTTP 404).
NOT_READY_MSG = "CLIENT/NOT_READY"

#: Cohorts above this size draw Binomial batches via the Gaussian
#: approximation; at or below it the draw is an exact Bernoulli sum.
_EXACT_BINOMIAL_LIMIT = 64


@dataclass(frozen=True)
class ConsensusFetchRequest:
    """Payload of a ``CLIENT/FETCH`` message.

    ``deadline`` is the absolute virtual time at which the requesting
    clients give up; the server bounds its response flow by it so a reply
    that cannot arrive in time is aborted like a closed connection.
    """

    requester: str
    attempt_id: int
    weight: int
    deadline: float


@dataclass(frozen=True)
class ConsensusFetchResponse:
    """Payload of a ``CLIENT/CONSENSUS`` or ``CLIENT/NOT_READY`` message."""

    attempt_id: int
    document: object = None


class ClientCohortNode(ProtocolNode):
    """``population`` dir-clients folded into one aggregate endpoint."""

    def __init__(
        self,
        name: str,
        population: int,
        workload: ClientWorkload,
        servers: Sequence[str],
        rng: DeterministicRNG,
        metrics: ClientMetrics,
    ) -> None:
        super().__init__(name=name)
        ensure(population >= 1, "cohort population must be at least 1")
        ensure(len(servers) >= 1, "cohort needs at least one directory server")
        self.population = population
        self.workload = workload
        self.servers = list(servers)
        self.rng = rng
        self.metrics = metrics
        # Counting distributions over interchangeable clients.
        self._stale = population  # never attempted
        self._retry_eligible = 0  # failed, backoff elapsed
        self._cooling = 0  # failed, waiting out the backoff
        self._fetching = 0  # attempt in flight
        self._fresh = 0  # hold the signed consensus
        self._wave_index = 0
        #: attempt id -> (weight, deadline timer handle)
        self._inflight: Dict[int, Tuple[int, EventHandle]] = {}
        # Poisson-mode cohorts desynchronize their server rotation with a
        # seeded offset so concurrent cohorts spread over the directory set;
        # deterministic mode keeps 0 so cohort splits never affect selection.
        self._rotation_offset = (
            rng.randint(0, len(self.servers) - 1) if workload.arrival == "poisson" else 0
        )
        #: The wave driver this cohort enrolls with; the distribution
        #: attaches it before the network starts.
        self.wave_scheduler: Optional["CohortWaveScheduler"] = None

    # -- state reporting ---------------------------------------------------
    def state_counts(self) -> Dict[str, int]:
        """The cohort's counting distribution over client states."""
        return {
            "stale": self._stale,
            "fetching": self._fetching,
            "failed": self._cooling + self._retry_eligible,
            "fresh": self._fresh,
        }

    @property
    def fresh_clients(self) -> int:
        """Clients of this cohort holding the signed consensus."""
        return self._fresh

    @property
    def eligible_clients(self) -> int:
        """Clients that would start a fetch if drawn this wave."""
        return self._stale + self._retry_eligible

    @property
    def exact_binomial_limit(self) -> int:
        """Largest eligible count drawn exactly instead of approximated."""
        return _EXACT_BINOMIAL_LIMIT

    # -- lifecycle ---------------------------------------------------------
    def on_start(self) -> None:
        self.wave_scheduler.enroll(self, self.now + self.workload.wave_interval_s)

    # -- wave machinery ----------------------------------------------------
    def _run_wave(self, batch: int) -> None:
        """Advance the wave index and issue ``batch`` fetches, split across
        this wave's serving directories.  The draw happened upstream, batched
        across cohorts by the
        :class:`~repro.clients.waves.CohortWaveScheduler`."""
        self._wave_index += 1
        if batch > 0:
            for server, weight in self._split_batch(batch):
                self._start_fetch(server, weight)

    def _split_batch(self, batch: int) -> List[Tuple[str, int]]:
        """Split ``batch`` clients across this wave's serving directories.

        The wave's servers are a rotating window of ``servers_per_wave``
        entries; the batch is split into near-equal integer parts (earlier
        servers take the remainder).  Zero-weight parts are dropped.
        """
        count = min(self.workload.servers_per_wave, len(self.servers))
        start = (self._rotation_offset + (self._wave_index - 1) * count) % len(self.servers)
        parts: List[Tuple[str, int]] = []
        for position, weight in enumerate(even_split(batch, count)):
            if weight <= 0:
                continue
            parts.append((self.servers[(start + position) % len(self.servers)], weight))
        return parts

    # -- fetch attempts ----------------------------------------------------
    def _start_fetch(self, server: str, weight: int) -> None:
        taken_new = min(weight, self._stale)
        self._stale -= taken_new
        self._retry_eligible -= weight - taken_new
        self._fetching += weight
        self.metrics.record_attempts(weight)

        timeout = self.workload.connection_timeout_s
        attempt_id = self._require_network().simulator.next_serial()
        deadline_timer = self.set_timer(timeout, self._on_attempt_deadline, attempt_id)
        self._inflight[attempt_id] = (weight, deadline_timer)
        self.send(
            server,
            Message(
                msg_type=FETCH_MSG,
                payload=ConsensusFetchRequest(
                    requester=self.name,
                    attempt_id=attempt_id,
                    weight=weight,
                    deadline=self.now + timeout,
                ),
                size_bytes=self.workload.request_bytes * weight,
            ),
            timeout=timeout,
            on_timeout=self._on_request_timeout,
            weight=weight,
        )

    def on_message(self, message: Message, now: float) -> None:
        response = message.payload
        if not isinstance(response, ConsensusFetchResponse):
            return
        if message.msg_type == CONSENSUS_MSG:
            self._complete_attempt(response.attempt_id, now)
        elif message.msg_type == NOT_READY_MSG:
            self._fail_attempt(response.attempt_id, "not_ready")

    def _on_request_timeout(self, message: Message, destination: str) -> None:
        request = message.payload
        if isinstance(request, ConsensusFetchRequest):
            self._fail_attempt(request.attempt_id, "timeout")

    def _on_attempt_deadline(self, attempt_id: int) -> None:
        self._fail_attempt(attempt_id, "timeout")

    def _take_attempt(self, attempt_id: int) -> Optional[int]:
        entry = self._inflight.pop(attempt_id, None)
        if entry is None:
            # Already settled — e.g. a response landing (after propagation
            # latency) just past the deadline that failed the attempt.
            return None
        weight, deadline_timer = entry
        self.cancel_timer(deadline_timer)
        return weight

    def _complete_attempt(self, attempt_id: int, now: float) -> None:
        weight = self._take_attempt(attempt_id)
        if weight is None:
            return
        self._fetching -= weight
        self._fresh += weight
        self.metrics.record_success(weight, now)
        if self._fresh == self.population:
            self.log(
                "info",
                "All %d clients of this cohort hold a fresh consensus." % self.population,
            )

    def _fail_attempt(self, attempt_id: int, cause: str) -> None:
        weight = self._take_attempt(attempt_id)
        if weight is None:
            return
        self._fetching -= weight
        self._cooling += weight
        if cause == "timeout":
            self.metrics.record_timeout(weight)
        else:
            self.metrics.record_not_ready(weight)
        self.set_timer(self.workload.retry_backoff_s, self._end_backoff, weight)

    def _end_backoff(self, weight: int) -> None:
        self._cooling -= weight
        self._retry_eligible += weight
