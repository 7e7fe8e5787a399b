"""Golden-trace regression for the ``fair``, ``fifo`` and ``tcp`` transports.

A deterministic mixed workload — broadcast bursts, staggered unicasts,
zero-size control messages, a throttling window, a mid-run link replacement,
and transfers that time out — is driven through :class:`SimNetwork` and every
externally observable transport event (delivery, timeout) is recorded with
its full-precision virtual timestamp.  The resulting event streams are
committed under ``tests/data/`` and must reproduce *byte-identically*:

* ``golden_transport_{fair,fifo,tcp}.json`` — the default **lazy** engine
  (GOLDEN format 2, the lazy-advance scheduler of
  :mod:`repro.simnet.shared_sched`);
* ``golden_transport_tcp_vector.json`` — the **vector** engine's tcp
  trajectory (numpy-gated, reached through ``reference_sched.use_engine``).  The vector engine advances whole due cohorts
  per wake, which lands ack ticks on slightly different instants than the
  lazy engine's per-flow events, so tcp's second engine needs its own
  anchor.  fair needs no vector golden: its vector trajectory is
  conformance-checked against lazy in ``test_vector_sched.py`` instead.

The goldens pin each engine's own float trajectory; that the trajectory is
the *right* one is the reference model's job
(``tests/simnet/reference_sched.py``, compared against on this same workload
in ``test_shared_sched.py`` and ``test_tcp_transport.py``).

A protocol-level golden (one full ``fifo`` consensus run summary) rides
along so the fifo model is pinned end-to-end, not just at transport level.

To intentionally re-baseline after a *deliberate* semantic change:

    PYTHONPATH=src python tests/simnet/test_transport_golden.py regenerate

(say so loudly in the PR and bump GOLDEN_FORMAT if the lazy trajectory moved
on purpose).
"""

import json
import random
import sys
from pathlib import Path

import pytest

from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode

from tests.simnet.reference_sched import needs_numpy, use_engine

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN_TRANSPORTS = ("fair", "fifo", "tcp")

#: Engines whose trajectory is byte-pinned for every golden transport.
GOLDEN_ENGINES = ("lazy",)

#: Transports pinned on the vector engine too: tcp's vector trajectory
#: differs by design (cohort ack ticks) and gets its own numpy-gated anchor.
VECTOR_GOLDEN_TRANSPORTS = ("tcp",)

#: Format of the golden records ("golden_format" key).
GOLDEN_FORMAT = 2

#: Per-node symmetric link capacities for the workload (Mbit/s).
_NODE_MBPS = {"a": 8.0, "b": 16.0, "c": 4.0, "d": 8.0, "e": 2.0}


class _Recorder(ProtocolNode):
    """Node that appends every delivery to a shared event list."""

    def __init__(self, name, events):
        super().__init__(name)
        self._events = events

    def on_message(self, message, now):
        self._events.append(
            ["deliver", message.msg_type, message.sender, self.name, message.size_bytes, now]
        )


def golden_path(transport: str, engine: str) -> Path:
    suffix = "" if engine == "lazy" else "_%s" % engine
    return DATA_DIR / ("golden_transport_%s%s.json" % (transport, suffix))


def fifo_run_path(engine: str) -> Path:
    suffix = "" if engine == "lazy" else "_%s" % engine
    return DATA_DIR / ("golden_fifo_run%s.json" % suffix)


def run_transport_workload(transport: str) -> dict:
    """Drive the canonical workload and return its full event record."""
    network = SimNetwork(transport=transport, default_latency_s=0.03)
    events = []
    for name, mbps in _NODE_MBPS.items():
        schedule = BandwidthSchedule.constant_mbps(mbps)
        if name == "e":
            # A DDoS-style throttling window: ~zero capacity on [5, 15).
            schedule = schedule.with_window_mbps(5.0, 15.0, 0.05)
        network.add_node(_Recorder(name, events), LinkConfig.symmetric(schedule))
    names = list(_NODE_MBPS)
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            network.set_latency(a, b, (ord(a) + ord(b)) % 7 * 0.01 + 0.02)

    def on_timeout(message, dst):
        events.append(
            ["timeout", message.msg_type, message.sender, dst, message.size_bytes, network.simulator.now]
        )

    def send(src, dst, msg_type, size, timeout=None):
        network.send(
            src, dst, Message(msg_type=msg_type, size_bytes=size),
            timeout=timeout, on_timeout=on_timeout,
        )

    simulator = network.simulator
    # A broadcast burst, competing unicasts, a zero-size control message.
    for dst in ("b", "c", "d", "e"):
        simulator.schedule(0.0, send, "a", dst, "DOC", 300_000, 40.0)
    simulator.schedule(0.0, send, "b", "a", "VOTE", 50_000)
    simulator.schedule(0.5, send, "c", "e", "DOC", 200_000, 30.0)
    # Times out: destination "e" is throttled to ~zero during [5, 15).
    simulator.schedule(1.0, send, "d", "e", "PKG", 2_000_000, 12.0)
    simulator.schedule(2.0, send, "e", "a", "VOTE", 100_000)
    simulator.schedule(3.0, send, "b", "c", "PING", 0)
    # Mid-run link replacement.  No experiment calls set_link — an attack is
    # a schedule from DDoSAttackPlan.bandwidth_overrides(), in the link from
    # the start — but the transport keeps supporting live replacement.
    simulator.schedule(4.0, network.set_link, "b", LinkConfig.symmetric_mbps(1.0))
    simulator.schedule(4.5, send, "b", "d", "DOC", 500_000)

    # A seeded stagger of cross-traffic over every link pair.
    rng = random.Random(1234)
    for _ in range(20):
        src, dst = rng.sample(names, 2)
        at = rng.uniform(6.0, 30.0)
        size = rng.randrange(10_000, 400_000)
        timeout = rng.choice([None, 8.0])
        simulator.schedule(at, send, src, dst, "DATA", size, timeout)

    network.run(until=200.0)
    stats = network.stats
    return {
        "transport": transport,
        "events": events,
        "stats": {
            "bytes_sent": dict(stats.bytes_sent),
            "bytes_delivered": dict(stats.bytes_delivered),
            "bytes_by_type": dict(stats.bytes_by_type),
            "messages_sent": stats.messages_sent,
            "messages_delivered": stats.messages_delivered,
            "messages_timed_out": stats.messages_timed_out,
        },
    }


def _record_for(transport: str, engine: str) -> dict:
    with use_engine(engine):
        record = run_transport_workload(transport)
    record["golden_format"] = GOLDEN_FORMAT
    return record


def _fifo_run_spec():
    from repro.runtime.spec import RunSpec

    return RunSpec(
        protocol="current",
        relay_count=40,
        authority_count=5,
        seed=11,
        max_time=700.0,
        transport="fifo",
    )


@pytest.mark.parametrize("engine", GOLDEN_ENGINES)
@pytest.mark.parametrize("transport", GOLDEN_TRANSPORTS)
def test_transport_workload_reproduces_the_golden_trace_exactly(transport, engine):
    golden = json.loads(golden_path(transport, engine).read_text())
    assert _record_for(transport, engine) == golden


@needs_numpy
@pytest.mark.parametrize("transport", VECTOR_GOLDEN_TRANSPORTS)
def test_vector_transport_workload_reproduces_the_golden_trace_exactly(transport):
    golden = json.loads(golden_path(transport, "vector").read_text())
    assert _record_for(transport, "vector") == golden


@pytest.mark.parametrize("engine", GOLDEN_ENGINES)
def test_fifo_protocol_run_reproduces_the_golden_summary_exactly(engine):
    from repro.protocols.runner import execute_spec
    from repro.runtime.spec import RunSpec

    entry = json.loads(fifo_run_path(engine).read_text())
    spec = RunSpec.from_dict(entry["spec"])
    assert spec == _fifo_run_spec()
    with use_engine(engine):
        summary = execute_spec(spec).summary()
    assert summary == entry["summary"]


def regenerate() -> None:  # pragma: no cover - maintenance entry point
    from repro.protocols.runner import execute_spec

    from repro.simnet.vector_sched import vector_available

    pairs = [(t, engine) for engine in GOLDEN_ENGINES for t in GOLDEN_TRANSPORTS]
    if vector_available():
        pairs += [(transport, "vector") for transport in VECTOR_GOLDEN_TRANSPORTS]
    for transport, engine in pairs:
        record = _record_for(transport, engine)
        path = golden_path(transport, engine)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print("rebaselined", path)
    for engine in GOLDEN_ENGINES:
        spec = _fifo_run_spec()
        with use_engine(engine):
            summary = execute_spec(spec).summary()
        fifo_run_path(engine).write_text(
            json.dumps({"spec": spec.to_dict(), "summary": summary}, indent=2, sort_keys=True)
            + "\n"
        )
        print("rebaselined", fifo_run_path(engine))


if __name__ == "__main__" and "regenerate" in sys.argv[1:]:  # pragma: no cover
    regenerate()
