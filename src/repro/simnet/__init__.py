"""Deterministic discrete-event network simulator (the Shadow substitute).

The paper evaluates everything on Shadow, a high-fidelity network simulator
running real Tor binaries.  What the experiments actually exercise is much
narrower: message sizes, per-host bandwidth that varies over time (the DDoS
model), propagation latency, protocol timers, and per-connection timeouts.
:mod:`repro.simnet` models exactly those, as a layered transport pipeline:

* :class:`Simulator` — a deterministic event loop (virtual time, heap-ordered
  events, stable tie-breaking, one monotonic serial counter);
* :class:`BandwidthSchedule` — piecewise-constant link capacity over time;
  DDoS attacks and GST are expressed as windows of reduced capacity;
* :class:`LinkModel` — the pluggable rate policy (how concurrent flows share
  links), selected by registry name: max-min **fair** sharing (TCP-like),
  **fifo** per-uplink scheduling, or the sharing-free **latency-only** fast
  model for large sweeps;
* :class:`~repro.simnet.flows.FlowScheduler` — flow lifecycle and
  completion-time maintenance; shared models run the lazy-advance
  heap-driven engine (:mod:`repro.simnet.shared_sched`, O(touched flows)
  per event) unless a network is built with ``shared_engine="vector"``
  (:mod:`repro.simnet.vector_sched`, numpy structure-of-arrays);
* :class:`SimNetwork` — topology, fault seams, accounting, and the wiring
  that composes the above;
* :class:`ProtocolNode` — the base class all protocol state machines extend
  (message handlers, timers, structured logging);
* :class:`TraceLog` — Tor-style log records used to reproduce Figure 1.
"""

from repro.simnet.engine import EventHandle, Simulator
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.flows import Flow, FlowScheduler
from repro.simnet.shared_sched import LazySharedLinkScheduler
from repro.simnet.linkmodel import (
    FairShareLinkModel,
    FifoLinkModel,
    LatencyOnlyLinkModel,
    LinkModel,
    get_link_model,
    link_model_names,
    register_link_model,
)
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork, TransferStats
from repro.simnet.node import ProtocolNode
from repro.simnet.trace import TraceLog, TraceRecord

__all__ = [
    "EventHandle",
    "Simulator",
    "BandwidthSchedule",
    "Flow",
    "FlowScheduler",
    "LazySharedLinkScheduler",
    "LinkModel",
    "FairShareLinkModel",
    "FifoLinkModel",
    "LatencyOnlyLinkModel",
    "get_link_model",
    "link_model_names",
    "register_link_model",
    "Message",
    "LinkConfig",
    "SimNetwork",
    "TransferStats",
    "ProtocolNode",
    "TraceLog",
    "TraceRecord",
]
