"""The ``tcp`` link model: convergence, loss coupling, and engine wiring.

The model's contract has four faces, each pinned here:

* **Fair-share convergence.**  On loss-free static links, Reno's window
  growth plus the queue-delay RTT sample make the window-limited rate
  converge to the fair share *from above*, so after ramp-up every flow's
  assigned rate ``min(share, window/estRTT)`` equals exactly what the
  ``fair`` model would assign — hypothesis drives this across topologies,
  on both the lazy and (numpy present) vector engines.
* **Loss coupling.**  A drop-typed :class:`~repro.faults.plan.LinkFault`
  (the form :meth:`DDoSAttackPlan.fault_plan` emits for residual-bandwidth
  floods) must slow a tcp transfer down via multiplicative decrease — the
  fault and transport layers finally interact.
* **Reno transitions.**  The single state machine in
  :meth:`TcpLinkModel.advance_flow` distinguishes fast retransmit (3
  dup-acks halve the window and stay in congestion avoidance) from timeout
  (cwnd back to 1, RTO doubling) — unit-pinned and hypothesis-driven over
  scripted loss/ack sequences.
* **Engine wiring.**  ``transport="tcp"`` runs end-to-end on the lazy and
  (numpy present) vector engines — each pinned by its own golden trace, the
  trajectories differ by design, see ``test_transport_golden.py`` — and on
  the reference model.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, LinkFault
from repro.protocols.runner import execute_spec
from repro.runtime.spec import RunSpec
from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow, make_flow_scheduler
from repro.simnet.linkmodel import (
    TCP_DUPACK_THRESHOLD,
    TCP_INITIAL_CWND,
    TCP_INITIAL_SSTHRESH,
    TCP_MAX_RTO_S,
    TCP_MIN_RTO_S,
    TcpLinkModel,
    get_link_model,
)
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig, SimNetwork
from repro.simnet.node import ProtocolNode

from tests.simnet.reference_sched import VECTOR, tcp_rates, use_engine, use_reference_scheduler
from tests.simnet.test_transport_golden import run_transport_workload

REL_TOLERANCE = 1e-6


class _Sink(ProtocolNode):
    def __init__(self, name, deliveries):
        super().__init__(name)
        self._deliveries = deliveries

    def on_message(self, message, now):
        self._deliveries.append((message.msg_type, now))


def _fan_in_network(transport, flow_count, sink_mbps):
    """``flow_count`` sources sending huge transfers into one sink."""
    deliveries = []
    network = SimNetwork(transport=transport, default_latency_s=0.02)
    network.add_node(_Sink("sink", deliveries), LinkConfig.symmetric_mbps(sink_mbps))
    for index in range(flow_count):
        network.add_node(
            _Sink("src%d" % index, deliveries), LinkConfig.symmetric_mbps(sink_mbps)
        )
    for index in range(flow_count):
        network.send(
            "src%d" % index, "sink", Message(msg_type="DOC", size_bytes=2e9)
        )
    return network, deliveries


def _active_rates(network):
    return sorted(flow.rate for flow in network._scheduler._flows.values())


# -- fair-share convergence ----------------------------------------------------

@pytest.mark.parametrize("engine", ["lazy", VECTOR])
@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    flow_count=st.integers(min_value=1, max_value=6),
    sink_mbps=st.floats(min_value=4.0, max_value=64.0),
)
def test_tcp_throughput_converges_to_the_fair_share_on_loss_free_links(
    engine, flow_count, sink_mbps
):
    # The sink's downlink is the bottleneck (each source uplink could carry
    # the whole sink capacity alone), so fair assigns every flow exactly
    # capacity/flow_count.  After slow-start ramp-up the tcp rate must sit
    # on the same value: the window cap converges to the share from above
    # and min(share, window rate) collapses to the share.  The property
    # holds on the scalar lazy path and the SoA vector path alike.
    with use_engine(engine):
        tcp_net, _ = _fan_in_network("tcp", flow_count, sink_mbps)
        tcp_net.run(until=60.0)
        fair_net, _ = _fan_in_network("fair", flow_count, sink_mbps)
        fair_net.run(until=60.0)

    tcp_rates = _active_rates(tcp_net)
    fair_rates = _active_rates(fair_net)
    assert len(tcp_rates) == len(fair_rates) == flow_count
    for tcp_rate, fair_rate in zip(tcp_rates, fair_rates):
        assert math.isclose(tcp_rate, fair_rate, rel_tol=REL_TOLERANCE), (
            "tcp rate %r did not converge to fair share %r" % (tcp_rate, fair_rate)
        )


@pytest.mark.parametrize("engine", ["lazy", "reference"])
def test_tcp_slow_start_delays_but_does_not_change_delivery(engine):
    # One unconstrained transfer: tcp must deliver the same bytes as fair,
    # strictly later (the window ramp costs time), on the lazy engine and
    # the reference model alike.
    def completion(transport):
        with use_engine(engine):
            deliveries = []
            network = SimNetwork(transport=transport, default_latency_s=0.02)
            network.add_node(_Sink("a", deliveries), LinkConfig.symmetric_mbps(8.0))
            network.add_node(_Sink("b", deliveries), LinkConfig.symmetric_mbps(8.0))
            network.send("a", "b", Message(msg_type="DOC", size_bytes=5_000_000))
            network.run(until=300.0)
        assert [kind for kind, _ in deliveries] == ["DOC"]
        return deliveries[0][1]

    tcp_done = completion("tcp")
    fair_done = completion("fair")
    assert tcp_done > fair_done
    # The ramp-up penalty is bounded: a few dozen RTTs, not a stall.
    assert tcp_done < fair_done + 10.0


# -- cross-engine agreement ----------------------------------------------------

def test_reference_and_lazy_engine_agree_on_the_tcp_golden_workload():
    # tcp makes no byte-identity claim across schedulers (the reference
    # folds due ack ticks into its recompute events, the lazy engine fires
    # them at exact instants), but on the canonical workload the two must
    # agree on every event's kind, pair, size and order, with timestamps
    # within the conformance tolerance.
    with use_reference_scheduler():
        reference = run_transport_workload("tcp")
    lazy = run_transport_workload("tcp")
    assert reference["stats"] == lazy["stats"]
    assert len(reference["events"]) == len(lazy["events"])
    for expected, got in zip(reference["events"], lazy["events"]):
        assert expected[:5] == got[:5]
        assert math.isclose(expected[5], got[5], rel_tol=REL_TOLERANCE, abs_tol=1e-9)


# -- loss coupling -------------------------------------------------------------

def _timed_transfer(fault_plan):
    deliveries = []
    network = SimNetwork(transport="tcp", default_latency_s=0.02)
    network.add_node(_Sink("auth0", deliveries), LinkConfig.symmetric_mbps(8.0))
    network.add_node(_Sink("auth1", deliveries), LinkConfig.symmetric_mbps(8.0))
    if fault_plan is not None:
        injector = FaultInjector(
            fault_plan, seed=7, authority_names={0: "auth0", 1: "auth1"}
        )
        injector.install(network)
    network.send("auth0", "auth1", Message(msg_type="DOC", size_bytes=4_000_000))
    network.run(until=600.0)
    assert [kind for kind, _ in deliveries] == ["DOC"]
    return deliveries[0][1]


def test_drop_typed_faults_collapse_the_congestion_window():
    # A heavy loss window opens after the transfer is underway and closes
    # well before it can finish (so the send draw at t=0 and the residual
    # delivery check both see zero exposure): every ack round inside the
    # window sees segment loss, Tahoe collapses cwnd to 1 and doubles the
    # RTO, and the transfer must finish measurably later than the loss-free
    # run.  This is the seam figure12's drop-typed flood exercises.
    clean = _timed_transfer(None)
    lossy = _timed_transfer(
        FaultPlan(
            link_faults=(
                LinkFault(
                    authority_id=1,
                    drop_probability=0.9,
                    loss_windows=((0.5, 30.0),),
                ),
            )
        )
    )
    assert clean < 30.0 < lossy
    assert lossy > clean + 20.0


def test_tcp_loss_event_draws_only_under_active_loss_faults():
    plan = FaultPlan(
        link_faults=(
            LinkFault(authority_id=0, drop_probability=0.5, loss_windows=((10.0, 20.0),)),
            LinkFault(authority_id=1, partition_windows=((30.0, 40.0),)),
        )
    )
    injector = FaultInjector(plan, seed=3, authority_names={0: "a", 1: "b"})
    # Outside every window: no exposure, no draw, never a loss.
    assert injector.tcp_loss_event("a", "b", 5.0) is False
    assert ("tcp-loss", "a", "b") not in injector._draw_streams
    # Partitions are certain loss without consuming a draw.
    assert injector.tcp_loss_event("a", "b", 35.0) is True
    assert ("tcp-loss", "a", "b") not in injector._draw_streams
    # Inside the loss window the pair's dedicated stream is consumed, and a
    # whole window of segments is more likely to see loss than one segment.
    saw_loss = [injector.tcp_loss_event("a", "b", 15.0, segments=64) for _ in range(20)]
    assert ("tcp-loss", "a", "b") in injector._draw_streams
    assert any(saw_loss)
    # Congestion signals are not dropped messages.
    assert injector.messages_dropped == 0


# -- engine wiring -------------------------------------------------------------

@pytest.mark.parametrize("engine", ["lazy", "reference", VECTOR])
def test_tcp_spec_runs_end_to_end_on_every_engine(engine):
    spec = RunSpec(
        protocol="current",
        relay_count=30,
        authority_count=5,
        seed=5,
        max_time=700.0,
        transport="tcp",
    )
    with use_engine(engine):
        summary = execute_spec(spec).summary()
    assert summary["success"] is True
    assert summary["stats"]["messages_delivered"] > 0


# -- one heap event per flow -----------------------------------------------------

def _bare_tcp_scheduler(links):
    """The lazy scheduler on tcp without a network (no deliveries, no timers:
    every heap entry is the scheduler's) and the list it settles flows into."""
    simulator = Simulator()
    settled = []
    scheduler = make_flow_scheduler(
        get_link_model("tcp"), simulator, links, settled.append, settled.append
    )
    return simulator, scheduler, settled


def _start(simulator, scheduler, *transfers):
    now = simulator.now
    flows = [
        Flow(simulator.next_serial(), src, dst, Message("DOC", size_bytes=size), now,
             None if timeout is None else now + timeout, None, None)
        for src, dst, size, timeout in transfers
    ]
    scheduler.start_flows(flows, now)
    return flows


def test_a_live_tcp_flow_owns_exactly_one_heap_event():
    # Fan-in onto a sink whose downlink dips on [2, 4): the sink's downlink
    # has a breakpoint watcher, the sources' constant links have none.
    sink = BandwidthSchedule.constant_mbps(8.0).with_window_mbps(2.0, 4.0, 2.0)
    links = {"sink": LinkConfig.symmetric(sink)}
    links.update({name: LinkConfig.symmetric_mbps(16.0) for name in ("a", "b", "c")})
    simulator, scheduler, settled = _bare_tcp_scheduler(links)
    _start(simulator, scheduler, ("a", "sink", 3_000_000, None), ("b", "sink", 600_000, 5.0))
    for step in range(1, 400):
        # Drained through this instant: no admission frontier is open.
        simulator.run(until=0.05 * step)
        flows = list(scheduler._flows.values())
        watchers = sum(handle is not None for handle in scheduler._watchers.values())
        assert all(flow.pending is not None for flow in flows)
        assert simulator.pending_events == len(flows) + watchers
        counters = simulator.counters()
        assert counters["heap_size"] == counters["pending"] + counters["cancelled_in_heap"]
        if step == 14:
            _start(simulator, scheduler, ("c", "sink", 1_500_000, None))
    assert len(settled) == 3
    assert scheduler.counters()["wakes"] > 0


def test_a_share_rise_past_the_next_tick_costs_no_heap_push():
    # Two flows share the sink's 1 MB/s downlink.  Once the small one leaves,
    # the big one's fair share doubles; its pending event is its next ack
    # tick, earlier than the new completion, so the departure moves nothing
    # on the heap.
    links = {"sink": LinkConfig.symmetric_mbps(8.0)}
    links.update({name: LinkConfig.symmetric_mbps(64.0) for name in ("big", "small")})
    simulator, scheduler, settled = _bare_tcp_scheduler(links)
    big, small = _start(
        simulator, scheduler, ("big", "sink", 50_000_000, None), ("small", "sink", 3_000_000, None)
    )
    simulator.run(until=0.0)  # the admission frontier creates the window states
    state = scheduler.model._states[big.flow_id]

    def pushes():
        counters = simulator.counters()
        return counters["scheduled"] + counters["rescheduled"]

    while not settled:
        before, rate_before = pushes(), big.rate
        assert simulator.step()
    assert settled == [small]
    # Share-bound before: the fair half of the sink, under the window cap.
    assert rate_before == 500_000.0 < state.window_rate(big.weight)
    assert big.rate > rate_before
    assert big.pending.time == state.next_tick < big.last_update + big.remaining / big.rate
    assert pushes() == before


# -- Reno transitions ----------------------------------------------------------

class _ScriptedInjector:
    """A fault injector whose tcp_loss_event returns a scripted sequence."""

    def __init__(self, script):
        self._script = list(script)
        self.calls = []

    def tcp_loss_event(self, src, dst, now, segments=1):
        self.calls.append((src, dst, now, segments))
        return self._script.pop(0) if self._script else False


class _ScriptedNetwork:
    """Just enough network for TcpLinkModel.attach: latency + injector."""

    def __init__(self, injector, latency_s=0.02):
        self.fault_injector = injector
        self._latency_s = latency_s

    def latency(self, src, dst):
        return self._latency_s


def _scripted_model(script):
    from tests.simnet.test_linkmodel import make_flow

    model = TcpLinkModel()
    model.attach(_ScriptedNetwork(_ScriptedInjector(script)))
    flow = make_flow(1, "a", "b", 1_000_000)
    flow.rate = 1_000_000.0
    return model, flow, model.state_of(flow, 0.0)


def _grow_window(model, flow, state, rounds):
    """Clean ack rounds (script exhausted => no loss) open the window."""
    now = 0.0
    for _ in range(rounds):
        now = state.next_tick
        model.advance_flow(flow, state, now)
    return now


def test_fast_retransmit_halves_the_window_without_slow_start():
    # Grow to a window comfortably above the dup-ack threshold, then lose a
    # segment while acks still flow: Reno halves (cwnd = ssthresh = old/2)
    # instead of collapsing to 1, keeps the RTO untouched, and stays on the
    # ack clock (next tick one estRTT out, not one RTO).
    model, flow, state = _scripted_model([])
    now = _grow_window(model, flow, state, 6)
    assert state.cwnd >= TCP_DUPACK_THRESHOLD + 1
    before_cwnd, before_rto = state.cwnd, state.rto
    model._network.fault_injector._script = [True]
    now = state.next_tick
    model.advance_flow(flow, state, now)
    assert state.cwnd == max(before_cwnd / 2.0, 2.0)
    assert state.ssthresh == state.cwnd
    assert state.rto == before_rto
    assert state.dupacks == 0
    assert state.next_tick == pytest.approx(now + state.srtt)


def test_small_window_loss_times_out_like_tahoe():
    # cwnd == 1 cannot raise three duplicate acks: the lost segment recovers
    # by retransmission timeout — cwnd back to 1, RTO doubled — exactly the
    # Tahoe-era behaviour.
    model, flow, state = _scripted_model([True])
    before_rto = state.rto
    model.advance_flow(flow, state, state.next_tick)
    assert state.cwnd == TCP_INITIAL_CWND
    assert state.rto == min(before_rto * 2.0, TCP_MAX_RTO_S)
    assert state.dupacks == 0


def test_starved_link_times_out_with_exponential_backoff():
    # granted == 0 means no acks: repeated timeouts double the RTO up to the
    # cap, regardless of loss draws.
    model, flow, state = _scripted_model([])
    flow.rate = 0.0
    rtos = []
    for _ in range(12):
        model.advance_flow(flow, state, state.next_tick)
        rtos.append(state.rto)
        assert state.cwnd == TCP_INITIAL_CWND
    for earlier, later in zip(rtos, rtos[1:]):
        assert later == min(earlier * 2.0, TCP_MAX_RTO_S)
    assert rtos[-1] == TCP_MAX_RTO_S


def test_clean_round_resets_the_dupack_count():
    # A sub-threshold dup-ack residue (from a loss at cwnd == 3: two
    # dupacks, then timeout resets — so craft one via direct state) must not
    # leak across a clean round into a later fast retransmit.
    model, flow, state = _scripted_model([])
    _grow_window(model, flow, state, 4)
    state.dupacks = TCP_DUPACK_THRESHOLD - 1
    model.advance_flow(flow, state, state.next_tick)
    assert state.dupacks == 0


@settings(max_examples=30, deadline=None)
@given(script=st.lists(st.booleans(), min_size=1, max_size=40))
def test_reno_state_machine_invariants_hold_over_any_loss_sequence(script):
    # Whatever the loss pattern, the Reno state machine keeps its
    # invariants: cwnd never below 1 nor above ssthresh-at-halving, ssthresh
    # never below 2, RTO within [min, max], dup-ack residue strictly below
    # the threshold, and the next tick always in the future.
    model, flow, state = _scripted_model(script)
    for _ in range(len(script)):
        now = state.next_tick
        before_cwnd = state.cwnd
        model.advance_flow(flow, state, now)
        assert state.cwnd >= TCP_INITIAL_CWND
        assert state.cwnd <= max(before_cwnd * 2.0, before_cwnd + 1.0)
        assert state.ssthresh >= 2.0
        assert TCP_MIN_RTO_S <= state.rto <= TCP_MAX_RTO_S
        assert 0 <= state.dupacks < TCP_DUPACK_THRESHOLD
        assert state.next_tick > now


def test_tcp_model_runs_detached_from_a_network():
    # The Reno machine with no SimNetwork and no injector behind it (unit
    # tests, schedulers built directly): default RTT, no loss events.
    from tests.simnet.test_linkmodel import links_for, make_flow

    model = TcpLinkModel()
    flow = make_flow(1, "a", "b", 1_000_000)
    links = links_for({"a": 8.0, "b": 8.0})
    assert tcp_rates([flow], links, 0.0, model)[1] > 0.0
    state = model.state_of(flow, 0.0)
    assert state.cwnd >= 1.0
    assert state.ssthresh == TCP_INITIAL_SSTHRESH
