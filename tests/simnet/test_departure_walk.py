"""The lazy engine's departure walk against its two-pass reference.

``FairShareLinkModel.on_flows_removed`` (``tcp`` inherits it) takes a
departure batch as a queue and visits each of its link sides once, the first
time the queue reaches it: a neighbour due now is offered to the scheduler's
``_claim`` and, done, joins the batch; any other neighbour at or above the
side's floor is a mover.  ``two_pass_departure`` (``reference_sched.py``)
states the same batch as the engine used to run it — a frontier loop over
whole neighbourhoods, then a second scan of the batch's sides for movers.

The property below builds random bucket states — up to six links, weights
1–3, aggregate sides, zero-capacity sides, flows due now that are done and
flows due now that are not, stored rates on the floors' own values — and
requires the same batch in the same claim order, the same residuals after
the advances and the same movers.  The directed tests pin the shapes a random
state may take long to draw: a claim found through a downlink and then
through its uplink, an aggregate side walked for claims only, a zero-capacity
side whose every flow moves.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.bandwidth import BandwidthSchedule
from repro.simnet.engine import Simulator
from repro.simnet.flows import Flow, make_flow_scheduler
from repro.simnet.linkmodel import get_link_model
from repro.simnet.message import Message
from repro.simnet.network import LinkConfig

from tests.simnet.reference_sched import occupancy, two_pass_departure

NOW = 10.0
MB = 1_000_000.0

#: Capacities a link side draws; zero makes the floor 0.0.
CAPACITIES = (0.0, MB, 2 * MB, 3 * MB)

#: Stored rates a flow draws: shares of those capacities at occupancies 1–6,
#: so a rate on a side's floor is routine.
RATES = sorted({0.0} | {cap / count for cap in CAPACITIES[1:] for count in range(1, 7)})

#: ``(last_update, remaining)`` of a flow at ``rate``: done already, inside
#: the byte epsilon, done once advanced to ``NOW``, or far from done.
PROGRESS = {
    "done": lambda rate: (NOW, 0.0),
    "sliver": lambda rate: (NOW, 5e-7),
    "reaches_now": lambda rate: (NOW - 0.5, rate * 0.5),
    "far": lambda rate: (NOW - 0.5, rate * 0.5 + 250_000.0),
}

#: When a flow's pending event is: none, due now, or later.
PENDING = {"none": None, "now": NOW, "later": NOW + 1.0}


def _link(up, down=None, aggregate=False):
    down = up if down is None else down
    return LinkConfig(BandwidthSchedule.constant(up), BandwidthSchedule.constant(down), aggregate)


def departure(links, transfers, transport="fair"):
    """Walk the departure of ``transfers[0]`` on a bare lazy scheduler; return
    what the walk produced and what ``two_pass_departure`` expects, each as
    ``(batch, movers, residuals)`` with flows named by their position in
    ``transfers``.

    ``transfers`` are ``(src, dst, weight, rate, progress, pending)`` in
    admission order, ``progress`` a :data:`PROGRESS` key and ``pending`` a
    :data:`PENDING` key (the trigger's own event has fired: it has none).
    """
    simulator = Simulator()
    simulator.run(until=NOW)
    model = get_link_model(transport)
    scheduler = make_flow_scheduler(
        model, simulator, links, lambda flow: None, lambda flow: None, shared_engine="lazy"
    )
    flows = []
    for index, (src, dst, weight, rate, progress, pending) in enumerate(transfers):
        flow = Flow(
            simulator.next_serial(), src, dst, Message("DOC", size_bytes=MB), 0.0, None, None,
            None, weight,
        )
        scheduler._add(flow)
        flow.rate = rate
        flow.last_update, flow.remaining = PROGRESS[progress](rate)
        if index and PENDING[pending] is not None:
            flow.pending = simulator.schedule(PENDING[pending], lambda: None)
        if transport == "tcp":
            model.state_of(flow, NOW)
        scheduler._up_cap[src] = links[src].uplink.rate_at(NOW)
        scheduler._down_cap[dst] = links[dst].downlink.rate_at(NOW)
        flows.append(flow)
    position = {flow.flow_id: index for index, flow in enumerate(flows)}
    batch_ids, mover_ids, residuals = two_pass_departure(
        flows[0],
        flows,
        links,
        {name: link.uplink.rate_at(NOW) for name, link in links.items()},
        {name: link.downlink.rate_at(NOW) for name, link in links.items()},
        NOW,
    )
    expected = (
        [position[fid] for fid in batch_ids],
        {position[fid] for fid in mover_ids},
        {position[fid]: residual for fid, residual in residuals.items()},
    )
    batch = [flows[0]]
    movers = model.on_flows_removed(batch, NOW, scheduler._claim)
    got = (
        [position[flow.flow_id] for flow in batch],
        {position[flow.flow_id] for flow in movers},
        {index: (flow.last_update, flow.remaining) for index, flow in enumerate(flows)},
    )
    # The batch has left the indexes, its claimed members their events.
    kept = [flow for flow in flows if flow not in batch]
    assert list(scheduler._flows.values()) == kept
    assert (scheduler._src_weight, scheduler._dst_weight) == occupancy(kept)
    assert all(flow.pending is None for flow in batch)
    if transport == "tcp":
        assert set(model._states) == {flow.flow_id for flow in kept}
    assert scheduler.counters()["departure_scans"] == model.departure_scans
    return got, expected


@st.composite
def departure_states(draw):
    names = ["n%d" % index for index in range(draw(st.integers(2, 6)))]
    links = {
        name: _link(
            draw(st.sampled_from(CAPACITIES)),
            draw(st.sampled_from(CAPACITIES)),
            draw(st.sampled_from((False, False, True))),
        )
        for name in names
    }
    pairs = [(src, dst) for src in names for dst in names if src != dst]
    transfers = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pairs),
                st.integers(1, 3),
                st.sampled_from(RATES),
                st.sampled_from(sorted(PROGRESS)),
                st.sampled_from(sorted(PENDING)),
            ),
            min_size=1,
            max_size=14,
        )
    )
    return links, [(*pair, *rest) for pair, *rest in transfers]


@settings(max_examples=300, deadline=None)
@given(state=departure_states(), transport=st.sampled_from(("fair", "tcp")))
def test_the_walk_equals_the_two_pass_departure(state, transport):
    links, transfers = state
    got, expected = departure(links, transfers, transport)
    assert got == expected


def test_a_claim_is_found_through_a_downlink_then_through_its_uplink():
    links = {name: _link(MB) for name in "abcde"}
    got, expected = departure(
        links,
        [
            ("a", "b", 1, MB / 2, "done", "none"),  # the trigger
            ("a", "e", 1, MB / 2, "reaches_now", "now"),  # on its uplink
            ("c", "b", 1, MB / 3, "done", "now"),  # on its downlink
            ("c", "d", 1, MB / 3, "sliver", "now"),  # on the last one's uplink
            ("e", "d", 1, MB / 4, "far", "now"),  # due, not done: advanced, stays
            ("c", "e", 1, MB / 3, "far", "later"),
        ],
    )
    assert got == expected
    batch, movers, residuals = got
    # The trigger's uplink before its downlink, then the claimed in claim
    # order: c -> d is found through c -> b's uplink.
    assert batch == [0, 1, 2, 3]
    # c's uplink held three flows before the batch (floor MB/3), d's downlink
    # two (floor MB/2), e's downlink two (floor MB/2): only c -> e moves.
    assert movers == {5}
    assert residuals[4] == (NOW, 250_000.0)


def test_an_aggregate_side_is_walked_for_claims_only():
    links = {name: _link(MB) for name in "abc"}
    links["agg"] = _link(MB / 4, MB / 2, aggregate=True)
    got, expected = departure(
        links,
        [
            ("a", "agg", 2, MB / 2, "done", "none"),
            ("b", "agg", 1, MB / 2, "done", "now"),  # claimed through agg
            ("c", "agg", 3, 3 * MB / 2, "far", "later"),  # per-client: no mover
            ("b", "a", 1, MB / 2, "far", "later"),  # b's uplink: floor MB/2
        ],
    )
    assert got == expected
    assert got[:2] == ([0, 1], {3})


def test_a_zero_capacity_side_moves_every_flow_on_it():
    links = {name: _link(MB) for name in "abc"}
    links["dead"] = _link(0.0, MB)
    got, expected = departure(
        links,
        [
            ("dead", "a", 1, 0.0, "done", "none"),
            ("dead", "b", 1, 0.0, "far", "now"),  # due, starved: not done
            ("dead", "c", 2, 0.0, "far", "none"),
        ],
    )
    assert got == expected
    assert got[:2] == ([0], {1, 2})


@pytest.mark.parametrize("transport", ["fair", "tcp"])
def test_an_expiry_walks_without_claiming(transport):
    # No claim: a neighbour due now is neither advanced nor taken along.
    simulator = Simulator()
    links = {name: _link(MB) for name in "abc"}
    model = get_link_model(transport)
    scheduler = make_flow_scheduler(
        model, simulator, links, lambda flow: None, lambda flow: None, shared_engine="lazy"
    )
    message = Message("DOC", size_bytes=MB)
    gone, due = (Flow(simulator.next_serial(), "a", dst, message, 0.0, None, None, None) for dst in "bc")
    scheduler.start_flows([gone, due], 0.0)
    simulator.run(until=0.0)
    due.remaining = 0.0
    pending = due.pending
    batch = [gone]
    assert list(model.on_flows_removed(batch, pending.time)) == ([due] if transport == "fair" else [])
    assert batch == [gone] and due.pending is pending and not pending.cancelled
    assert model.departure_scans == 1
