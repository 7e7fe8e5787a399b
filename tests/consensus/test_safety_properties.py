"""Property-based safety tests for the consensus engines.

Hypothesis draws random crash sets, partition layouts, heal times, latencies,
an instant at which the run is split in two ``run`` calls, and optionally a
late instant at which the inputs arrive through ``set_input`` (the engines
start without one, as under ICPS).  Under every sampled schedule the split run
must equal the whole one, and the engines must preserve agreement (no two
correct nodes decide differently) — and, when the adversarial schedule
eventually heals, termination as well.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.consensus import ENGINE_REGISTRY, EngineConfig, LocalDriver, make_engine
from repro.consensus.driver import gst_delivery, partition_delivery

NODE_COUNT = 4
NODES = tuple("n%d" % index for index in range(NODE_COUNT))
INPUTS = {name: "input-%s" % name for name in NODES}
END = 5000.0


def build_engines(engine_name, base_timeout=2.0):
    return {
        name: make_engine(
            engine_name, EngineConfig(node_id=name, nodes=NODES, base_timeout=base_timeout)
        )
        for name in NODES
    }


def run_schedule(engine_name, policy, crashed=(), late_input_at=None, split_at=None):
    """One run to ``END``, stopping at ``split_at`` and feeding late inputs."""
    driver = LocalDriver(build_engines(engine_name), delivery_policy=policy, crashed=crashed)
    driver.start({} if late_input_at is not None else INPUTS)
    stops = [] if split_at is None else [(split_at, False)]
    if late_input_at is not None:
        stops.append((late_input_at, True))
    for instant, feed in sorted(stops):
        driver.run(until=instant)
        if feed:
            for name in NODES:
                driver.set_input(name, INPUTS[name])
    return driver.run(until=END)


def run_whole_and_split(engine_name, policy, split_at, **options):
    whole = run_schedule(engine_name, policy, **options)
    assert run_schedule(engine_name, policy, split_at=split_at, **options) == whole
    return whole


engine_names = st.sampled_from(sorted(ENGINE_REGISTRY))
instants = st.floats(min_value=0.0, max_value=60.0)
late_instants = st.one_of(st.none(), instants)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    engine_name=engine_names,
    crashed_index=st.one_of(st.none(), st.integers(min_value=0, max_value=NODE_COUNT - 1)),
    gst=st.floats(min_value=0.0, max_value=30.0),
    latency=st.floats(min_value=0.001, max_value=0.5),
    split_at=instants,
    late_input_at=late_instants,
)
def test_agreement_and_termination_under_gst_and_one_crash(
    engine_name, crashed_index, gst, latency, split_at, late_input_at
):
    crashed = () if crashed_index is None else (NODES[crashed_index],)
    result = run_whole_and_split(
        engine_name,
        gst_delivery(gst=gst, latency=latency),
        split_at,
        crashed=crashed,
        late_input_at=late_input_at,
    )

    correct = [name for name in NODES if name not in crashed]
    # Agreement among whoever decided.
    assert result.all_agree()
    # Termination: with at most f = 1 crash and a finite GST, everyone decides.
    assert set(result.decisions) == set(correct)
    # The decided value is one of the proposed inputs (no fabrication).
    decided_value = list(result.decisions.values())[0]
    assert decided_value in set(INPUTS.values())


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    engine_name=engine_names,
    split=st.integers(min_value=1, max_value=NODE_COUNT - 1),
    heal_time=st.floats(min_value=1.0, max_value=40.0),
    split_at=instants,
    late_input_at=late_instants,
)
def test_agreement_survives_partitions(engine_name, split, heal_time, split_at, late_input_at):
    groups = (NODES[:split], NODES[split:])
    result = run_whole_and_split(
        engine_name,
        partition_delivery(groups, heal_time=heal_time, latency=0.01),
        split_at,
        late_input_at=late_input_at,
    )
    assert result.all_agree()
    assert set(result.decisions) == set(NODES)
