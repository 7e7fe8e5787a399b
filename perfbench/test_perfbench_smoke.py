"""Tier-1 smoke test of the benchmark: same code paths, tiny sizes.

Runs what ``python -m perfbench run --smoke --repeats 1`` runs — fresh child
per workload, traced pass, microbenchmarks — and checks the contract between
``BENCHMARK.json`` and what the benchmark reports.  Only one workload gets a
traced pass here, to keep the test under 10 s: it reports every ``trace.*``
name and is the one with a client-wave bucket.
"""

import json
import math

import pytest
from repro.simnet.vector_sched import vector_available

from perfbench import cli, harness
from perfbench.fingerprint import expected_path
from perfbench.micro import NEEDS_NUMPY
from perfbench.workloads import WORKLOADS

SEED = 7
TRACED = ("clients_flood",)


@pytest.fixture(scope="module")
def declared():
    return harness.declaration()


@pytest.fixture(scope="module")
def smoke_result():
    return cli.collect(SEED, repeats=1, smoke=True, traced=TRACED)


def test_declared_names_come_out_finite(declared, smoke_result):
    assert list(smoke_result["workloads"]) == [w["name"] for w in declared["workloads"]]
    assert list(WORKLOADS) == [w["name"] for w in declared["workloads"]]
    end_to_end = sorted(m["name"] for m in declared["end_to_end"])
    traced = {m["name"] for m in declared["per_layer"] if m["name"].startswith("trace.")}
    micro = {m["name"] for m in declared["per_layer"] if m["name"].startswith("micro.")}
    assert traced | micro == {m["name"] for m in declared["per_layer"]}
    for name, workload in smoke_result["workloads"].items():
        assert workload["runs_failed"] == 0, workload["failures"]
        assert workload["pinned"], "seed 7 smoke fingerprints are pinned"
        assert sorted(workload["metrics"]) == end_to_end, name
        assert set(workload.get("trace", ())) == (traced if name in TRACED else set()), name
        values = [stat["median"] for stat in workload["metrics"].values()]
        values += list(workload.get("trace", {}).values())
        assert all(math.isfinite(value) for value in values), name
        assert all(stat["median"] > 0 for stat in workload["metrics"].values()), name
    reported = smoke_result["micro"]
    assert not reported["failures"]
    # Without numpy (the tests-no-numpy CI leg) the numpy-only rates are skipped.
    assert set(reported["skipped"]) == (set() if vector_available() else set(NEEDS_NUMPY))
    assert set(reported["metrics"]) == micro - set(reported["skipped"])
    assert all(math.isfinite(v) and v > 0 for v in reported["metrics"].values())
    assert cli.all_correct(smoke_result)
    assert "trace.overhead_share" in cli.render_result(smoke_result)


def test_builders_are_deterministic_per_seed():
    for name, build in WORKLOADS.items():
        for smoke in (True, False):
            first = [spec.spec_hash() for spec in build(11, smoke=smoke)]
            again = [spec.spec_hash() for spec in build(11, smoke=smoke)]
            other = [spec.spec_hash() for spec in build(12, smoke=smoke)]
            assert first == again, name
            assert set(first).isdisjoint(other), name
            assert len(set(first)) == len(first), name


def test_perturbed_fingerprint_counts_as_failed_run(tmp_path):
    with open(expected_path(SEED), encoding="utf-8") as handle:
        pinned = json.load(handle)
    pinned["smoke"]["event_floor"][0]["messages_delivered"] += 1
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(pinned))
    child = harness.spawn("timed", "event_floor", SEED, smoke=True, expected=perturbed)
    summary = harness.summarise([child])
    assert summary["runs_attempted"] == 1
    assert summary["runs_failed"] == 1
    assert "messages_delivered" in summary["failures"][0]
