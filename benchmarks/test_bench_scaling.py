"""Scaling sweep: transport wall-clock cost beyond 10×-paper node counts.

Unlike the figure benchmarks this one measures the *simulator itself*: the
same consensus runs at 9, 30, 90, 120 and 300 authorities under the
``fair``, ``latency-only`` and ``tcp`` transports — ``fair`` on the vector
engine at every count and on the lazy engine up to 120; ``tcp`` on the lazy
and vector engines up to 120 — timed cell by cell.  It deliberately bypasses
the session sweep executor and its cache — a cache hit would report a
near-zero wall clock and poison the comparison.

Three acceptance bars are asserted:

* the vectorized bar — ``fair`` on the structure-of-arrays vector engine
  still ahead of the lazy engine at the 120-authority point (skipped
  without numpy, where vector requests run the lazy fallback).  PR 8's
  ≥3× form of this bar was *obsoleted by batched dispatch*: transitive
  same-instant completion batching removed the scalar wave-completion
  blow-up that vectorization originally amortized, and lazy ``fair``@120
  fell from ~12.6 s to ~4.8 s, shrinking the lazy→vector gap from ~4×
  to the measured ~1.5×.  The assertion now pins direction plus margin
  (≥1.1×) at the point where batch width is widest; vector's real
  remaining win is the 300-authority cell (~26 s vs ~102 s scalar lazy,
  measured out-of-sweep); and
* the tcp-vector bar — ``tcp`` on the vector engine ≥1.5× faster than the
  same spec on the scalar lazy engine at the 120-authority point (also
  numpy-gated; measured ~2.1× on the reference machine).  Unlike the
  fair lazy→vector gap, which batched dispatch shrank to ~1.5×, tcp's
  gap comes from *ack ticks*: the lazy engine pays one heap event per
  flow per ack round while the vector policy advances whole due cohorts
  per wake (synchronized broadcast waves share identical congestion
  trajectories, so their ticks coalesce), and that cost is untouched by
  completion batching; and
* the fast-model bar — ``latency-only`` still ahead of ``fair`` at the
  120-authority stretch point.  PR 3's original ≥3× form of this bar was
  *obsoleted by the lazy engine*: once shared-model per-event cost became
  O(touched flows), ``fair``@90 dropped from 53.7 s to ~7.4 s and the
  fair→latency-only gap shrank from 5.8× to ~1.7× (2.1× at 120).  The
  assertion now pins the direction and a conservative margin at the
  largest N, where the remaining coupling cost is widest.

A further assertion is the *non-transport floor tripwire*: cells carry
exclusive phase buckets (``repro.utils.phases``), and the summed
non-transport time of the lazy ``fair`` cell at the stretch point must
stay under a generous budget (measured ~0.7 s after the batched-dispatch
PR, asserted <2.5 s) — it catches per-recipient serialization or dispatch
overhead creeping back in without failing on machine noise.

The sweep's numbers are written to ``BENCH_scaling.json`` next to this
run's working directory (a committed snapshot from the reference machine
lives at the repo root; ``scaling_sweep.BENCH_FORMAT_VERSION`` documents the
payload).
"""

import pytest

from repro.experiments.scaling_sweep import (
    render_scaling,
    run_scaling_sweep,
    speedup_at,
    vector_speedup_at,
    write_bench_json,
)
from repro.simnet.vector_sched import vector_available

#: The stretch grid point the lazy engine made affordable.
STRETCH = 120

#: The extreme grid point the vector engine makes affordable: the shared
#: ``fair`` transport at 33x the paper's authority count.
EXTREME = 300


@pytest.mark.paper_artifact("scaling-sweep")
def test_bench_scaling_sweep(benchmark, tmp_path):
    cells = benchmark.pedantic(
        lambda: run_scaling_sweep(),
        rounds=1,
        iterations=1,
    )
    print("\n" + render_scaling(cells))
    out = write_bench_json(cells, tmp_path / "BENCH_scaling.json")
    assert out.exists()

    assert all(cell.success for cell in cells), "every scaling cell must reach consensus"
    if vector_available():
        vector_speedup = vector_speedup_at(cells, STRETCH)
        assert vector_speedup is not None
        # The vectorized bar, re-anchored post-batched-dispatch (see module
        # docstring): the numpy engine must stay ahead of the scalar lazy
        # loop where batch width is widest (measured ~1.5x; the old >=3x
        # margin was the scalar wave-completion blow-up, now batched away).
        assert vector_speedup >= 1.1, (
            "vector-engine fair speedup at N=%d was %.2fx" % (STRETCH, vector_speedup)
        )
        # The 300-authority fair cell exists (and succeeded) on the vector
        # engine only.
        extreme = [
            cell for cell in cells
            if cell.authority_count == EXTREME and cell.transport == "fair"
        ]
        assert [cell.engine for cell in extreme] == ["vector"]
        # The tcp-vector bar (see module docstring): cohort ack ticks must
        # beat the scalar one-event-per-flow-per-round loop where broadcast
        # waves are widest (measured ~1.8-2.1x on the reference machine).
        tcp_speedup = vector_speedup_at(cells, STRETCH, transport="tcp")
        assert tcp_speedup is not None
        assert tcp_speedup >= 1.5, (
            "vector-engine tcp speedup at N=%d was %.2fx" % (STRETCH, tcp_speedup)
        )

    transport_speedup = speedup_at(cells, STRETCH)
    assert transport_speedup is not None
    # The fast-model bar, re-anchored post-lazy (see module docstring): the
    # sharing-free model must stay ahead where coupling cost is widest.
    assert transport_speedup >= 1.5, (
        "latency-only speedup at N=%d was %.2fx" % (STRETCH, transport_speedup)
    )

    # The non-transport floor tripwire (see module docstring): everything a
    # lazy fair cell spends outside the transport bucket — protocol logic,
    # crypto, dispatch — must stay within budget at the stretch point.
    floor_cells = [
        cell for cell in cells
        if cell.transport == "fair"
        and cell.engine == "lazy"
        and cell.authority_count == STRETCH
    ]
    assert len(floor_cells) == 1
    floor = floor_cells[0].non_transport_floor_s
    assert floor > 0.0, "phase attribution missing from the lazy fair cell"
    assert floor < 2.5, (
        "non-transport floor at fair@%d (lazy) was %.2fs" % (STRETCH, floor)
    )
