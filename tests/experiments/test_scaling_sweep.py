"""Scaling-sweep experiment tests (small N; the 10× point runs in benchmarks)."""

import json

from repro.experiments.scaling_sweep import (
    ScalingCell,
    _timed_cell,
    render_scaling,
    run_scaling_sweep,
    scaling_specs,
    speedup_at,
    tcp_vector_speedups,
    vector_speedup_at,
    vector_speedups,
    write_bench_json,
)
from repro.simnet.vector_sched import vector_available


def synthetic_cells():
    def cell(transport, authority_count, wall, engine="lazy"):
        return ScalingCell(
            protocol="current",
            transport=transport,
            authority_count=authority_count,
            relay_count=200,
            success=True,
            wall_clock_s=wall,
            virtual_end_s=600.0,
            messages_sent=100,
            engine=engine,
        )

    return [
        cell("fair", 9, 0.2),
        cell("latency-only", 9, 0.1),
        cell("fair", 90, 10.0),
        cell("fair", 90, 2.5, engine="vector"),
        cell("latency-only", 90, 5.0),
        cell("tcp", 90, 8.0),
        cell("tcp", 90, 4.0, engine="vector"),
    ]


def test_scaling_specs_carry_the_transport_and_authority_grid():
    specs = scaling_specs(authority_counts=(5, 10), transports=("fair", "latency-only"))
    assert len(specs) == 4
    assert {spec.transport for spec in specs} == {"fair", "latency-only"}
    assert {spec.authority_count for spec in specs} == {5, 10}
    # Transport joins the spec hash: same grid point, different cache cells.
    fair, latency_only = specs[0], specs[1]
    assert fair.authority_count == latency_only.authority_count
    assert fair.spec_hash() != latency_only.spec_hash()


def test_small_scaling_sweep_runs_and_reports(tmp_path):
    cells = run_scaling_sweep(
        authority_counts=(5,),
        relay_count=30,
        max_time=600.0,
        tcp_counts=(5,),
    )
    # fair on every available engine, latency-only on the lazy engine
    # only, tcp on lazy and (numpy present) vector.  Numpy-less installs
    # skip (not downgrade) the vector cells.
    expected = [("fair", "lazy")]
    if vector_available():
        expected.append(("fair", "vector"))
    expected.append(("latency-only", "lazy"))
    expected.append(("tcp", "lazy"))
    if vector_available():
        expected.append(("tcp", "vector"))
    assert [(cell.transport, cell.engine) for cell in cells] == expected
    assert all(cell.success for cell in cells)
    assert all(cell.wall_clock_s > 0 for cell in cells)
    # Identical protocol work under every loss-free transport and engine
    # (tcp is excluded: its engines make no cross-engine trajectory claim,
    # and loss draws can change the message count).
    assert len({c.messages_sent for c in cells if c.transport != "tcp"}) == 1

    text = render_scaling(cells)
    assert "latency-only" in text and "fair" in text

    out = write_bench_json(cells, tmp_path / "BENCH_scaling.json")
    payload = json.loads(out.read_text())
    assert payload["format"] == 7
    assert len(payload["cells"]) == (5 if vector_available() else 3)
    assert "current@5" in payload["speedup_fair_to_latency_only"]
    if vector_available():
        assert "current@5" in payload["speedup_fair_lazy_to_vector"]
        assert "current@5" in payload["speedup_tcp_lazy_to_vector"]
    assert all(cell["peak_rss_mb"] > 0 for cell in payload["cells"])
    # Per-cell phase buckets and the fair-cell floor table.
    assert all("phases" in cell for cell in payload["cells"])
    assert all(
        cell["phases"].get("transport", 0.0) > 0.0
        for cell in payload["cells"]
        if cell["transport"] != "latency-only"
    )
    floors = payload["non_transport_floor_fair"]
    assert "lazy@5" in floors
    assert all(value >= 0.0 for value in floors.values())


def test_speedup_at_reads_the_grid_point():
    cells = synthetic_cells()
    # Transport speedups compare lazy-engine cells only.
    assert speedup_at(cells, 90) == 2.0
    assert speedup_at(cells, 9) == 2.0
    assert speedup_at(cells, 42) is None
    assert speedup_at(cells, 90, protocol="ours") is None


def test_cell_reports_the_default_engine_when_the_switch_does_not_apply():
    # latency-only runs the independent scheduler: a cell timed under a
    # vector request must not label an engine that never ran.
    spec = scaling_specs(authority_counts=(5,), transports=("latency-only",), relay_count=30)[0]
    assert _timed_cell(spec, "vector").engine == "lazy"


def test_vector_speedup_compares_lazy_to_vector_fair_cells():
    cells = synthetic_cells()
    assert vector_speedup_at(cells, 90) == 4.0
    assert vector_speedup_at(cells, 9) is None  # no vector cell at N=9
    assert vector_speedups(cells) == [("current", 90, 4.0)]


def test_tcp_vector_speedup_compares_tcp_engine_cells():
    cells = synthetic_cells()
    assert vector_speedup_at(cells, 90, transport="tcp") == 2.0
    assert vector_speedup_at(cells, 9, transport="tcp") is None  # no tcp at N=9
    assert tcp_vector_speedups(cells) == [("current", 90, 2.0)]


def test_render_scaling_annotates_speedups():
    text = render_scaling(synthetic_cells())
    assert "N=90 current: latency-only is 2.0x faster than fair" in text
    assert "N=90 current: vector fair engine is 4.0x faster than lazy" in text
    assert "N=90 current: vector tcp engine is 2.0x faster than lazy" in text
