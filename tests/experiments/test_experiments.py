"""Experiment-module tests: every paper artefact regenerates with the right shape."""

import pytest

from repro.experiments import (
    render_cost_analysis,
    render_figure6,
    render_figure7,
    render_figure10,
    render_figure11,
    render_table1,
    render_table2,
    run_attack_demo,
    run_cost_analysis,
    run_figure6,
    run_figure7,
    run_figure10,
    run_figure11,
    run_table1,
    run_table2,
)
from repro.experiments.ablations import render_ablation, run_engine_ablation, run_scheduling_ablation
from repro.experiments.figure13_clients import render_figure13, run_figure13, write_bench_json
from repro.runtime import ResultCache, SweepExecutor


def test_figure1_attack_demo_breaks_consensus_and_logs_like_the_paper():
    demo = run_attack_demo(relay_count=8000)
    assert demo.attack_succeeded
    assert demo.attack.target_count == 5
    assert demo.attack.duration == 300.0
    assert "We're missing votes from 5 authorities" in demo.log_text
    assert "Giving up downloading votes" in demo.log_text
    assert "We don't have enough votes to generate a consensus" in demo.log_text


def test_figure6_series_and_rendering():
    series = run_figure6()
    assert series.average == pytest.approx(7141.79, abs=0.01)
    text = render_figure6(series)
    assert "7141.79" in text
    assert "2024-10" in text


def test_figure7_sweep_shape():
    results = run_figure7(relay_counts=(2000, 8000))
    assert len(results) == 2
    assert results[1].required_mbps > results[0].required_mbps
    assert 6.0 <= results[1].required_mbps <= 16.0
    text = render_figure7(results)
    assert "Relays" in text and "Required bandwidth" in text


def test_cost_analysis_headline():
    estimate = run_cost_analysis()
    assert estimate.cost_per_month_usd == pytest.approx(53.28, abs=0.01)
    text = render_cost_analysis(estimate)
    assert "$53.28" in text and "$0.074" in text


def test_figure10_small_grid_and_rendering():
    grid = run_figure10(bandwidths_mbps=(10.0,), relay_counts=(1000, 8000))
    text = render_figure10(grid)
    assert "Figure 10 panel: 10.0 Mbit/s" in text
    assert "FAIL" in text  # current/synchronous fail at 8,000 relays
    ours = [cell for cell in grid.cells if cell.protocol == "ours"]
    assert all(cell.success for cell in ours)


def test_figure11_recovery_and_rendering():
    results = run_figure11(relay_counts=(4000,), include_baselines=True)
    result = results[0]
    assert result.ours_success
    assert result.ours_latency_after_attack < 60.0
    assert not result.current_success
    assert not result.synchronous_success
    text = render_figure11(results)
    assert "2100 s fallback" in text


#: One small Figure 13 cell: 10k clients on 4 cohorts / 16 mirrors.
FIGURE13_QUICK = dict(populations=(10_000,), protocols=("ours",), cohort_count=4, mirror_count=16)


def test_figure13_warm_cache_rerun_executes_nothing(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cold = SweepExecutor(cache=cache)
    cells = run_figure13(executor=cold, **FIGURE13_QUICK)
    assert cold.executed_runs == 1
    assert cells[0].run_success and cells[0].fresh_fraction > 0.9
    assert "ours" in render_figure13(cells)

    warm = SweepExecutor(cache=cache)
    again = run_figure13(executor=warm, **FIGURE13_QUICK)
    assert (warm.executed_runs, warm.cache_hits) == (0, 1)
    assert again == cells
    # The payload holds simulated fields only, so it is the same file.
    first = write_bench_json(cells, tmp_path / "first.json").read_bytes()
    assert write_bench_json(again, tmp_path / "again.json").read_bytes() == first


def test_table1_rows_and_rendering():
    rows = run_table1(relay_count=1000, measure=True)
    measured = {row.protocol: row.measured_bytes for row in rows}
    assert measured["Synchronous (Luo et al.)"] > 3 * measured["Current"]
    assert measured["Ours (Partial Synchrony)"] < measured["Synchronous (Luo et al.)"]
    text = render_table1(rows)
    assert "Partial Synchrony" in text and "O(n^3 d + n^4 k)" in text


def test_table2_rendering():
    rows = run_table2()
    text = render_table2(rows)
    assert "Dissemination" in text and "Total" in text and "9" in text


def test_scheduling_ablation_is_robust():
    cells = run_scheduling_ablation(relay_count=2000, bandwidth_mbps=20.0)
    by_variant = {}
    for cell in cells:
        by_variant.setdefault(cell.variant, {})[cell.protocol] = cell
    # The qualitative outcome must not depend on the transport link model.
    for variant, per_protocol in by_variant.items():
        assert per_protocol["current"].success
        assert per_protocol["ours"].success
    text = render_ablation(cells, "transport ablation")
    assert "transport=fair" in text and "transport=fifo" in text


def test_engine_ablation_all_engines_succeed():
    cells = run_engine_ablation(relay_count=2000, bandwidth_mbps=20.0)
    assert len(cells) == 3
    assert all(cell.success for cell in cells)
    latencies = [cell.latency_s for cell in cells]
    assert max(latencies) - min(latencies) < 30.0
