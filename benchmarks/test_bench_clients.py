"""Figure 13: what the Figure-1 attack does to dir-clients, on a quick grid.

Regenerates the client-recovery table (3 protocols under the majority DDoS,
a cohort-aggregated client population fetching through a mirror tier) and
asserts its simulated claims.  The cells run through the session
``sweep_executor`` on a 4-cohort / 16-mirror grid: cost tracks cohorts ×
waves, not clients, so the small grid shows the same three regimes as the
full-size table —

* on ``fair``, the baselines leave every client stale for the whole run
  while "ours" gets (nearly) everyone a fresh consensus;
* the same holds under ``transport="tcp"``: the recovery claim is not an
  artefact of the idealized ``fair`` split;
* with 10M clients on 16 mirrors the mirror tier, not the protocol, is the
  binding constraint — the regime of the 100M-client row — and "ours" still
  recovers a nonzero fraction where the baselines recover nobody.

The full-size grid (10k–10M clients on 32 cohorts / 256 mirrors under both
transports, plus 100M clients on 1000 cohorts) is committed as
``BENCH_clients.json`` and regenerated, byte for byte, by ``python -m
repro.experiments.figure13_clients``; the last test asserts the claims on
that file and re-runs three of its cells so it cannot go stale silently.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.figure13_clients import (
    EXTREME_POPULATION,
    Figure13Cell,
    render_figure13,
    run_figure13,
)
from repro.runtime.spec import PROTOCOL_NAMES

#: The quick grid every regenerating test runs on.
QUICK_GRID = dict(cohort_count=4, mirror_count=16)

#: The ROADMAP's "millions of users" row of the committed table.
HEADLINE_POPULATION = 10_000_000

SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_clients.json"


def _quick_row(benchmark, sweep_executor, **grid):
    cells = benchmark.pedantic(
        lambda: run_figure13(executor=sweep_executor, **QUICK_GRID, **grid),
        rounds=1,
        iterations=1,
    )
    print("\n" + render_figure13(cells))
    assert [cell.protocol for cell in cells] == list(PROTOCOL_NAMES)
    return cells


def _assert_only_ours_recovers(cells, fresh_above):
    for cell in cells:
        if cell.protocol == "ours":
            assert cell.run_success
            assert cell.fresh_fraction > fresh_above
            assert cell.time_to_fresh_p50_s is not None
        else:
            assert not cell.run_success
            assert cell.fresh_fraction == 0.0


@pytest.mark.paper_artifact("figure13-clients")
def test_bench_figure13_client_recovery(benchmark, sweep_executor):
    cells = _quick_row(benchmark, sweep_executor, populations=(10_000,))
    assert all(cell.transport == "fair" for cell in cells)
    # Measured 0.9957 fresh for "ours", 0.0 for both baselines.
    _assert_only_ours_recovers(cells, fresh_above=0.9)


@pytest.mark.paper_artifact("figure13-clients")
def test_bench_figure13_recovery_survives_tcp_congestion_control(benchmark, sweep_executor):
    cells = _quick_row(benchmark, sweep_executor, populations=(10_000,), transport="tcp")
    assert all(cell.transport == "tcp" for cell in cells)
    _assert_only_ours_recovers(cells, fresh_above=0.9)


@pytest.mark.paper_artifact("figure13-clients")
def test_bench_figure13_extreme_population(benchmark, sweep_executor):
    cells = _quick_row(benchmark, sweep_executor, populations=(HEADLINE_POPULATION,))
    # 16 mirrors cannot push 10M clients a consensus inside the run window:
    # measured 0.0021 fresh for "ours" against 0.0 for both baselines.
    _assert_only_ours_recovers(cells, fresh_above=0.0)
    assert next(cell for cell in cells if cell.protocol == "ours").fresh_fraction < 0.5


@pytest.mark.paper_artifact("figure13-clients")
def test_committed_figure13_table_holds_its_claims_and_regenerates(sweep_executor):
    # Building the cells also requires the file to hold their fields only.
    committed = [Figure13Cell(**cell) for cell in json.loads(SNAPSHOT.read_text())["cells"]]

    def rows(population, transport):
        row = [
            cell
            for cell in committed
            if cell.population == population and cell.transport == transport
        ]
        assert [cell.protocol for cell in row] == list(PROTOCOL_NAMES)
        return row

    # The headline row: 10M clients recover under "ours" only — on the
    # idealized fair split and under real congestion control alike.
    _assert_only_ours_recovers(rows(HEADLINE_POPULATION, "fair"), fresh_above=0.9)
    _assert_only_ours_recovers(rows(HEADLINE_POPULATION, "tcp"), fresh_above=0.99)
    # The extreme row: 256 mirrors cap what 100M clients can fetch, and
    # "ours" still beats baselines that recover exactly nobody.
    _assert_only_ours_recovers(rows(EXTREME_POPULATION, "fair"), fresh_above=0.0)

    # Every field of the table is simulated, so a re-run must reproduce the
    # committed cell exactly, numpy or not — the 1M ``fair`` cell included,
    # whose same-instant staleness sum is order-sensitive in its last digit.
    for population, transport in ((10_000, "fair"), (10_000, "tcp"), (1_000_000, "fair")):
        (cell,) = run_figure13(
            populations=(population,),
            protocols=("ours",),
            transport=transport,
            executor=sweep_executor,
        )
        assert cell in rows(population, transport)
