"""Smoke test for ``benchmarks/profile_scaling.py --phases`` on one small cell.

The script is a maintenance tool, not a module of ``src/``; it is loaded from
its path and its ``phase_cell`` run on ``tcp`` at the paper's nine
authorities, the one shared transport whose scheduler counters are all live.
"""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "profile_scaling.py"


def _profile_scaling():
    spec = importlib.util.spec_from_file_location("profile_scaling", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_phase_cell_prints_buckets_and_scheduler_work_on_tcp(capsys):
    buckets = _profile_scaling().phase_cell(authorities=9, transport="tcp")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("cell: current@9 transport=tcp success=True")
    scheduler = next(line for line in lines if line.startswith("scheduler: "))
    rated, wakes, scans = (float(word) for word in scheduler.split() if word[0].isdigit())
    # tcp rates flows, ticks and walks departures on every run.
    assert rated > 0 and wakes > 0 and scans > 0
    assert buckets["transport"] > 0
    assert any(line.startswith("floor ") for line in lines)
