"""Tripwire: ``src/`` reads no environment and picks no engine above simnet.

Every ``REPRO_*`` behaviour switch is a second code path that goldens, the
benchmark and CI have to cover (ROADMAP aim 2).  None is left: the shared
engine is a ``SimNetwork`` constructor argument, and a new switch has to
show up here, not only in a README table.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _sources():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text(encoding="utf-8")


def test_src_reads_no_environment_variable():
    assert [
        name for name, text in _sources() if re.search(r"environ|getenv|REPRO_", text)
    ] == []


def test_engine_selection_stays_inside_simnet():
    # Until ``vector`` goes (ROADMAP 1(a)), nothing above the transport may
    # pick an engine, and ``shared_sched.py`` holds the scheduler alone: a
    # link model's arithmetic lives on its one class in ``linkmodel.py``.
    scheduler = (SRC / "repro/simnet/shared_sched.py").read_text(encoding="utf-8")
    assert re.findall(r"^class (\w+)", scheduler, re.M) == ["LazySharedLinkScheduler"]
    assert [
        name
        for name, text in _sources()
        if re.search(r"shared_engine|vector_sched", text) and not name.startswith("repro/simnet/")
    ] == []
