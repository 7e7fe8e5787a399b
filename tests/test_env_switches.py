"""Tripwire: which environment variables ``src/`` reads.

Every ``REPRO_*`` behaviour switch is a second code path that goldens, the
benchmark and CI have to cover (ROADMAP aim 2).  One is left — the
shared-regime engine choice, read in ``simnet/flows.py`` — and a new one has
to show up here, not only in a README table.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_src_reads_the_environment_for_the_shared_engine_only():
    readers, names = [], set()
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        if re.search(r"\benviron\b|\bgetenv\b", text):
            readers.append(path.relative_to(SRC).as_posix())
        names.update(re.findall(r"\bREPRO_[A-Z0-9_]+", text))
    assert readers == ["repro/simnet/flows.py"]
    assert names == {"REPRO_SHARED_ENGINE"}


def test_engine_selection_stays_inside_simnet_and_the_cache_key():
    # Until ``vector`` goes (ROADMAP 1(a)), nothing above the transport may
    # pick an engine, and ``shared_sched.py`` holds the scheduler alone: a
    # link model's arithmetic lives on its one class in ``linkmodel.py``.
    scheduler = (SRC / "repro/simnet/shared_sched.py").read_text(encoding="utf-8")
    assert re.findall(r"^class (\w+)", scheduler, re.M) == ["LazySharedLinkScheduler"]
    mentions = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if re.search(r"shared_engine|vector_sched", path.read_text(encoding="utf-8"))
    ]
    assert [path for path in mentions if not path.startswith("repro/simnet/")] == [
        "repro/runtime/cache.py"
    ]
