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
