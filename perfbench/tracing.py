"""In-memory spans for the traced run.

The benchmark records a span around each call it makes into a layer: name,
start, end, the span that caused it, and the run it belongs to.  Spans stay
in memory and are written out once, when the traced pass has ended.  Spans
*inside* ``src/`` are a later issue; until then the exclusive self-time
buckets of ``repro.utils.phases`` ride on the ``run_protocol`` span.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, Iterator, List


class Tracer:
    """A list of spans plus the stack that gives each its parent."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, run_id: int) -> Iterator[Dict[str, Any]]:
        """Record ``name`` around the block; yields the span for annotation."""
        record: Dict[str, Any] = {
            "name": name,
            "run": run_id,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        """Summed duration of every closed span called ``name``."""
        return sum(
            span["end"] - span["start"]
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        )

    def write(self, path: Path, **meta: Any) -> None:
        """Write the spans (and ``meta``) as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "spans": self.spans}, handle)
