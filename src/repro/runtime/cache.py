"""Content-addressed on-disk cache of protocol-run summaries.

A :class:`ResultCache` maps a :class:`~repro.runtime.spec.RunSpec`'s content
hash to the JSON summary of its :class:`~repro.protocols.base.ProtocolRunResult`
(see ``ProtocolRunResult.summary()``).  Because equal specs describe
bit-identical simulations, a warm cache makes repeated sweeps — re-rendering
a figure, re-running a benchmark, widening a grid — near-free: only the new
cells execute.

The cache stores plain dicts, not result objects, so it has no import-time
dependency on the protocol layer and its files are stable, diffable JSON.
Corrupted or version-mismatched entries read as misses.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Union

from repro.runtime.spec import RunSpec
from repro.utils.validation import ensure

#: On-disk entry format version; bump when the summary layout changes or
#: when equal specs stop producing equal summaries (a transport-trajectory
#: change), so that older entries read as misses instead of mis-hitting.
#: An entry holds the spec's ``to_dict()`` (written for people reading the
#: file; never read back) and its result summary (summary version 3, with the
#: ``faults`` and ``clients`` blocks).
CACHE_FORMAT_VERSION = 6


class ResultCache:
    """Spec-hash → run-summary store backed by a directory of JSON files."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths -------------------------------------------------------------
    def path_for(self, spec: RunSpec) -> Path:
        """The file that does/would hold ``spec``'s cached summary.

        The spec hash alone names it: a spec describes its whole run, and
        every spec runs on the same scheduler.
        """
        digest = spec.spec_hash()
        return self.root / digest[:2] / ("%s.json" % digest)

    # -- store/load --------------------------------------------------------
    def get(self, spec: RunSpec) -> Optional[Dict[str, Any]]:
        """The cached summary for ``spec``, or None on a miss."""
        path = self.path_for(spec)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            return None
        if not isinstance(entry, dict) or entry.get("format") != CACHE_FORMAT_VERSION:
            return None
        summary = entry.get("summary")
        return summary if isinstance(summary, dict) else None

    def put(self, spec: RunSpec, summary: Dict[str, Any]) -> Path:
        """Store ``summary`` for ``spec`` (atomic write; returns the path)."""
        path = self.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "format": CACHE_FORMAT_VERSION,
            "spec": spec.to_dict(),
            "summary": summary,
        }
        # Write-then-rename so parallel writers never expose a torn file.
        descriptor, temp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    # -- maintenance -------------------------------------------------------
    def __contains__(self, spec: RunSpec) -> bool:
        return self.get(spec) is not None

    def _entry_paths(self) -> Iterator[Path]:
        return self.root.glob("*/*.json")

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def prune(self, max_entries: int) -> int:
        """Evict least-recently-written entries down to ``max_entries``.

        LRU is approximated by file modification time (``put`` rewrites an
        entry's file, refreshing it).  Entries that vanish mid-prune — a
        concurrent ``clear`` or another pruner — are skipped, and concurrent
        writers' ``*.tmp`` staging files are never touched (only ``*.json``
        entries are considered).  Returns how many entries were removed;
        a cache at or under the limit is a no-op.
        """
        ensure(max_entries >= 0, "max_entries must be non-negative")
        stamped = []
        for path in self._entry_paths():
            try:
                stamped.append((path.stat().st_mtime, path))
            except OSError:
                continue  # removed concurrently
        excess = len(stamped) - max_entries
        if excess <= 0:
            return 0
        stamped.sort(key=lambda entry: (entry[0], str(entry[1])))
        removed = 0
        for _mtime, path in stamped[:excess]:
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue  # removed concurrently
        return removed
