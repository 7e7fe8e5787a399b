"""perfbench: the host-time benchmark of the directory-protocol simulator.

Six named workloads, four end-to-end metrics and a per-layer table, declared
in ``BENCHMARK.json`` at the repository root and documented in
``perfbench/README.md``.  The package drives ``repro`` through its public
functions only; nothing under ``src/`` knows it exists.

Importing this package imports nothing from ``repro``: the parent side of
the harness (spawning children, medians, ``compare``) must stay cheap, and
the children pay — and report — the import as part of ``setup_s``.
"""

from pathlib import Path

#: The checkout: ``BENCHMARK.json`` and ``src/`` live here.
ROOT = Path(__file__).resolve().parent.parent

#: Results, traces and scratch caches; ignored by git, always inside the checkout.
OUT_DIR = ROOT / "perfbench" / "out"
