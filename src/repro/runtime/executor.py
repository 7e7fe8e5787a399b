"""Sweep execution: serial or multi-process fan-out of RunSpec grids.

:class:`SweepExecutor` is the single entry point every experiment, analysis
sweep, benchmark, and example routes protocol runs through:

* **cache first** — with a :class:`~repro.runtime.cache.ResultCache` attached,
  cells whose spec hash is already on disk are never re-executed;
* **deterministic parallelism** — cache misses fan out over a
  ``multiprocessing`` pool; every stochastic input of a run is derived from
  its spec (notably ``spec.seed``), so results are bit-identical regardless
  of worker count or completion order, and are always returned in submission
  order;
* **cheap transport** — workers return compact
  ``ProtocolRunResult.summary()`` dicts rather than full results (which drag
  a whole trace log across the process boundary).

Duplicate specs inside one sweep are executed once and fanned back out to
every position that requested them.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.runtime.cache import ResultCache
from repro.runtime.spec import RunSpec, SweepSpec
from repro.utils.validation import ensure

Sweep = Union[SweepSpec, Sequence[RunSpec]]

#: Progress callback: ``on_result(index, spec, summary, cached)`` fires once
#: per sweep position as its summary becomes available — ``index`` is the
#: position in the submitted sweep, ``summary`` the raw summary dict, and
#: ``cached`` whether it came from the result cache instead of an execution.
OnResult = Callable[[int, RunSpec, Dict[str, Any], bool], None]


def execute_spec_summary(spec: RunSpec) -> Dict[str, Any]:
    """Execute one run and return its compact summary (the pool worker).

    Imports the protocol layer lazily: the runtime package must stay
    importable without it, and ``fork`` workers inherit the parent's modules
    anyway.
    """
    from repro.protocols.runner import execute_spec

    return execute_spec(spec).summary()


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, inherits loaded modules); fall back to default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def clear_process_caches() -> None:
    """Drop every process-global cache that outlives a run.

    There are two, both pure memos whose presence never changes a result:
    the aggregation caches (:func:`repro.directory.aggregate.clear_aggregation_caches`)
    and the scenario-ingredient memo
    (:func:`repro.protocols.runner.clear_scenario_caches`).  This is the one
    place that knows the list — sweep workers and tests that compare warm
    against cold state call it rather than the individual functions.
    """
    from repro.directory.aggregate import clear_aggregation_caches
    from repro.protocols.runner import clear_scenario_caches

    clear_aggregation_caches()
    clear_scenario_caches()


def sweep_worker_setup() -> None:
    """Pool initializer run once in every sweep worker process.

    Drops the process-global caches a ``fork`` worker inherits from the
    parent (:func:`clear_process_caches`) — the aggregation relay-map memo
    and the shared scenario ingredients, whose entries the parent built for
    *its* runs and which the child would otherwise keep alive (and un-share,
    copy-on-write) for the whole sweep.
    """
    clear_process_caches()


class SweepExecutor:
    """Executes RunSpec grids serially or across a worker pool.

    Parameters
    ----------
    workers:
        Pool size; 1 executes in-process (no pool, no pickling).
    cache:
        Optional :class:`ResultCache`.  Hits skip execution entirely; misses
        are stored after execution, so a repeated sweep is pure cache reads.
    on_result:
        Optional progress callback (see :data:`OnResult`), stdlib-only:
        fires in-process once per sweep position as its summary becomes
        available — cache hits during the scan, then executions as they
        finish — so a 120-authority or 10M-client grid is not silent for
        minutes.  A per-call ``on_result`` to :meth:`run`/:meth:`run_summaries`
        overrides the constructor default.

    The counters ``executed_runs`` / ``cache_hits`` accumulate across calls
    (a warm-cache re-run is asserted as ``executed_runs == 0`` in the tests).
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        on_result: Optional[OnResult] = None,
    ) -> None:
        ensure(workers >= 1, "workers must be at least 1")
        self.workers = workers
        self.cache = cache
        self.on_result = on_result
        self.executed_runs = 0
        self.cache_hits = 0

    # -- public API --------------------------------------------------------
    def run(
        self, sweep: Sweep, on_result: Optional[OnResult] = None
    ) -> List["ProtocolRunResult"]:
        """Execute ``sweep`` and return results in submission order."""
        from repro.protocols.base import ProtocolRunResult

        return [
            ProtocolRunResult.from_summary(summary)
            for summary in self.run_summaries(sweep, on_result=on_result)
        ]

    def run_one(self, spec: RunSpec, full: bool = False) -> "ProtocolRunResult":
        """Execute a single spec.

        With ``full=True`` the run always executes in-process and the
        returned result keeps its trace log and live stats (needed by the
        Figure 1 log extraction); the compact summary is still written to the
        cache so later sweeps hit it.
        """
        from repro.protocols.base import ProtocolRunResult

        if full:
            from repro.protocols.runner import execute_spec

            result = execute_spec(spec)
            self.executed_runs += 1
            if self.cache is not None:
                self.cache.put(spec, result.summary())
            # Full runs are observable like any other execution.
            if self.on_result is not None:
                self.on_result(0, spec, result.summary(), False)
            return result
        return ProtocolRunResult.from_summary(self.run_summaries([spec])[0])

    def run_summaries(
        self, sweep: Sweep, on_result: Optional[OnResult] = None
    ) -> List[Dict[str, Any]]:
        """Like :meth:`run` but returns the raw summary dicts."""
        on_result = on_result if on_result is not None else self.on_result
        specs = list(sweep.runs) if isinstance(sweep, SweepSpec) else list(sweep)
        results: List[Optional[Dict[str, Any]]] = [None] * len(specs)

        # Resolve cache hits and collapse duplicate specs to one execution.
        pending: Dict[RunSpec, List[int]] = {}
        for index, spec in enumerate(specs):
            cached = self.cache.get(spec) if self.cache is not None else None
            if cached is not None:
                results[index] = cached
                self.cache_hits += 1
                if on_result is not None:
                    on_result(index, spec, cached, True)
            else:
                pending.setdefault(spec, []).append(index)

        if pending:
            unique = list(pending)
            for spec, summary in self._execute(unique):
                self.executed_runs += 1
                if self.cache is not None:
                    self.cache.put(spec, summary)
                for index in pending[spec]:
                    results[index] = summary
                    if on_result is not None:
                        on_result(index, spec, summary, False)
        return results  # type: ignore[return-value]

    # -- internals ---------------------------------------------------------
    def _execute(self, specs: List[RunSpec]):
        """Yield ``(spec, summary)`` pairs in submission order as they finish.

        Serial execution yields after each in-process run; pool execution
        uses ``imap`` (ordered, chunk size 1) so progress callbacks fire as
        results stream back rather than after the whole ``map``.
        """
        if self.workers == 1 or len(specs) == 1:
            for spec in specs:
                yield spec, execute_spec_summary(spec)
            return
        context = _pool_context()
        with context.Pool(
            processes=min(self.workers, len(specs)),
            initializer=sweep_worker_setup,
        ) as pool:
            for spec, summary in zip(specs, pool.imap(execute_spec_summary, specs, chunksize=1)):
                yield spec, summary
