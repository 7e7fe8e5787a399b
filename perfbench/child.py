"""What runs inside one fresh child process: set up, one pass, report.

The harness starts a new interpreter for every (workload, repeat) so that
``peak_rss_mb`` is per workload and ``setup_s`` — interpreter start,
``import repro…`` (this module's imports), spec generation, expected-file
load — is paid and measured every time, as it is on every CLI invocation of
the simulator.  Only the child imports this module.

The child prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.protocols.runner import run_protocol, scenario_from_spec
from repro.runtime import ResultCache, SweepExecutor
from repro.utils import phases

from perfbench import OUT_DIR
from perfbench.fingerprint import check_runs, fingerprint, load_pinned, run_digest
from perfbench.tracing import Tracer
from perfbench.workloads import WORKLOADS

#: ``phases`` bucket → per-layer metric name.
_BUCKET_METRICS = {
    "transport": "trace.simnet.transport_self_s",
    "protocol": "trace.protocols.handlers_self_s",
    "crypto": "trace.crypto.self_s",
    "client_wave": "trace.clients.wave_self_s",
    "other": "trace.other_self_s",
}


def _timed_pass(specs, cache_root: str) -> Dict[str, Any]:
    """The end-to-end pass: what ``SweepExecutor`` does on a cold cache."""
    executor = SweepExecutor(workers=1, cache=ResultCache(cache_root))
    cpu_started = time.process_time()
    started = time.perf_counter()
    summaries = executor.run_summaries(specs)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return {"wall_s": wall, "cpu_s": cpu, "summaries": summaries}


def _traced_pass(specs, cache_root: str, trace_path: Path, meta: Dict[str, Any]) -> Dict[str, Any]:
    """The same work, called piece by piece with a span around each piece.

    ``scenario_from_spec`` + ``run_protocol`` is ``execute_spec``;
    ``summary()`` + ``ResultCache.put`` is what the executor adds.
    """
    cache = ResultCache(cache_root)
    tracer = Tracer()
    buckets = dict.fromkeys(_BUCKET_METRICS, 0.0)
    summaries = []
    started = time.perf_counter()
    for run_id, spec in enumerate(specs):
        with tracer.span("runtime.run", run_id):
            with tracer.span("protocols.scenario_build", run_id):
                scenario = scenario_from_spec(spec)
            with tracer.span("protocols.run_protocol", run_id) as span:
                result, self_times, _wall = phases.profile(
                    run_protocol,
                    spec.protocol,
                    scenario,
                    config=spec.protocol_config(),
                    max_time=spec.max_time,
                    engine=spec.engine,
                    delta=spec.delta,
                    view_timeout=spec.view_timeout,
                )
                span["self_s"] = self_times
            with tracer.span("runtime.summary", run_id):
                summary = result.summary()
            with tracer.span("runtime.cache_put", run_id):
                cache.put(spec, summary)
        for bucket, seconds in self_times.items():
            buckets[bucket] += seconds
        summaries.append(summary)
    wall = time.perf_counter() - started
    tracer.write(trace_path, traced_wall_s=wall, **meta)

    sent = sum(s["stats"]["messages_sent"] for s in summaries)
    delivered = sum(s["stats"]["messages_delivered"] for s in summaries)
    trace = {metric: buckets[bucket] for bucket, metric in _BUCKET_METRICS.items()}
    trace.update(
        {
            "trace.protocols.scenario_build_s": tracer.total("protocols.scenario_build"),
            "trace.protocols.run_protocol_s": tracer.total("protocols.run_protocol"),
            "trace.runtime.summary_s": tracer.total("runtime.summary"),
            "trace.runtime.cache_put_s": tracer.total("runtime.cache_put"),
            "trace.simnet.us_per_msg": 1e6 * buckets["transport"] / max(sent, 1),
            "trace.protocols.us_per_msg": 1e6 * buckets["protocol"] / max(delivered, 1),
            "trace.simnet.messages_sent": sent,
            "trace.simnet.messages_delivered": delivered,
            "trace.simnet.bytes_sent": sum(
                sum(s["stats"]["bytes_sent"].values()) for s in summaries
            ),
            "trace.clients.fetch_attempts": sum(
                s["clients"].get("fetch_attempts", 0) for s in summaries
            ),
            "trace.runs": len(summaries),
        }
    )
    return {"wall_s": wall, "trace": trace, "summaries": summaries}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m perfbench child`` (the harness calls it)."""
    parser = argparse.ArgumentParser(prog="perfbench child")
    parser.add_argument("--mode", choices=("timed", "traced", "pin"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--expected", default="")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    specs = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    # Pinning regenerates the file: whatever it holds now is not a reference.
    pinned = None if args.mode == "pin" else load_pinned(
        Path(args.expected) if args.expected else None, args.workload, args.smoke
    )
    OUT_DIR.mkdir(exist_ok=True)
    cache_root = tempfile.mkdtemp(prefix="cache-", dir=str(OUT_DIR))
    report: Dict[str, Any] = {
        "mode": args.mode,
        "workload": args.workload,
        "runs": len(specs),
        "pinned": pinned is not None,
        # Wall clock, not perf_counter: the origin was stamped by the parent.
        "setup_s": time.time() - args.spawned_at,
    }
    try:
        try:
            if args.mode == "traced":
                suffix = "-smoke" if args.smoke else ""
                trace_path = OUT_DIR / ("trace-%s%s.json" % (args.workload, suffix))
                measured = _traced_pass(
                    specs, cache_root, trace_path,
                    {"workload": args.workload, "seed": args.seed, "smoke": args.smoke},
                )
                report["trace"] = measured["trace"]
            else:
                measured = _timed_pass(specs, cache_root)
                report["cpu_s"] = measured["cpu_s"]
        except Exception:  # boundary: a raising pass is reported, not lost
            report["error"] = traceback.format_exc()
            print(json.dumps(report))
            return 1
        report["wall_s"] = measured["wall_s"]
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        fingerprints: List[Dict[str, Any]] = [fingerprint(s) for s in measured["summaries"]]
        report["failures"] = check_runs(fingerprints, pinned)
        report["run_digests"] = [run_digest(fp) for fp in fingerprints]
        if args.mode == "pin":
            report["fingerprints"] = fingerprints
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
