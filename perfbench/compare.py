"""``compare A.json B.json``: per workload × metric delta against the bound.

Both files are measured on the same seed, so the bounds here are the issue's
own, tighter than ``BENCHMARK.json``'s: those gate medians taken over
different seeds, and have to cover what the seed itself moves.

A metric is ``unresolved`` when either side's run-to-run spread exceeds its
bound — the runs cannot tell a change of that size from noise — unless every
sample of B is better than every sample of A.  Spread is the distance between
the quartiles over the median, with inclusive quartiles: of five repeats, the
second to the fourth value.  (The issue proposed min–max; one hiccup among
five process start-ups then marks ``setup_s`` unresolved in most runs.)  The
``trace.*`` counts are compared for identity: a changed count is changed
simulated work, not a speed-up.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

#: Regression bounds for two result files of one seed, as shares of A's median.
SAME_SEED_BOUNDS = {"wall_s": 0.10, "cpu_s": 0.10, "peak_rss_mb": 0.05, "setup_s": 0.15}

#: Per-layer metrics that are counts of simulated work and must repeat exactly.
COUNT_METRICS = (
    "trace.simnet.messages_sent",
    "trace.simnet.messages_delivered",
    "trace.simnet.bytes_sent",
    "trace.clients.fetch_attempts",
    "trace.runs",
)

#: Verdicts that make ``compare`` exit non-zero.
BAD_VERDICTS = ("regressed", "unresolved", "count changed", "missing", "failed runs")


def _spread(stat: Dict[str, Any]) -> float:
    if len(stat["samples"]) < 2:
        return 0.0
    low, _mid, high = statistics.quantiles(stat["samples"], n=4, method="inclusive")
    return (high - low) / stat["median"]


def _verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    if max(sign * x for x in b["samples"]) < min(sign * x for x in a["samples"]):
        return "better"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    if sign * (b["median"] - a["median"]) / a["median"] > bound:
        return "regressed"
    return "ok"


def compare(
    a: Dict[str, Any], b: Dict[str, Any], declaration: Dict[str, Any]
) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows for every workload × end-to-end metric (and count); all good?"""
    rows: List[Dict[str, Any]] = []
    for workload in (entry["name"] for entry in declaration["workloads"]):
        left = a["workloads"].get(workload)
        right = b["workloads"].get(workload)
        if left is None and right is None:
            continue
        if left is None or right is None:
            rows.append({"workload": workload, "metric": "*", "verdict": "missing"})
            continue
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            if name not in left["metrics"] or name not in right["metrics"]:
                rows.append({"workload": workload, "metric": name, "verdict": "missing"})
                continue
            old, new = left["metrics"][name], right["metrics"][name]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "a": old["median"],
                    "b": new["median"],
                    "delta": (new["median"] - old["median"]) / old["median"],
                    "bound": SAME_SEED_BOUNDS[name],
                    "verdict": _verdict(
                        old, new, SAME_SEED_BOUNDS[name], metric["better"] == "lower"
                    ),
                }
            )
        if "trace" in left and "trace" in right:
            for name in COUNT_METRICS:
                old, new = left["trace"][name], right["trace"][name]
                rows.append(
                    {
                        "workload": workload,
                        "metric": name,
                        "unit": "count",
                        "a": old,
                        "b": new,
                        "verdict": "ok" if old == new else "count changed",
                    }
                )
        if left["runs_failed"] or right["runs_failed"]:
            rows.append(
                {
                    "workload": workload,
                    "metric": "runs_failed",
                    "unit": "count",
                    "a": left["runs_failed"],
                    "b": right["runs_failed"],
                    "verdict": "failed runs",
                }
            )
    return rows, not any(row["verdict"] in BAD_VERDICTS for row in rows)


def render(rows: List[Dict[str, Any]]) -> str:
    """The comparison as an aligned text table."""
    lines = [
        "%-14s %-30s %14s %14s %8s %7s  %s"
        % ("workload", "metric", "A", "B", "delta", "bound", "verdict")
    ]
    for row in rows:
        lines.append(
            "%-14s %-30s %14s %14s %8s %7s  %s"
            % (
                row["workload"],
                row["metric"],
                "%.6g" % row["a"] if "a" in row else "-",
                "%.6g" % row["b"] if "b" in row else "-",
                "%+.1f%%" % (100 * row["delta"]) if "delta" in row else "",
                "%.0f%%" % (100 * row["bound"]) if "bound" in row else "",
                row["verdict"],
            )
        )
    return "\n".join(lines)
