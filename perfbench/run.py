"""The benchmark's entry point under the driver contract.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  With ``--trace 0`` it measures the
workload end to end: as many fresh-process passes as fit in ``--seconds``,
never fewer than three, and reports the median of each end-to-end metric.
With ``--trace 1`` it runs one untraced and one traced pass plus the layer
microbenchmarks (sized to what is left of ``--seconds``) and reports every
per-layer metric.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.

``python -m perfbench run`` (see cli.py) is the same measurement for people:
all workloads, round-robin, with min/max beside each median.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

# Run as a script, sys.path[0] is perfbench/ itself: the package lives one up.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import ROOT, harness  # noqa: E402  (needs the path entry above)

#: Fewest fresh-process passes behind a reported median.
MIN_REPEATS = 3

#: Least the microbenchmarks get in a traced run, however long the passes took.
MIN_MICRO_SECONDS = 3.0


def measure_end_to_end(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """Timed passes until another would not fit in ``seconds`` (at least 3)."""
    started = time.monotonic()
    children = []
    while True:
        before = time.monotonic()
        children.append(harness.spawn("timed", workload, seed))
        took = time.monotonic() - before
        if len(children) >= MIN_REPEATS and time.monotonic() - started + took > seconds:
            break
    summary = harness.summarise(children)
    metrics = {
        name: {"value": stat["median"], "unit": stat["unit"]}
        for name, stat in summary["metrics"].items()
    }
    return {"summary": summary, "metrics": metrics}


def measure_layers(workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced pass, one traced pass, then the microbenchmarks."""
    started = time.monotonic()
    children = [harness.spawn(mode, workload, seed) for mode in ("timed", "traced")]
    summary = harness.summarise(children)
    left = max(MIN_MICRO_SECONDS, seconds - (time.monotonic() - started))
    units = {metric["name"]: metric["unit"] for metric in harness.declaration()["per_layer"]}
    rates = sum(1 for name in units if name.startswith("micro."))
    # Three passes per rate; a third of the budget goes to off-the-clock set-up.
    pass_seconds = left * (2.0 / 3.0) / (3 * rates)
    micro = harness.spawn_micro(seed, passes=3, pass_seconds=pass_seconds, quick=True)
    values = dict(summary.get("trace", {}))
    values.update(micro["metrics"])
    # A traced pass that raised, a failed microbenchmark, or one skipped for
    # want of numpy leaves names out.
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
        if name in values
    }
    # A microbenchmark whose own output check fails is a failed operation.
    summary["runs_attempted"] += micro["attempted"]
    summary["runs_failed"] += len(micro["failures"])
    summary["failures"] += ["%s:\n%s" % (bench, text) for bench, text in micro["failures"]]
    return {"summary": summary, "metrics": metrics}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: no simulator to measure: %s is missing" % (ROOT / "src" / "repro"),
              file=sys.stderr)
        return 2
    names = [entry["name"] for entry in harness.declaration()["workloads"]]
    if args.workload not in names:
        print("perfbench: unknown workload %r; declared: %s" % (args.workload, names),
              file=sys.stderr)
        return 2
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        measured = measure(args.workload, args.seed, args.seconds)
    except harness.HarnessError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    summary = measured["summary"]
    for failure in summary["failures"]:
        print("FAILED " + failure, file=sys.stderr)
    print("raw medians (not normalised): %s" % json.dumps(summary["raw"]), file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": summary["runs_failed"] == 0,
                "attempted": summary["runs_attempted"],
                "failed": summary["runs_failed"],
                "metrics": measured["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
