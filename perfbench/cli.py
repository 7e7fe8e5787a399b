"""``python -m perfbench <command>``: run, trace, micro, pin, compare, selfcheck.

``run`` is the one command that prints every declared metric by name with
its unit and checks the simulated outputs: end-to-end repeats (fresh
process per workload and repeat, round-robin across workloads so box drift
spreads evenly), then one traced pass per workload, then the layer
microbenchmarks.  ``trace`` and ``micro`` run one part of it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from perfbench import OUT_DIR, harness
from perfbench.compare import compare, render
from perfbench.fingerprint import EXPECTED_FORMAT, expected_path

#: Microbenchmark pass shape for ``run`` and ``micro`` (``--smoke``: one short pass).
MICRO_PASSES = 5
MICRO_PASS_SECONDS = 0.3


def workload_names() -> List[str]:
    """The declared workloads, in reporting order."""
    return [entry["name"] for entry in harness.declaration()["workloads"]]


def collect(
    seed: int,
    repeats: int,
    smoke: bool = False,
    names: Optional[Sequence[str]] = None,
    timed: bool = True,
    traced: Optional[Sequence[str]] = None,
    micro: bool = True,
    expected: Optional[Path] = None,
    say: Callable[[str], None] = lambda text: None,
) -> Dict[str, Any]:
    """Measure and return one result document (what ``run`` writes).

    ``traced`` names the workloads that get a traced pass (None: all of
    ``names``).  ``expected`` of None checks against the seed's pinned file,
    if it exists.
    """
    names = list(names) if names else workload_names()
    traced = names if traced is None else [name for name in names if name in traced]
    result: Dict[str, Any] = {
        "env": harness.environment(seed, repeats if timed else None),
        "smoke": smoke,
        "workloads": {},
    }
    children: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    if timed:
        for repeat in range(repeats):
            for name in names:
                child = harness.spawn("timed", name, seed, smoke, expected)
                children[name].append(child)
                say("repeat %d/%d %-14s %s" % (
                    repeat + 1, repeats, name,
                    "%.3f s" % child["wall_s"] if "wall_s" in child else "RAISED",
                ))
    for name in traced:
        children[name].append(harness.spawn("traced", name, seed, smoke, expected))
        say("traced       %-14s" % name)
    if timed or traced:
        result["workloads"] = {name: harness.summarise(children[name]) for name in names}
    if micro:
        say("microbenchmarks")
        passes, pass_seconds = (1, 0.02) if smoke else (MICRO_PASSES, MICRO_PASS_SECONDS)
        result["micro"] = harness.spawn_micro(seed, passes, pass_seconds, quick=smoke)
    return result


def render_result(result: Dict[str, Any]) -> str:
    """Every metric by name with its unit, one per line."""
    declared = harness.declaration()
    layer_units = {metric["name"]: metric["unit"] for metric in declared["per_layer"]}
    lines = []
    for name, workload in result["workloads"].items():
        lines.append(
            "%s: runs_failed %d / runs_attempted %d (%s)"
            % (
                name, workload["runs_failed"], workload["runs_attempted"],
                "pinned fingerprints" if workload["pinned"] else "repeat identity + invariants",
            )
        )
        for failure in workload["failures"][:5]:
            lines.append("  FAILED " + failure.splitlines()[0])
        for metric, stat in workload["metrics"].items():
            lines.append(
                "  %-44s %14.6f %-6s (min %.6f, max %.6f, n=%d)"
                % (metric, stat["median"], stat["unit"], stat["min"], stat["max"], stat["n"])
            )
        for metric, value in workload["raw"].items():
            lines.append("  %-44s %14.6f (not normalised)" % ("raw " + metric, value))
        for metric, value in workload.get("trace", {}).items():
            lines.append("  %-44s %14.6f %s" % (metric, value, layer_units[metric]))
    micro = result.get("micro")
    if micro:
        lines.append("microbenchmarks:")
        for failure in micro["failures"]:
            lines.append("  FAILED %s: %s" % (failure[0], failure[1].strip().splitlines()[-1]))
        for metric, value in micro["metrics"].items():
            lines.append("  %-44s %14.3f %s" % (metric, value, layer_units[metric]))
        for metric in micro["skipped"]:
            lines.append("  %-44s %14s (needs numpy)" % (metric, "skipped"))
    return "\n".join(lines)


def all_correct(result: Dict[str, Any]) -> bool:
    """No failed run and no failed microbenchmark check."""
    return not any(w["runs_failed"] for w in result["workloads"].values()) and not (
        result.get("micro", {}).get("failures")
    )


def _write(result: Dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")


def pin(seed: int) -> Path:
    """Regenerate ``expected/seed<seed>.json`` from this checkout's outputs."""
    document: Dict[str, Any] = {"format": EXPECTED_FORMAT, "seed": seed}
    for section, smoke in (("full", False), ("smoke", True)):
        document[section] = {}
        for name in workload_names():
            child = harness.spawn("pin", name, seed, smoke)
            if "error" in child or child["failures"]:
                raise harness.HarnessError(
                    "refusing to pin %s: %s" % (name, child.get("error") or child["failures"])
                )
            document[section][name] = child["fingerprints"]
    path = expected_path(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Dispatch one ``python -m perfbench`` command; returns the exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # The two child entry points import repro; everything else must not.
    if argv[:1] == ["child"]:
        from perfbench.child import main as child_main

        return child_main(argv[1:])
    if argv[:1] == ["micro-child"]:
        from perfbench.micro import main as micro_main

        return micro_main(argv[1:])

    parser = argparse.ArgumentParser(prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, repeats, text in (
        ("run", 5, "end-to-end repeats, traced pass and microbenchmarks: every metric"),
        ("trace", 3, "untraced repeats plus one traced pass per workload"),
        ("micro", None, "the layer microbenchmarks"),
        ("selfcheck", 5, "two full sets of runs of this checkout, then compare"),
    ):
        sub = commands.add_parser(name, help=text)
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
        sub.add_argument("--out", type=Path, default=OUT_DIR / ("%s.json" % name))
        if repeats is not None:
            sub.add_argument("--repeats", type=int, default=repeats)
            sub.add_argument("--workload", action="append", help="only this workload (repeatable)")
    sub = commands.add_parser("pin", help="regenerate perfbench/expected/seed<N>.json")
    sub.add_argument("--seed", type=int, default=7)
    sub = commands.add_parser("compare", help="per workload x metric delta of B against A")
    sub.add_argument("a", type=Path)
    sub.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    def log(text: str) -> None:
        print(text, file=sys.stderr, flush=True)

    if args.command == "pin":
        print("wrote %s" % pin(args.seed))
        return 0
    if args.command == "compare":
        with open(args.a, encoding="utf-8") as a, open(args.b, encoding="utf-8") as b:
            rows, good = compare(json.load(a), json.load(b), harness.declaration())
        print(render(rows))
        return 0 if good else 1
    if args.command == "selfcheck":
        sets = []
        for label in ("a", "b"):
            result = collect(
                args.seed, args.repeats, args.smoke, args.workload, micro=False, say=log
            )
            _write(result, args.out.with_name("selfcheck-%s.json" % label))
            sets.append(result)
        rows, good = compare(sets[0], sets[1], harness.declaration())
        print(render(rows))
        return 0 if good else 1
    if args.command == "micro":
        result = collect(args.seed, 0, args.smoke, timed=False, traced=(), say=log)
    else:
        result = collect(
            args.seed, args.repeats, args.smoke, args.workload,
            micro=args.command == "run", say=log,
        )
    _write(result, args.out)
    print(render_result(result))
    print("wrote %s" % args.out)
    return 0 if all_correct(result) else 1
