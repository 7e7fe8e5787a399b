"""The parent side: fresh child processes, medians, failure counts.

Nothing here imports ``repro``.  A child is started for every (workload,
repeat) with every ``REPRO_*`` variable removed and ``PYTHONHASHSEED=0``, so
a stray switch in the caller's shell cannot change which engine is measured.

Host speed on the shared box drifts by 15-25 % for minutes at a time, the
same for every workload, for set-up and for a bare Python loop, and raw
seconds spread 11-23 % over ten runs, where the benchmark contract asks for
a third of a bound of at most 25 %.  While a child runs, the otherwise idle parent
therefore runs a fixed calibration kernel in a thread of the lowest priority
and measures that thread's own CPU time per kernel.  The child's *speed
index* is that cost over the cost this module fixes as the unit (above 1 is
a slow spell), and the end-to-end times are divided by it; the raw seconds
are kept beside them.  The thread yields to a child that wants both cores,
and CPU time per kernel does not count the waiting, so a child's own use of
the second core does not move its index.  README.md, "Host speed", has the
measurements and what the index does not do.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from heapq import heappop, heappush
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench import ROOT
from perfbench.fingerprint import expected_path

BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: A child that has not reported after this long is killed.  One pass takes
#: about 6 s and the contract allows a whole driver run 180 s; the full-size
#: microbenchmark suite (not part of a driver run) takes about 80 s.
CHILD_TIMEOUT_S = 170.0
FULL_MICRO_TIMEOUT_S = 900.0

#: The unit of the speed index: one calibration kernel counts as this much
#: CPU time (what it takes on the 2-core reference box when quiet).  It only
#: scales the normalised seconds; no comparison between two runs depends on it.
KERNEL_UNIT_S = 1.0 / 72.0


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed run)."""


def declaration() -> Dict[str, Any]:
    """``BENCHMARK.json``: the names, units and bounds this package reports."""
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> Dict[str, str]:
    """The caller's environment minus ``REPRO_*``, hash seed pinned."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _run_child(arguments: Sequence[str], timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Start ``python -m perfbench <arguments>``, wait, parse its last line."""
    command = [sys.executable, "-m", "perfbench"] + list(arguments)
    try:
        done = subprocess.run(
            command,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        # run() has killed and reaped the child before raising.
        raise HarnessError("child timed out after %.0f s: %s" % (timeout, command))
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise HarnessError(
            "child printed no report (exit %d): %s\n%s" % (done.returncode, command, done.stderr)
        )
    if not isinstance(report, dict):
        raise HarnessError("child report is not an object: %r" % (report,))
    return report


def _kernel() -> None:
    """A fixed mix of what the simulator does: heap, dict, tuples, floats."""
    heap: List[Any] = []
    table: Dict[int, int] = {}
    total = 0.0
    for i in range(20_000):
        heappush(heap, ((i * 7919) % 20_000, i, None))
        table[i & 1023] = table.get(i & 1023, 0) + i
        if i & 1:
            total += heappop(heap)[0]


class _Calibrator(threading.Thread):
    """Runs the kernel back to back until stopped, at the lowest priority.

    ``kernel_cpu_s`` is the thread's own CPU time per kernel: what the host
    makes of a fixed piece of work, however little of a core the child leaves.
    """

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._stop_requested = threading.Event()
        self.kernel_cpu_s = 0.0

    def run(self) -> None:
        # On Linux a thread has its own nice value, addressed by its native id.
        os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), 19)
        done = 0
        started = time.thread_time()
        while True:
            _kernel()
            done += 1
            if self._stop_requested.is_set():
                break
        self.kernel_cpu_s = (time.thread_time() - started) / done

    def stop(self) -> None:
        self._stop_requested.set()
        self.join()


def spawn(
    mode: str,
    workload: str,
    seed: int,
    smoke: bool = False,
    expected: Optional[Path] = None,
) -> Dict[str, Any]:
    """One fresh child of ``mode`` (timed / traced / pin)."""
    if expected is None:
        expected = expected_path(seed)
    arguments = [
        "child",
        "--mode", mode,
        "--workload", workload,
        "--seed", str(seed),
        "--expected", str(expected),
        # Stamped last, right before the process starts: setup_s counts from here.
        "--spawned-at", repr(time.time()),
    ]
    if smoke:
        arguments.insert(1, "--smoke")
    calibrator = _Calibrator()
    calibrator.start()
    try:
        report = _run_child(arguments)
    finally:
        calibrator.stop()
    report["speed_index"] = calibrator.kernel_cpu_s / KERNEL_UNIT_S
    return report


def spawn_micro(seed: int, passes: int, pass_seconds: float, quick: bool) -> Dict[str, Any]:
    """The microbenchmark suite in one fresh child."""
    arguments = [
        "micro-child",
        "--seed", str(seed),
        "--passes", str(passes),
        "--pass-seconds", repr(pass_seconds),
    ]
    if quick:
        arguments.append("--quick")
    return _run_child(arguments, CHILD_TIMEOUT_S if quick else FULL_MICRO_TIMEOUT_S)


def _stat(samples: List[float], unit: str) -> Dict[str, Any]:
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "unit": unit,
        "samples": samples,
    }


#: End-to-end times a child reports raw; the harness divides each by the
#: child's speed index.
_TIMES = ("wall_s", "cpu_s", "setup_s")


def summarise(passes: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold one workload's child reports into medians and failure counts.

    A run is one simulated ``RunSpec`` execution.  It fails if its pass
    raised, if its fingerprint departs from the pinned one or breaks an
    invariant (the child reports those), or if it differs between repeats.
    """
    units = {metric["name"]: metric["unit"] for metric in declaration()["end_to_end"]}
    attempted = sum(child["runs"] for child in passes)
    failures: List[str] = []
    failed = 0
    reference: Optional[List[str]] = None
    for index, child in enumerate(passes):
        if "error" in child:
            failed += child["runs"]
            failures.append("repeat %d raised:\n%s" % (index, child["error"]))
            continue
        bad = {run for run, _reason in child["failures"]}
        failures.extend("repeat %d run %d: %s" % (index, run, why) for run, why in child["failures"])
        if reference is None:
            reference = child["run_digests"]
        else:
            for run, (first, this) in enumerate(zip(reference, child["run_digests"])):
                if first != this and run not in bad:
                    bad.add(run)
                    failures.append("repeat %d run %d: differs from repeat 0" % (index, run))
        failed += len(bad)
    timed = [child for child in passes if child["mode"] != "traced" and "error" not in child]
    metrics = {}
    raw = {}
    if timed:
        for name in _TIMES:
            metrics[name] = _stat(
                [child[name] / child["speed_index"] for child in timed], units[name]
            )
            raw[name] = statistics.median(child[name] for child in timed)
        metrics["peak_rss_mb"] = _stat(
            [child["peak_rss_mb"] for child in timed], units["peak_rss_mb"]
        )
        raw["speed_index"] = statistics.median(child["speed_index"] for child in timed)
    summary = {
        "metrics": metrics,
        "raw": raw,
        "runs_attempted": attempted,
        "runs_failed": failed,
        "failures": failures,
        "pinned": all(child["pinned"] for child in passes),
    }
    traced = [child for child in passes if child["mode"] == "traced" and "error" not in child]
    if traced and timed:
        trace = dict(traced[-1]["trace"])
        traced_wall = traced[-1]["wall_s"] / traced[-1]["speed_index"]
        trace["trace.overhead_share"] = traced_wall / metrics["wall_s"]["median"] - 1.0
        trace["trace.host.speed_index"] = traced[-1]["speed_index"]
        summary["trace"] = trace
        summary["traced_wall_s"] = traced[-1]["wall_s"]
    return summary


def environment(seed: int, repeats: Optional[int]) -> Dict[str, Any]:
    """Where and on what these numbers were measured."""
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    try:
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "repeats": repeats,
    }
