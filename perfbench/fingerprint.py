"""The correctness gate: what one simulated run must reproduce.

A run's *fingerprint* is the part of ``ProtocolRunResult.summary()`` that a
host-time optimisation must leave alone: success, latency, per-authority
consensus digests, message and byte counts, end time, and the ``clients`` /
``faults`` blocks.  For the pinned seed it is compared with
``perfbench/expected/seed7.json`` (ints exact, floats within 1e-6 relative —
the repository's cross-engine conformance level); for any other seed the
repeats must agree with each other exactly and each run must satisfy
:func:`invariant_violations`.

There are no reference measurements from Shadow in the repository, so the
simulated statistics are pinned for identity, not validated.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Relative tolerance for pinned floats.
FLOAT_REL_TOL = 1e-6

#: Format of ``expected/seed<N>.json``.
EXPECTED_FORMAT = 1

#: Consensus digests are pinned by their first 16 hex digits: 64 bits are
#: plenty to tell two documents apart and keep the pinned file reviewable.
_DIGEST_PREFIX = 16

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def expected_path(seed: int) -> Path:
    """Where the pinned fingerprints of ``seed`` live (the file may not exist)."""
    return EXPECTED_DIR / ("seed%d.json" % seed)


def fingerprint(summary: Dict[str, Any]) -> Dict[str, Any]:
    """Reduce a ``summary()`` dict to the fields the gate pins."""
    stats = summary["stats"]
    return {
        "protocol": summary["protocol"],
        "success": summary["success"],
        "latency": summary["latency"],
        "end_time": summary["end_time"],
        "consensus_digests": [
            outcome["consensus_digest"][:_DIGEST_PREFIX]
            if outcome["success"] and outcome["consensus_digest"]
            else None
            for outcome in summary["outcomes"]
        ],
        "messages_sent": stats["messages_sent"],
        "messages_delivered": stats["messages_delivered"],
        "messages_timed_out": stats["messages_timed_out"],
        "messages_dropped": stats["messages_dropped"],
        "bytes_sent": sum(stats["bytes_sent"].values()),
        "bytes_delivered": sum(stats["bytes_delivered"].values()),
        "faults": summary["faults"],
        "clients": summary["clients"],
    }


def run_digest(fp: Dict[str, Any]) -> str:
    """A short exact hash of one fingerprint (cross-repeat identity)."""
    text = json.dumps(fp, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def mismatch(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """The first place ``actual`` departs from ``expected``, or None.

    Ints, bools, strings and None compare exactly; a float on either side
    compares within :data:`FLOAT_REL_TOL` relative.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if sorted(expected) != sorted(actual):
            return "%s: keys %s != %s" % (path or ".", sorted(actual), sorted(expected))
        for key in sorted(expected):
            found = mismatch(expected[key], actual[key], "%s.%s" % (path, key))
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return "%s: length %d != %d" % (path or ".", len(actual), len(expected))
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = mismatch(left, right, "%s[%d]" % (path, index))
            if found:
                return found
        return None
    number = (int, float)
    if (
        isinstance(expected, number)
        and isinstance(actual, number)
        and not isinstance(expected, bool)
        and not isinstance(actual, bool)
        and (isinstance(expected, float) or isinstance(actual, float))
    ):
        scale = max(abs(expected), abs(actual))
        if abs(expected - actual) <= FLOAT_REL_TOL * scale:
            return None
    elif type(expected) is type(actual) and expected == actual:
        return None
    return "%s: %r != pinned %r" % (path or ".", actual, expected)


def invariant_violations(fp: Dict[str, Any]) -> List[str]:
    """What must hold for a run on any seed, pinned or not."""
    problems = []
    digests = {digest for digest in fp["consensus_digests"] if digest is not None}
    if len(digests) > 1:
        problems.append("successful authorities hold %d different consensuses" % len(digests))
    if fp["messages_delivered"] > fp["messages_sent"]:
        problems.append(
            "delivered %d > sent %d" % (fp["messages_delivered"], fp["messages_sent"])
        )
    fresh = fp["clients"].get("fresh_fraction")
    if fresh is not None and not 0.0 <= fresh <= 1.0:
        problems.append("fresh_fraction %r outside [0, 1]" % (fresh,))
    return problems


def check_runs(
    fingerprints: List[Dict[str, Any]], pinned: Optional[List[Dict[str, Any]]]
) -> List[List[Any]]:
    """``[run index, reason]`` for every run that fails the gate."""
    failures: List[List[Any]] = []
    if pinned is not None and len(pinned) != len(fingerprints):
        return [
            [index, "pinned file has %d runs, workload has %d" % (len(pinned), len(fingerprints))]
            for index in range(len(fingerprints))
        ]
    for index, fp in enumerate(fingerprints):
        reasons = invariant_violations(fp)
        if pinned is not None:
            found = mismatch(pinned[index], fp)
            if found:
                reasons.append(found)
        if reasons:
            failures.append([index, "; ".join(reasons)])
    return failures


def load_pinned(path: Optional[Path], workload: str, smoke: bool) -> Optional[List[Dict[str, Any]]]:
    """The pinned fingerprints of ``workload`` in ``path``, if there are any."""
    if path is None or not path.is_file():
        return None
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if data.get("format") != EXPECTED_FORMAT:
        raise ValueError("%s: unsupported expected-file format %r" % (path, data.get("format")))
    return data["smoke" if smoke else "full"].get(workload)
