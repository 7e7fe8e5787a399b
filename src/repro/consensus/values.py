"""Value digests for consensus engines.

Engines vote on digests rather than full values (full values only travel in
proposals), mirroring how the real protocols separate data dissemination from
agreement.  Within one simulation process a canonical ``repr`` is a stable
encoding; values used by the library (ICPS digest vectors, plain strings,
tuples) all have deterministic representations.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.utils.memo import instance_memo

#: Digest used for "nil" votes (Tendermint) and missing values.
NIL_DIGEST = b"\x00" * 32


def value_digest(value: Any) -> bytes:
    """Return a stable 32-byte digest of ``value``.

    Values may implement ``canonical_encoding() -> bytes`` to control their
    encoding; otherwise ``repr`` is used.  A frozen dataclass that does (the
    ICPS digest vector) has its digest memoised on the instance: every vote,
    QC check and view change of a run hashes the same ``(H, π)`` object.
    """
    if value is None:
        return NIL_DIGEST
    encode = getattr(value, "canonical_encoding", None)
    if not callable(encode):
        return _digest(repr(value).encode("utf-8"))
    params = getattr(type(value), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return _digest(encode())
    return instance_memo(value, "_value_digest", lambda: _digest(encode()))


def _digest(material: bytes) -> bytes:
    return hashlib.sha256(b"consensus-value|" + material).digest()
