"""Canonical JSON and the content digest every persistent key is built on.

Sweep-store and structural digests, registry schedule digests, wire
request digests, cost-model params digests and calibration record digests
are all ``SHA-256(canonical JSON)``.  Keeping the serialization in one
place keeps every one of those identities byte-stable (pinned by
``tests/test_digests.py``).  This module imports nothing from ``repro``,
so any layer can use it.
"""

from __future__ import annotations

import hashlib
import json

__all__ = ["canonical_json_bytes", "content_digest"]


def canonical_json_bytes(obj) -> bytes:
    """The one serialization every digest and response uses: sorted keys,
    no spaces, ASCII.

    Determinism matters: concurrent clients of one digest must receive
    byte-identical payloads (pinned by the load benchmark), and a digest
    must not depend on dict insertion order.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def content_digest(obj) -> str:
    """Hex SHA-256 of :func:`canonical_json_bytes` of ``obj``."""
    return hashlib.sha256(canonical_json_bytes(obj)).hexdigest()
