"""In-process sweep caching (the L1 tier): one bounded, locked LRU.

Sweeping is deterministic given ``(operator, dim env, GPU, cost-model
version)`` plus the sampling knobs, so repeated evaluations — the same
graph swept by the tuner, the baselines, the configuration selector and
the sensitivity sweeps — can share one result.  Keys hash the full frozen
IR objects (OpSpec, DimEnv, GPUSpec are all frozen dataclasses), so two
structurally identical ops memo-hit even across separately built graphs.

:class:`BoundedCache` is the only in-process sweep cache: the engine's
sweep memo and payload memo below are instances of it, and so is each
tuning daemon's digest-keyed L1.  Every instance holds at most a fixed
number of entries and evicts the least recently used one past it, so a
long-lived daemon stays bounded by construction; its counters move under
the same lock as its entries, so concurrent request threads never lose a
hit or a miss.

This memo dies with the interpreter; the persistent content-addressed
store of :mod:`repro.engine.store` sits under it as L2.

``COST_MODEL_VERSION`` is part of every key: bumping it (see
:mod:`repro.hardware.cost_model`) invalidates the whole memo, mirroring how
persisted store payloads are rejected on version mismatch.

Memoized :class:`~repro.autotuner.tuner.SweepResult` objects are shared —
treat them as immutable (every in-repo consumer does).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable

from repro.hardware.params import active_cost_model_version
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.operator import OpClass, OpSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.autotuner.tuner import SweepResult

__all__ = [
    "BoundedCache",
    "SWEEP_MEMO_ENTRIES",
    "memo_key",
    "memo_get",
    "memo_put",
    "payload_memo_get",
    "payload_memo_put",
    "clear_sweep_memo",
    "sweep_memo_stats",
]

#: Entry bound of the engine's sweep memo.  An ``optimize_encoder`` call
#: adds ~66 entries per dim env, so this holds the sweeps of ~60 envs.
SWEEP_MEMO_ENTRIES = 4096


class BoundedCache:
    """A thread-safe LRU mapping with an entry cap."""

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._items: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, *, record: bool = True):
        """The cached value, refreshed to most-recently-used; else None.

        ``record=False`` skips the hit/miss counters — for internal
        re-checks that would otherwise double-count one request.
        """
        with self._lock:
            try:
                value = self._items[key]
            except KeyError:
                if record:
                    self.misses += 1
                return None
            self._items.move_to_end(key)
            if record:
                self.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            while len(self._items) > self.max_entries:
                self._items.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._items.clear()
            self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._items),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


_MEMO = BoundedCache(SWEEP_MEMO_ENTRIES)
#: Digest-keyed raw payloads, for consumers that read payload arrays
#: directly (e.g. the Fig.-4 tensor-core split) rather than SweepResults.
_PAYLOAD_MEMO = BoundedCache(SWEEP_MEMO_ENTRIES)


def memo_key(
    op: OpSpec, env: DimEnv, gpu: GPUSpec, *, cap: int | None, seed: int
) -> Hashable:
    """Cache key for one sweep.

    Contraction sweeps are exhaustive (``cap``/``seed`` never apply), so
    their keys drop the sampling knobs and hit across different caps.
    """
    if op.op_class is OpClass.TENSOR_CONTRACTION:
        knobs: tuple = ("contraction",)
    else:
        knobs = ("kernel", cap, seed)
    # The *served* version, resolved per call: promoting a calibration
    # candidate changes every key, which is the whole-memo invalidation.
    return (active_cost_model_version(), op, env, gpu, knobs)


def memo_get(key: Hashable) -> "SweepResult | None":
    return _MEMO.get(key)


def memo_put(key: Hashable, sweep: "SweepResult") -> None:
    _MEMO.put(key, sweep)


def payload_memo_get(digest: str) -> dict | None:
    return _PAYLOAD_MEMO.get(digest)


def payload_memo_put(digest: str, payload: dict) -> None:
    _PAYLOAD_MEMO.put(digest, payload)


def clear_sweep_memo() -> None:
    """Drop all memoized sweeps and payloads (and reset counters)."""
    _MEMO.clear()
    _PAYLOAD_MEMO.clear()


def sweep_memo_stats() -> dict[str, int]:
    """Counters for tests and diagnostics."""
    stats = _MEMO.stats()
    return {"size": stats["entries"], "hits": stats["hits"], "misses": stats["misses"]}
