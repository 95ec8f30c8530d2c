"""Model-based tests of the L1 LRU (:class:`repro.engine.memo.BoundedCache`).

The engine's sweep memo, its payload memo and every tuning service's L1 are
instances of this one class, so its contract is checked once, here:

* a Hypothesis state machine drives random put/get/clear sequences against
  an ``OrderedDict`` model of the same capacity and asserts the size bound,
  the exact recency (eviction) order, and that hits + misses equals the
  number of recorded gets;
* a threaded case hammers the engine memo's ``memo_get`` / ``memo_put``
  from 8 threads and asserts the same counter identity — no lost updates.
"""

from __future__ import annotations

import sys
import threading
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.engine.memo import (
    SWEEP_MEMO_ENTRIES,
    BoundedCache,
    clear_sweep_memo,
    memo_get,
    memo_put,
    sweep_memo_stats,
)

_KEYS = st.integers(0, 9)


class LRUMachine(RuleBasedStateMachine):
    """``BoundedCache`` against an ``OrderedDict`` LRU of the same capacity."""

    @initialize(capacity=st.integers(1, 6))
    def start(self, capacity):
        self.capacity = capacity
        self.cache = BoundedCache(capacity)
        self.model: OrderedDict[int, int] = OrderedDict()
        self.recorded_gets = self.hits = self.evictions = 0

    @rule(key=_KEYS, value=st.integers())
    def put(self, key, value):
        self.cache.put(key, value)
        self.model[key] = value
        self.model.move_to_end(key)
        if len(self.model) > self.capacity:
            self.model.popitem(last=False)
            self.evictions += 1

    @rule(key=_KEYS, record=st.booleans())
    def get(self, key, record):
        expected = self.model.get(key)
        if expected is not None:
            self.model.move_to_end(key)
        assert self.cache.get(key, record=record) == expected
        if record:
            self.recorded_gets += 1
            self.hits += expected is not None

    @rule()
    def clear(self):
        self.cache.clear()
        self.model.clear()
        self.recorded_gets = self.hits = self.evictions = 0

    @invariant()
    def matches_the_model(self):
        stats = self.cache.stats()
        assert stats["entries"] == len(self.cache) == len(self.model) <= self.capacity
        # Least recently used first: the order entries will be evicted in.
        assert list(self.cache._items) == list(self.model)
        assert stats["hits"] + stats["misses"] == self.recorded_gets
        assert stats["hits"] == self.hits
        assert stats["evictions"] == self.evictions


TestLRUMachine = LRUMachine.TestCase
TestLRUMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)


@settings(deadline=None, max_examples=10)
@given(ops=st.integers(200, 1500), span=st.integers(1, 2 * SWEEP_MEMO_ENTRIES))
def test_concurrent_memo_counts_every_lookup(ops, span):
    """8 threads of get-then-put-on-miss: every lookup is a hit or a miss."""
    clear_sweep_memo()
    threads = 8
    barrier = threading.Barrier(threads)

    def worker(t: int):
        def run():
            barrier.wait(timeout=30)
            for j in range(ops):
                key = ("hammer", (t * ops + j) % span)
                if memo_get(key) is None:
                    memo_put(key, j)
        return run

    pool = [threading.Thread(target=worker(t)) for t in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in pool)
    stats = sweep_memo_stats()
    clear_sweep_memo()
    assert stats["hits"] + stats["misses"] == threads * ops
    assert stats["size"] <= min(span, SWEEP_MEMO_ENTRIES)
