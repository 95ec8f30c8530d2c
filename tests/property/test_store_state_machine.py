"""Model-based test: several ``SweepStore`` handles sharing one directory.

Hypothesis drives saves, exact loads, structural probes, budget eviction,
an external prune and byte corruption through three handles on one store
directory — two unbounded, one with a small ``max_bytes`` — the way fleet
workers and daemons share ``REPRO_SWEEP_STORE``.  Every step is checked
against an explicit model:

* ``saved``: exact digest -> the payload saved under it, plus whether its
  npz is live, corrupt or gone (pruned or evicted);
* ``newest``: structural digest -> the exact digest saved most recently
  under it, by any handle.

Invariants: every handle, and a fresh one, finds the newest twin of each
structural digest whose npz is live; loads are bit-identical to the saved
payload; a pruned, evicted or corrupt twin is never served.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, rule
from strategies import contraction_ops, kernel_ops

from repro.engine.store import CacheMismatch, SweepStore, compute_payload, sweep_digest
from repro.hardware.cost_model import CostModel

GPU = CostModel().gpu

#: Fits two of the largest contraction payloads (~225 KB each), so the
#: bounded handle evicts every few saves.
_BUDGET = 512 * 1024

#: Payloads are a pure function of their digest: compute each once.
_PAYLOADS: dict[str, dict] = {}

_PROBLEMS = st.one_of(
    contraction_ops().map(lambda c: (*c, 2000, 0x5EED)),
    kernel_ops(),
)


def _payload(problem) -> tuple[str, dict]:
    op, env, cap, seed = problem
    digest = sweep_digest(op, env, GPU, cap=cap, seed=seed)
    if digest not in _PAYLOADS:
        _PAYLOADS[digest] = compute_payload(op, env, GPU, cap=cap, seed=seed)
    return digest, _PAYLOADS[digest]


def _assert_same(saved: dict, loaded: dict, keys) -> None:
    for key in keys:
        a, b = saved[key], loaded[key]
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, key
            assert a.tobytes() == b.tobytes(), key
        else:
            assert a == b, key


class SharedStoreMachine(RuleBasedStateMachine):
    digests = Bundle("digests")

    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-store-machine-")
        self.handles = [
            SweepStore(self.root),
            SweepStore(self.root),
            SweepStore(self.root, max_bytes=_BUDGET),
        ]
        self.saved: dict[str, dict] = {}
        self.state: dict[str, str] = {}  # "live" | "corrupt" | "gone"
        self.newest: dict[str, str] = {}

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    def _path(self, digest: str):
        return self.handles[0].path_for(digest)

    @rule(target=digests, handle=st.sampled_from(range(3)), problem=_PROBLEMS)
    def save(self, handle, problem):
        digest, payload = _payload(problem)
        self.handles[handle].save(digest, payload)
        self.saved[digest] = payload
        self.state[digest] = "live"
        self.newest[payload["structural"]] = digest
        # Only the bounded handle evicts, never the entry it just wrote;
        # what it took is read back from disk.
        for d, state in self.state.items():
            if state != "gone" and not self._path(d).exists():
                assert handle == 2 and d != digest
                self.state[d] = "gone"
        return digest

    @rule(handle=st.sampled_from(range(3)), digest=digests)
    def load(self, handle, digest):
        store = self.handles[handle]
        state = self.state[digest]
        if state == "corrupt":
            with pytest.raises(CacheMismatch):
                store.load(digest)
        elif state == "gone":
            assert store.load(digest) is None
        else:
            saved = self.saved[digest]
            _assert_same(saved, store.load(digest), saved.keys())

    @rule(handle=st.sampled_from(range(3)), digest=digests)
    def load_structural(self, handle, digest):
        self._check_probe(self.handles[handle], self.saved[digest]["structural"])

    @rule(digest=digests)
    def prune(self, digest):
        """An external age-out, like the nightly CI prune."""
        self._path(digest).unlink(missing_ok=True)
        self.state[digest] = "gone"

    @rule(digest=digests)
    def corrupt(self, digest):
        self._path(digest).write_bytes(b"not an npz")
        self.state[digest] = "corrupt"

    def _check_probe(self, store: SweepStore, structural: str) -> None:
        newest = self.newest[structural]
        got = store.load_structural(structural)
        if self.state[newest] != "live":
            assert got is None
            return
        assert got is not None and got["digest"] == newest
        _assert_same(self.saved[newest], got, got.keys() - {"digest"})

    @invariant()
    def every_handle_finds_the_newest_live_twin(self):
        for store in (*self.handles, SweepStore(self.root)):
            for structural in self.newest:
                self._check_probe(store, structural)


SharedStoreMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)
TestSharedStore = SharedStoreMachine.TestCase
