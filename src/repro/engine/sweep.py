"""The batched sweep driver: arrays in, lazily materialized sweeps out.

``sweep_op`` evaluates one operator's whole configuration space with the
batched roofline (:mod:`repro.engine.batched`), stable-sorts the totals,
and wraps the result in the ordinary
:class:`~repro.autotuner.tuner.SweepResult` API.  Individual
:class:`~repro.autotuner.tuner.ConfigMeasurement` objects are only built
when a consumer actually touches them — ``sweep.best`` materializes one
object, a violin summary none at all (it reads the sorted time array).

Evaluation is factored through serializable *payloads*
(:mod:`repro.engine.store`): the same arrays flow from a fresh batched
evaluation, from the on-disk L2 store, or back from a scheduler worker
process, and ``sweep_from_payload`` turns any of them into a sweep — so
every path is bit-identical by construction.

Caching is two-tier: the in-process memo (:mod:`repro.engine.memo`, L1)
in front of the persistent content-addressed store
(:mod:`repro.engine.store`, L2, enabled via ``REPRO_SWEEP_STORE`` or
``set_sweep_store``).  ``memo=False`` bypasses both tiers and recomputes
cold — the pinned "serial, store-free engine path".

Results are bit-identical to :func:`repro.autotuner.tuner.sweep_op_reference`
— same measurements, same order — which tier-1 pins.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable

import numpy as np

from repro import obs
from repro.hardware.cost_model import CostModel, KernelTime
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.operator import OpSpec

from .memo import (
    clear_sweep_memo,
    memo_get,
    memo_key,
    memo_put,
    payload_memo_get,
    payload_memo_put,
    sweep_memo_stats,
)
from .store import (
    CacheMismatch,
    SweepStore,
    compute_payload,
    compute_payload_delta,
    get_sweep_store,
    space_from_payload,
    structural_sweep_digest,
    sweep_digest,
)

__all__ = [
    "sweep_op",
    "sweep_from_payload",
    "load_or_compute_payload",
    "delta_payload_from_store",
    "contraction_time_split",
    "clear_sweep_memo",
    "sweep_memo_stats",
]


def delta_payload_from_store(
    op: OpSpec,
    env: DimEnv,
    gpu: GPUSpec,
    *,
    cap: int | None,
    seed: int,
    store: SweepStore | None,
) -> dict | None:
    """Delta-re-sweep from a structural twin in ``store``, or ``None``.

    Probes the store's structural sidecar for a payload that differs from
    this sweep only in dim sizes and re-evaluates its persisted skeleton at
    the new sizes (:func:`compute_payload_delta`) — bit-identical to a cold
    sweep, minus the enumeration work.  Returns ``None`` when there is no
    store, no twin exists, or the twin turns out unusable; the caller
    falls back to a cold sweep.  Does **not** save the result: callers
    persist it under the new exact digest themselves.
    """
    if store is None:
        return None
    structural = structural_sweep_digest(op, env, gpu, cap=cap, seed=seed)
    base = store.load_structural(structural)
    if base is None:
        return None
    try:
        payload = compute_payload_delta(
            op, env, gpu, cap=cap, seed=seed, base=base, structural=structural
        )
    except CacheMismatch:
        return None
    store.record_delta_hit()
    return payload


class PreSortedMeasurements(Sequence):
    """A lazily materialized, already-sorted measurement sequence.

    Behaves like the plain ``list[ConfigMeasurement]`` the scalar sweep
    builds, but constructs each measurement object on first access.
    ``SweepResult.__post_init__`` re-sorts its measurements by ``total_us``;
    this sequence is constructed in exactly that order, so :meth:`sort` is
    a no-op rather than a forced materialization.
    """

    __slots__ = ("_n", "_build", "_totals", "_items", "_space", "_order")

    def __init__(
        self,
        n: int,
        build: Callable[[int], object],
        sorted_totals: np.ndarray,
        *,
        space=None,
        order: np.ndarray | None = None,
    ) -> None:
        self._n = n
        self._build = build
        self._totals = sorted_totals
        self._items: list[object | None] = [None] * n
        # The enumerated config space and the stable-sort permutation, kept
        # so array consumers (the configsel fast path) can read per-
        # measurement layouts without materializing measurement objects.
        self._space = space
        self._order = order

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        item = self._items[i]
        if item is None:
            item = self._items[i] = self._build(i)
        return item

    def sort(self, *args, **kwargs) -> None:
        """No-op: the sequence is constructed sorted by ``total_us``."""

    def times_us(self) -> list[float]:
        """Sorted totals without materializing measurement objects."""
        return self._totals.tolist()

    def totals_array(self) -> np.ndarray:
        """Sorted totals as a float64 array (no copy, no materialization)."""
        return self._totals

    def operand_layout_index(self):
        """Per-operand layout vocabularies and per-measurement layout ids.

        Returns ``(vocabs, ids)`` where ``vocabs[s]`` lists the layout
        choices of operand slot ``s`` (inputs then outputs) and ``ids[s]``
        maps each measurement — in sorted order — to its index in
        ``vocabs[s]``.  Derived straight from the enumerated space plus the
        sort permutation, so no measurement objects are built.  ``None``
        when the sequence was constructed without a space.
        """
        if self._space is None or self._order is None:
            return None
        from .space import ContractionSpace

        space, order = self._space, self._order
        if isinstance(space, ContractionSpace):
            ids = space.triple_idx[order]
            vocabs = [
                [t[0] for t in space.triples],
                [t[1] for t in space.triples],
                [t[2] for t in space.triples],
            ]
            return vocabs, [ids, ids, ids]
        vocabs = [list(choices) for choices in space.layout_choices]
        idx = space.idx
        return vocabs, [idx[order, o] for o in range(space.num_operands)]

    def __eq__(self, other) -> bool:
        if isinstance(other, (PreSortedMeasurements, list)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable cache inside

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        built = sum(1 for x in self._items if x is not None)
        return f"<PreSortedMeasurements n={self._n} materialized={built}>"


def sweep_from_payload(op: OpSpec, payload: dict):
    """Wrap one evaluated payload as a lazily materialized ``SweepResult``.

    The payload's timing arrays are name-free; configurations materialize
    with ``op``'s name, so one (contraction) payload can serve every
    structurally identical operator.
    """
    from repro.autotuner.tuner import ConfigMeasurement, SweepResult

    space = space_from_payload(op, payload)
    order = payload["order"]
    compute_us = payload["compute_us"]
    memory_us = payload["memory_us"]
    launch_us = float(payload["launch_us"])
    sorted_totals = payload["sorted_totals"]

    def build(i: int):
        j = int(order[i])
        return ConfigMeasurement(
            config=space.config_at(j),
            time=KernelTime(
                compute_us=float(compute_us[j]),
                memory_us=float(memory_us[j]),
                launch_us=launch_us,
            ),
        )

    measurements = PreSortedMeasurements(
        len(order), build, sorted_totals, space=space, order=order
    )
    return SweepResult(op=op, measurements=measurements)


def load_or_compute_payload(
    op: OpSpec,
    env: DimEnv,
    gpu: GPUSpec,
    *,
    cap: int | None,
    seed: int,
    store: SweepStore | None = None,
) -> dict:
    """L2 lookup with delta-re-sweep and compute-and-persist fallbacks.

    Resolution order on an exact miss: first try a structural twin
    (:func:`delta_payload_from_store`), then a cold batched evaluation;
    either result is persisted under the exact digest.  A mismatched or
    corrupt store entry (``CacheMismatch``) is recomputed and overwritten,
    never reused.  With no store configured this is a plain batched
    evaluation.
    """
    store = store if store is not None else get_sweep_store()
    if store is None:
        return compute_payload(op, env, gpu, cap=cap, seed=seed)
    digest = sweep_digest(op, env, gpu, cap=cap, seed=seed)
    with obs.span(
        "engine.payload", op=op.name, digest=digest
    ) as payload_span:
        try:
            payload = store.load(digest)
            tier = "l2"
        except CacheMismatch:
            payload = None
        if payload is None:
            payload = delta_payload_from_store(
                op, env, gpu, cap=cap, seed=seed, store=store
            )
            tier = "delta"
            if payload is None:
                payload = compute_payload(op, env, gpu, cap=cap, seed=seed)
                tier = "computed"
            store.save(digest, payload)
        payload_span.set_attr("resolve.tier", tier)
    return payload


def contraction_time_split(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    store: SweepStore | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A contraction sweep's sorted totals, split by requested TC mode.

    Returns ``(tc_totals_us, fp16_totals_us)``, each ascending — the two
    distributions of a Fig.-4 tile.  Served through the L2 store when one
    is active; the payload-layout knowledge (``sorted_totals`` is permuted
    by ``order``, ``tc_flags`` is in evaluation order) stays inside the
    engine.
    """
    cost = cost or CostModel()
    digest = sweep_digest(op, env, cost.gpu, cap=None, seed=0)
    payload = payload_memo_get(digest)
    if payload is None:
        payload = load_or_compute_payload(
            op, env, cost.gpu, cap=None, seed=0, store=store
        )
        payload_memo_put(digest, payload)
    totals = payload["sorted_totals"]
    tc_mask = payload["tc_flags"][payload["order"]]
    return totals[tc_mask], totals[~tc_mask]


def sweep_op(
    op: OpSpec,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    cap: int | None = 2000,
    seed: int = 0x5EED,
    memo: bool = True,
    store: SweepStore | None = None,
):
    """Batched equivalent of the scalar exhaustive sweep.

    Bit-identical to :func:`repro.autotuner.tuner.sweep_op_reference`.  With
    ``memo=True`` (default) results are shared process-wide (L1) and, when a
    store is active, persisted across processes (L2); ``memo=False``
    bypasses both tiers.  ``store`` overrides the process-active store for
    this call.
    """
    cost = cost or CostModel()
    if not memo:
        return sweep_from_payload(
            op, compute_payload(op, env, cost.gpu, cap=cap, seed=seed)
        )
    key = memo_key(op, env, cost.gpu, cap=cap, seed=seed)
    sweep = memo_get(key)
    if sweep is None:
        payload = load_or_compute_payload(
            op, env, cost.gpu, cap=cap, seed=seed, store=store
        )
        sweep = sweep_from_payload(op, payload)
        memo_put(key, sweep)
    return sweep
