"""Global configuration selection (Sec. VI-A) and end-to-end assembly.

Builds the layered configuration DAG over the forward primary chain
(Fig. 6), runs SSSP to pick the globally best layout sequence — allowing
locally suboptimal operators when a layout change downstream pays off
("Sometimes locally suboptimal layouts need to be selected to improve
performance globally", Sec. VI-B) — then infers the configurations of all
remaining operators (backward, dW, residual side chains) from the pinned
activation layouts, inserting explicit transposes where no compatible
configuration exists.

Two selection pipelines produce the same result, mirroring the
``sweep_op`` / ``sweep_op_reference`` contract of the sweep engine:

* the **scalar reference**: explicit :class:`~repro.configsel.sssp.ConfigGraph`
  nodes and edges, node-by-node relaxation, and Python scans over every
  sweep measurement — slow but obviously faithful;
* the **vectorized fast path** (default; ``fast=False`` selects the
  scalar reference): each chain step becomes a
  dense ``(n_layouts_in, n_layouts_out)`` min-plus cost matrix
  (:func:`build_chain_matrices`), the chain is solved with one broadcast
  relaxation per layer (:func:`~repro.configsel.sssp.shortest_path_layered`),
  and remaining-operator inference runs as masked argmins over the sweep's
  array views (:meth:`~repro.autotuner.tuner.SweepResult.totals_array` /
  ``operand_layout_arrays``) instead of per-measurement Python loops.

The fast path is **bit-identical** to the scalar reference: chosen
configurations, inserted transposes and the chain cost are equal object
for object (tier-1 and ``benchmarks/test_configsel_speedup.py`` pin this
across the full graph matrix).  Ties resolve identically because scalar
scans keep the first minimum in sorted-measurement order and ``np.argmin``
does the same, and every floating-point sum is associated in the same
order on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from repro import obs
from repro.autotuner.tuner import ConfigMeasurement, SweepResult
from repro.engine import sweep_graph
from repro.hardware.cost_model import CostModel
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.dtypes import DType
from repro.ir.graph import DataflowGraph
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.layouts.layout import Layout, all_layouts

from .chain import ChainStep, primary_chain, project_layout
from .sssp import ConfigGraph, SSSPError, shortest_path, shortest_path_layered

__all__ = [
    "SelectedConfiguration",
    "TransposeInsertion",
    "select_configurations",
    "build_config_graph",
    "build_chain_matrices",
    "ChainMatrices",
]

_SOURCE = ("source",)
_TARGET = ("target",)

# ---------------------------------------------------------------------------
# Transpose-cost memo
# ---------------------------------------------------------------------------

#: Transpose cost depends only on the tensor's dims/sizes/dtype and the
#: GPU — never on the particular (from, to) layout pair — yet selection
#: re-costs the same tensors across chain steps, penalties and inference.
#: One process-wide LRU turns those repeats into cache hits.  Bounded: the
#: daemon optimizes arbitrary client-supplied dims and GPU specs, and a
#: weeks-lived process must not grow with request variety.
@lru_cache(maxsize=65536)
def _transpose_time_us(
    gpu: GPUSpec, dtype: DType, dims: tuple[str, ...], sizes: tuple[int, ...]
) -> float:
    spec = TensorSpec("transposed", dims, dtype)
    env = DimEnv(dict(zip(dims, sizes)))
    return CostModel(gpu).time_transpose(spec, env).total_us


def _transpose_us(cost: CostModel, spec: TensorSpec, env: DimEnv) -> float:
    return _transpose_time_us(
        cost.gpu, spec.dtype, spec.dims, tuple(env[d] for d in spec.dims)
    )


@dataclass(frozen=True)
class TransposeInsertion:
    """An explicit layout-change kernel inserted between two operators."""

    tensor: str
    from_layout: Layout
    to_layout: Layout
    time_us: float
    before_op: str


@dataclass
class SelectedConfiguration:
    """The assembled end-to-end implementation."""

    chain: list[ChainStep]
    chosen: dict[str, ConfigMeasurement]
    pinned_layouts: dict[str, Layout]
    transposes: list[TransposeInsertion] = field(default_factory=list)
    chain_cost_us: float = 0.0
    #: Content digest this selection was registered under (when
    #: ``select_configurations(register=...)`` persisted it), else None.
    registered_digest: str | None = None

    def op_time_us(self, op_name: str) -> float:
        return self.chosen[op_name].total_us

    @property
    def transpose_us(self) -> float:
        return sum(t.time_us for t in self.transposes)

    @property
    def total_us(self) -> float:
        """End-to-end predicted time: all kernels plus inserted transposes."""
        return sum(m.total_us for m in self.chosen.values()) + self.transpose_us

    def stage_total_us(self, graph: DataflowGraph, *, backward: bool) -> float:
        total = 0.0
        for name, m in self.chosen.items():
            op = graph.op(name)
            if op.stage.is_backward == backward:
                total += m.total_us
        for t in self.transposes:
            op = graph.op(t.before_op)
            if op.stage.is_backward == backward:
                total += t.time_us
        return total


# ---------------------------------------------------------------------------
# Chain graph: dense matrices (fast) and explicit DAG (scalar reference)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChainMatrices:
    """The Fig.-6 layered DAG in dense min-plus form.

    ``boundaries[i]`` enumerates the layouts of chain step ``i``'s input
    tensor (``all_layouts`` order — the row/column order of every matrix);
    ``transpose_us[i]`` is the uniform off-diagonal weight of the boundary's
    transpose block; ``op_cost[i]`` the ``(n_i, n_{i+1})`` operator-edge
    matrix (the final step's matrix has one target column).
    """

    boundaries: list[tuple[Layout, ...]]
    transpose_us: list[float]
    op_cost: list[np.ndarray]


def build_chain_matrices(
    graph: DataflowGraph,
    chain: list[ChainStep],
    sweeps: dict[str, SweepResult],
    env: DimEnv,
    cost: CostModel,
) -> ChainMatrices:
    """Chain-step cost matrices straight from the sweep's array views.

    For each step, every measurement contributes its ``total_us`` to the
    ``(in layout, projected out layout)`` cell it occupies and each cell
    keeps its minimum — the same per-layout-pair minima the scalar
    ``build_config_graph`` derives measurement by measurement, computed
    here with one NumPy gather/scatter per step.
    """
    boundaries = [
        tuple(all_layouts(graph.container(step.in_tensor).dims)) for step in chain
    ]
    positions = [{l.dims: k for k, l in enumerate(b)} for b in boundaries]
    transpose_us = [
        _transpose_us(cost, graph.container(step.in_tensor), env) for step in chain
    ]
    op_cost: list[np.ndarray] = []
    for idx, step in enumerate(chain):
        sweep = sweeps[step.op_name]
        op = graph.op(step.op_name)
        totals = sweep.totals_array()
        vocabs, ids = sweep.operand_layout_arrays()
        slot_out = len(op.inputs) + step.out_index

        rows_of = np.array(
            [
                positions[idx].get(v.dims, -1) if v is not None else -1
                for v in vocabs[step.in_index]
            ],
            dtype=np.int64,
        )
        if idx + 1 < len(chain):
            out_spec = graph.container(step.out_tensor)
            next_spec = graph.container(chain[idx + 1].in_tensor)
            identity = step.out_tensor == chain[idx + 1].in_tensor

            def col_of(v: Layout | None) -> int:
                if v is None:
                    return -1
                projected = v if identity else project_layout(v, out_spec, next_spec)
                if projected is None:
                    return -1
                return positions[idx + 1].get(projected.dims, -1)

            cols_of = np.array([col_of(v) for v in vocabs[slot_out]], dtype=np.int64)
            n_cols = len(boundaries[idx + 1])
        else:
            cols_of = np.zeros(len(vocabs[slot_out]), dtype=np.int64)
            n_cols = 1

        rows = rows_of[ids[step.in_index]]
        cols = cols_of[ids[slot_out]]
        valid = (rows >= 0) & (cols >= 0)
        m = np.full((len(boundaries[idx]), n_cols), np.inf)
        np.minimum.at(m, (rows[valid], cols[valid]), totals[valid])
        if not np.isfinite(m).any():
            raise SSSPError(f"no usable configurations for chain op {step.op_name!r}")
        op_cost.append(m)
    return ChainMatrices(
        boundaries=boundaries, transpose_us=transpose_us, op_cost=op_cost
    )


def build_config_graph(
    graph: DataflowGraph,
    chain: list[ChainStep],
    sweeps: dict[str, SweepResult],
    env: DimEnv,
    cost: CostModel,
) -> ConfigGraph:
    """The layered Fig.-6 DAG: layout nodes per chain boundary, operator
    edges weighted by layout-conditioned minima, and transpose edges.

    This is the scalar reference construction (dict-keyed per-layout-pair
    minima, one edge at a time).  Edges are inserted in ``all_layouts``
    enumeration order so the in-edge order of every node — which is what
    :func:`~repro.configsel.sssp.shortest_path` breaks distance ties with —
    matches the row order of :func:`build_chain_matrices` exactly.
    """
    cg = ConfigGraph()
    cg.add_node(_SOURCE)
    cg.add_node(_TARGET)

    def boundary_layouts(step_idx: int) -> list[Layout]:
        step = chain[step_idx]
        spec = graph.container(step.in_tensor)
        return list(all_layouts(spec.dims))

    # Each boundary is split into an arrival and a departure column so that
    # transpose edges (arrival layout -> departure layout) keep the graph a
    # DAG; operator edges leave departures and enter the next arrival.
    def arr(step_idx: int, layout: Layout):
        return ("t", step_idx, layout.dims)

    def dep(step_idx: int, layout: Layout):
        return ("dep", step_idx, layout.dims)

    # Source: the layer input's layout is free to choose.
    for l in boundary_layouts(0):
        cg.add_edge(_SOURCE, arr(0, l), 0.0)

    for idx, step in enumerate(chain):
        sweep = sweeps[step.op_name]
        out_spec = graph.container(step.out_tensor)
        next_spec = graph.container(chain[idx + 1].in_tensor) if idx + 1 < len(chain) else None

        # Transpose edges within this boundary (0-cost to stay put).
        in_spec = graph.container(step.in_tensor)
        t_time = _transpose_us(cost, in_spec, env)
        layouts = boundary_layouts(idx)
        for a in layouts:
            cg.add_edge(arr(idx, a), dep(idx, a), 0.0)
            for b in layouts:
                if a != b:
                    cg.add_edge(arr(idx, a), dep(idx, b), t_time)

        # Operator edges: (in layout at this boundary) -> (projected out
        # layout at the next boundary), weighted by the layout-conditioned
        # minimum runtime.  The per-(in, out)-layout minima come from the
        # sweep's precomputed index; projection then runs once per distinct
        # layout pair rather than once per measurement.
        grouped: dict[tuple[tuple[str, ...], tuple[str, ...] | None], float] = {}
        for (lin_dims, lout_dims), t_us in sweep.layout_pair_minima(
            step.in_index, step.out_index
        ).items():
            if next_spec is not None:
                lout = Layout(lout_dims)
                projected = (
                    lout
                    if step.out_tensor == chain[idx + 1].in_tensor
                    else project_layout(lout, out_spec, next_spec)
                )
                if projected is None:
                    continue
                key = (lin_dims, projected.dims)
            else:
                key = (lin_dims, None)
            if key not in grouped or t_us < grouped[key]:
                grouped[key] = t_us
        if not grouped:
            raise SSSPError(f"no usable configurations for chain op {step.op_name!r}")
        in_pos = {l.dims: k for k, l in enumerate(layouts)}
        out_pos = (
            {l.dims: k for k, l in enumerate(boundary_layouts(idx + 1))}
            if next_spec is not None
            else {}
        )
        for (lin_dims, lout_dims), w in sorted(
            grouped.items(),
            key=lambda kv: (in_pos[kv[0][0]], out_pos.get(kv[0][1], 0)),
        ):
            src = dep(idx, Layout(lin_dims))
            dst = _TARGET if lout_dims is None else arr(idx + 1, Layout(lout_dims))
            cg.add_edge(src, dst, w)
    return cg


def _decode_path(
    chain: list[ChainStep], path: list
) -> tuple[list[tuple[Layout, Layout | None]], list[tuple[int, Layout, Layout]]]:
    """Decode the SSSP path.

    Returns per-step ``(consumed layout, produced arrival layout or None)``
    plus the chain transposes as ``(step index, from, to)`` triples.
    """
    arrivals: dict[int, Layout] = {}
    departures: dict[int, Layout] = {}
    for nd in path:
        if isinstance(nd, tuple) and len(nd) == 3:
            kind, idx, dims = nd
            if kind == "t":
                arrivals[idx] = Layout(dims)
            elif kind == "dep":
                departures[idx] = Layout(dims)
    steps: list[tuple[Layout, Layout | None]] = []
    transposes: list[tuple[int, Layout, Layout]] = []
    for i in range(len(chain)):
        consumed = departures[i]
        if arrivals[i] != consumed:
            transposes.append((i, arrivals[i], consumed))
        steps.append((consumed, arrivals.get(i + 1)))
    return steps, transposes


def _solve_chain_fast(
    mats: ChainMatrices, chain: list[ChainStep]
) -> tuple[float, list[tuple[Layout, Layout | None]], list[tuple[int, Layout, Layout]]]:
    """Solve the chain on the dense matrices and decode boundary layouts.

    Expands each boundary into its transpose block (0 diagonal, uniform
    off-diagonal) followed by its operator matrix, runs the layered
    min-plus relaxation, and reads the chosen arrival/departure layout per
    boundary from the stored argmins — the exact structure (and tie
    behavior) of the scalar graph walk.
    """
    layers: list[np.ndarray] = [np.zeros((1, len(mats.boundaries[0])))]
    for idx in range(len(chain)):
        n = len(mats.boundaries[idx])
        t = np.full((n, n), mats.transpose_us[idx])
        np.fill_diagonal(t, 0.0)
        layers.append(t)
        layers.append(mats.op_cost[idx])
    chain_cost, nodes = shortest_path_layered(layers)

    steps: list[tuple[Layout, Layout | None]] = []
    transposes: list[tuple[int, Layout, Layout]] = []
    for i in range(len(chain)):
        arrived = mats.boundaries[i][nodes[2 * i]]
        consumed = mats.boundaries[i][nodes[2 * i + 1]]
        if arrived != consumed:
            transposes.append((i, arrived, consumed))
        nxt = (
            mats.boundaries[i + 1][nodes[2 * i + 2]] if i + 1 < len(chain) else None
        )
        steps.append((consumed, nxt))
    return chain_cost, steps, transposes


# ---------------------------------------------------------------------------
# Vectorized per-operator inference (masked argmins over sweep arrays)
# ---------------------------------------------------------------------------

def _operands(op: OpSpec):
    return (*op.inputs, *op.outputs)


def _fast_consistent_mask(
    op: OpSpec, sweep: SweepResult, pinned: dict[str, Layout]
) -> np.ndarray:
    """Boolean per-measurement mask: every pinned operand in its pin."""
    vocabs, ids = sweep.operand_layout_arrays()
    mask: np.ndarray | None = None
    for s, t in enumerate(_operands(op)):
        pin = pinned.get(t.name)
        if pin is None:
            continue
        ok = np.array([v is None or v == pin for v in vocabs[s]], dtype=bool)
        col = ok[ids[s]]
        mask = col if mask is None else mask & col
    if mask is None:
        return np.ones(sweep.totals_array().shape[0], dtype=bool)
    return mask


def _fast_best_consistent(
    op: OpSpec, sweep: SweepResult, pinned: dict[str, Layout]
) -> ConfigMeasurement | None:
    idxs = np.flatnonzero(_fast_consistent_mask(op, sweep, pinned))
    if idxs.size == 0:
        return None
    return sweep.measurements[int(idxs[0])]


def _fast_best_coherent(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
    *,
    tolerance: float = 1.5,
) -> ConfigMeasurement | None:
    """Vectorized :func:`_best_coherent`: same minima, same tie-breaks."""
    idxs = np.flatnonzero(_fast_consistent_mask(op, sweep, pinned))
    if idxs.size == 0:
        return None
    totals = sweep.totals_array()
    limit = totals[int(idxs[0])] * tolerance
    cand = idxs[idxs < np.searchsorted(totals, limit, side="right")]
    vocabs, ids = sweep.operand_layout_arrays()
    pen = np.zeros(cand.size)
    for s, t in enumerate(_operands(op)):
        if t.name in pinned or t.rank <= 1:
            continue
        half = 0.5 * _transpose_us(cost, t, env)
        vp = np.array(
            [half if (v is not None and v.dims != t.dims) else 0.0 for v in vocabs[s]]
        )
        pen = pen + vp[ids[s][cand]]
    return sweep.measurements[int(cand[np.argmin(totals[cand] + pen)])]


def _fast_transpose_alt(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
) -> tuple[ConfigMeasurement | None, list[TransposeInsertion], float]:
    """Cheapest (kernel + pin-fixing transposes) point of the whole sweep.

    The scalar scans walk the sorted measurements accumulating a
    shrinking bound; the closed form is a plain argmin of
    ``total_us + transpose cost of every pinned mismatch``, which this
    computes with one gather per operand slot.
    """
    totals = sweep.totals_array()
    if totals.size == 0:
        return None, [], float("inf")
    vocabs, ids = sweep.operand_layout_arrays()
    extra = np.zeros(totals.shape[0])
    for s, t in enumerate(_operands(op)):
        pin = pinned.get(t.name)
        if pin is None:
            continue
        full = _transpose_us(cost, t, env)
        vp = np.array([0.0 if (v is None or v == pin) else full for v in vocabs[s]])
        extra = extra + vp[ids[s]]
    cand = totals + extra
    i = int(np.argmin(cand))
    m = sweep.measurements[i]
    return m, _needed_transposes(op, m, pinned, env, cost), float(cand[i])


def _fast_chain_pick(
    op: OpSpec,
    sweep: SweepResult,
    step: ChainStep,
    lin: Layout,
    lnext: Layout | None,
    out_spec: TensorSpec,
    next_spec: TensorSpec | None,
    chain_penalty_vocab,
) -> ConfigMeasurement:
    """Vectorized chain-step pick: boundary match + penalized argmin."""
    totals = sweep.totals_array()
    vocabs, ids = sweep.operand_layout_arrays()
    in_ok = np.array(
        [v is not None and v == lin for v in vocabs[step.in_index]], dtype=bool
    )
    mask = in_ok[ids[step.in_index]]
    if lnext is not None:
        slot_out = len(op.inputs) + step.out_index

        def ok(v: Layout | None) -> bool:
            if v is None:
                return False
            projected = (
                v
                if next_spec is not None and step.out_tensor == next_spec.name
                else project_layout(v, out_spec, next_spec)
            )
            return projected == lnext

        out_ok = np.array([ok(v) for v in vocabs[slot_out]], dtype=bool)
        mask &= out_ok[ids[slot_out]]
    cand = np.flatnonzero(mask)
    if cand.size == 0:
        raise SSSPError(f"decoded path has no configuration for {step.op_name!r}")
    limit = totals[int(cand[0])] * 1.5
    cand = cand[cand < np.searchsorted(totals, limit, side="right")]
    pen = np.zeros(cand.size)
    for s, vp in enumerate(chain_penalty_vocab(vocabs)):
        if vp is not None:
            pen = pen + vp[ids[s][cand]]
    return sweep.measurements[int(cand[np.argmin(totals[cand] + pen)])]


def _needed_transposes(
    op: OpSpec,
    m: ConfigMeasurement,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
) -> list[TransposeInsertion]:
    """Transposes required to run ``m`` against the current pins."""
    return [
        TransposeInsertion(
            tensor=t.name,
            from_layout=pinned[t.name],
            to_layout=layout,
            time_us=_transpose_us(cost, t, env),
            before_op=op.name,
        )
        for t, layout in _iter_operand_layouts(op, m)
        if t.name in pinned and pinned[t.name] != layout
    ]


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

def select_configurations(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    sweeps: dict[str, SweepResult] | None = None,
    source: str = "x",
    cap: int | None = 1000,
    seed: int = 0x5EED,
    jobs: int | None = None,
    fast: bool = True,
    register=None,
) -> SelectedConfiguration:
    """Run Step 4: global layout selection and full-graph assembly.

    Sweeps route through the engine scheduler (two-tier cache, structural
    dedup); ``jobs`` parallelizes cold sweeps without changing results.
    ``fast`` selects the vectorized pipeline (default) or the scalar
    reference — the two are bit-identical, so the flag never changes any
    result.

    ``register`` persists the finished selection as a content-addressed
    :class:`~repro.registry.ScheduleEntry`: pass a
    :class:`~repro.registry.ScheduleRegistry`, or ``True`` to use the
    process-active registry (silently skipped when none is configured).
    The entry's digest lands in ``registered_digest``.  ``seed`` is the
    sampling seed the sweeps — and the registered digest — are keyed by.
    """
    cost = cost or CostModel()
    obs.set_attr("configsel.fast", fast)
    if sweeps is None:
        sweeps = sweep_graph(graph, env, cost, cap=cap, seed=seed, jobs=jobs)
    with obs.span(
        "configsel.select", ops=len(sweeps), source=source
    ):
        return _select_configurations_swept(
            graph, env, cost, sweeps=sweeps, source=source, cap=cap,
            seed=seed, fast=fast, register=register,
        )


def _select_configurations_swept(
    graph: DataflowGraph,
    env: DimEnv,
    cost: CostModel,
    *,
    sweeps: dict[str, SweepResult],
    source: str,
    cap: int | None,
    seed: int,
    fast: bool,
    register,
) -> SelectedConfiguration:
    use_fast = fast
    chain = primary_chain(graph, source=source)
    if use_fast:
        mats = build_chain_matrices(graph, chain, sweeps, env, cost)
        chain_cost, boundary, chain_transposes = _solve_chain_fast(mats, chain)
    else:
        cg = build_config_graph(graph, chain, sweeps, env, cost)
        chain_cost, path = shortest_path(cg, _SOURCE, _TARGET)
        boundary, chain_transposes = _decode_path(chain, path)

    chosen: dict[str, ConfigMeasurement] = {}
    pinned: dict[str, Layout] = {}
    transposes: list[TransposeInsertion] = []
    for idx, from_l, to_l in chain_transposes:
        spec = graph.container(chain[idx].in_tensor)
        transposes.append(
            TransposeInsertion(
                tensor=spec.name,
                from_layout=from_l,
                to_layout=to_l,
                time_us=_transpose_us(cost, spec, env),
                before_op=chain[idx].op_name,
            )
        )

    # 1. Chain operators: honor the SSSP-selected boundary layouts.  Among
    #    near-tie configurations matching the boundary we prefer default
    #    layouts for the free operands (coherence for later inference).
    for step_idx, (step, (lin, lnext)) in enumerate(zip(chain, boundary)):
        sweep = sweeps[step.op_name]
        op = graph.op(step.op_name)
        out_spec = graph.container(step.out_tensor)
        next_spec = (
            graph.container(chain[step_idx + 1].in_tensor)
            if lnext is not None
            else None
        )

        def chain_penalty(m: ConfigMeasurement) -> float:
            p = 0.0
            for t, l in _iter_operand_layouts(op, m):
                if t.name in pinned:
                    if pinned[t.name] != l:
                        # Mismatching an already-pinned operand needs a real
                        # transpose: charge it in full.
                        p += _transpose_us(cost, t, env)
                elif l.dims != t.dims and t.rank > 1:
                    p += 0.5 * _transpose_us(cost, t, env)
            return p

        if use_fast:

            def chain_penalty_vocab(vocabs):
                # Per-slot vocabulary penalties mirroring chain_penalty:
                # gathered per candidate, accumulated in operand order.
                out = []
                for t, vocab in zip(_operands(op), vocabs):
                    pin = pinned.get(t.name)
                    if pin is not None:
                        full = _transpose_us(cost, t, env)
                        out.append(
                            np.array(
                                [
                                    0.0 if (v is None or v == pin) else full
                                    for v in vocab
                                ]
                            )
                        )
                    elif t.rank > 1:
                        half = 0.5 * _transpose_us(cost, t, env)
                        out.append(
                            np.array(
                                [
                                    half
                                    if (v is not None and v.dims != t.dims)
                                    else 0.0
                                    for v in vocab
                                ]
                            )
                        )
                    else:
                        out.append(None)
                return out

            pick = _fast_chain_pick(
                op, sweep, step, lin, lnext, out_spec, next_spec, chain_penalty_vocab
            )
        else:

            def matches(m: ConfigMeasurement) -> bool:
                if m.config.input_layouts[step.in_index] != lin:
                    return False
                if lnext is not None:
                    lout = m.config.output_layouts[step.out_index]
                    projected = (
                        lout
                        if next_spec is not None and step.out_tensor == next_spec.name
                        else project_layout(lout, out_spec, next_spec)
                    )
                    if projected != lnext:
                        return False
                return True

            best: ConfigMeasurement | None = None
            candidates: list[ConfigMeasurement] = []
            for m in sweep.measurements:
                if best is not None and m.total_us > best.total_us * 1.5:
                    break
                if matches(m):
                    if best is None:
                        best = m
                    candidates.append(m)
            if best is None:
                raise SSSPError(
                    f"decoded path has no configuration for {step.op_name!r}"
                )
            pick = min(candidates, key=lambda m: m.total_us + chain_penalty(m))

        # Flexible chain kernels: also try free operands in default layouts
        # with re-optimized vector/warp dims (the sparse sampled sweep may
        # miss the coherent point entirely).
        if (
            op.op_class is not OpClass.TENSOR_CONTRACTION
            and lnext is not None
            and next_spec is not None
            and step.out_tensor == next_spec.name
        ):
            temp_pins = dict(pinned)
            temp_pins[step.in_tensor] = lin
            temp_pins[step.out_tensor] = lnext
            constructed = _construct_consistent(op, sweep, temp_pins, env, cost)
            if constructed is not None and (
                constructed.total_us + chain_penalty(constructed)
                < pick.total_us + chain_penalty(pick)
            ):
                pick = constructed
        chosen[step.op_name] = pick
        # Record real transposes for operands that were pinned earlier and
        # mismatch (e.g. the residual skip of BDRLN1 reading ``x`` in a
        # different layout than the projection chose).
        for t, l in _iter_operand_layouts(op, pick):
            if t.name in pinned and pinned[t.name] != l:
                transposes.append(
                    TransposeInsertion(
                        tensor=t.name,
                        from_layout=pinned[t.name],
                        to_layout=l,
                        time_us=_transpose_us(cost, t, env),
                        before_op=step.op_name,
                    )
                )
        _pin_config(op, pick, pinned, overwrite=False)
        # The SSSP boundary decision overrides any earlier soft pin.
        pinned[step.in_tensor] = lin

    # 2. Remaining operators, contractions first: the expensive GEMMs get
    #    the layout freedom; the flexible memory-bound kernels then adapt to
    #    whatever layouts are pinned (they accept any combination).
    remaining = [op for op in graph.ops if not op.is_view and op.name not in chosen]
    contractions = [
        op for op in remaining if op.op_class is OpClass.TENSOR_CONTRACTION
    ]
    flexible = [op for op in remaining if op.op_class is not OpClass.TENSOR_CONTRACTION]

    for op in contractions:
        sweep = sweeps[op.name]
        # Running in a different layout plus explicit transposes may beat the
        # best pin-consistent GEMM (the paper's transpose-vs-layout
        # tradeoff).  Scanning all configurations lets the fallback choose
        # *which* operand to transpose — mismatching a small weight-gradient
        # tensor is far cheaper than mismatching a sequence-sized activation.
        if use_fast:
            consistent = _fast_best_coherent(op, sweep, pinned, env, cost)
            best_alt, best_alt_needed, best_alt_cost = _fast_transpose_alt(
                op, sweep, pinned, env, cost
            )
        else:
            consistent = _best_coherent(op, sweep, pinned, env, cost)
            best_alt: ConfigMeasurement | None = None
            best_alt_needed: list[TransposeInsertion] = []
            best_alt_cost = float("inf")
            for m in sweep.measurements:
                if m.total_us >= best_alt_cost:
                    break  # sorted: no later config can win even transpose-free
                needed = _needed_transposes(op, m, pinned, env, cost)
                total = m.total_us + sum(t.time_us for t in needed)
                if total < best_alt_cost:
                    best_alt, best_alt_needed, best_alt_cost = m, needed, total
        if consistent is not None and consistent.total_us <= best_alt_cost:
            chosen[op.name] = consistent
            _pin_config(op, consistent, pinned, overwrite=False)
        else:
            assert best_alt is not None
            chosen[op.name] = best_alt
            transposes.extend(best_alt_needed)
            _pin_config(op, best_alt, pinned, overwrite=False)

    for op in flexible:
        sweep = sweeps[op.name]
        if use_fast:
            match = _fast_best_consistent(op, sweep, pinned)
        else:
            match = _best_consistent(op, sweep, pinned)
        constructed = _construct_consistent(op, sweep, pinned, env, cost)
        if constructed is not None and (
            match is None or constructed.total_us < match.total_us
        ):
            match = constructed
        if match is None:
            match = sweep.best
        # A badly pinned operand can make even the re-optimized consistent
        # kernel slow; transposing some operands and running a faster config
        # may win (the same tradeoff the SSSP transpose edges encode).  The
        # scan picks which operands to transpose.
        if use_fast:
            alt, alt_needed, alt_cost = _fast_transpose_alt(
                op, sweep, pinned, env, cost
            )
            if alt is not None and not alt_cost < match.total_us:
                alt, alt_needed = None, []
        else:
            alt: ConfigMeasurement | None = None
            alt_needed: list[TransposeInsertion] = []
            alt_cost = match.total_us
            for m in sweep.measurements:
                if m.total_us >= alt_cost:
                    break
                needed = _needed_transposes(op, m, pinned, env, cost)
                total = m.total_us + sum(t.time_us for t in needed)
                if total < alt_cost:
                    alt, alt_needed, alt_cost = m, needed, total
        if alt is not None:
            chosen[op.name] = alt
            transposes.extend(alt_needed)
            _pin_config(op, alt, pinned, overwrite=False)
        else:
            chosen[op.name] = match
            _pin_config(op, match, pinned, overwrite=False)

    selected = SelectedConfiguration(
        chain=chain,
        chosen=chosen,
        pinned_layouts=pinned,
        transposes=transposes,
        chain_cost_us=chain_cost,
    )
    if register:
        # Lazy import: the registry package pulls in the service protocol,
        # which this hot module must not load unless registration is asked.
        from repro.registry import get_schedule_registry, register_selection

        registry = register if register is not True else get_schedule_registry()
        if registry is not None:
            entry = register_selection(
                registry,
                graph,
                env,
                cost,
                selected,
                cap=cap,
                seed=seed,
                source=source,
                registrar="select_configurations",
            )
            selected.registered_digest = entry.digest
    return selected


def _iter_operand_layouts(op: OpSpec, m: ConfigMeasurement):
    for t, l in zip(op.inputs, m.config.input_layouts):
        yield t, l
    for t, l in zip(op.outputs, m.config.output_layouts):
        yield t, l


def _pin_config(
    op: OpSpec, m: ConfigMeasurement, pinned: dict[str, Layout], *, overwrite: bool = True
) -> None:
    for t, l in _iter_operand_layouts(op, m):
        if overwrite or t.name not in pinned:
            pinned[t.name] = l


def _best_consistent(
    op: OpSpec, sweep: SweepResult, pinned: dict[str, Layout]
) -> ConfigMeasurement | None:
    for m in sweep.measurements:  # ascending time
        ok = True
        for t, l in _iter_operand_layouts(op, m):
            if t.name in pinned and pinned[t.name] != l:
                ok = False
                break
        if ok:
            return m
    return None


def _best_coherent(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
    *,
    tolerance: float = 1.5,
) -> ConfigMeasurement | None:
    """Best pin-consistent config under a layout-externality surrogate.

    GEMM distributions have several near-equal modes (Fig. 4: "many slightly
    different data layouts could be used with little impact on performance"),
    so the choice among them should account for downstream costs: an operand
    left in a non-default layout forces adjacent memory-bound kernels to
    either access it strided or transpose it.  We charge each non-default
    unpinned operand half its transpose cost and minimize the penalized
    time over all consistent configurations within ``tolerance`` of the
    fastest one.  This internalizes the paper's "locally suboptimal layouts
    ... improve performance globally" tradeoff.
    """
    best = _best_consistent(op, sweep, pinned)
    if best is None:
        return None
    limit = best.total_us * tolerance

    def penalty(m: ConfigMeasurement) -> float:
        p = 0.0
        for t, l in _iter_operand_layouts(op, m):
            if t.name not in pinned and l.dims != t.dims and t.rank > 1:
                p += 0.5 * _transpose_us(cost, t, env)
        return p

    winner: ConfigMeasurement | None = None
    winner_score = float("inf")
    for m in sweep.measurements:
        if m.total_us > limit:
            break
        ok = all(
            pinned.get(t.name, l) == l for t, l in _iter_operand_layouts(op, m)
        )
        if not ok:
            continue
        score = m.total_us + penalty(m)
        if score < winner_score:
            winner, winner_score = m, score
    return winner or best


def _coherence(op: OpSpec, m: ConfigMeasurement, pinned: dict[str, Layout]) -> int:
    """How many unpinned operands this config keeps in default layout."""
    score = 0
    for t, l in _iter_operand_layouts(op, m):
        if t.name not in pinned and l.dims == t.dims:
            score += 1
    return score


def _construct_consistent(
    op: OpSpec,
    sweep: SweepResult,
    pinned: dict[str, Layout],
    env: DimEnv,
    cost: CostModel,
) -> ConfigMeasurement | None:
    """Build the best pin-consistent configuration for a flexible kernel.

    Pinned operands keep their pinned layouts; free operands are tried both
    in the sweep-best layouts and in default layouts (coherence); the
    vectorization and warp-reduce dims are re-optimized under each choice.
    Shared verbatim by the scalar and fast pipelines.
    """
    best_cfg = sweep.best.config
    layout_variants: list[tuple[tuple[Layout, ...], tuple[Layout, ...]]] = []
    layout_variants.append(
        (
            tuple(pinned.get(t.name, l) for t, l in zip(op.inputs, best_cfg.input_layouts)),
            tuple(pinned.get(t.name, l) for t, l in zip(op.outputs, best_cfg.output_layouts)),
        )
    )
    layout_variants.append(
        (
            tuple(pinned.get(t.name, Layout(t.dims)) for t in op.inputs),
            tuple(pinned.get(t.name, Layout(t.dims)) for t in op.outputs),
        )
    )
    vec_options: list[str | None] = list(op.ispace.all_dims) or [None]
    warp_options: list[str | None] = list(op.ispace.reduction) or [None]
    best: ConfigMeasurement | None = None
    from repro.layouts.config import OpConfig

    for in_layouts, out_layouts in layout_variants:
        for vec in vec_options:
            for warp in warp_options:
                config = OpConfig(
                    op_name=op.name,
                    input_layouts=in_layouts,
                    output_layouts=out_layouts,
                    vector_dim=vec,
                    warp_reduce_dim=warp,
                )
                kt = cost.time_op(op, config, env)
                if kt is None:
                    continue
                m = ConfigMeasurement(config=config, time=kt)
                if best is None or m.total_us < best.total_us:
                    best = m
    return best
