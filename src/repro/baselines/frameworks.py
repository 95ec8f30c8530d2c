"""End-to-end framework simulations: graph construction through timing.

``framework_schedule`` runs a policy's whole pipeline — builder variant,
fusion pass, configuration policy — and returns the timed
:class:`~repro.baselines.schedule.Schedule`.  ``cudnn_mha_times`` models the
cuDNN multi-head-attention baseline of Table IV, whose runtime is dominated
by enormous numbers of small softmax kernel launches.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fusion.encoder_kernels import apply_paper_fusion
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph
from repro.transformer.graph_builder import build_encoder_graph, build_mha_graph

from .policy import FrameworkPolicy
from .schedule import Schedule, build_schedule

__all__ = ["framework_schedule", "framework_graph", "cudnn_mha_times", "CudnnMHAResult"]


def framework_graph(
    policy: FrameworkPolicy,
    env: DimEnv,
    *,
    model: str = "encoder",
    include_backward: bool = True,
) -> DataflowGraph:
    """The dataflow graph a framework actually executes (fusion applied)."""
    if model == "encoder":
        graph = build_encoder_graph(
            qkv_fusion=policy.qkv_fusion, include_backward=include_backward
        )
    elif model == "mha":
        graph = build_mha_graph(
            qkv_fusion=policy.qkv_fusion, include_backward=include_backward
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    if policy.fusion == "paper":
        graph = apply_paper_fusion(graph, env)
    elif policy.fusion == "greedy":
        from repro.fusion.fuser import fuse_greedy

        graph = fuse_greedy(graph, env)
    return graph


def framework_schedule(
    policy: FrameworkPolicy,
    env: DimEnv,
    cost: CostModel | None = None,
    *,
    model: str = "encoder",
    include_backward: bool = True,
    cap: int | None = 600,
    jobs: int | None = None,
    fast: bool = True,
) -> Schedule:
    """Build the policy's graph and time it (Tables IV and V)."""
    cost = cost or CostModel()
    graph = framework_graph(
        policy, env, model=model, include_backward=include_backward
    )
    return build_schedule(graph, policy, env, cost, cap=cap, jobs=jobs, fast=fast)


@dataclass(frozen=True)
class CudnnMHAResult:
    """The cuDNN MHA baseline: forward and backward times."""

    forward_us: float
    backward_us: float
    forward_kernels: int
    backward_kernels: int


def cudnn_mha_times(env: DimEnv, cost: CostModel | None = None) -> CudnnMHAResult:
    """Model cuDNN's experimental multi-head attention (Table IV).

    The paper profiles ``cudnnMultiHeadAttnForward`` and finds "its
    implementation launches very large numbers of softmax kernels, which
    dominate the runtime".  We model the projections and contractions as
    competent GEMMs but the softmax as one kernel per (batch, head,
    query-position) row — B x H x J launches forward (and ~2x that backward
    for the recomputation the profile shows), each paying launch latency on
    a tiny row of work.
    """
    cost = cost or CostModel()
    graph = build_mha_graph(qkv_fusion="unfused", include_backward=True)
    from repro.ir.operator import OpClass

    fwd_gemm = 0.0
    bwd_gemm = 0.0
    for op in graph.ops:
        if op.is_view or op.op_class is not OpClass.TENSOR_CONTRACTION:
            continue
        kt = cost.time_op(op, None, env)
        if kt is None:  # pragma: no cover - default layouts always map
            continue
        if op.stage.is_backward:
            bwd_gemm += kt.total_us
        else:
            fwd_gemm += kt.total_us

    rows = env["b"] * env["h"] * env["j"]
    # Each softmax row kernel: launch + a negligible body (K elements).
    row_bytes = 2 * env["k"] * 2  # read + write one fp16 row
    row_body_us = 1e6 * row_bytes / (cost.gpu.mem_bandwidth * 0.05)
    per_row_us = cost.gpu.kernel_launch_us * 0.4 + row_body_us
    softmax_fwd = rows * per_row_us
    softmax_bwd = 2 * rows * per_row_us

    # Bias/dropout kernels, unfused.
    other_fwd = 150.0
    other_bwd = 200.0
    return CudnnMHAResult(
        forward_us=fwd_gemm + softmax_fwd + other_fwd,
        backward_us=bwd_gemm + softmax_bwd + other_bwd,
        forward_kernels=4 + rows,
        backward_kernels=10 + 2 * rows,
    )
