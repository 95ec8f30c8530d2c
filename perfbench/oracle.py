"""Expected outputs from the program's scalar reference paths.

Run after the timed region, on a seeded sample of operations.  Sweeps
come from :func:`repro.autotuner.tuner.sweep_op_reference` (one cost-model
call per configuration) and configuration selection from its scalar
pipeline (``fast=False``); the engine, the store, the delta path and the
daemon must reproduce them bit for bit.
"""

from __future__ import annotations

from repro.autotuner.tuner import sweep_op_reference
from repro.hardware import CostModel
from repro.ir.dims import DimEnv
from repro.service.protocol import (
    canonical_json_bytes,
    parse_sweep_request,
    payload_from_packed,
    sweep_etag,
    sweep_request_digest,
    sweep_request_wire,
    sweep_response_from_sweep,
)

from inputs import ENCODER_CAP, SWEEP_SEED, TOP_K


class References:
    """Reference sweeps, each computed once per process."""

    def __init__(self) -> None:
        self._sweeps: dict = {}

    def sweep(self, op, env: DimEnv, cost: CostModel, cap, seed=SWEEP_SEED):
        key = (op, env, cost.gpu, cap, seed)
        if key not in self._sweeps:
            self._sweeps[key] = sweep_op_reference(op, env, cost, cap=cap, seed=seed)
        return self._sweeps[key]

    # -- optimize_encoder ----------------------------------------------------
    def encoder_report(self, env: DimEnv):
        """``optimize_encoder(env, cap=ENCODER_CAP)`` rebuilt from reference
        sweeps and the scalar configuration selection."""
        from repro import OptimizationReport
        from repro.analysis.tables import data_movement_reduction_report
        from repro.baselines import OURS, PYTORCH
        from repro.baselines.frameworks import framework_graph
        from repro.baselines.schedule import build_schedule

        cost = CostModel()

        def schedule(policy):
            graph = framework_graph(policy, env, model="encoder")
            sweeps = {
                op.name: self.sweep(op, env, cost, ENCODER_CAP)
                for op in graph.ops
                if not op.is_view
            }
            return build_schedule(
                graph, policy, env, cost, sweeps=sweeps, cap=ENCODER_CAP, fast=False
            )

        ours, pt = schedule(OURS), schedule(PYTORCH)
        return OptimizationReport(
            forward_ms=ours.stage_us(backward=False) / 1000.0,
            backward_ms=ours.stage_us(backward=True) / 1000.0,
            pytorch_forward_ms=pt.stage_us(backward=False) / 1000.0,
            pytorch_backward_ms=pt.stage_us(backward=True) / 1000.0,
            data_movement_reduction=data_movement_reduction_report(env)[
                "reduction_fraction"
            ],
            num_kernels=len(ours.kernels),
        )

    # -- /v1/sweep -----------------------------------------------------------
    def _request(self, op, env: dict, cap: int):
        return parse_sweep_request(
            sweep_request_wire(op, DimEnv(env), cap=cap, seed=SWEEP_SEED, top_k=TOP_K)
        )

    def _request_sweep(self, req):
        return self.sweep(req.op, req.env, CostModel(req.gpu), req.cap, req.seed)

    def sweep_json(self, op, env: dict, cap: int) -> bytes:
        """The exact JSON ``/v1/sweep`` body for a ``top_k=TOP_K`` request."""
        req = self._request(op, env, cap)
        response = sweep_response_from_sweep(
            self._request_sweep(req), digest=sweep_request_digest(req), top_k=req.top_k
        )
        return canonical_json_bytes(response)

    def sweep_etag(self, op, env: dict, cap: int) -> str:
        """The ETag a JSON ``top_k=TOP_K`` response must carry."""
        return sweep_etag(sweep_request_digest(self._request(op, env, cap)), top_k=TOP_K)

    def packed_matches(self, body: bytes, op, env: dict, cap: int) -> bool:
        """Whether a packed body decodes to the reference measurements."""
        from repro.engine import sweep_from_payload

        req = self._request(op, env, cap)
        payload = payload_from_packed(body, digest=sweep_request_digest(req))
        decoded = sweep_from_payload(req.op, payload)
        return list(decoded.measurements) == list(self._request_sweep(req).measurements)

    # -- /v1/optimize --------------------------------------------------------
    def optimize_json(self, wire: dict) -> bytes:
        """The exact ``/v1/optimize`` body, from reference sweeps and the
        scalar selection on the graph the request names."""
        from repro.configsel.chain import ChainError
        from repro.configsel.selector import select_configurations
        from repro.configsel.sssp import SSSPError
        from repro.service.protocol import (
            build_request_graph,
            optimize_request_digest,
            optimize_response_from_sweeps,
            parse_optimize_request,
        )

        req = parse_optimize_request(wire)
        graph = build_request_graph(req)
        cost = CostModel(req.gpu)
        sweeps = {
            op.name: self.sweep(op, req.env, cost, req.cap, req.seed)
            for op in graph.ops
            if not op.is_view
        }
        try:
            selection = select_configurations(
                graph, req.env, cost, sweeps=sweeps, cap=req.cap, fast=False
            )
        except (SSSPError, ChainError):
            selection = None
        response = optimize_response_from_sweeps(
            graph, sweeps, digest=optimize_request_digest(req), selection=selection
        )
        return canonical_json_bytes(response)
