"""The schedule artifact: canonical wire form and content digest.

A :class:`ScheduleEntry` records one answer to one tuning problem.  The
problem identity — what :func:`schedule_digest` hashes — is the canonical
tuple ``(graph signature, dim sizes, GPUSpec, selection knobs,
COST_MODEL_VERSION)``, mirroring the sweep store's
:func:`~repro.engine.store.sweep_digest` one level up: the sweep digest
addresses one operator's timed configuration space, the schedule digest
addresses one whole graph's selected configuration.  Unlike sweep digests,
schedule digests keep operator *names* and *stages*: a selection assigns
configurations to named operators, and the primary chain is a property of
the forward stage.

The entry's value side is everything a validator needs to re-derive the
claim from scratch:

* ``graph`` — the full dataflow graph in wire form (the service protocol's
  operator serialization plus the ``stage`` that selection reads);
* ``selection`` — per-op configurations with their exact
  compute/memory/launch/total splits *in assignment order* (the claimed
  total is an ordered float sum, and bit-exact recomputation must
  associate identically), inserted transposes, pinned layouts, the chain
  and the claimed totals;
* ``provenance`` — the L2 sweep digests the selection consumed, the
  registrar, package version and registration timestamp.

Serialization is canonical JSON (sorted keys, fixed separators) so the
entry's bytes — like every service response — are deterministic.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from repro.autotuner.tuner import ConfigMeasurement
from repro.digest import canonical_json_bytes, content_digest
from repro.hardware.cost_model import KernelTime
from repro.hardware.params import active_cost_model_version
from repro.hardware.spec import GPUSpec
from repro.ir.dims import DimEnv
from repro.ir.graph import DataflowGraph, GraphValidationError
from repro.ir.operator import Stage
from repro.layouts.config import NUM_GEMM_ALGORITHMS, HEURISTIC_ALGORITHM, OpConfig
from repro.layouts.layout import Layout
from repro.service.protocol import (
    ProtocolError,
    config_to_wire,
    gpu_to_wire,
    measurement_to_wire,
    op_from_wire,
    op_to_wire,
    tensor_from_wire,
    tensor_to_wire,
)

__all__ = [
    "REGISTRY_FORMAT",
    "ScheduleEntry",
    "config_from_wire",
    "graph_from_wire",
    "graph_to_wire",
    "measurement_from_wire",
    "schedule_digest",
    "selection_to_entry_wire",
]

#: Entry schema version; bump when the wire layout changes.
REGISTRY_FORMAT = 1

_STAGES = {s.value: s for s in Stage}


class EntryError(ValueError):
    """A malformed entry wire form (the registry wraps this in its error)."""


# ---------------------------------------------------------------------------
# Graph wire form: the protocol's op serialization + stage
# ---------------------------------------------------------------------------

def graph_to_wire(graph: DataflowGraph) -> dict:
    """Serialize a dataflow graph, including the stages selection reads.

    The service protocol's :func:`op_to_wire` deliberately drops ``stage``
    (the cost model never reads it), but schedule validation re-runs
    configuration selection, and the primary chain is extracted from the
    *forward* stage — so the registry's graph wire form carries it.
    """
    ops = []
    for op in graph.ops:
        wire = op_to_wire(op)
        wire["stage"] = op.stage.value
        ops.append(wire)
    return {
        "name": graph.name,
        "inputs": [tensor_to_wire(t) for t in graph.graph_inputs],
        "ops": ops,
    }


def graph_from_wire(wire: dict, where: str = "graph") -> DataflowGraph:
    """Rebuild a dataflow graph; raises :class:`EntryError` when malformed."""
    if not isinstance(wire, dict):
        raise EntryError(f"{where} must be a JSON object")
    try:
        graph = DataflowGraph(str(wire.get("name", "graph")))
        for i, t in enumerate(wire.get("inputs", ())):
            graph.add_input(tensor_from_wire(t, f"{where}.inputs[{i}]"))
        for i, w in enumerate(wire.get("ops", ())):
            op = op_from_wire(w, f"{where}.ops[{i}]")
            stage_value = w.get("stage", Stage.FORWARD.value)
            stage = _STAGES.get(stage_value)
            if stage is None:
                raise EntryError(
                    f"{where}.ops[{i}]: unknown stage {stage_value!r}; "
                    f"known: {sorted(_STAGES)}"
                )
            if stage is not op.stage:
                op = dataclasses.replace(op, stage=stage)
            graph.add_op(op)
        return graph
    except (ProtocolError, GraphValidationError) as exc:
        raise EntryError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# Selection wire form
# ---------------------------------------------------------------------------

def _layout_from_wire(dims, where: str) -> Layout:
    if not isinstance(dims, (list, tuple)) or not all(
        isinstance(d, str) for d in dims
    ):
        raise EntryError(f"{where} must be a list of dim names")
    try:
        return Layout(tuple(dims))
    except ValueError as exc:
        raise EntryError(f"{where}: {exc}") from exc


def config_from_wire(wire: dict, where: str = "config") -> OpConfig:
    """Inverse of the protocol's :func:`config_to_wire`."""
    if not isinstance(wire, dict):
        raise EntryError(f"{where} must be a JSON object")
    algorithm = wire.get("algorithm", HEURISTIC_ALGORITHM)
    if not isinstance(algorithm, int) or isinstance(algorithm, bool) or not (
        algorithm == HEURISTIC_ALGORITHM or 0 <= algorithm < NUM_GEMM_ALGORITHMS
    ):
        raise EntryError(f"{where}.algorithm index {algorithm!r} out of range")
    try:
        return OpConfig(
            op_name=str(wire["op"]),
            input_layouts=tuple(
                _layout_from_wire(l, f"{where}.input_layouts[{i}]")
                for i, l in enumerate(wire["input_layouts"])
            ),
            output_layouts=tuple(
                _layout_from_wire(l, f"{where}.output_layouts[{i}]")
                for i, l in enumerate(wire["output_layouts"])
            ),
            vector_dim=wire.get("vector_dim"),
            warp_reduce_dim=wire.get("warp_reduce_dim"),
            algorithm=algorithm,
            use_tensor_cores=bool(wire.get("use_tensor_cores", True)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise EntryError(f"{where}: {exc}") from exc


def measurement_from_wire(wire: dict, where: str = "measurement") -> ConfigMeasurement:
    """Inverse of the protocol's :func:`measurement_to_wire`."""
    if not isinstance(wire, dict):
        raise EntryError(f"{where} must be a JSON object")
    try:
        return ConfigMeasurement(
            config=config_from_wire(wire["config"], f"{where}.config"),
            time=KernelTime(
                compute_us=float(wire["compute_us"]),
                memory_us=float(wire["memory_us"]),
                launch_us=float(wire["launch_us"]),
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise EntryError(f"{where}: {exc}") from exc


def selection_to_entry_wire(selection) -> dict:
    """The registry's wire form of a ``SelectedConfiguration``.

    Richer than the protocol's ``selection_to_wire``: assignment order is
    explicit (an ordered ``chosen`` *list*, because the claimed total is an
    ordered float sum) and the pinned per-tensor layouts are carried so the
    structural validator can audit them.
    """
    chosen = []
    for name, m in selection.chosen.items():
        wire = measurement_to_wire(m)
        wire["op"] = name
        chosen.append(wire)
    return {
        "chain": [s.op_name for s in selection.chain],
        "chain_cost_us": selection.chain_cost_us,
        "chosen": chosen,
        "transposes": [
            {
                "tensor": t.tensor,
                "from_layout": list(t.from_layout.dims),
                "to_layout": list(t.to_layout.dims),
                "time_us": t.time_us,
                "before_op": t.before_op,
            }
            for t in selection.transposes
        ],
        "pinned_layouts": {
            name: list(layout.dims)
            for name, layout in sorted(selection.pinned_layouts.items())
        },
        "transpose_us": selection.transpose_us,
        "total_us": selection.total_us,
    }


# ---------------------------------------------------------------------------
# The content digest: the identity of one tuning problem
# ---------------------------------------------------------------------------

def _signature_op(wire_op: dict) -> dict:
    """The digest-relevant view of one wire operator (drops nothing today;
    kept as a hook so cosmetic wire additions never split digests)."""
    return wire_op


def graph_signature(graph: DataflowGraph) -> dict:
    """Canonical JSON-able identity of a graph for schedule digests.

    Keeps names and stages (selection assigns configurations to named
    operators of specific stages) — deliberately *not* the sweep store's
    name-free structural sharing: two schedules for structurally identical
    but differently named graphs are different artifacts.
    """
    return {
        "name": graph.name,
        "inputs": [tensor_to_wire(t) for t in graph.graph_inputs],
        "ops": [_signature_op(w) for w in graph_to_wire(graph)["ops"]],
    }


def schedule_digest(
    graph: DataflowGraph,
    env: DimEnv,
    gpu: GPUSpec,
    *,
    cap: int | None,
    seed: int,
    source: str = "x",
    version: int | str | None = None,
) -> str:
    """Stable content digest of one schedule's tuning problem.

    Hashes ``(graph signature, dim sizes, GPUSpec, knobs, served
    cost-model version)`` — everything that determines the selection —
    so the digest is process- and session-independent (pinned by a
    spawned-interpreter test, like the sweep store's).  ``version``
    defaults (``None``) to the *served* cost-model version, resolved at
    call time so a calibration promotion changes every fresh digest;
    loaders pass an entry's *recorded* version so key verification still
    works on stale entries (staleness is a validator's report, not a load
    failure).
    """
    if version is None:
        version = active_cost_model_version()
    key = {
        "kind": "schedule",
        "format": REGISTRY_FORMAT,
        "version": version,
        "graph": graph_signature(graph),
        "env": sorted((d, env[d]) for d in _graph_dims(graph)),
        "gpu": gpu_to_wire(gpu),
        "knobs": {"cap": cap, "seed": seed, "source": source},
    }
    return content_digest(key)


def _graph_dims(graph: DataflowGraph) -> set[str]:
    from repro.engine.store import _op_dims

    dims: set[str] = set()
    for op in graph.ops:
        dims.update(_op_dims(op))
    return dims


# ---------------------------------------------------------------------------
# The entry
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "digest",
    "registry_format",
    "cost_model_version",
    "graph",
    "env",
    "gpu",
    "knobs",
    "selection",
    "provenance",
)


@dataclass
class ScheduleEntry:
    """One registered schedule: problem, solution, and provenance."""

    digest: str
    cost_model_version: int | str  # int for defaults, "1-cal-…" tags for fitted
    graph: dict  # wire form (graph_to_wire)
    env: dict[str, int]
    gpu: dict  # wire form (gpu_to_wire)
    knobs: dict  # {"cap": int | None, "seed": int, "source": str}
    selection: dict  # wire form (selection_to_entry_wire)
    provenance: dict = field(default_factory=dict)
    registry_format: int = REGISTRY_FORMAT

    # -- identity ------------------------------------------------------------
    @property
    def total_us(self) -> float:
        return float(self.selection["total_us"])

    def build_graph(self) -> DataflowGraph:
        return graph_from_wire(self.graph)

    def recompute_digest(self, graph: DataflowGraph | None = None) -> str:
        """The digest this entry's own content implies (under its recorded
        cost-model version — staleness must not masquerade as tampering)."""
        graph = graph or self.build_graph()
        knobs = self.knobs
        return schedule_digest(
            graph,
            DimEnv({str(k): int(v) for k, v in self.env.items()}),
            _gpu_from_entry(self.gpu),
            cap=knobs.get("cap"),
            seed=int(knobs.get("seed", 0)),
            source=str(knobs.get("source", "x")),
            version=self.cost_model_version,
        )

    # -- serialization -------------------------------------------------------
    def to_wire(self) -> dict:
        return {
            "digest": self.digest,
            "registry_format": self.registry_format,
            "cost_model_version": self.cost_model_version,
            "graph": self.graph,
            "env": self.env,
            "gpu": self.gpu,
            "knobs": self.knobs,
            "selection": self.selection,
            "provenance": self.provenance,
        }

    def to_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_wire())

    @classmethod
    def from_wire(cls, wire: dict, where: str = "entry") -> "ScheduleEntry":
        if not isinstance(wire, dict):
            raise EntryError(f"{where} must be a JSON object")
        missing = [k for k in _REQUIRED_FIELDS if k not in wire]
        if missing:
            raise EntryError(f"{where} is missing required fields {missing}")
        fmt = wire["registry_format"]
        if fmt != REGISTRY_FORMAT:
            raise EntryError(
                f"{where} uses registry format {fmt!r}, not {REGISTRY_FORMAT!r}"
            )
        sel = wire["selection"]
        if not isinstance(sel, dict) or "chosen" not in sel or "total_us" not in sel:
            raise EntryError(f"{where}.selection is missing chosen/total_us")
        version = wire["cost_model_version"]
        # int for default-params models, string tags ("1-cal-<digest12>")
        # for promoted calibration candidates — both are valid identities.
        if isinstance(version, bool) or not isinstance(version, (int, str)):
            raise EntryError(
                f"{where}.cost_model_version must be an integer or string tag"
            )
        try:
            return cls(
                digest=str(wire["digest"]),
                registry_format=int(fmt),
                cost_model_version=version,
                graph=wire["graph"],
                env={str(k): int(v) for k, v in dict(wire["env"]).items()},
                gpu=wire["gpu"],
                knobs=dict(wire["knobs"]),
                selection=sel,
                provenance=dict(wire["provenance"]),
            )
        except (TypeError, ValueError) as exc:
            raise EntryError(f"{where}: {exc}") from exc

    @classmethod
    def from_bytes(cls, raw: bytes, where: str = "entry") -> "ScheduleEntry":
        try:
            wire = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise EntryError(f"{where} is not valid JSON: {exc}") from exc
        return cls.from_wire(wire, where)

    # -- typed views of the selection ---------------------------------------
    def chosen_measurements(self) -> dict[str, ConfigMeasurement]:
        """Assignment-order ``{op name: measurement}`` (dict preserves it)."""
        out: dict[str, ConfigMeasurement] = {}
        for i, wire in enumerate(self.selection["chosen"]):
            name = str(wire.get("op", ""))
            if not name:
                raise EntryError(f"selection.chosen[{i}] has no op name")
            if name in out:
                raise EntryError(f"selection.chosen has duplicate op {name!r}")
            out[name] = measurement_from_wire(wire, f"selection.chosen[{i}]")
        return out


def _gpu_from_entry(wire: dict) -> GPUSpec:
    from repro.service.protocol import gpu_from_wire

    try:
        return gpu_from_wire(wire)
    except ProtocolError as exc:
        raise EntryError(f"entry.gpu: {exc}") from exc
