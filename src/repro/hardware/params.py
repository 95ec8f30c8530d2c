"""Parameterized efficiency constants and the process-active cost model.

The analytic efficiency model of :mod:`repro.hardware.efficiency` was born
with its calibrated constants hard-coded at module scope.  Online
calibration (:mod:`repro.calibrate`) needs to *re-fit* those constants
from measured feedback and roll the result out safely, so they live here
as one frozen, hashable :class:`EfficiencyParams` value instead.

Two invariants keep the rest of the system honest:

* :data:`DEFAULT_PARAMS` is bit-identical to the historical constants.
  Under it every sweep reproduces ``sweep_op_reference`` exactly and the
  served cost-model version stays :data:`DEFAULT_VERSION` — the engine /
  reference property suites pin this without modification.
* Any *other* params value serves under a **derived version tag**
  (``"1-cal-<digest12>"``), never under the default integer version.
  Every cache digest, memo key and wire key embeds the served version, so
  installing a candidate atomically orphans all default-model artifacts
  through the existing ``CacheMismatch`` path — and rolling back is
  metadata-only, because the old version's entries were never touched.

The process-active model is a single atomically-swapped reference:
readers (:func:`active_params`, :func:`active_cost_model_version`) never
take the lock, so the hot sweep path pays one attribute load.  Only
:func:`install_params` — the rollout manager's commit step — serializes.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields

from repro.digest import content_digest

__all__ = [
    "DEFAULT_PARAMS",
    "DEFAULT_VERSION",
    "EfficiencyParams",
    "ParamsError",
    "active_cost_model_version",
    "active_params",
    "candidate_version",
    "install_params",
    "params_digest",
    "params_from_wire",
]

#: The cost-model version served by :data:`DEFAULT_PARAMS`.  This is the
#: value ``repro.hardware.cost_model.COST_MODEL_VERSION`` re-exports; the
#: two must stay one constant.
DEFAULT_VERSION = 1


class ParamsError(ValueError):
    """A malformed or out-of-range params wire form."""


@dataclass(frozen=True)
class EfficiencyParams:
    """Every calibrated constant of the analytic efficiency model.

    Frozen and hashable: a params value participates in ``lru_cache`` keys
    inside :mod:`repro.hardware.efficiency`, so two models never share a
    cached factor.  Field names mirror the historical ``_UPPER_CASE``
    constants; the semantics are documented there.
    """

    # -- tensor contractions (simulated cuBLAS) ------------------------------
    gemm_tc_base: float = 0.72
    gemm_fp16_base: float = 0.80
    gemm_tc_sat_ref: float = 256.0
    gemm_tc_sat_exp: float = 0.9
    gemm_fp16_sat_exp: float = 0.2
    gemm_mem_eff: float = 0.70
    layout_factor_range: tuple[float, float] = (0.80, 1.0)
    algo_factor_range: tuple[float, float] = (0.84, 1.0)

    # -- memory-bound kernels ------------------------------------------------
    vectorized_eff: float = 0.92
    coalesced_eff: float = 0.55
    strided_coef: float = 0.5
    strided_floor: float = 0.015
    register_bonus: float = 1.08
    narrow_warp_penalty: float = 0.7
    kernel_compute_eff: float = 0.40
    jitter: float = 0.10

    def to_wire(self) -> dict:
        """JSON-able form (tuples become lists; canonical for digesting)."""
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out


#: The historical hand-calibrated model: serves version :data:`DEFAULT_VERSION`.
DEFAULT_PARAMS = EfficiencyParams()

_FIELD_NAMES = tuple(f.name for f in fields(EfficiencyParams))
_RANGE_FIELDS = ("layout_factor_range", "algo_factor_range")
#: Fields that feed an ``Efficiency`` value directly or through products of
#: sub-unit factors: must stay in (0, 1] or the model raises downstream.
_UNIT_FIELDS = (
    "gemm_tc_base",
    "gemm_fp16_base",
    "gemm_mem_eff",
    "vectorized_eff",
    "coalesced_eff",
    "kernel_compute_eff",
)


def params_from_wire(wire: dict, where: str = "params") -> EfficiencyParams:
    """Rebuild and validate params; raises :class:`ParamsError` when bad.

    Strict on purpose: a fitted candidate travels through journals, the
    rollout state file and the wire, and a NaN or out-of-range constant
    must be rejected at the boundary, not crash a sweep later.
    """
    if not isinstance(wire, dict):
        raise ParamsError(f"{where} must be a JSON object")
    unknown = sorted(set(wire) - set(_FIELD_NAMES))
    if unknown:
        raise ParamsError(f"{where} has unknown fields {unknown}")
    kwargs: dict = {}
    for name in _FIELD_NAMES:
        if name not in wire:
            continue
        value = wire[name]
        if name in _RANGE_FIELDS:
            if (
                not isinstance(value, (list, tuple))
                or len(value) != 2
                or not all(isinstance(v, (int, float)) for v in value)
            ):
                raise ParamsError(f"{where}.{name} must be a [lo, hi] pair")
            lo, hi = float(value[0]), float(value[1])
            if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo <= hi <= 1.0:
                raise ParamsError(
                    f"{where}.{name} must satisfy 0 < lo <= hi <= 1, got {value!r}"
                )
            kwargs[name] = (lo, hi)
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParamsError(f"{where}.{name} must be a number, got {value!r}")
        value = float(value)
        if not math.isfinite(value) or value <= 0.0:
            raise ParamsError(
                f"{where}.{name} must be a positive finite number, got {value!r}"
            )
        if name in _UNIT_FIELDS and value > 1.0:
            raise ParamsError(f"{where}.{name} must be <= 1.0, got {value!r}")
        kwargs[name] = value
    return EfficiencyParams(**kwargs)


def params_digest(params: EfficiencyParams) -> str:
    """SHA-256 over the canonical JSON wire form: the params identity."""
    return content_digest(params.to_wire())


def candidate_version(params: EfficiencyParams) -> str:
    """The version tag a non-default params value serves under.

    Derived, not allocated: the same fitted constants always produce the
    same tag, so re-proposing an identical candidate is idempotent across
    daemons and restarts.  :data:`DEFAULT_PARAMS` maps to the plain integer
    :data:`DEFAULT_VERSION` — default params never mint a tag.
    """
    if params == DEFAULT_PARAMS:
        return DEFAULT_VERSION  # type: ignore[return-value]
    return f"{DEFAULT_VERSION}-cal-{params_digest(params)[:12]}"


# ---------------------------------------------------------------------------
# The process-active model
# ---------------------------------------------------------------------------

_lock = threading.Lock()
#: ``(params, served version)`` — swapped atomically, read without the lock.
_active: tuple[EfficiencyParams, int | str] = (DEFAULT_PARAMS, DEFAULT_VERSION)


def active_params() -> EfficiencyParams:
    """The params every efficiency evaluation resolves at call time."""
    return _active[0]


def active_cost_model_version() -> int | str:
    """The *served* cost-model version.

    The integer :data:`DEFAULT_VERSION` under default params; a derived
    string tag (``"1-cal-<hex12>"``) after a candidate promotion.  Every
    memo key, store digest, wire key and registry entry embeds this value,
    which is what makes promotion an atomic whole-cache invalidation.
    """
    return _active[1]


def install_params(
    params: EfficiencyParams, version: int | str | None = None
) -> int | str:
    """Swap the process-active model; returns the served version.

    This is the rollout manager's last step, *after* its journal and state
    file are durable — the in-memory swap must never run ahead of the
    on-disk commit point, or a crash right here would recover to a model
    the process never admitted to serving.
    """
    global _active
    if version is None:
        version = candidate_version(params)
    if params == DEFAULT_PARAMS:
        version = DEFAULT_VERSION
    with _lock:
        _active = (params, version)
    return version
