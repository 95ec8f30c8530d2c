"""Hypothesis property tests: delta re-sweeps are bit-identical to cold.

Randomizes operators, base dimension sizes and *perturbed* sizes; the base
sweep is saved to a store, the perturbed problem is resolved through
:func:`delta_payload_from_store` (reusing the stored structural skeleton),
and the result is compared against a cold scalar ``sweep_op_reference``
sweep at the perturbed sizes — same configs, same order, exact float
equality on every ``KernelTime`` component.  This is the acceptance
property of the delta tier: structural reuse must never change a single
bit of the answer.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import (
    DELTA_SIZES,
    assert_bit_identical,
    contraction_ops,
    kernel_ops,
)

from repro.autotuner.tuner import sweep_op_reference
from repro.engine.store import (
    SweepStore,
    compute_payload,
    structural_sweep_digest,
    sweep_digest,
)
from repro.engine.sweep import delta_payload_from_store, sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv

COST = CostModel()

# One store for the whole module: structurally identical examples share
# their skeleton entries exactly as a long-lived daemon's store would.
_STORE_DIR = tempfile.TemporaryDirectory(prefix="repro-delta-store-")
STORE = SweepStore(_STORE_DIR.name)


def _perturbed(draw, env: DimEnv) -> DimEnv:
    """A same-named environment with at least one size changed."""
    sizes = {d: draw(DELTA_SIZES) for d in env}
    if sizes == dict(env):
        first = next(iter(sizes))
        sizes[first] += 1
    return DimEnv(sizes)


@st.composite
def kernel_cases(draw):
    """A random memory-bound op with base and perturbed sizes."""
    op, env, cap, seed = draw(kernel_ops(DELTA_SIZES))
    return op, env, _perturbed(draw, env), cap, seed


@st.composite
def contraction_cases(draw):
    op, env = draw(contraction_ops(DELTA_SIZES))
    return op, env, _perturbed(draw, env)


def _warm_base(op, env, *, cap, seed) -> None:
    digest = sweep_digest(op, env, COST.gpu, cap=cap, seed=seed)
    if digest not in STORE:
        STORE.save(digest, compute_payload(op, env, COST.gpu, cap=cap, seed=seed))


@settings(max_examples=25, deadline=None)
@given(kernel_cases())
def test_kernel_delta_resweep_bit_identical_to_cold(params):
    op, base, perturbed, cap, seed = params
    _warm_base(op, base, cap=cap, seed=seed)
    delta = delta_payload_from_store(
        op, perturbed, COST.gpu, cap=cap, seed=seed, store=STORE
    )
    same_structure = structural_sweep_digest(
        op, base, COST.gpu, cap=cap, seed=seed
    ) == structural_sweep_digest(op, perturbed, COST.gpu, cap=cap, seed=seed)
    if not same_structure:
        # Size changes may flip whether ``cap`` binds; then the sampled
        # rows differ and the delta path must refuse, not approximate.
        assert delta is None
        return
    assert delta is not None
    assert_bit_identical(
        sweep_op_reference(op, perturbed, COST, cap=cap, seed=seed),
        sweep_from_payload(op, delta),
    )
    # The rebuilt payload still names the shared structural key (digests
    # are stamped at save time, under the perturbed problem's exact key).
    assert delta["structural"] == structural_sweep_digest(
        op, perturbed, COST.gpu, cap=cap, seed=seed
    )


@settings(max_examples=15, deadline=None)
@given(contraction_cases())
def test_contraction_delta_resweep_bit_identical_to_cold(params):
    op, base, perturbed = params
    _warm_base(op, base, cap=2000, seed=0x5EED)
    delta = delta_payload_from_store(
        op, perturbed, COST.gpu, cap=2000, seed=0x5EED, store=STORE
    )
    # Contraction sweeps are exhaustive (cap/seed-free), so any same-shape
    # problem is a structural twin: the delta path must always engage.
    assert delta is not None
    assert_bit_identical(
        sweep_op_reference(op, perturbed, COST),
        sweep_from_payload(op, delta),
    )
