"""Hypothesis property tests: store round-trips are bit-identical.

Randomizes operators, dimension sizes and sampling knobs; every sweep is
saved to an on-disk store, reloaded, and compared against the scalar
``sweep_op_reference`` — same configs, same order, exact float equality on
every ``KernelTime`` component.  The digest is also checked to be stable
under recomputation and under irrelevant environment growth.
"""

from __future__ import annotations

import tempfile

from hypothesis import given, settings
from strategies import assert_bit_identical, contraction_ops, kernel_ops

from repro.autotuner.tuner import sweep_op_reference
from repro.engine.store import SweepStore, compute_payload, sweep_digest
from repro.engine.sweep import sweep_from_payload
from repro.hardware.cost_model import CostModel
from repro.ir.dims import DimEnv

COST = CostModel()

# One store for the whole module: digests are content-addressed, so
# collisions across examples are exactly the sweeps that are identical.
_STORE_DIR = tempfile.TemporaryDirectory(prefix="repro-sweep-store-")
STORE = SweepStore(_STORE_DIR.name)


def _round_trip(op, env, *, cap, seed):
    digest = sweep_digest(op, env, COST.gpu, cap=cap, seed=seed)
    if STORE.load(digest) is None:
        STORE.save(digest, compute_payload(op, env, COST.gpu, cap=cap, seed=seed))
    return sweep_from_payload(op, STORE.load(digest)), digest


@settings(max_examples=25, deadline=None)
@given(kernel_ops())
def test_kernel_store_round_trip_bit_identical(params):
    op, env, cap, seed = params
    ref = sweep_op_reference(op, env, COST, cap=cap, seed=seed)
    loaded, digest = _round_trip(op, env, cap=cap, seed=seed)
    assert_bit_identical(ref, loaded)
    # The digest is a pure function of content.
    assert digest == sweep_digest(op, env, COST.gpu, cap=cap, seed=seed)


@settings(max_examples=15, deadline=None)
@given(contraction_ops())
def test_contraction_store_round_trip_bit_identical(params):
    op, env = params
    ref = sweep_op_reference(op, env, COST)
    loaded, digest = _round_trip(op, env, cap=2000, seed=0x5EED)
    assert_bit_identical(ref, loaded)
    # Irrelevant dimensions don't perturb the digest.
    grown = DimEnv({**env.sizes, "zq": 9})
    assert sweep_digest(op, grown, COST.gpu, cap=2000, seed=0x5EED) == digest
