"""Hypothesis property tests: engine/reference bit-identity + invariants.

Randomizes operator shapes, dimension sizes and sampling knobs, and checks

* ``repro.engine`` sweeps are **bit-identical** to the scalar
  ``sweep_op_reference`` (same configs in the same order, same
  ``KernelTime`` components, exact float equality — no tolerances);
* ``SweepResult`` structural invariants hold on engine-built sweeps:
  measurements sorted ascending, ``quantile_us`` monotone in the quantile,
  ``spread >= 1``.
"""

from __future__ import annotations

from hypothesis import given, settings
from strategies import contraction_ops, kernel_ops

from repro.autotuner.tuner import sweep_op_reference
from repro.engine.sweep import sweep_op as engine_sweep_op
from repro.hardware.cost_model import CostModel

COST = CostModel()


def _assert_bit_identical(ref, eng):
    assert eng.num_configs == ref.num_configs
    for a, b in zip(ref.measurements, eng.measurements):
        assert a.config == b.config
        # Exact float equality on every component — the bit-identity contract.
        assert a.time.compute_us == b.time.compute_us
        assert a.time.memory_us == b.time.memory_us
        assert a.time.launch_us == b.time.launch_us


def _assert_invariants(sweep):
    times = sweep.times_us()
    assert times == sorted(times)
    if times:
        qs = [sweep.quantile_us(q) for q in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)]
        assert qs == sorted(qs)
        assert qs[0] == sweep.best.total_us
        assert qs[-1] == sweep.worst.total_us
        assert sweep.spread >= 1.0
    assert sweep.num_configs == len(sweep.measurements)


@settings(max_examples=30, deadline=None)
@given(kernel_ops())
def test_kernel_sweeps_bit_identical(params):
    op, env, cap, seed = params
    ref = sweep_op_reference(op, env, COST, cap=cap, seed=seed)
    eng = engine_sweep_op(op, env, COST, cap=cap, seed=seed, memo=False)
    _assert_bit_identical(ref, eng)
    _assert_invariants(eng)
    _assert_invariants(ref)


@settings(max_examples=20, deadline=None)
@given(contraction_ops())
def test_contraction_sweeps_bit_identical(params):
    op, env = params
    ref = sweep_op_reference(op, env, COST)
    eng = engine_sweep_op(op, env, COST, memo=False)
    _assert_bit_identical(ref, eng)
    _assert_invariants(eng)


@settings(max_examples=15, deadline=None)
@given(kernel_ops())
def test_memoized_sweep_is_shared_and_identical(params):
    op, env, cap, seed = params
    first = engine_sweep_op(op, env, COST, cap=cap, seed=seed)
    second = engine_sweep_op(op, env, COST, cap=cap, seed=seed)
    assert first is second  # process-level memo returns the same object
    _assert_bit_identical(sweep_op_reference(op, env, COST, cap=cap, seed=seed), first)
