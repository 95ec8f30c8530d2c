"""Hypothesis strategies shared by the property suites.

Random memory-bound kernels and contractions over small dimension sizes,
for the engine, store, delta and store-state-machine suites.  Each
strategy takes the size strategy as a parameter, so a suite that needs a
wider set (the delta suite's :data:`DELTA_SIZES`) widens it without
copying the op construction.  :func:`assert_bit_identical` is the one
sweep comparison those suites check their results with.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.ir.dims import DimEnv
from repro.ir.iteration_space import IterationSpace
from repro.ir.operator import OpClass, OpSpec
from repro.ir.tensor import TensorSpec
from repro.ops.contraction import contraction_spec

# Small-but-varied sizes; multiples of 8 appear so the 128-bit
# vectorization and tensor-core divisibility branches both get exercised.
_SIZE_VALUES = [1, 2, 3, 4, 7, 8, 15, 16, 24, 32, 40, 64]
SIZES = st.sampled_from(_SIZE_VALUES)

#: The delta suite's wider set: 96 and 513 move sizes across the
#: vectorization and cap-binding boundaries a re-sweep must respect.
DELTA_SIZES = st.sampled_from(_SIZE_VALUES + [96, 513])

#: Contraction shapes covering plain GEMM, batched GEMM and the paper's
#: rank-4 attention contractions (operand dims differ per einsum).
EINSUMS = [
    ("mk,kn->mn", ("m", "k"), ("k", "n"), ("m", "n")),
    ("bmk,bkn->bmn", ("b", "m", "k"), ("b", "k", "n"), ("b", "m", "n")),
    ("phb,pwb->hwb", ("p", "h", "b"), ("p", "w", "b"), ("h", "w", "b")),
]


@st.composite
def kernel_ops(draw, sizes=SIZES):
    """A random memory-bound op: elementwise or normalization w/ reduction.

    Draws ``(op, env, cap, seed)``.
    """
    dims = draw(
        st.lists(st.sampled_from("abcde"), min_size=2, max_size=3, unique=True)
    )
    dims = tuple(dims)
    env = DimEnv({d: draw(sizes) for d in dims})
    reduce_last = draw(st.booleans())
    if reduce_last and len(dims) > 1:
        ispace = IterationSpace(dims[:-1], (dims[-1],))
        op_class = OpClass.STAT_NORMALIZATION
    else:
        ispace = IterationSpace(dims)
        op_class = OpClass.ELEMENTWISE
    inputs = [TensorSpec("x", dims)]
    if draw(st.integers(min_value=0, max_value=1)):
        # A broadcast (rank-1) side input, like a bias or per-dim scale.
        inputs.append(TensorSpec("s", (dims[0],)))
    op = OpSpec(
        name="k",
        op_class=op_class,
        inputs=tuple(inputs),
        outputs=(TensorSpec("y", dims),),
        ispace=ispace,
        flop_per_point=draw(st.sampled_from([0.0, 1.0, 2.0])),
    )
    cap = draw(st.sampled_from([None, 5, 17, 50]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return op, env, cap, seed


@st.composite
def contraction_ops(draw, sizes=SIZES):
    """A random contraction over one of :data:`EINSUMS`: ``(op, env)``."""
    einsum, da, db, dc = draw(st.sampled_from(EINSUMS))
    all_dims = sorted(set(da) | set(db) | set(dc))
    env = DimEnv({d: draw(sizes) for d in all_dims})
    op = contraction_spec("c", einsum, ("a", "b"), "y")
    return op, env


def assert_bit_identical(ref, got):
    """``got`` equals the reference sweep ``ref`` bit for bit.

    Same config count, ``times_us()`` equal to the reference's measurement
    totals, and per measurement the same config and exactly equal
    compute/memory/launch components (float ``==``, no tolerance: the
    bit-identity contract).
    """
    assert got.num_configs == ref.num_configs
    assert got.times_us() == [m.total_us for m in ref.measurements]
    for a, b in zip(ref.measurements, got.measurements):
        assert a.config == b.config
        assert a.time.compute_us == b.time.compute_us
        assert a.time.memory_us == b.time.memory_us
        assert a.time.launch_us == b.time.launch_us
