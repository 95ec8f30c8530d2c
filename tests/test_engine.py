"""Tests for the batched sweep engine: memoization and laziness."""

from repro.autotuner.tuner import (
    ConfigMeasurement,
    SweepResult,
    sweep_graph,
    sweep_op,
    sweep_op_reference,
)
from repro.engine import clear_sweep_memo, sweep_memo_stats
from repro.engine.memo import SWEEP_MEMO_ENTRIES, memo_get, memo_put
from repro.engine.sweep import PreSortedMeasurements
from repro.engine.sweep import sweep_op as engine_sweep_op
from repro.hardware.cost_model import CostModel, KernelTime
from repro.ir.dims import bert_large_dims, small_test_dims
from repro.ir.tensor import TensorSpec
from repro.layouts.config import OpConfig
from repro.layouts.layout import Layout
from repro.ops.contraction import contraction_spec
from repro.ops.elementwise import bias_spec
from repro.transformer.graph_builder import build_encoder_graph

ENV = bert_large_dims()
COST = CostModel()


def _bias_op():
    x = TensorSpec("qq", ("p", "h", "b", "j"))
    return bias_spec("aib", x, ("p", "h"), "out")


class TestEngineIdentity:
    def test_kernel_sweep_bit_identical(self):
        op = _bias_op()
        ref = sweep_op_reference(op, ENV, COST, cap=300)
        eng = engine_sweep_op(op, ENV, COST, cap=300, memo=False)
        assert eng.num_configs == ref.num_configs
        for a, b in zip(ref.measurements, eng.measurements):
            assert a.config == b.config
            assert a.time == b.time

    def test_contraction_sweep_bit_identical(self):
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        ref = sweep_op_reference(op, ENV, COST)
        eng = engine_sweep_op(op, ENV, COST, memo=False)
        assert eng.num_configs == ref.num_configs
        for a, b in zip(ref.measurements, eng.measurements):
            assert a.config == b.config
            assert a.time == b.time

    def test_public_sweep_op_routes_through_engine(self):
        op = _bias_op()
        s = sweep_op(op, ENV, COST, cap=100)
        assert isinstance(s.measurements, PreSortedMeasurements)

    def test_sweep_graph_covers_kernels(self):
        g = build_encoder_graph(qkv_fusion="qkv", include_backward=False)
        sweeps = sweep_graph(g, ENV, COST, cap=50)
        assert set(sweeps) == {op.name for op in g.ops if not op.is_view}


class TestMemo:
    def test_memo_returns_same_object(self):
        clear_sweep_memo()
        op = _bias_op()
        first = engine_sweep_op(op, ENV, COST, cap=120)
        second = engine_sweep_op(op, ENV, COST, cap=120)
        assert first is second
        stats = sweep_memo_stats()
        assert stats["hits"] >= 1 and stats["size"] >= 1

    def test_memo_distinguishes_env(self):
        clear_sweep_memo()
        op = _bias_op()
        a = engine_sweep_op(op, ENV, COST, cap=120)
        b = engine_sweep_op(op, small_test_dims(), COST, cap=120)
        assert a is not b

    def test_memo_distinguishes_kernel_cap(self):
        clear_sweep_memo()
        op = _bias_op()
        a = engine_sweep_op(op, ENV, COST, cap=60)
        b = engine_sweep_op(op, ENV, COST, cap=120)
        assert a is not b and a.num_configs != b.num_configs

    def test_contraction_memo_ignores_cap(self):
        clear_sweep_memo()
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        a = engine_sweep_op(op, ENV, COST, cap=60)
        b = engine_sweep_op(op, ENV, COST, cap=2000)
        assert a is b  # contraction sweeps are exhaustive; cap never applies

    def test_memo_keeps_most_recently_used_past_the_bound(self):
        clear_sweep_memo()
        op = _bias_op()
        sweep = engine_sweep_op(op, ENV, COST, cap=120)
        fillers = [("filler", i) for i in range(SWEEP_MEMO_ENTRIES + 10)]
        for key in fillers[: SWEEP_MEMO_ENTRIES - 1]:
            memo_put(key, sweep)
        # A hit refreshes the real sweep, so the next puts evict fillers.
        assert engine_sweep_op(op, ENV, COST, cap=120) is sweep
        for key in fillers[SWEEP_MEMO_ENTRIES - 1 :]:
            memo_put(key, sweep)
        assert sweep_memo_stats()["size"] == SWEEP_MEMO_ENTRIES
        assert engine_sweep_op(op, ENV, COST, cap=120) is sweep
        evicted = len(fillers) + 1 - SWEEP_MEMO_ENTRIES
        assert all(memo_get(key) is None for key in fillers[:evicted])
        assert all(memo_get(key) is sweep for key in fillers[evicted:])
        clear_sweep_memo()


class TestLaziness:
    def test_best_materializes_one_measurement(self):
        op = _bias_op()
        s = engine_sweep_op(op, ENV, COST, cap=200, memo=False)
        ms = s.measurements
        assert isinstance(ms, PreSortedMeasurements)
        built = lambda: sum(1 for x in ms._items if x is not None)  # noqa: E731
        assert built() == 0
        s.best  # noqa: B018
        assert built() == 1
        s.quantile_us(0.5)
        assert built() <= 2

    def test_times_us_materializes_nothing(self):
        op = _bias_op()
        s = engine_sweep_op(op, ENV, COST, cap=200, memo=False)
        times = s.times_us()
        assert times == sorted(times) and len(times) == s.num_configs
        assert all(x is None for x in s.measurements._items)

    def test_slicing_and_negative_indexing(self):
        op = _bias_op()
        s = engine_sweep_op(op, ENV, COST, cap=50, memo=False)
        head = s.measurements[:5]
        assert [m.total_us for m in head] == s.times_us()[:5]
        assert s.measurements[-1].total_us == s.worst.total_us


class TestOperandLayoutQueries:
    def _mixed_arity_sweep(self):
        """Measurements whose configs have different operand arity."""
        op = _bias_op()
        x_layout = Layout(("p", "h", "b", "j"))
        narrow = ConfigMeasurement(
            config=OpConfig(op_name="aib", input_layouts=(x_layout,), output_layouts=()),
            time=KernelTime(1.0, 1.0, 1.0),
        )
        wide = ConfigMeasurement(
            config=OpConfig(
                op_name="aib",
                input_layouts=(x_layout, Layout(("p", "h"))),
                output_layouts=(),
            ),
            time=KernelTime(2.0, 2.0, 2.0),
        )
        return SweepResult(op=op, measurements=[narrow, wide])

    def test_best_with_operand_layout_skips_short_configs(self):
        sweep = self._mixed_arity_sweep()
        # Operand 1 only exists in the slower, wider config: the early
        # return-None bug made this query miss it entirely.
        m = sweep.best_with_operand_layout(1, Layout(("p", "h")))
        assert m is not None
        assert m.config.input_layouts[1] == Layout(("p", "h"))

    def test_best_for_layouts_index_matches_linear_scan(self):
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        sweep = sweep_op(op, ENV, COST)
        seen = set()
        for m in list(sweep.measurements)[:50]:
            key = (m.config.input_layouts, m.config.output_layouts)
            if key in seen:
                continue
            seen.add(key)
            expect_both = min(
                (
                    x
                    for x in sweep.measurements
                    if x.config.input_layouts == key[0]
                    and x.config.output_layouts == key[1]
                ),
                key=lambda x: x.total_us,
            )
            got = sweep.best_for_layouts(key[0], key[1])
            assert got.total_us == expect_both.total_us
            got_in = sweep.best_for_layouts(key[0], None)
            assert got_in.config.input_layouts == key[0]
        assert sweep.best_for_layouts(None, None) is sweep.measurements[0]

    def test_layout_pair_minima_matches_linear_scan(self):
        op = contraction_spec("lin", "ui,ibj->ubj", ("w", "x"), "y")
        sweep = sweep_op(op, ENV, COST)
        minima = sweep.layout_pair_minima(0, 0)
        expect: dict = {}
        for m in sweep.measurements:
            key = (m.config.input_layouts[0].dims, m.config.output_layouts[0].dims)
            if key not in expect or m.total_us < expect[key]:
                expect[key] = m.total_us
        assert minima == expect
        assert sweep.layout_pair_minima(0, 0) is minima  # cached
