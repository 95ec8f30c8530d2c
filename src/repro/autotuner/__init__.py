"""Exhaustive per-operator configuration tuning (paper Sec. V)."""

from .tuner import (
    ConfigMeasurement,
    SweepResult,
    sweep_graph,
    sweep_op,
    sweep_op_reference,
)
from .violin import ViolinSummary, render_ascii, summarize

__all__ = [
    "ConfigMeasurement",
    "SweepResult",
    "ViolinSummary",
    "render_ascii",
    "summarize",
    "sweep_graph",
    "sweep_op",
    "sweep_op_reference",
]
