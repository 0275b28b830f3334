"""Analysis layer: statistics, sequences, power conversion, reports."""

from .critical_path import CriticalPathResult, analyze_critical_path
from .power import DVFSModel, power_savings_from_speedup
from .timeline import Window, render_exec_windows, render_windows
from .stats import (
    HIGH_SLACK_FRACTION,
    OP_CLASSES,
    OpDistribution,
    SimStats,
    speedup,
)

__all__ = [
    "CriticalPathResult", "DVFSModel", "HIGH_SLACK_FRACTION",
    "OP_CLASSES", "OpDistribution", "analyze_critical_path",
    "SimStats", "Window", "power_savings_from_speedup",
    "render_exec_windows", "render_windows", "speedup",
]
