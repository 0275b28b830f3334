"""Conventional OOO pipeline substrate: trace, branch, uops, resources."""

from .branch import BranchStats, GsharePredictor
from .resources import ExecutionResources, FUPool, FUStats
from .trace import Trace, TraceEntry, generate_trace
from .uop import Uop, UopState

__all__ = [
    "BranchStats", "ExecutionResources", "FUPool", "FUStats",
    "GsharePredictor", "Trace", "TraceEntry", "Uop", "UopState",
    "generate_trace",
]
