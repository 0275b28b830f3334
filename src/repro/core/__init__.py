"""ReDSOC core: slack classification, slack-aware scheduling, recycling.

The paper's contribution lives here:

* :class:`~repro.core.slack_lut.SlackLUT` — 14-bucket slack table,
* :class:`~repro.core.width_predictor.WidthPredictor` /
  :class:`~repro.core.last_arrival.LastArrivalPredictor`,
* :class:`~repro.core.cpu.CoreSimulator` / :func:`~repro.core.cpu.simulate`
  — the cycle-level OOO core with transparent slack recycling,
* :data:`~repro.core.config.SMALL` / ``MEDIUM`` / ``BIG`` — Table I cores.
"""

from .config import (
    BIG,
    CORES,
    CoreConfig,
    MEDIUM,
    RecycleMode,
    SMALL,
    SchedulerDesign,
)
from .cpu import CoreSimulator, SimResult, simulate
from .engine import ENGINES, EngineRegistry
from .last_arrival import LastArrivalPredictor
from .lower import LoweredTrace, lower_trace
from .overheads import OverheadReport, overhead_report
from .pvt import (
    CriticalPathMonitor,
    DriftScenario,
    PVTCondition,
    PVTRecalibrator,
    SCENARIOS,
    delay_scale,
    recalibration_report,
)
from .scheduler import ReadyQueues, wake_cycle
from .select import (
    AgeMaskTable,
    SelectRequest,
    multi_grant_bitlevel,
    select_requests,
)
from .slack_lut import SlackKey, SlackLUT, WIDTH_CLASSES
from .ticks import DEFAULT_TICK_BASE, DEFAULT_TICKS_PER_CYCLE, TickBase
from .transparent import ExecTiming, SequenceTracker, resolve_execution
from .width_predictor import WidthPredictor

__all__ = [
    "AgeMaskTable", "BIG", "CORES", "CoreConfig", "CoreSimulator",
    "DEFAULT_TICKS_PER_CYCLE", "DEFAULT_TICK_BASE", "ENGINES",
    "EngineRegistry", "ExecTiming",
    "CriticalPathMonitor", "DriftScenario", "LastArrivalPredictor",
    "LoweredTrace", "MEDIUM", "OverheadReport", "PVTCondition",
    "PVTRecalibrator", "ReadyQueues", "RecycleMode", "SCENARIOS",
    "SMALL", "SchedulerDesign", "SelectRequest", "SequenceTracker",
    "SimResult", "SlackKey", "SlackLUT", "TickBase", "WIDTH_CLASSES",
    "WidthPredictor", "lower_trace",
    "multi_grant_bitlevel", "resolve_execution",
    "delay_scale", "overhead_report", "recalibration_report",
    "select_requests", "simulate", "wake_cycle",
]
