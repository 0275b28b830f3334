"""Simulation statistics: counters, operation distribution, speedup.

Everything the evaluation section reports is derived from this module:
IPC/cycles (Fig. 13, 15), the Fig. 10 operation-class distribution,
FU-stall rates (Fig. 14), predictor accuracies (Fig. 12, Sec. II-B) and
transparent-sequence statistics (Fig. 11).

:class:`SimStats` is the flat, JSON-friendly record the benches and the
campaign cache consume.  Both engines set its fields directly at the
end of a run; :func:`repro.obs.export.run_metrics` turns a record (plus
a traced run's events) into a metrics registry for export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: Fig. 10 operation classes.
OP_CLASSES = ("MEM-HL", "MEM-LL", "SIMD", "OtherMulti", "ALU-LS", "ALU-HS")

#: Fig. 10's high-slack boundary: data slack > 20 % of the clock cycle.
HIGH_SLACK_FRACTION = 0.20


@dataclass
class OpDistribution:
    """Committed-operation class counts (Fig. 10)."""

    counts: Dict[str, int] = field(
        default_factory=lambda: {cls: 0 for cls in OP_CLASSES})

    def add(self, op_class: str) -> None:
        self.counts[op_class] += 1

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fractions(self) -> Dict[str, float]:
        total = self.total or 1
        return {cls: n / total for cls, n in self.counts.items()}

    def fraction(self, op_class: str) -> float:
        return self.fractions()[op_class]


@dataclass
class SimStats:
    """Full counter set of one simulation run."""

    cycles: int = 0
    committed: int = 0

    # scheduling / recycling
    recycled_ops: int = 0          # ops that started mid-cycle
    eager_issues: int = 0          # GP-phase (same-cycle-as-parent) issues
    two_cycle_holds: int = 0
    fu_stall_cycles: int = 0
    dispatch_stall_cycles: int = 0

    # replays
    la_replays: int = 0            # last-arrival mispredict reissues
    width_replays: int = 0         # aggressive width mispredict reissues

    # front end
    branch_mispredicts: int = 0
    branches: int = 0

    distribution: OpDistribution = field(default_factory=OpDistribution)

    # predictor rates (copied from predictor stats at end of run)
    width_aggressive_rate: float = 0.0
    width_accuracy: float = 0.0
    la_misprediction_rate: float = 0.0
    la_predictions: int = 0
    la_mispredictions: int = 0

    # transparent sequences (Fig. 11)
    seq_expected_length: float = 0.0
    seq_mean_length: float = 0.0
    num_sequences: int = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def fu_stall_rate(self) -> float:
        return self.fu_stall_cycles / self.cycles if self.cycles else 0.0

    @property
    def branch_accuracy(self) -> float:
        if not self.branches:
            return 1.0
        return 1.0 - self.branch_mispredicts / self.branches


def speedup(baseline_cycles: int, improved_cycles: int) -> float:
    """Relative speedup of *improved* over *baseline* (same work)."""
    if improved_cycles <= 0:
        raise ValueError("cycles must be positive")
    return baseline_cycles / improved_cycles - 1.0
