"""Simulation statistics: counters, operation distribution, speedup.

Everything the evaluation section reports is derived from this module:
IPC/cycles (Fig. 13, 15), the Fig. 10 operation-class distribution,
FU-stall rates (Fig. 14), predictor accuracies (Fig. 12, Sec. II-B) and
transparent-sequence statistics (Fig. 11).

:class:`SimStats` stays the flat, JSON-friendly record the benches and
the campaign cache consume.  The reference simulator populates it
*through* its :class:`~repro.obs.metrics.MetricsRegistry` at the end of
a run: end-of-run gauges (predictor rates, sequence statistics) flow
from the registry into the dataclass (:meth:`SimStats.populate_from`),
and the live counters flow back out (:meth:`SimStats.export_counters`)
so a metrics snapshot is always a superset of the stats record.  The
compiled engine, which exports no metrics, sets the same fields
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.metrics import MetricsRegistry

#: Fig. 10 operation classes.
OP_CLASSES = ("MEM-HL", "MEM-LL", "SIMD", "OtherMulti", "ALU-LS", "ALU-HS")

#: Fig. 10's high-slack boundary: data slack > 20 % of the clock cycle.
HIGH_SLACK_FRACTION = 0.20

#: registry gauge name → SimStats field: values the simulator computes
#: once at the end of a run and publishes through the metrics registry
GAUGE_FIELDS: Dict[str, str] = {
    "predict.width.aggressive_rate": "width_aggressive_rate",
    "predict.width.accuracy": "width_accuracy",
    "predict.la.misprediction_rate": "la_misprediction_rate",
    "predict.la.predictions": "la_predictions",
    "predict.la.mispredictions": "la_mispredictions",
    "seq.expected_length": "seq_expected_length",
    "seq.mean_length": "seq_mean_length",
    "seq.count": "num_sequences",
    "front.branches": "branches",
    "front.branch_mispredicts": "branch_mispredicts",
}

#: registry counter name → SimStats field: counts the simulator keeps
#: inline in the hot loop and mirrors into the registry at finalize
COUNTER_FIELDS: Dict[str, str] = {
    "core.cycles": "cycles",
    "core.committed": "committed",
    "sched.recycled_ops": "recycled_ops",
    "sched.eager_issues": "eager_issues",
    "sched.two_cycle_holds": "two_cycle_holds",
    "sched.fu_stall_cycles": "fu_stall_cycles",
    "sched.dispatch_stall_cycles": "dispatch_stall_cycles",
    "sched.gp_mispeculations": "gp_mispeculations",
    "sched.wasted_gp_grants": "wasted_gp_grants",
    "replay.la": "la_replays",
    "replay.width": "width_replays",
}


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
    gp_mispeculations: int = 0     # only possible with unskewed selection
    wasted_gp_grants: int = 0

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

    # -- metrics-registry plumbing ------------------------------------

    def populate_from(self, metrics: MetricsRegistry) -> None:
        """Fill the end-of-run fields from registry gauges.

        This replaces the old ad-hoc field-copying block in the
        simulator's ``_finalize``: the simulator publishes predictor /
        sequence / front-end results as gauges, and this single mapping
        is the only place that knows which gauge lands in which field.
        Gauges absent from the registry leave their field untouched.
        """
        for gauge_name, field_name in GAUGE_FIELDS.items():
            gauge = metrics.gauges.get(gauge_name)
            if gauge is not None:
                setattr(self, field_name, gauge.value)

    def export_counters(self, metrics: MetricsRegistry) -> None:
        """Mirror the hot-loop counters (and the Fig. 10 distribution)
        into the registry so a metrics snapshot is self-contained."""
        for counter_name, field_name in COUNTER_FIELDS.items():
            metrics.counter(counter_name).set(getattr(self, field_name))
        for op_class, count in self.distribution.counts.items():
            metrics.counter(f"dist.{op_class}").set(count)


def speedup(baseline_cycles: int, improved_cycles: int) -> float:
    """Relative speedup of *improved* over *baseline* (same work)."""
    if improved_cycles <= 0:
        raise ValueError("cycles must be positive")
    return baseline_cycles / improved_cycles - 1.0
