"""Post-run invariant auditing of the timing engine.

The simulator's correctness rests on a handful of timing invariants
that must hold for *every* issued operation, whatever the mode:

1. **arrival** — computation never starts before the op's FU-arrival
   edge (``issue + latency`` cycles);
2. **dataflow** — computation never starts before every source value is
   usable (transparent CI for transparent hand-offs, the latching edge
   otherwise): recycling must stay timing non-speculative;
3. **window** — ``end == start + EX-TIME``, with EX-TIME at least the
   conservatively-quantised bucket time;
4. **discipline** — non-transparent ops start exactly on clock edges;
   baseline mode never starts anything mid-cycle;
5. **capacity** — per cycle, each FU class never holds more operations
   (including 2-cycle holds) than it has units;
6. **completeness** — every trace entry commits exactly once.

:func:`audit_run` executes a trace under an instrumented simulator that
records each issued uop's EXEC_WINDOW payload
(:func:`repro.core.cpu.exec_window`), checks all of the above over
those records, and returns the violations (an empty list is the pass
condition).  The integration tests sweep it across workloads, modes
and cores — any scheduler regression that breaks a timing rule surfaces
here even when cycle counts still look plausible.

:func:`audit_from_events` runs the same checks over the EXEC_WINDOW /
COMMIT / META events a traced run published (e.g. loaded back from a
JSONL dump via :func:`repro.obs.export.read_events_jsonl`), without a
second simulation: the rules are written once, over the record both
paths share.  ``audit_run`` additionally publishes each violation as a
VIOLATION event when a sink is attached, so audit outcomes travel on
the same bus as the pipeline trace.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.config import CoreConfig, RecycleMode
from repro.core.cpu import CoreSimulator, SimResult, exec_window
from repro.core.ticks import TickBase
from repro.obs.events import Event, EventKind
from repro.pipeline.trace import Trace


@dataclass
class AuditViolation:
    rule: str
    seq: int
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule}] uop#{self.seq}: {self.detail}"


@dataclass
class AuditResult:
    result: SimResult
    violations: List[AuditViolation] = field(default_factory=list)
    audited_uops: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


class _RecordingSimulator(CoreSimulator):
    """CoreSimulator that records every issued uop's EXEC_WINDOW event."""

    def __init__(self, trace: Trace, config: CoreConfig, *,
                 obs=None) -> None:
        super().__init__(trace, config, obs=obs)
        self.windows: List[Event] = []

    def _finalize_issue(self, uop, cycle, timing, *, eager=False):
        super()._finalize_issue(uop, cycle, timing, eager=eager)
        self.windows.append(Event(EventKind.EXEC_WINDOW, cycle, uop.seq,
                                  exec_window(uop, cycle, timing, eager)))


def _check(windows: Iterable[Event], base: TickBase, mode: RecycleMode,
           pools: Dict[str, int], committed: int,
           instructions: int) -> List[AuditViolation]:
    """The six invariants over EXEC_WINDOW events (see module doc)."""
    violations: List[AuditViolation] = []
    occupancy: Dict[str, Dict[int, int]] = defaultdict(
        lambda: defaultdict(int))

    def flag(rule: str, seq: int, detail: str) -> None:
        violations.append(AuditViolation(rule, seq, detail))

    for event in windows:
        d = event.data
        seq = event.seq
        is_mem = d["mem"]

        # 1. arrival: no computation before the FU-arrival edge (replays
        # restart from later edges, which is also legal)
        arrival_edge = base.cycle_start(d["issue"] + d["lat"])
        if d["start"] < arrival_edge:
            flag("arrival", seq,
                 f"start {d['start']} before arrival edge "
                 f"{arrival_edge}")

        # 2. dataflow: operands must be usable at the start instant
        if not is_mem:
            for src_seq, avail in d["srcs"]:
                if avail is None:
                    flag("dataflow", seq,
                         f"source #{src_seq} never issued")
                elif d["start"] < avail:
                    flag("dataflow", seq,
                         f"start {d['start']} before source "
                         f"#{src_seq} avail {avail}")

        # 3. window: end = start + EX-TIME (scheduled, or the true
        # width's EX-TIME after an aggressive-misprediction replay)
        if not is_mem and d["end"] not in (d["start"] + d["ex"],
                                           d["start"] + d["ex_actual"]):
            flag("window", seq,
                 f"end {d['end']} inconsistent with start "
                 f"{d['start']} + ex {d['ex']}")

        # 4. discipline
        mid_cycle = d["start"] % base.ticks_per_cycle != 0
        if mid_cycle and not d["transparent"]:
            flag("discipline", seq,
                 "non-transparent op started mid-cycle")
        if mid_cycle and mode is RecycleMode.BASELINE:
            flag("discipline", seq, "baseline op started mid-cycle")
        if mid_cycle and mode is RecycleMode.MOS and d["hold"]:
            flag("discipline", seq, "MOS op crossed a clock edge")

        # 5. capacity bookkeeping
        start_cycle = base.cycle_of(d["start"])
        occupancy[d["fu"]][start_cycle] += 1
        if d["hold"]:
            occupancy[d["fu"]][start_cycle + 1] += 1

    for fu, cycles in occupancy.items():
        limit = pools.get(fu)
        if limit is None:
            continue
        for cycle, used in cycles.items():
            if used > limit:
                violations.append(AuditViolation(
                    "capacity", -1,
                    f"{fu} used {used}/{limit} units in cycle "
                    f"{cycle}"))

    # 6. completeness
    if committed != instructions:
        violations.append(AuditViolation(
            "completeness", -1,
            f"committed {committed} of {instructions}"))
    return violations


def audit_run(trace: Trace, config: CoreConfig, *,
              obs=None) -> AuditResult:
    """Simulate *trace* under *config* and audit every invariant.

    With an event sink attached, the run is traced as usual and every
    audit violation is additionally published as a VIOLATION event, so
    a recorded stream carries both the timeline and its verdict.
    """
    sim = _RecordingSimulator(trace, config, obs=obs)
    result = sim.run()
    pools = {cls.value: pool.count for cls, pool in sim.res.pools.items()}
    violations = _check(sim.windows, sim.base, config.mode, pools,
                        result.stats.committed, len(trace.entries))

    if obs is not None:
        for violation in violations:
            obs.emit(Event(EventKind.VIOLATION, -1, violation.seq, {
                "rule": violation.rule, "detail": violation.detail,
            }))

    return AuditResult(result=result, violations=violations,
                       audited_uops=len(sim.windows))


@dataclass
class ReplayAuditResult:
    """Outcome of auditing a recorded event stream (no simulation)."""

    violations: List[AuditViolation] = field(default_factory=list)
    audited_uops: int = 0
    committed: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def audit_from_events(events: Iterable[Event]) -> ReplayAuditResult:
    """Re-derive the full timing audit from a recorded event stream.

    Consumes the stream a traced run published (META + EXEC_WINDOW +
    COMMIT) and runs the same checks :func:`audit_run` runs on its own
    recorded windows.  That makes a JSONL dump a *sufficient* artefact
    for post-hoc debugging: no re-simulation needed.
    """
    meta: Optional[Dict] = None
    windows: List[Event] = []
    committed = 0
    for event in events:
        if event.kind is EventKind.META:
            meta = event.data
        elif event.kind is EventKind.EXEC_WINDOW:
            windows.append(event)
        elif event.kind is EventKind.COMMIT:
            committed += 1

    if meta is None:
        raise ValueError("event stream has no META event "
                         "(not a recorded simulation trace?)")
    violations = _check(windows,
                        TickBase(ticks_per_cycle=meta["ticks_per_cycle"]),
                        RecycleMode(meta["mode"]), meta.get("pools", {}),
                        committed, meta["instructions"])
    return ReplayAuditResult(violations=violations,
                             audited_uops=len(windows),
                             committed=committed)
