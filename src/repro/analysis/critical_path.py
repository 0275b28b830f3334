"""Dataflow critical-path analysis of dynamic traces.

ReDSOC's benefit is bounded by how much of a program's *dataflow
critical path* runs through recyclable single-cycle operations: on an
infinitely wide machine with perfect memory, execution time equals the
longest register-dependence chain.  This module computes that bound
under both timing disciplines:

* **synchronous** — every producer-consumer hand-off waits for a clock
  edge (each single-cycle op costs a full cycle on the chain),
* **transparent** — recyclable ops cost only their EX-TIME ticks, with
  hand-offs at completion instants (an idealised ReDSOC: no FU limits,
  no scheduling constraints).

The ratio of the two is the *dataflow-bound speedup*: an upper bound on
what any implementation of slack recycling can achieve for that trace.
The bench compares measured speedups against it (measured must never
exceed the bound) and uses it to separate "the workload has no slack on
its critical path" from "the microarchitecture failed to harvest it".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.slack_lut import SlackLUT
from repro.core.ticks import DEFAULT_TICK_BASE, TickBase
from repro.isa.opcodes import OpClass, Opcode
from repro.pipeline.trace import Trace


@dataclass(frozen=True)
class CriticalPathResult:
    """Dataflow bounds for one trace."""

    synchronous_ticks: int
    transparent_ticks: int
    instructions: int

    @property
    def bound_speedup(self) -> float:
        """Upper bound on slack-recycling speedup for this trace."""
        if self.transparent_ticks == 0:
            return 0.0
        return self.synchronous_ticks / self.transparent_ticks - 1.0


#: fixed chain costs (cycles) for non-recyclable classes on the ideal
#: machine; memory is charged an L1 hit (the bound intentionally ignores
#: misses — it isolates the *compute* chain)
_LATENCY_CYCLES = {
    OpClass.LOAD: 2,
    OpClass.STORE: 1,
    OpClass.MUL: 3,
    OpClass.DIV: 12,
    OpClass.FP: 4,
    OpClass.BRANCH: 1,
    OpClass.SIMD: 3,
}


def analyze_critical_path(trace: Trace, *,
                          base: TickBase = DEFAULT_TICK_BASE,
                          lut: SlackLUT = None) -> CriticalPathResult:
    """Longest register-dependence chain under both disciplines."""
    lut = lut or SlackLUT(base)
    ticks_per_cycle = base.ticks_per_cycle
    ready_sync: Dict = {}
    ready_trans: Dict = {}
    longest_sync = 0
    longest_trans = 0

    def edge(tick: int) -> int:
        return ((tick + ticks_per_cycle - 1)
                // ticks_per_cycle) * ticks_per_cycle

    for entry in trace.entries:
        instr = entry.instr
        cls = instr.cls
        if cls in (OpClass.NOP, OpClass.HALT):
            continue
        sources = instr.sources()
        start_sync = max((ready_sync.get(reg, 0) for reg in sources),
                         default=0)
        start_trans = max((ready_trans.get(reg, 0) for reg in sources),
                          default=0)

        recyclable = (cls is OpClass.ALU
                      or (cls is OpClass.SIMD
                          and instr.op not in (Opcode.VMUL,)))
        if recyclable:
            try:
                ex = lut.ex_time(instr, entry.op_width)
            except ValueError:
                ex = ticks_per_cycle
            done_sync = edge(start_sync) + ticks_per_cycle
            done_trans = start_trans + ex
        else:
            latency = _LATENCY_CYCLES.get(cls, 1) * ticks_per_cycle
            done_sync = edge(start_sync) + latency
            done_trans = edge(start_trans) + latency

        for reg in instr.dests():
            ready_sync[reg] = done_sync
            ready_trans[reg] = done_trans
        longest_sync = max(longest_sync, done_sync)
        longest_trans = max(longest_trans, done_trans)

    return CriticalPathResult(synchronous_ticks=longest_sync,
                              transparent_ticks=longest_trans,
                              instructions=len(trace.entries))
