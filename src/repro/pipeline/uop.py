"""Dynamic micro-op state flowing through the timing pipeline."""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass

from .trace import TraceEntry


class UopState(enum.Enum):
    DISPATCHED = "dispatched"   # in ROB + RS, waiting for sources
    ISSUED = "issued"           # selected, timing computed
    COMMITTED = "committed"


#: Stable small-integer index per :class:`OpClass` (definition order).
#: The hot scheduler paths index plain lists with it instead of hashing
#: enum members — ``Enum.__hash__`` is a Python-level call and shows up
#: hot when every wakeup/select touches per-class dicts.
OPCLASS_INDEX = {cls: idx for idx, cls in enumerate(OpClass)}


class Uop:
    """One in-flight dynamic instruction.

    Timing fields are absolute *ticks* (see :mod:`repro.core.ticks`):

    * ``start_tick`` — instant real computation begins at the FU,
    * ``end_tick`` — instant the result stabilises (the CI, un-quantised
      cycle-relative form is ``end_tick % ticks_per_cycle``),
    * ``avail_tick`` — instant a *transparent* consumer may use the value
      (= ``end_tick``); synchronous consumers round up to the next edge.

    ``ex_ticks`` is the EX-TIME the scheduler used (from the slack LUT
    with the *predicted* width); ``actual_ex_ticks`` uses the observed
    width and exposes aggressive width mispredictions at execute.
    """

    __slots__ = (
        "seq", "entry", "sources", "dependents", "state",
        "fu_class", "cls_idx", "in_ready", "latency_cycles", "transparent",
        "ex_ticks", "actual_ex_ticks", "predicted_width",
        "second_predicted_last", "eligible_cycle", "issue_cycle",
        "start_tick", "end_tick", "avail_tick", "sync_avail", "done_cycle",
        "chain_id", "replayed", "waiting_on", "la_applied", "width_applied",
        "mem_hl", "order_dep",
    )

    def __init__(self, seq: int, entry: TraceEntry) -> None:
        self.seq = seq
        self.entry = entry
        #: producing Uops for each register source (dataflow edges)
        self.sources: List[Optional["Uop"]] = []
        self.dependents: List["Uop"] = []
        self.state = UopState.DISPATCHED
        self.fu_class: OpClass = entry.cls
        self.cls_idx = OPCLASS_INDEX[self.fu_class]
        #: a live request in its class's ready lane; cleared by
        #: ReadyQueues.remove, after which the lane's heap entry is
        #: stale and select pops it when it reaches the head
        self.in_ready = False
        self.latency_cycles = 1
        self.transparent = False
        self.ex_ticks = 0
        self.actual_ex_ticks = 0
        self.predicted_width = 32
        self.second_predicted_last = True
        self.eligible_cycle: Optional[int] = None
        self.issue_cycle: Optional[int] = None
        self.start_tick = 0
        self.end_tick = 0
        self.avail_tick = 0
        self.sync_avail = 0
        self.done_cycle: Optional[int] = None
        self.chain_id: Optional[int] = None
        self.replayed = False
        #: watched source uops that have not broadcast yet
        self.waiting_on: set = set()
        self.la_applied = False       # last-arrival prediction in use
        self.width_applied = False    # width prediction in use
        self.mem_hl = False           # load missed L1 (Fig. 10 class)
        #: memory-ordering dependency: the youngest older store (loads
        #: wait for all older store addresses — no disambiguation
        #: speculation); carried outside `sources` so it gates issue
        #: order without affecting operand-availability timing
        self.order_dep: Optional["Uop"] = None

    @property
    def instr(self) -> Instruction:
        return self.entry.instr

    def __repr__(self) -> str:
        return f"Uop#{self.seq}({self.instr!r}, {self.state.value})"
