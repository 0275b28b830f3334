"""Trace lowering: flatten a dynamic trace into parallel columns.

The dynamic instruction stream is fully known before timing starts
(the functional interpreter already ran), so — in the spirit of
ahead-of-time analyzers like OSACA — everything the timing model would
re-derive per uop can be computed **once per trace**:

* **columns** — per-entry scalars (`pc`, `op_width`, `mem_addr`, FU
  class index, slack-LUT/static-instruction index, ...) land in flat
  plain-list columns instead of per-uop objects;
* **static dataflow** — an architectural-register RAT walk over the
  trace yields, for every entry, the exact producer seqs its dispatch
  rename would resolve (the RAT never rewinds: dispatch is
  trace-ordered), the youngest older overlapping store
  (``order_dep``), and the forward dependents list.  The RAT is a flat
  list indexed by integer register ids, and each static instruction's
  source and destination ids, op class and branch kind are worked out
  once per pc, not once per dynamic entry.

The lowering is *config-independent* (no mode/threshold/width-predictor
state leaks in) and memoized on the trace object, so one trace swept
over a cores × modes grid lowers exactly once.

Correctness notes (the equivalences the compiled backend relies on):

* producer filtering by "committed at dispatch time" stays dynamic —
  the static lists hold every producer, supersets are safe because all
  consumers gate on liveness at dispatch;
* a load's ``order_dep`` is the globally youngest older overlapping
  store; whenever the dynamic model would have found *no* in-flight
  store, this one is already committed and every use of it is a no-op
  (stores commit in order);
* ``dependents`` lists include not-yet-dispatched consumers; backends
  must gate notification/GP-candidacy on "already dispatched".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.isa.opcodes import Cond, OpClass, Opcode
from repro.isa.registers import NUM_REG_IDS, reg_id
from repro.pipeline.trace import Trace
from repro.pipeline.uop import OPCLASS_INDEX


@dataclass
class LoweredTrace:
    """Flat-column view of one dynamic trace (see module docstring).

    It holds no reference back to its trace: the trace memoizes it as
    ``trace._lowered``, and a back-reference would make the pair a
    cycle that outlives its last user until a full GC pass.
    """

    n: int
    # -- per-dynamic-entry columns -------------------------------------
    pc: List[int]
    op_width: List[int]
    mem_addr: List[int]      # -1 when the entry touches no memory
    mem_size: List[int]
    cls_idx: List[int]       # OPCLASS_INDEX of the FU class
    static_idx: List[int]    # index into `instrs` (the slack-LUT index)
    taken: List[int]
    is_store: List[int]
    is_cond_branch: List[int]   # conditional B: the gshare-visible ops
    # -- static dataflow ------------------------------------------------
    producers: Tuple[Tuple[int, ...], ...]
    order_dep: List[int]     # seq of the youngest older overlapping store
    dependents: Tuple[Tuple[int, ...], ...]
    # -- static instruction table --------------------------------------
    instrs: Tuple            # unique static instructions, keyed by pc

    def entry_tuple(self, i: int) -> tuple:
        """Round-trip view of entry *i* (tested against the Trace)."""
        return (self.instrs[self.static_idx[i]], self.pc[i],
                bool(self.taken[i]), self.op_width[i],
                None if self.mem_addr[i] < 0 else self.mem_addr[i],
                self.mem_size[i], bool(self.is_store[i]),
                tuple(OPCLASS_INDEX)[self.cls_idx[i]])


def _static_row(instr, sidx: int) -> tuple:
    """What lowering needs of one static instruction, once per pc:
    ``(static index, source ids, dest ids, op-class index, conditional
    branch?, load?)`` with registers as flat ids
    (:data:`~repro.isa.registers.NUM_REG_IDS`)."""
    cls = instr.cls
    return (sidx,
            tuple(reg_id(reg) for reg in instr.sources()),
            tuple(reg_id(reg) for reg in instr.dests()),
            OPCLASS_INDEX[cls],
            1 if (cls is OpClass.BRANCH and instr.op is Opcode.B
                  and instr.cond is not Cond.AL) else 0,
            cls is OpClass.LOAD)


def lower_trace(trace: Trace) -> LoweredTrace:
    """Lower *trace*; memoized on the trace object."""
    cached = getattr(trace, "_lowered", None)
    if cached is not None:
        return cached

    entries = trace.entries
    n = len(entries)
    col_pc = [0] * n
    col_width = [0] * n
    col_addr = [0] * n
    col_size = [0] * n
    col_cls = [0] * n
    col_static = [0] * n
    col_taken = [0] * n
    col_store = [0] * n
    col_condbr = [0] * n
    col_order = [0] * n

    instrs: List = []
    rows: Dict[int, tuple] = {}

    producers: List[Tuple[int, ...]] = []
    dependents: List[List[int]] = [[] for _ in range(n)]
    rat = [-1] * NUM_REG_IDS
    last_store_at: Dict[int, int] = {}
    last_store = last_store_at.get

    for i, entry in enumerate(entries):
        pc = entry.pc
        row = rows.get(pc)
        if row is None:
            row = rows[pc] = _static_row(entry.instr, len(instrs))
            instrs.append(entry.instr)
        sidx, src_ids, dst_ids, cls_idx, condbr, is_load = row
        addr = entry.mem_addr
        size = entry.mem_size or 0
        col_pc[i] = pc
        col_width[i] = entry.op_width
        col_addr[i] = -1 if addr is None else addr
        col_size[i] = size
        col_cls[i] = cls_idx
        col_static[i] = sidx
        col_taken[i] = 1 if entry.taken else 0
        col_store[i] = 1 if entry.is_store else 0
        col_condbr[i] = condbr

        # rename: the last trace-order writer of each source register
        srcs: List[int] = []
        for reg in src_ids:
            p = rat[reg]
            if p >= 0 and p not in srcs:
                srcs.append(p)
        producers.append(tuple(srcs))
        for p in srcs:
            dependents[p].append(i)

        # memory disambiguation: youngest older overlapping store
        order = -1
        if is_load and addr is not None:
            for b in range(addr, addr + size):
                s = last_store(b, -1)
                if s > order:
                    order = s
        col_order[i] = order
        if order >= 0 and order not in srcs:
            dependents[order].append(i)
        if entry.is_store and addr is not None:
            for b in range(addr, addr + size):
                last_store_at[b] = i
        for reg in dst_ids:
            rat[reg] = i

    lowered = LoweredTrace(
        n=n,
        pc=col_pc, op_width=col_width,
        mem_addr=col_addr, mem_size=col_size, cls_idx=col_cls,
        static_idx=col_static, taken=col_taken, is_store=col_store,
        is_cond_branch=col_condbr,
        producers=tuple(producers), order_dep=col_order,
        dependents=tuple(tuple(d) for d in dependents),
        instrs=tuple(instrs))
    try:
        trace._lowered = lowered
    except AttributeError:
        pass          # Trace without __dict__: lowering stays uncached
    return lowered


__all__ = ["LoweredTrace", "lower_trace"]
