"""Slack look-up table: the 5-bit classification of Sec. II-B / Fig. 3.

Static timing analysis at design time measures computation times for
coarse *classes* of operations; the results live in a small LUT that the
decode stage reads.  The 5-bit lookup address is::

    [ arith/logic | shift | simd | width/type (2 bits) ]

* ``arith/logic`` and ``shift`` are don't-cares for SIMD instructions
  (the SIMD unit's lane path is selected by type alone);
* ``width/type`` holds the *predicted data width* class for scalar ops
  and the *data type* for SIMD ops.

Because the logic unit's delay is width-independent, logic classes
collapse across widths; the distinct buckets are

    2 (logic × shift?) + 8 (arith × shift? × 4 widths) + 4 (SIMD types)
    = 14 slack buckets,

exactly the paper's count.  Each bucket stores the worst-case EX-TIME
(in ticks) over every operation mapping to it — conservative within the
bucket, so recycling never overtakes real signal propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    ARITH_OPS,
    LOGICAL_OPS,
    OpClass,
    Opcode,
    SHIFT_OPS,
    SIMD_ACCUMULATE_OPS,
    SIMD_SINGLE_CYCLE_OPS,
    ShiftOp,
    SimdType,
    is_single_cycle_alu,
)
from repro.timing.alu_timing import scalar_op_delay_ps
from repro.timing.simd_timing import (
    simd_op_delay_ps,
    vmla_accumulate_delay_ps,
)

from .config import (
    CoreConfig,
    DIV_LATENCY,
    FDIV_LATENCY,
    FP_LATENCY,
    MUL_LATENCY,
    SIMD_MULTICYCLE_LATENCY,
)
from .ticks import DEFAULT_TICK_BASE, TickBase

#: The four width/type classes (scalar widths in bits / SIMD lane types).
WIDTH_CLASSES = (8, 16, 24, 32)
_TYPE_TO_CLASS = {SimdType.I8: 0, SimdType.I16: 1, SimdType.I32: 2,
                  SimdType.I64: 3}


def width_class_index(width: int) -> int:
    """Map an effective width (1..32) to its class index (0..3)."""
    for idx, bound in enumerate(WIDTH_CLASSES):
        if width <= bound:
            return idx
    return len(WIDTH_CLASSES) - 1


#: width → class index, precomputed over the in-range widths so the
#: decode-side fast path is one tuple index instead of a bounds loop
_WIDTH_TO_CLASS = tuple(width_class_index(w)
                        for w in range(WIDTH_CLASSES[-1] + 1))


@dataclass(frozen=True)
class SlackKey:
    """Decoded form of the 5-bit lookup address."""

    arith: bool
    shift: bool
    simd: bool
    width_class: int  # 0..3

    def address(self) -> int:
        """Pack into the 5-bit LUT address (Fig. 3)."""
        return ((int(self.arith) << 4) | (int(self.shift) << 3)
                | (int(self.simd) << 2) | self.width_class)

    @classmethod
    def from_address(cls, address: int) -> "SlackKey":
        return cls(arith=bool(address & 16), shift=bool(address & 8),
                   simd=bool(address & 4), width_class=address & 3)

    def canonical(self) -> "SlackKey":
        """Collapse don't-care bits: the bucket identity.

        SIMD ignores arith/shift; logic ignores width.  The canonical
        keys enumerate the paper's 14 buckets.
        """
        if self.simd:
            return SlackKey(False, False, True, self.width_class)
        if not self.arith:
            return SlackKey(False, self.shift, False,
                            len(WIDTH_CLASSES) - 1)
        return self


class SlackLUT:
    """The design-time slack table plus decode-time classification.

    Construction performs the "static circuit-level timing analysis":
    every single-cycle operation is timed by the structural models at the
    upper bound of each width class, and each bucket records the worst
    case.  ``pvt_scale`` supports the on-the-fly PVT recalibration the
    paper describes (Sec. V) — all entries scale together, re-quantised.
    """

    def __init__(self, tick_base: TickBase = DEFAULT_TICK_BASE, *,
                 pvt_scale: float = 1.0) -> None:
        if pvt_scale <= 0:
            raise ValueError("pvt_scale must be positive")
        self.tick_base = tick_base
        self.pvt_scale = pvt_scale
        self._table: Dict[int, int] = {}
        #: decode-side fast table, derived from ``_table`` at build
        #: time: ``(op, flex_shift, width_class) → ticks`` for scalar
        #: ops, ``(op, SimdType) → ticks`` for SIMD — one flat dict read
        #: per EX-TIME query instead of a SlackKey build + canonical walk
        self._fast: Dict[Tuple, int] = {}
        self._build()

    # -- design-time construction ---------------------------------------

    def _store(self, key: SlackKey, raw_ps: float) -> None:
        address = key.canonical().address()
        ticks = self.tick_base.ex_time_ticks(raw_ps * self.pvt_scale)
        self._table[address] = max(self._table.get(address, 0), ticks)

    def _build(self) -> None:
        for shift in (False, True):
            for op in LOGICAL_OPS:
                key = SlackKey(False, shift, False, 3)
                self._store(key, scalar_op_delay_ps(op, flex_shift=shift))
            for wc, bound in enumerate(WIDTH_CLASSES):
                for op in ARITH_OPS:
                    key = SlackKey(True, shift, False, wc)
                    self._store(key, scalar_op_delay_ps(
                        op, effective_width=bound, flex_shift=shift))
        # standalone shifts live in the logic-with-shift bucket: their
        # datapath is the barrel shifter, the same unit the flexible
        # operand uses
        for op in SHIFT_OPS:
            self._store(SlackKey(False, True, False, 3),
                        scalar_op_delay_ps(op))
        for dtype, wc in _TYPE_TO_CLASS.items():
            key = SlackKey(False, False, True, wc)
            for op in SIMD_SINGLE_CYCLE_OPS:
                self._store(key, simd_op_delay_ps(op, dtype))
            self._store(key, vmla_accumulate_delay_ps(dtype))
        self._build_fast()

    def _build_fast(self) -> None:
        """Flatten the bucket table into the per-opcode fast table.

        Enumerates every (opcode, shift, width-class) the decode stage
        can ever ask for, resolving the don't-care collapses (SIMD by
        type; logic/shift independent of width) ahead of time so
        :meth:`ex_time` is a single dict read.
        """
        fast = self._fast
        fast.clear()
        n_wc = len(WIDTH_CLASSES)
        for shift in (False, True):
            for wc in range(n_wc):
                for op in ARITH_OPS:
                    ticks = self.lookup(SlackKey(True, shift, False, wc))
                    fast[(op, shift, wc)] = ticks
                for op in LOGICAL_OPS:
                    ticks = self.lookup(SlackKey(False, shift, False, 3))
                    fast[(op, shift, wc)] = ticks
                for op in SHIFT_OPS:
                    ticks = self.lookup(SlackKey(False, True, False, 3))
                    fast[(op, shift, wc)] = ticks
        for dtype, wc in _TYPE_TO_CLASS.items():
            ticks = self.lookup(SlackKey(False, False, True, wc))
            for op in SIMD_SINGLE_CYCLE_OPS:
                fast[(op, dtype)] = ticks
            for op in SIMD_ACCUMULATE_OPS:
                fast[(op, dtype)] = ticks

    # -- decode-time lookup ----------------------------------------------

    def classify(self, instr: Instruction,
                 predicted_width: Optional[int] = None) -> SlackKey:
        """Build the lookup key for *instr*.

        ``predicted_width`` is the data-width predictor's output (bits);
        absent a prediction the conservative full width is used.  SIMD
        types come from the instruction itself.
        """
        op = instr.op
        if op in SIMD_SINGLE_CYCLE_OPS or op in SIMD_ACCUMULATE_OPS:
            dtype = instr.dtype or SimdType.I32
            return SlackKey(False, False, True, _TYPE_TO_CLASS[dtype])
        if not is_single_cycle_alu(op):
            raise ValueError(f"{op} has no slack bucket (not single-cycle)")
        if op in SHIFT_OPS:
            return SlackKey(False, True, False, len(WIDTH_CLASSES) - 1)
        shift = instr.has_flexible_shift()
        if op in LOGICAL_OPS:
            return SlackKey(False, shift, False, len(WIDTH_CLASSES) - 1)
        width = predicted_width if predicted_width is not None else 32
        return SlackKey(True, shift, False, width_class_index(width))

    def lookup(self, key: SlackKey) -> int:
        """EX-TIME in ticks for a slack key."""
        return self._table[key.canonical().address()]

    def ex_time(self, instr: Instruction,
                predicted_width: Optional[int] = None) -> int:
        """EX-TIME in ticks for an instruction (decode-stage read).

        Equivalent to ``lookup(classify(instr, predicted_width))`` but
        served from the precomputed per-opcode fast table — no key
        object is built per read.
        """
        op = instr.op
        if op in SIMD_SINGLE_CYCLE_OPS or op in SIMD_ACCUMULATE_OPS:
            return self._fast[(op, instr.dtype or SimdType.I32)]
        width = 32 if predicted_width is None else predicted_width
        wc = (_WIDTH_TO_CLASS[width] if 0 <= width <= WIDTH_CLASSES[-1]
              else len(WIDTH_CLASSES) - 1)
        ticks = self._fast.get((op, instr.shift is not ShiftOp.NONE, wc))
        if ticks is None:
            raise ValueError(f"{op} has no slack bucket (not single-cycle)")
        return ticks

    def slack_ticks(self, key: SlackKey) -> int:
        """Data slack of the bucket: cycle length minus EX-TIME."""
        return self.tick_base.ticks_per_cycle - self.lookup(key)

    def buckets(self) -> Dict[int, int]:
        """All canonical (address → EX-TIME ticks) entries."""
        return dict(sorted(self._table.items()))

    def recalibrate_pvt(self, scale: float) -> None:
        """On-the-fly PVT recalibration (CPM-driven, Sec. V)."""
        if scale <= 0:
            raise ValueError("pvt scale must be positive")
        self.pvt_scale = scale
        self._table.clear()
        self._build()


#: one read-only (TickBase, SlackLUT) pair per timing corner
_lut_memo: Dict[tuple, Tuple[TickBase, SlackLUT]] = {}


def shared_lut(config: CoreConfig) -> Tuple[TickBase, SlackLUT]:
    """The process-wide tick base and slack LUT of *config*'s corner.

    The LUT is pure design-time analysis, identical for every run that
    shares ``(ticks_per_cycle, tech, pvt_scale)``, so it is built once
    and shared: callers only read it and must never
    :meth:`~SlackLUT.recalibrate_pvt` it (the PVT recalibrator builds
    its own).
    """
    key = (config.ticks_per_cycle, config.tech, config.pvt_scale)
    pair = _lut_memo.get(key)
    if pair is None:
        base = TickBase(config.ticks_per_cycle, config.tech)
        pair = _lut_memo[key] = (base, SlackLUT(base,
                                                pvt_scale=config.pvt_scale))
    return pair


def decode_static(instr: Instruction, transparent: bool, lut: SlackLUT,
                  tpc: int) -> tuple:
    """(transparent, latency, static EX-TIME, width-dynamic?) of a
    static instruction; *transparent* says whether recycling is on.

    The EX-TIME slot is authoritative for every class whose LUT bucket
    ignores data width (logic/shift ALU ops, SIMD by lane type,
    full-cycle multi-cycle classes); arithmetic ALU ops return a
    ``True`` last field and resolve EX-TIME per dynamic instance from
    the predicted/observed widths instead.
    """
    op = instr.op
    cls = instr.cls
    if cls is OpClass.ALU:
        if op in ARITH_OPS:
            return (transparent, 1, 0, True)
        return (transparent, 1, lut.ex_time(instr), False)
    if cls is OpClass.SIMD:
        if op in SIMD_SINGLE_CYCLE_OPS:
            return (transparent, 1, lut.ex_time(instr), False)
        if op in SIMD_ACCUMULATE_OPS:
            return (transparent, SIMD_MULTICYCLE_LATENCY,
                    lut.ex_time(instr), False)
        return (False, SIMD_MULTICYCLE_LATENCY, tpc, False)
    if cls is OpClass.MUL:
        return (False, MUL_LATENCY, tpc, False)
    if cls is OpClass.DIV:
        return (False, DIV_LATENCY, tpc, False)
    if cls is OpClass.FP:
        return (False, FDIV_LATENCY if op is Opcode.FDIV
                else FP_LATENCY, tpc, False)
    # BRANCH / LOAD / STORE / NOP / HALT
    return (False, 1, tpc, False)
