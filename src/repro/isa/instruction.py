"""Instruction representation for the micro-op ISA.

An :class:`Instruction` is a fully-decoded micro-op: the simulator never
deals with binary encodings.  The operand structure follows the ARM
data-processing template:

``op rd, rn, <op2>`` where ``<op2>`` is either an immediate or a register
``rm`` optionally modified by a *flexible shift* (``rm, LSR #3``).  The
flexible shift is what produces the long ``ADD-LSR`` / ``SUB-ROR``
critical paths at the right edge of Fig. 1.

Memory operations use ``[rn + rm*scale + imm]`` addressing; SIMD
operations carry a :class:`~repro.isa.opcodes.SimdType` element type
(the Type-Slack source).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Union

from .opcodes import (
    CARRY_IN_OPS,
    FLAG_ONLY_OPS,
    Cond,
    OpClass,
    Opcode,
    ShiftOp,
    SimdType,
    op_class,
)
from .registers import FLAGS, Reg


@dataclass
class Instruction:
    """One fully-decoded micro-op.

    Only the fields relevant to a given opcode are populated; the
    remainder stay ``None``.  ``sources()`` / ``dests()`` derive the
    dataflow edges the renamer needs.
    """

    op: Opcode
    rd: Optional[Reg] = None        # destination register
    rn: Optional[Reg] = None        # first source / memory base
    rm: Optional[Reg] = None        # second source / memory index
    ra: Optional[Reg] = None        # third source (MLA accumulate)
    rs: Optional[Reg] = None        # store-data source
    imm: Optional[int] = None       # immediate op2 / memory offset
    shift: ShiftOp = ShiftOp.NONE   # flexible second-operand shift
    shift_amt: int = 0
    set_flags: bool = False         # ARM "S" suffix
    cond: Cond = Cond.AL            # branch condition
    target: Union[int, str, None] = None  # branch target (pc or label)
    dtype: Optional["SimdType"] = None  # SimdType for SIMD ops
    scale: int = 1                  # memory index scale (bytes)
    pc: int = -1                    # program index, assigned at assembly

    label_refs: List[str] = field(default_factory=list, repr=False)

    @cached_property
    def cls(self) -> OpClass:
        # memoised in the instance dict, so later reads are plain
        # attribute reads: trace generation and the timing pipeline
        # read this per dynamic instruction, and the opcode never
        # changes after assembly
        return op_class(self.op)

    def sources(self) -> List[Reg]:
        """All architectural registers this instruction reads."""
        srcs = [reg for reg in (self.rn, self.rm, self.ra, self.rs)
                if reg is not None]
        if self.op in CARRY_IN_OPS:
            srcs.append(FLAGS)
        if self.op is Opcode.B and self.cond is not Cond.AL:
            srcs.append(FLAGS)
        return srcs

    def dests(self) -> List[Reg]:
        """All architectural registers this instruction writes."""
        dsts: List[Reg] = []
        if self.rd is not None and self.op not in FLAG_ONLY_OPS:
            dsts.append(self.rd)
        if self.set_flags or self.op in FLAG_ONLY_OPS:
            dsts.append(FLAGS)
        return dsts

    def is_branch(self) -> bool:
        return self.cls is OpClass.BRANCH

    def is_mem(self) -> bool:
        return self.cls in (OpClass.LOAD, OpClass.STORE)

    def has_flexible_shift(self) -> bool:
        """True when the second operand carries an inline shift.

        Standalone shift opcodes (LSL/LSR/...) do *not* count — their
        shift is the operation itself, not a flexible-operand modifier.
        """
        return self.shift is not ShiftOp.NONE

    def __repr__(self) -> str:  # compact, assembly-like
        parts = [self.op.name.lower() + ("s" if self.set_flags else "")]
        if self.op is Opcode.B and self.cond is not Cond.AL:
            parts[0] = "b" + self.cond.value
        if self.dtype is not None:
            parts[0] += f".i{self.dtype.value}"
        ops = []
        for reg in (self.rd, self.rs, self.rn, self.rm, self.ra):
            if reg is not None:
                ops.append(repr(reg))
        if self.imm is not None:
            ops.append(f"#{self.imm}")
        if self.shift is not ShiftOp.NONE:
            ops.append(f"{self.shift.value} #{self.shift_amt}")
        if self.target is not None:
            ops.append(str(self.target))
        return parts[0] + " " + ", ".join(ops)
