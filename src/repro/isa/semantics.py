"""Functional (value-accurate) execution of every opcode.

The simulator executes real values so that

* the data-width predictor (Sec. II-B) is trained and validated against
  *actual* operand widths, and aggressive mispredictions trigger real
  replays;
* baseline and ReDSOC runs can be checked for architectural-state
  equivalence (slack recycling must never change results).

The central entry point is :func:`execute`, which evaluates one
instruction against a :class:`~repro.isa.registers.RegisterFile` and a
:class:`Memory` and returns an :class:`ExecResult` describing register
writes, memory behaviour, control flow and the observed effective operand
width.

``execute`` is the golden model: the
:class:`~repro.isa.interpreter.Interpreter` runs it once per dynamic
instruction.  Trace generation does not; it runs steps decoded once per
static instruction (:mod:`repro.isa.decode`), which reproduce
``execute`` exactly and reuse its helpers for shifts, SIMD lanes and
branch conditions.  The tests and the differential oracle compare the
two.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .instruction import Instruction
from .opcodes import Cond, OpClass, Opcode, ShiftOp, SimdType
from .registers import FLAGS, Flags, Reg, RegisterFile, WORD_BITS, WORD_MASK


class Memory:
    """Sparse byte-addressable memory.

    Unwritten bytes read as zero.  Word accesses are little-endian.
    """

    def __init__(self) -> None:
        self._bytes: Dict[int, int] = {}

    def read_byte(self, addr: int) -> int:
        return self._bytes.get(addr, 0)

    def read(self, addr: int, size: int) -> int:
        """Read *size* bytes at *addr*, little-endian."""
        value = 0
        for i in range(size):
            value |= self._bytes.get(addr + i, 0) << (8 * i)
        return value

    def write(self, addr: int, value: int, size: int) -> None:
        """Write *size* bytes of *value* at *addr*, little-endian."""
        for i in range(size):
            self._bytes[addr + i] = (value >> (8 * i)) & 0xFF

    def load_block(self, addr: int, data: bytes) -> None:
        """Bulk-initialise memory (used by program loaders)."""
        for i, byte in enumerate(data):
            self._bytes[addr + i] = byte

    def read_block(self, addr: int, size: int) -> bytes:
        return bytes(self._bytes.get(addr + i, 0) for i in range(size))

    def snapshot(self) -> Dict[int, int]:
        return dict(self._bytes)


def to_signed(value: int, bits: int = WORD_BITS) -> int:
    """Interpret *value* as a two's-complement signed integer."""
    value &= (1 << bits) - 1
    if value >= 1 << (bits - 1):
        value -= 1 << bits
    return value


def effective_width(value: int, bits: int = WORD_BITS) -> int:
    """Bits needed to represent *value* in two's complement.

    Narrow-width operands — many leading zeros *or* leading ones
    (sign-extension) — are the Width-Slack source (Sec. II-A); Loh's
    predictor treats both the same way.  Returns at least 1.
    """
    if bits == WORD_BITS:
        value &= WORD_MASK
        if value & 0x80000000:
            # two's-complement negative: ~signed == WORD_MASK ^ value
            value ^= WORD_MASK
        return max(1, value.bit_length() + 1)
    signed = to_signed(value, bits)
    if signed < 0:
        signed = ~signed
    return max(1, signed.bit_length() + 1)


def width_bucket(width: int) -> int:
    """Quantise an effective width into the 4 predictor classes.

    Returns one of 8, 16, 24, 32 — the four prediction outputs the paper
    uses ("4 possible prediction outputs indicating high to low
    data-width").
    """
    for bucket in (8, 16, 24):
        if width <= bucket:
            return bucket
    return 32


class ExecResult:
    """Outcome of functionally executing one instruction.

    A plain ``__slots__`` class (not a dataclass): the golden
    interpreter builds one per dynamic instruction, so construction
    cost is on its hot path.
    """

    __slots__ = ("next_pc", "writes", "taken", "mem_addr", "mem_size",
                 "is_store", "store_value", "halted", "op_width")

    def __init__(self, next_pc: int) -> None:
        self.next_pc = next_pc
        self.writes: Dict[Reg, int] = {}
        self.taken = False
        self.mem_addr: Optional[int] = None
        self.mem_size = 0
        self.is_store = False
        self.store_value = 0
        self.halted = False
        #: max effective width over integer source operands (Width-Slack)
        self.op_width = WORD_BITS

    def __repr__(self) -> str:
        return (f"ExecResult(next_pc={self.next_pc}, writes={self.writes}, "
                f"taken={self.taken}, mem_addr={self.mem_addr}, "
                f"mem_size={self.mem_size}, is_store={self.is_store}, "
                f"store_value={self.store_value}, halted={self.halted}, "
                f"op_width={self.op_width})")


def _apply_shift(value: int, shift: ShiftOp, amount: int,
                 carry_in: bool) -> Tuple[int, bool]:
    """Evaluate a (flexible or standalone) shift; returns (result, carry).

    Carry is the last bit shifted out (ARM shifter carry-out); for a zero
    amount the incoming carry is preserved.
    """
    value &= WORD_MASK
    amount &= 0xFF
    if shift is ShiftOp.NONE or (amount == 0 and shift is not ShiftOp.RRX):
        return value, carry_in
    if shift is ShiftOp.LSL:
        if amount >= WORD_BITS + 1:
            return 0, False
        carry = bool((value << amount) & (1 << WORD_BITS)) if amount else carry_in
        return (value << amount) & WORD_MASK, carry
    if shift is ShiftOp.LSR:
        if amount > WORD_BITS:
            return 0, False
        carry = bool(value & (1 << (amount - 1))) if amount <= WORD_BITS else False
        return (value >> amount) & WORD_MASK, carry
    if shift is ShiftOp.ASR:
        amount = min(amount, WORD_BITS)
        signed = to_signed(value)
        carry = bool((signed >> (amount - 1)) & 1)
        return (signed >> amount) & WORD_MASK, carry
    if shift is ShiftOp.ROR:
        amount %= WORD_BITS
        if amount == 0:
            return value, bool(value >> (WORD_BITS - 1))
        result = ((value >> amount) | (value << (WORD_BITS - amount))) & WORD_MASK
        return result, bool(result >> (WORD_BITS - 1))
    # RRX: rotate right through carry by one
    result = ((value >> 1) | (int(carry_in) << (WORD_BITS - 1))) & WORD_MASK
    return result, bool(value & 1)


def _add_with_carry(a: int, b: int, carry: int) -> Tuple[int, Flags]:
    """32-bit add producing NZCV flags (ARM semantics)."""
    unsigned = (a & WORD_MASK) + (b & WORD_MASK) + carry
    result = unsigned & WORD_MASK
    signed = to_signed(a) + to_signed(b) + carry
    flags = Flags(
        n=bool(result >> (WORD_BITS - 1)),
        z=result == 0,
        c=unsigned > WORD_MASK,
        v=not (-(1 << (WORD_BITS - 1)) <= signed < (1 << (WORD_BITS - 1))),
    )
    return result, flags


def _logical_flags(result: int, carry: bool, old: Flags) -> Flags:
    return Flags(n=bool(result >> (WORD_BITS - 1)), z=result == 0,
                 c=carry, v=old.v)


def cond_holds(cond: Cond, flags: Flags) -> bool:
    """Evaluate a branch condition against NZCV flags."""
    if cond is Cond.AL:
        return True
    table = {
        Cond.EQ: flags.z,
        Cond.NE: not flags.z,
        Cond.LT: flags.n != flags.v,
        Cond.GE: flags.n == flags.v,
        Cond.GT: (not flags.z) and flags.n == flags.v,
        Cond.LE: flags.z or flags.n != flags.v,
        Cond.CS: flags.c,
        Cond.CC: not flags.c,
        Cond.MI: flags.n,
        Cond.PL: not flags.n,
    }
    return table[cond]


# --- SIMD lane helpers -------------------------------------------------

def _lanes(value: int, dtype: SimdType) -> list:
    width = dtype.value
    count = 128 // width
    mask = (1 << width) - 1
    return [(value >> (i * width)) & mask for i in range(count)]


def _pack_lanes(lanes: list, dtype: SimdType) -> int:
    width = dtype.value
    mask = (1 << width) - 1
    value = 0
    for i, lane in enumerate(lanes):
        value |= (lane & mask) << (i * width)
    return value


def _simd_lanewise(op: Opcode, a: int, b: int, acc: int,
                   dtype: SimdType) -> int:
    width = dtype.value
    mask = (1 << width) - 1
    la, lb = _lanes(a, dtype), _lanes(b, dtype)
    lacc = _lanes(acc, dtype)
    out = []
    for x, y, z in zip(la, lb, lacc):
        if op is Opcode.VADD:
            out.append((x + y) & mask)
        elif op is Opcode.VSUB:
            out.append((x - y) & mask)
        elif op is Opcode.VMUL:
            out.append((x * y) & mask)
        elif op is Opcode.VMLA:
            out.append((z + x * y) & mask)
        elif op is Opcode.VMAX:
            out.append(max(to_signed(x, width), to_signed(y, width)) & mask)
        elif op is Opcode.VMIN:
            out.append(min(to_signed(x, width), to_signed(y, width)) & mask)
        elif op is Opcode.VAND:
            out.append(x & y)
        elif op is Opcode.VORR:
            out.append(x | y)
        elif op is Opcode.VEOR:
            out.append(x ^ y)
        elif op is Opcode.VSHL:
            out.append((x << (y % width)) & mask)
        elif op is Opcode.VSHR:
            out.append((to_signed(x, width) >> (y % width)) & mask)
        else:
            raise ValueError(f"not a lanewise SIMD op: {op}")
    return _pack_lanes(out, dtype)


# --- main dispatch ------------------------------------------------------

#: lanewise SIMD opcodes routed to :func:`_execute_simd` (every V-prefix
#: op except the vector load/store pair)
_SIMD_EXEC_OPS = frozenset(
    op for op in Opcode
    if op.name.startswith("V") and op not in (Opcode.VLD1, Opcode.VST1))


def execute(instr: Instruction, regs: RegisterFile, mem: Memory,
            pc: int) -> ExecResult:
    """Functionally execute *instr*; returns the :class:`ExecResult`.

    Does **not** mutate *regs* or *mem* — callers apply ``writes`` and
    stores themselves, which lets the pipeline defer stores to commit.
    """
    op = instr.op
    res = ExecResult(next_pc=pc + 1)

    if op is Opcode.HALT:
        res.halted = True
        return res
    if op is Opcode.NOP:
        return res

    if op in _SIMD_EXEC_OPS:
        return _execute_simd(instr, regs, res)
    cls = instr.cls
    if cls is OpClass.LOAD or cls is OpClass.STORE:
        return _execute_mem(instr, regs, mem, res)
    if cls is OpClass.BRANCH:
        return _execute_branch(instr, regs, pc, res)
    if op in (Opcode.MUL, Opcode.MLA, Opcode.SDIV, Opcode.UDIV):
        return _execute_multicycle(instr, regs, res)
    if op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV):
        return _execute_fp(instr, regs, res)
    return _execute_alu(instr, regs, res, regs.flags())


def _operand2(instr: Instruction, regs: RegisterFile,
              carry_in: bool) -> Tuple[int, bool, int]:
    """Evaluate the flexible second operand.

    Returns ``(value, shifter_carry, raw_width)`` where raw_width is the
    effective width of the *pre-shift* operand (width slack is estimated
    on raw inputs at the FU ports).
    """
    if instr.rm is not None:
        raw = regs.read(instr.rm)
    else:
        raw = (instr.imm or 0) & WORD_MASK
    value, carry = _apply_shift(raw, instr.shift, instr.shift_amt, carry_in)
    return value, carry, effective_width(raw)


#: standalone shift opcode → the barrel-shifter operation it performs
_SHIFT_OP_MAP = {Opcode.LSL: ShiftOp.LSL, Opcode.LSR: ShiftOp.LSR,
                 Opcode.ASR: ShiftOp.ASR, Opcode.ROR: ShiftOp.ROR,
                 Opcode.RRX: ShiftOp.RRX}


def _execute_alu(instr: Instruction, regs: RegisterFile, res: ExecResult,
                 old_flags: Flags) -> ExecResult:
    op = instr.op
    rn_val = regs.read(instr.rn) if instr.rn is not None else 0
    carry_in = old_flags.c

    if op in (Opcode.LSL, Opcode.LSR, Opcode.ASR, Opcode.ROR, Opcode.RRX):
        amount = (regs.read(instr.rm) & 0xFF if instr.rm is not None
                  else (instr.imm or 0))
        result, carry = _apply_shift(rn_val, _SHIFT_OP_MAP[op], amount,
                                     carry_in)
        res.op_width = effective_width(rn_val)
        res.writes[instr.rd] = result
        if instr.set_flags:
            res.writes[FLAGS] = _logical_flags(result, carry, old_flags).pack()
        return res

    op2, shifter_carry, op2_width = _operand2(instr, regs, carry_in)
    res.op_width = max(
        effective_width(rn_val) if instr.rn is not None else 1, op2_width)

    # logical group
    if op is Opcode.AND or op is Opcode.TST:
        result = rn_val & op2
    elif op is Opcode.ORR:
        result = rn_val | op2
    elif op is Opcode.EOR or op is Opcode.TEQ:
        result = rn_val ^ op2
    elif op is Opcode.BIC:
        result = rn_val & ~op2
    elif op is Opcode.MVN:
        result = ~op2
    elif op is Opcode.MOV:
        result = op2
    else:
        result = None
    if result is not None:
        result &= WORD_MASK
        if op is not Opcode.TST and op is not Opcode.TEQ:
            res.writes[instr.rd] = result
        if instr.set_flags or op is Opcode.TST or op is Opcode.TEQ:
            res.writes[FLAGS] = _logical_flags(
                result, shifter_carry, old_flags).pack()
        return res

    # arithmetic group
    if op is Opcode.ADD or op is Opcode.CMN:
        a, b, cin = rn_val, op2, 0
    elif op is Opcode.SUB or op is Opcode.CMP:
        a, b, cin = rn_val, ~op2 & WORD_MASK, 1
    elif op is Opcode.RSB:
        a, b, cin = op2, ~rn_val & WORD_MASK, 1
    elif op is Opcode.ADC:
        a, b, cin = rn_val, op2, int(carry_in)
    elif op is Opcode.SBC:
        a, b, cin = rn_val, ~op2 & WORD_MASK, int(carry_in)
    elif op is Opcode.RSC:
        a, b, cin = op2, ~rn_val & WORD_MASK, int(carry_in)
    else:
        raise KeyError(op)
    result, flags = _add_with_carry(a, b, cin)
    if op is not Opcode.CMP and op is not Opcode.CMN:
        res.writes[instr.rd] = result
    if instr.set_flags or op is Opcode.CMP or op is Opcode.CMN:
        res.writes[FLAGS] = flags.pack()
    return res


def _execute_multicycle(instr: Instruction, regs: RegisterFile,
                        res: ExecResult) -> ExecResult:
    rn_val = regs.read(instr.rn)
    rm_val = regs.read(instr.rm)
    res.op_width = max(effective_width(rn_val), effective_width(rm_val))
    if instr.op is Opcode.MUL:
        result = (rn_val * rm_val) & WORD_MASK
    elif instr.op is Opcode.MLA:
        result = (rn_val * rm_val + regs.read(instr.ra)) & WORD_MASK
    elif instr.op is Opcode.UDIV:
        result = (rn_val // rm_val) & WORD_MASK if rm_val else 0
    else:  # SDIV
        a, b = to_signed(rn_val), to_signed(rm_val)
        result = (int(a / b) if b else 0) & WORD_MASK
    res.writes[instr.rd] = result
    return res


def _execute_fp(instr: Instruction, regs: RegisterFile,
                res: ExecResult) -> ExecResult:
    """FP ops use fixed-point Q16.16 on integer registers.

    This keeps the architectural state integer-only (bit-exact,
    replayable) while still exercising the multi-cycle FP pipeline.
    """
    a = to_signed(regs.read(instr.rn)) / 65536.0
    b = to_signed(regs.read(instr.rm)) / 65536.0
    if instr.op is Opcode.FADD:
        value = a + b
    elif instr.op is Opcode.FSUB:
        value = a - b
    elif instr.op is Opcode.FMUL:
        value = a * b
    else:
        value = a / b if b else 0.0
    res.writes[instr.rd] = int(value * 65536.0) & WORD_MASK
    return res


def _execute_mem(instr: Instruction, regs: RegisterFile, mem: Memory,
                 res: ExecResult) -> ExecResult:
    base = regs.read(instr.rn) if instr.rn is not None else 0
    index = regs.read(instr.rm) * instr.scale if instr.rm is not None else 0
    addr = (base + index + (instr.imm or 0)) & WORD_MASK
    res.mem_addr = addr

    op = instr.op
    if op is Opcode.LDR:
        res.mem_size = 4
        res.writes[instr.rd] = mem.read(addr, 4)
    elif op is Opcode.LDRB:
        res.mem_size = 1
        res.writes[instr.rd] = mem.read(addr, 1)
    elif op is Opcode.VLD1:
        res.mem_size = 16
        res.writes[instr.rd] = mem.read(addr, 16)
    elif op is Opcode.STR:
        res.mem_size, res.is_store = 4, True
        res.store_value = regs.read(instr.rs)
    elif op is Opcode.STRB:
        res.mem_size, res.is_store = 1, True
        res.store_value = regs.read(instr.rs) & 0xFF
    elif op is Opcode.VST1:
        res.mem_size, res.is_store = 16, True
        res.store_value = regs.read(instr.rs)
    if instr.rd is not None and op in (Opcode.LDR, Opcode.LDRB):
        res.op_width = effective_width(res.writes[instr.rd])
    return res


def _execute_branch(instr: Instruction, regs: RegisterFile, pc: int,
                    res: ExecResult) -> ExecResult:
    taken = cond_holds(instr.cond, regs.flags())
    res.taken = taken
    if instr.op is Opcode.BL and instr.rd is not None:
        res.writes[instr.rd] = (pc + 1) & WORD_MASK
    if taken:
        if not isinstance(instr.target, int):
            raise ValueError(f"unresolved branch target: {instr.target!r}")
        res.next_pc = instr.target
    return res


def _execute_simd(instr: Instruction, regs: RegisterFile,
                  res: ExecResult) -> ExecResult:
    op = instr.op
    dtype = instr.dtype or SimdType.I32
    if op is Opcode.VDUP:
        lane = regs.read(instr.rn) & ((1 << dtype.value) - 1)
        res.writes[instr.rd] = _pack_lanes(
            [lane] * (128 // dtype.value), dtype)
        return res
    if op is Opcode.VMOV:
        res.writes[instr.rd] = regs.read(instr.rn)
        return res
    a = regs.read(instr.rn)
    b = regs.read(instr.rm) if instr.rm is not None else 0
    acc = regs.read(instr.ra) if instr.ra is not None else 0
    res.writes[instr.rd] = _simd_lanewise(op, a, b, acc, dtype)
    return res
