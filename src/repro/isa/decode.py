"""Decode-once execution: one step closure per static instruction.

:func:`repro.pipeline.trace.generate_trace` runs programs through these
steps; :func:`~repro.isa.semantics.execute` redoes its opcode dispatch
on every dynamic instruction, a step does it once per static one.  For
each instruction of the program, one ``generate_trace`` call builds a
step that binds, at decode time, its operands' register ids, its
immediate, its shift operation and amount, its destination with that
register's write mask, its flag rule and its branch condition.  When
called, the step reads and writes the call's :class:`Machine` (flat
register storage and :class:`~repro.isa.semantics.Memory`), records
one trace entry and returns the next pc, or ``-1`` after HALT.

Steps reproduce ``execute`` exactly: ``_apply_shift``'s edge cases
(RRX, the amount cut to 8 bits, LSL by 33 or more, the ASR clamp, ROR
modulo 32), the effective width of the raw operand before its shift,
the op-width rules (32 for loads other than LDR/LDRB, for stores and
for SIMD ops), SDIV's truncation and both divides by zero, Q16.16 FP,
every register write cut to its register class, and BL's link write.
``execute`` and the :class:`~repro.isa.interpreter.Interpreter` stay as
the golden model these steps are tested and fuzzed against.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Sequence

from .instruction import Instruction
from .opcodes import FLAG_ONLY_OPS, Cond, Opcode, ShiftOp, SimdType
from .registers import (
    FLAGS_ID,
    NUM_INT_REGS,
    NUM_REG_IDS,
    WORD_BITS,
    WORD_MASK,
    Flags,
    Reg,
    reg_id,
    reg_mask,
)
from .semantics import (
    Memory,
    _apply_shift,
    cond_holds,
    to_signed,
)

#: a decoded instruction: runs it once, returns the next pc (-1: HALT)
Step = Callable[[], int]

M = WORD_MASK
SIGN = 1 << (WORD_BITS - 1)
F = FLAGS_ID
#: the storage slot after the last register id: always 0, it stands in
#: for an absent optional operand (``execute`` reads those as 0)
ZERO = NUM_REG_IDS


class Machine:
    """The state one program's decoded steps act on.

    ``regs`` holds one value per flat register id
    (:data:`~repro.isa.registers.NUM_REG_IDS`) plus the :data:`ZERO`
    slot; ``mem`` is the data memory.  A step records its trace entry
    as ``record(entry(instr, pc, next_pc, taken, op_width, mem_addr,
    mem_size, is_store))``.
    """

    __slots__ = ("regs", "mem", "record", "entry")

    def __init__(self, regs: List[int], mem: Memory,
                 record: Callable, entry: Callable) -> None:
        self.regs = regs
        self.mem = mem
        self.record = record
        self.entry = entry


def new_registers(init_regs: Optional[Dict[Reg, int]] = None
                  ) -> List[int]:
    """Zeroed register storage with *init_regs* written (and masked)."""
    regs = [0] * (NUM_REG_IDS + 1)
    for reg, value in (init_regs or {}).items():
        regs[reg_id(reg)] = value & reg_mask(reg)
    return regs


def register_snapshot(regs: List[int]) -> dict:
    """The storage as :meth:`RegisterFile.snapshot` would report it."""
    return {"int": regs[:NUM_INT_REGS], "vec": regs[NUM_INT_REGS:F],
            "flags": regs[F]}


class _MissingOperand(Exception):
    """A register operand ``execute`` would read is absent."""


def _need(reg: Optional[Reg]) -> int:
    if reg is None:
        raise _MissingOperand
    return reg_id(reg)


def _opt(reg: Optional[Reg]) -> int:
    return ZERO if reg is None else reg_id(reg)


def decode(instr: Instruction, pc: int, machine: Machine) -> Step:
    """The step that executes *instr*, found at *pc*, on *machine*.

    An instruction no step can be built for (a register operand its
    opcode reads is absent, or a field has the wrong type) decodes to a
    step that raises when it runs: as with ``execute``, a malformed
    instruction fails only the programs that reach it.
    """
    try:
        return _DECODERS[instr.op](instr, pc, machine)
    except _MissingOperand:
        error: Exception = _missing_operand(instr, pc)
    except (TypeError, ValueError) as exc:
        error = exc

    def malformed() -> int:
        raise error
    return malformed


def _missing_operand(instr: Instruction, pc: int) -> ValueError:
    return ValueError(f"pc {pc}: {instr!r} lacks a register operand")


def check_decodable(instructions: Sequence[Instruction]) -> None:
    """Raise ``ValueError``, naming the pc, for the first instruction
    :func:`decode` cannot build a step for.

    ``decode`` defers such an error until a run reaches the
    instruction; this check lets a caller that accepts programs from
    outside (the serve daemon) refuse one up front.
    """
    machine = Machine(new_registers(), Memory(), None, None)
    for pc, instr in enumerate(instructions):
        try:
            _DECODERS[instr.op](instr, pc, machine)
        except _MissingOperand:
            raise _missing_operand(instr, pc) from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pc {pc}: {exc}") from exc


# --- data processing ----------------------------------------------------

#: logical op -> (mask on rn, xor on operand 2, combine): the result is
#: ``combine(rn & mask, op2 ^ xor)``
_LOGIC = {
    Opcode.AND: (M, 0, operator.and_), Opcode.TST: (M, 0, operator.and_),
    Opcode.ORR: (M, 0, operator.or_),
    Opcode.EOR: (M, 0, operator.xor), Opcode.TEQ: (M, 0, operator.xor),
    Opcode.BIC: (M, M, operator.and_),
    Opcode.MOV: (0, 0, operator.or_), Opcode.MVN: (0, M, operator.or_),
}

#: arithmetic op -> (swap, invert, carry-in): with ``x, y = rn, op2``
#: (``op2, rn`` when swapped) the sum is ``x + (y ^ invert) + cin``,
#: where a carry-in of None reads the C flag
_ARITH = {
    Opcode.ADD: (False, 0, 0), Opcode.CMN: (False, 0, 0),
    Opcode.SUB: (False, M, 1), Opcode.CMP: (False, M, 1),
    Opcode.RSB: (True, M, 1),
    Opcode.ADC: (False, 0, None), Opcode.SBC: (False, M, None),
    Opcode.RSC: (True, M, None),
}


def _data_processing(instr: Instruction, pc: int, m: Machine) -> Step:
    op = instr.op
    regs, record, entry = m.regs, m.record, m.entry
    pc1 = pc + 1
    n = _opt(instr.rn)
    writes = op not in FLAG_ONLY_OPS
    d, wm = (_need(instr.rd), reg_mask(instr.rd)) if writes else (ZERO, 0)
    set_flags = instr.set_flags or not writes
    logic = _LOGIC.get(op)
    swap, invert, cin = _ARITH.get(op, (False, 0, 0))

    # operand 2: a register (read from slot mm) or the immediate rawc;
    # LSL and LSR by a constant amount evaluate inline as << L >> R
    shift, amt = instr.shift, instr.shift_amt
    plain = shift is ShiftOp.NONE or (amt & 0xFF == 0
                                      and shift is not ShiftOp.RRX)
    L = amt & 0xFF if shift is ShiftOp.LSL else 0
    R = amt & 0xFF if shift is ShiftOp.LSR else 0
    inline = plain or shift is ShiftOp.LSL or shift is ShiftOp.LSR
    if instr.rm is not None:
        mm, rawc = reg_id(instr.rm), 0
    else:
        mm, rawc = ZERO, (instr.imm or 0) & M

    if not set_flags and inline and cin is not None:
        if logic is not None:
            amask, bxor, combine = logic
            if mm == ZERO:
                b = (rawc << L >> R & M) ^ bxor
                fb = rawc ^ M if rawc & SIGN else rawc

                def logic_imm() -> int:
                    a = regs[n] & M
                    regs[d] = combine(a & amask, b) & wm
                    record(entry(instr, pc, pc1, False, (
                        (a ^ M if a & SIGN else a) | fb).bit_length() + 1,
                        None, 0, False))
                    return pc1
                return logic_imm

            def logic_reg() -> int:
                a = regs[n] & M
                raw = regs[mm] & M
                regs[d] = combine(a & amask,
                                  (raw << L >> R & M) ^ bxor) & wm
                record(entry(instr, pc, pc1, False, (
                    (a ^ M if a & SIGN else a)
                    | (raw ^ M if raw & SIGN else raw)).bit_length() + 1,
                    None, 0, False))
                return pc1
            return logic_reg

        # ADD, SUB, RSB: the sum mod 2**32 is sa * rn + sb * op2
        sa, sb = (-1, 1) if swap else (1, -1 if invert else 1)
        if mm == ZERO:
            k = sb * (rawc << L >> R & M)
            fb = rawc ^ M if rawc & SIGN else rawc

            def arith_imm() -> int:
                a = regs[n] & M
                regs[d] = (sa * a + k) & M & wm
                record(entry(instr, pc, pc1, False, (
                    (a ^ M if a & SIGN else a) | fb).bit_length() + 1,
                    None, 0, False))
                return pc1
            return arith_imm

        def arith_reg() -> int:
            a = regs[n] & M
            raw = regs[mm] & M
            regs[d] = (sa * a + sb * (raw << L >> R & M)) & M & wm
            record(entry(instr, pc, pc1, False, (
                (a ^ M if a & SIGN else a)
                | (raw ^ M if raw & SIGN else raw)).bit_length() + 1,
                None, 0, False))
            return pc1
        return arith_reg

    # the general form: flags, a carry-in, or an ASR, ROR or RRX shift
    if logic is not None:
        amask, bxor, combine = logic

        def logic_flags() -> int:
            f = regs[F]
            a = regs[n] & M
            raw = regs[mm] & M | rawc
            if plain:
                b, carry = raw, f >> 1 & 1
            else:
                b, carry = _apply_shift(raw, shift, amt, f >> 1 & 1)
            r = combine(a & amask, b ^ bxor)
            if writes:
                regs[d] = r & wm
            if set_flags:
                regs[F] = r >> 28 & 8 | (r == 0) << 2 | carry << 1 | f & 1
            record(entry(instr, pc, pc1, False, (
                (a ^ M if a & SIGN else a)
                | (raw ^ M if raw & SIGN else raw)).bit_length() + 1,
                None, 0, False))
            return pc1
        return logic_flags

    def arith_flags() -> int:
        f = regs[F]
        c = f >> 1 & 1
        a = regs[n] & M
        raw = regs[mm] & M | rawc
        b = raw if plain else _apply_shift(raw, shift, amt, c)[0]
        x, y = (b, a ^ invert) if swap else (a, b ^ invert)
        u = x + y + (c if cin is None else cin)
        r = u & M
        if writes:
            regs[d] = r & wm
        if set_flags:
            regs[F] = (r >> 28 & 8 | (r == 0) << 2 | u >> 31 & 2
                       | ((x ^ r) & (y ^ r)) >> 31)
        record(entry(instr, pc, pc1, False, (
            (a ^ M if a & SIGN else a)
            | (raw ^ M if raw & SIGN else raw)).bit_length() + 1,
            None, 0, False))
        return pc1
    return arith_flags


_SHIFT_OF = {Opcode.LSL: ShiftOp.LSL, Opcode.LSR: ShiftOp.LSR,
             Opcode.ASR: ShiftOp.ASR, Opcode.ROR: ShiftOp.ROR,
             Opcode.RRX: ShiftOp.RRX}


def _shift(instr: Instruction, pc: int, m: Machine) -> Step:
    """Standalone shifts: ``rd = rn <shift> (rm & 0xFF or imm)``."""
    regs, record, entry = m.regs, m.record, m.entry
    pc1 = pc + 1
    shift_op = _SHIFT_OF[instr.op]
    n, d, wm = _opt(instr.rn), _need(instr.rd), reg_mask(instr.rd)
    set_flags = instr.set_flags
    if instr.rm is not None:
        mm, amtc = reg_id(instr.rm), 0
    else:
        mm, amtc = ZERO, instr.imm or 0

    def shift() -> int:
        f = regs[F]
        a = regs[n]
        r, carry = _apply_shift(a, shift_op, regs[mm] & 0xFF | amtc,
                                f >> 1 & 1)
        regs[d] = r & wm
        if set_flags:
            regs[F] = r >> 28 & 8 | (r == 0) << 2 | carry << 1 | f & 1
        a &= M
        record(entry(instr, pc, pc1, False,
                     (a ^ M if a & SIGN else a).bit_length() + 1,
                     None, 0, False))
        return pc1
    return shift


# --- multi-cycle integer and FP -----------------------------------------

def _multiply(instr: Instruction, pc: int, m: Machine) -> Step:
    """MUL, MLA, UDIV and SDIV; op_width spans rn and rm."""
    regs, record, entry = m.regs, m.record, m.entry
    pc1 = pc + 1
    op = instr.op
    n, mm = _need(instr.rn), _need(instr.rm)
    d, wm = _need(instr.rd), reg_mask(instr.rd)
    acc = _need(instr.ra) if op is Opcode.MLA else ZERO

    def multiply() -> int:
        a, b = regs[n], regs[mm]
        if op is Opcode.MUL or op is Opcode.MLA:
            r = (a * b + regs[acc]) & M
        elif op is Opcode.UDIV:
            r = (a // b) & M if b else 0
        else:
            sa, sb = to_signed(a), to_signed(b)
            r = (int(sa / sb) if sb else 0) & M
        regs[d] = r & wm
        a &= M
        b &= M
        record(entry(instr, pc, pc1, False, (
            (a ^ M if a & SIGN else a)
            | (b ^ M if b & SIGN else b)).bit_length() + 1,
            None, 0, False))
        return pc1
    return multiply


def _fp(instr: Instruction, pc: int, m: Machine) -> Step:
    """FADD/FSUB/FMUL/FDIV in Q16.16 fixed point on integer registers."""
    regs, record, entry = m.regs, m.record, m.entry
    pc1 = pc + 1
    op = instr.op
    n, mm = _need(instr.rn), _need(instr.rm)
    d, wm = _need(instr.rd), reg_mask(instr.rd)

    def fp() -> int:
        a = to_signed(regs[n]) / 65536.0
        b = to_signed(regs[mm]) / 65536.0
        if op is Opcode.FADD:
            value = a + b
        elif op is Opcode.FSUB:
            value = a - b
        elif op is Opcode.FMUL:
            value = a * b
        else:
            value = a / b if b else 0.0
        regs[d] = int(value * 65536.0) & M & wm
        record(entry(instr, pc, pc1, False, WORD_BITS, None, 0, False))
        return pc1
    return fp


# --- memory -------------------------------------------------------------

def _load(instr: Instruction, pc: int, m: Machine) -> Step:
    """LDR, LDRB and VLD1 from ``[rn + rm * scale + imm]``."""
    regs, record, entry = m.regs, m.record, m.entry
    # Memory lives in this package: steps index its byte map directly
    get = m.mem._bytes.get
    pc1 = pc + 1
    op = instr.op
    n, mm, scale, imm = (_opt(instr.rn), _opt(instr.rm), instr.scale,
                         instr.imm or 0)
    d, wm = _need(instr.rd), reg_mask(instr.rd)

    if op is Opcode.LDR:
        def ldr() -> int:
            addr = (regs[n] + regs[mm] * scale + imm) & M
            v = (get(addr, 0) | get(addr + 1, 0) << 8
                 | get(addr + 2, 0) << 16 | get(addr + 3, 0) << 24)
            regs[d] = v & wm
            record(entry(instr, pc, pc1, False,
                         (v ^ M if v & SIGN else v).bit_length() + 1,
                         addr, 4, False))
            return pc1
        return ldr

    if op is Opcode.LDRB:
        def ldrb() -> int:
            addr = (regs[n] + regs[mm] * scale + imm) & M
            v = get(addr, 0)
            regs[d] = v & wm
            record(entry(instr, pc, pc1, False, v.bit_length() + 1,
                         addr, 1, False))
            return pc1
        return ldrb

    read = m.mem.read

    def vld1() -> int:
        addr = (regs[n] + regs[mm] * scale + imm) & M
        regs[d] = read(addr, 16) & wm
        record(entry(instr, pc, pc1, False, WORD_BITS, addr, 16, False))
        return pc1
    return vld1


def _store(instr: Instruction, pc: int, m: Machine) -> Step:
    """STR, STRB and VST1 of rs to ``[rn + rm * scale + imm]``."""
    regs, record, entry = m.regs, m.record, m.entry
    cells = m.mem._bytes
    pc1 = pc + 1
    op = instr.op
    n, mm, scale, imm = (_opt(instr.rn), _opt(instr.rm), instr.scale,
                         instr.imm or 0)
    s = _need(instr.rs)

    if op is Opcode.STR:
        def str_() -> int:
            addr = (regs[n] + regs[mm] * scale + imm) & M
            v = regs[s]
            cells[addr] = v & 0xFF
            cells[addr + 1] = v >> 8 & 0xFF
            cells[addr + 2] = v >> 16 & 0xFF
            cells[addr + 3] = v >> 24 & 0xFF
            record(entry(instr, pc, pc1, False, WORD_BITS, addr, 4, True))
            return pc1
        return str_

    if op is Opcode.STRB:
        def strb() -> int:
            addr = (regs[n] + regs[mm] * scale + imm) & M
            cells[addr] = regs[s] & 0xFF
            record(entry(instr, pc, pc1, False, WORD_BITS, addr, 1, True))
            return pc1
        return strb

    write = m.mem.write

    def vst1() -> int:
        addr = (regs[n] + regs[mm] * scale + imm) & M
        write(addr, regs[s], 16)
        record(entry(instr, pc, pc1, False, WORD_BITS, addr, 16, True))
        return pc1
    return vst1


# --- control ------------------------------------------------------------

#: per condition, whether it holds at each of the 16 NZCV flag values:
#: the golden model's answers, tabulated once
_TAKEN_AT = {cond: tuple(cond_holds(cond, Flags.unpack(f))
                         for f in range(16))
             for cond in Cond}


def _branch(instr: Instruction, pc: int, m: Machine) -> Step:
    """B and BL; the condition is a table over the 16 flag values."""
    regs, record, entry = m.regs, m.record, m.entry
    pc1 = pc + 1
    target = instr.target
    link = instr.op is Opcode.BL and instr.rd is not None
    d, wm = (reg_id(instr.rd), reg_mask(instr.rd)) if link else (ZERO, 0)
    taken_at = _TAKEN_AT.get(instr.cond)
    if taken_at is None:
        raise ValueError(f"branch condition {instr.cond!r} is not a Cond")

    if instr.cond is Cond.AL and not link and isinstance(target, int):
        def jump() -> int:
            record(entry(instr, pc, target, True, WORD_BITS, None, 0,
                         False))
            return target
        return jump

    def branch() -> int:
        taken = taken_at[regs[F]]
        if link:
            regs[d] = pc1 & M & wm
        if taken:
            if not isinstance(target, int):
                raise ValueError(f"unresolved branch target: {target!r}")
            next_pc = target
        else:
            next_pc = pc1
        record(entry(instr, pc, next_pc, taken, WORD_BITS, None, 0, False))
        return next_pc
    return branch


def _nop(instr: Instruction, pc: int, m: Machine) -> Step:
    record, entry = m.record, m.entry
    pc1 = pc + 1

    def nop() -> int:
        record(entry(instr, pc, pc1, False, WORD_BITS, None, 0, False))
        return pc1
    return nop


def _halt(instr: Instruction, pc: int, m: Machine) -> Step:
    record, entry = m.record, m.entry
    pc1 = pc + 1

    def halt() -> int:
        record(entry(instr, pc, pc1, False, WORD_BITS, None, 0, False))
        return -1
    return halt


# --- SIMD ---------------------------------------------------------------

def _simd(instr: Instruction, pc: int, m: Machine) -> Step:
    """Lanewise V-ops, their lane operation chosen at decode; VDUP,
    VMOV."""
    regs, record, entry = m.regs, m.record, m.entry
    pc1 = pc + 1
    op = instr.op
    dtype = instr.dtype or SimdType.I32
    n, d, wm = _need(instr.rn), _need(instr.rd), reg_mask(instr.rd)

    if op is Opcode.VDUP:
        lane_mask = (1 << dtype.value) - 1
        # lane * ones puts one copy of the lane in every lane
        ones = sum(1 << (i * dtype.value) for i in range(128 // dtype.value))

        def vdup() -> int:
            regs[d] = (regs[n] & lane_mask) * ones & wm
            record(entry(instr, pc, pc1, False, WORD_BITS, None, 0, False))
            return pc1
        return vdup

    if op is Opcode.VMOV:
        def vmov() -> int:
            regs[d] = regs[n] & wm
            record(entry(instr, pc, pc1, False, WORD_BITS, None, 0, False))
            return pc1
        return vmov

    mm, acc = _opt(instr.rm), _opt(instr.ra)
    lanes = _lanewise(op, dtype)

    def lanewise() -> int:
        regs[d] = lanes(regs[n], regs[mm], regs[acc]) & wm
        record(entry(instr, pc, pc1, False, WORD_BITS, None, 0, False))
        return pc1
    return lanewise


def _lanewise(op: Opcode, dtype: SimdType) -> Callable[[int, int, int], int]:
    """``semantics._simd_lanewise(op, a, b, acc, dtype)`` with its lane
    operation chosen once, here, instead of on every lane of every run."""
    width = dtype.value
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    # on a masked lane, x - ((x & half) << 1) is to_signed(x, width)
    lane = {
        Opcode.VADD: lambda x, y, z: (x + y) & mask,
        Opcode.VSUB: lambda x, y, z: (x - y) & mask,
        Opcode.VMUL: lambda x, y, z: (x * y) & mask,
        Opcode.VMLA: lambda x, y, z: (z + x * y) & mask,
        Opcode.VMAX: lambda x, y, z: max(x - ((x & half) << 1),
                                         y - ((y & half) << 1)) & mask,
        Opcode.VMIN: lambda x, y, z: min(x - ((x & half) << 1),
                                         y - ((y & half) << 1)) & mask,
        Opcode.VAND: lambda x, y, z: x & y,
        Opcode.VORR: lambda x, y, z: x | y,
        Opcode.VEOR: lambda x, y, z: x ^ y,
        Opcode.VSHL: lambda x, y, z: (x << (y % width)) & mask,
        Opcode.VSHR: lambda x, y, z: ((x - ((x & half) << 1))
                                      >> (y % width)) & mask,
    }[op]
    shifts = range(0, 128, width)     # the 128 // width lane offsets

    def lanewise(a: int, b: int, acc: int) -> int:
        value = 0
        for s in shifts:
            value |= lane((a >> s) & mask, (b >> s) & mask,
                          (acc >> s) & mask) << s
        return value
    return lanewise


_DECODERS = {
    **{op: _data_processing for op in (*_LOGIC, *_ARITH)},
    **{op: _shift for op in _SHIFT_OF},
    **{op: _multiply for op in (Opcode.MUL, Opcode.MLA, Opcode.SDIV,
                                Opcode.UDIV)},
    **{op: _fp for op in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL,
                          Opcode.FDIV)},
    Opcode.LDR: _load, Opcode.LDRB: _load, Opcode.VLD1: _load,
    Opcode.STR: _store, Opcode.STRB: _store, Opcode.VST1: _store,
    Opcode.B: _branch, Opcode.BL: _branch,
    Opcode.NOP: _nop, Opcode.HALT: _halt,
    **{op: _simd for op in Opcode
       if op.name.startswith("V") and op not in (Opcode.VLD1,
                                                 Opcode.VST1)},
}


__all__ = ["Machine", "Step", "check_decodable", "decode",
           "new_registers", "register_snapshot"]
