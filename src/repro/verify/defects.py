"""Named, injectable semantics defects for self-checking the verifier.

A fuzzer that never finds a bug is indistinguishable from a fuzzer that
can't.  This module provides a registry of small, realistic semantics
bugs that can be switched on inside a ``with`` block; each one patches
the ``decode`` binding **in** :mod:`repro.pipeline.trace` only, which
:func:`~repro.pipeline.trace.generate_trace` calls once per static
instruction.  So the trace executor's decoded steps (and therefore
every timing core replaying its traces) go wrong, while the
:class:`~repro.isa.interpreter.Interpreter` golden model, which runs
:func:`repro.isa.semantics.execute`, stays correct — exactly the class
of divergence the differential oracle exists to catch.

The CLI's ``fuzz --self-check`` and the test suite use these to prove,
end to end, that a seeded defect is caught *and* shrinks to a minimal
reproducer.

Every defect here is picked to keep generated programs terminating:
none touches ``next_pc``, and none perturbs flag-setting ops (loop
back-edges depend on ``SUBS`` of reserved counter registers).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterator

from repro.isa.decode import Machine, Step
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import WORD_MASK, reg_id, reg_mask
from repro.isa.semantics import Memory

#: the decoder a defect wraps: ``decode(instr, pc, machine) -> Step``
Decoder = Callable[[Instruction, int, Machine], Step]

#: builds the step to run for one static instruction, given the real
#: decoder and that decoder's arguments
Mutator = Callable[[Decoder, Instruction, int, Machine], Step]


@dataclass(frozen=True)
class Defect:
    name: str
    description: str
    mutate: Mutator


def _eor_lsb(decode: Decoder, instr: Instruction, pc: int,
             machine: Machine) -> Step:
    step = decode(instr, pc, machine)
    if instr.op is not Opcode.EOR or instr.rd is None:
        return step
    regs, rd = machine.regs, reg_id(instr.rd)

    def flipped() -> int:
        next_pc = step()
        regs[rd] ^= 1
        return next_pc
    return flipped


def _sub_off_by_one(decode: Decoder, instr: Instruction, pc: int,
                    machine: Machine) -> Step:
    step = decode(instr, pc, machine)
    # plain SUB only: SUBS drives loop counters, and corrupting those
    # would turn bounded loops into (near-)unbounded ones
    if instr.op is not Opcode.SUB or instr.set_flags or instr.rd is None:
        return step
    regs, rd = machine.regs, reg_id(instr.rd)
    mask = WORD_MASK & reg_mask(instr.rd)

    def off_by_one() -> int:
        next_pc = step()
        regs[rd] = (regs[rd] + 1) & mask
        return next_pc
    return off_by_one


def _store_drop(decode: Decoder, instr: Instruction, pc: int,
                machine: Machine) -> Step:
    if instr.cls is not OpClass.STORE:
        return decode(instr, pc, machine)
    entry = machine.entry

    def non_store(*fields):
        return entry(*fields[:-1], False)
    # the store writes a throwaway memory and records is_store=False
    return decode(instr, pc, Machine(machine.regs, Memory(),
                                     machine.record, non_store))


DEFECTS: Dict[str, Defect] = {d.name: d for d in (
    Defect("eor-lsb",
           "EOR results have their least-significant bit flipped",
           _eor_lsb),
    Defect("sub-off-by-one",
           "non-flag-setting SUB computes rn - operand2 + 1",
           _sub_off_by_one),
    Defect("store-drop",
           "stores are silently discarded (loads see stale memory)",
           _store_drop),
)}

DEFAULT_DEFECT = "eor-lsb"


@contextlib.contextmanager
def inject_defect(name: str) -> Iterator[Defect]:
    """Activate defect *name* inside the ``with`` block.

    Patches ``repro.pipeline.trace.decode`` (the name the trace
    executor decodes every static instruction through), leaving
    ``repro.isa.semantics.execute`` and the interpreter untouched.
    """
    import repro.pipeline.trace as trace_mod

    defect = DEFECTS[name]  # KeyError on unknown names is the API
    original = trace_mod.decode

    def buggy_decode(instr, pc, machine):
        return defect.mutate(original, instr, pc, machine)

    trace_mod.decode = buggy_decode
    try:
        yield defect
    finally:
        trace_mod.decode = original


__all__ = ["DEFAULT_DEFECT", "DEFECTS", "Decoder", "Defect", "Mutator",
           "inject_defect"]
