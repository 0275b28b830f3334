"""Reference interpreter: functional execution of whole programs.

The interpreter is the architectural golden model.  It runs every
dynamic instruction through :func:`repro.isa.semantics.execute`, a
second implementation beside the decoded steps
(:mod:`repro.isa.decode`) that trace generation runs.  The
differential oracle (:mod:`repro.verify.oracle`) compares the two
entry by entry, and the cycle-level pipelines (baseline and ReDSOC)
must commit exactly the state this interpreter produces — slack
recycling is timing-only and must never change results.  It is also
used by workload unit tests to check kernel correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .program import Program
from .registers import Reg, RegisterFile
from .semantics import Memory, execute


@dataclass
class InterpResult:
    """Outcome of an interpreter run."""

    instructions: int
    halted: bool
    regs: RegisterFile
    mem: Memory
    #: with ``run(record=True)``, one ``(pc, taken, op_width, mem_addr,
    #: mem_size, is_store)`` tuple per dynamic instruction
    trace: List[tuple] = field(default_factory=list)

    def arch_state(self) -> Dict:
        """Architectural state snapshot for equivalence checks."""
        return {"regs": self.regs.snapshot(), "mem": self.mem.snapshot()}


class Interpreter:
    """Runs a :class:`~repro.isa.program.Program` functionally."""

    def __init__(self, program: Program, *,
                 init_regs: Optional[Dict[Reg, int]] = None,
                 max_instructions: int = 50_000_000) -> None:
        program.validate()
        self.program = program
        self.max_instructions = max_instructions
        self.regs = RegisterFile()
        self.mem = program.build_memory()
        for reg, value in (init_regs or {}).items():
            self.regs.write(reg, value)

    def run(self, *, record: bool = False) -> InterpResult:
        """Execute to HALT (or the instruction cap); returns the result.

        *record* keeps each instruction's outcome, the fields of a
        trace entry that execution decides, in ``InterpResult.trace``.
        """
        pc = self.program.entry
        instrs = self.program.instructions
        count = 0
        halted = False
        trace: List[tuple] = []
        while count < self.max_instructions:
            if not 0 <= pc < len(instrs):
                raise RuntimeError(
                    f"pc {pc} fell off program {self.program.name!r}")
            instr = instrs[pc]
            result = execute(instr, self.regs, self.mem, pc)
            count += 1
            for reg, value in result.writes.items():
                self.regs.write(reg, value)
            if result.is_store:
                self.mem.write(result.mem_addr, result.store_value,
                               result.mem_size)
            if record:
                trace.append((pc, result.taken, result.op_width,
                              result.mem_addr, result.mem_size,
                              result.is_store))
            if result.halted:
                halted = True
                break
            pc = result.next_pc
        return InterpResult(instructions=count, halted=halted,
                            regs=self.regs, mem=self.mem, trace=trace)


def run_program(program: Program, *,
                init_regs: Optional[Dict[Reg, int]] = None,
                max_instructions: int = 50_000_000) -> InterpResult:
    """Convenience wrapper: interpret *program* to completion."""
    interp = Interpreter(program, init_regs=init_regs,
                         max_instructions=max_instructions)
    return interp.run()
