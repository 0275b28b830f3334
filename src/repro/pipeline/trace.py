"""Dynamic-trace generation: the functional-first half of the simulator.

The timing simulator is *trace-driven*: the program is first executed
with real values and one :class:`TraceEntry` is recorded per dynamic
instruction (opcode, register dataflow, actual operand width, memory
address, branch outcome).  The cycle-level model then replays this trace
through the pipeline structures.

:func:`generate_trace` decodes each static instruction once into a step
closure (:mod:`repro.isa.decode`) and then runs the steps; the
per-instruction interpreter :func:`repro.isa.semantics.execute` stays
as the golden model (:class:`repro.isa.interpreter.Interpreter`) that
the tests and the differential oracle compare the trace against.

This methodology is exact for ReDSOC because slack recycling is a pure
*timing* mechanism — it never changes architectural results (the paper's
design is timing non-speculative).  Branch and width mispredictions are
still modelled faithfully: the predictors run against the recorded
outcomes and their penalties are charged in the timing model; only
wrong-path *fetch bandwidth* is approximated by the redirect penalty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.isa.decode import Machine, decode, new_registers, \
    register_snapshot
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.registers import Reg


@dataclass
class TraceEntry:
    """One dynamic instruction with its functional outcome."""

    __slots__ = ("instr", "pc", "next_pc", "taken", "op_width", "mem_addr",
                 "mem_size", "is_store", "cls")

    instr: Instruction
    pc: int
    next_pc: int
    taken: bool
    op_width: int
    mem_addr: Optional[int]
    mem_size: int
    is_store: bool

    def __post_init__(self) -> None:
        # not a field: the op class is derived, cached per entry so the
        # fetch/dispatch hot paths read a slot instead of a property
        self.cls = self.instr.cls


@dataclass
class Trace:
    """A complete dynamic trace plus the final architectural state."""

    name: str
    entries: List[TraceEntry]
    final_regs: Dict
    final_mem: Dict

    def __len__(self) -> int:
        return len(self.entries)

    def arch_state(self) -> Dict:
        return {"regs": self.final_regs, "mem": self.final_mem}


def generate_trace(program: Program, *,
                   init_regs: Optional[Dict[Reg, int]] = None,
                   max_instructions: int = 5_000_000) -> Trace:
    """Functionally execute *program* and record its dynamic trace.

    Each static instruction is decoded once, by the module-level name
    ``decode`` (the seam :mod:`repro.verify.defects` patches).
    """
    program.validate()
    regs = new_registers(init_regs)
    mem = program.build_memory()
    entries: List[TraceEntry] = []
    machine = Machine(regs, mem, entries.append, TraceEntry)
    steps = [decode(instr, pc, machine)
             for pc, instr in enumerate(program.instructions)]
    # validate() keeps pc in range: the entry is a valid pc, branch
    # targets are, and the last instruction never falls through
    pc = program.entry
    for _ in range(max_instructions):
        pc = steps[pc]()
        if pc < 0:
            break
    else:
        raise RuntimeError(
            f"{program.name!r} exceeded {max_instructions} instructions")
    return Trace(name=program.name, entries=entries,
                 final_regs=register_snapshot(regs),
                 final_mem=mem.snapshot())
