"""Program container: instruction stream + initial data image.

A :class:`Program` owns a list of :class:`~repro.isa.instruction.Instruction`
micro-ops, a label table for branch targets, and the initial contents of
data memory.  Workload generators build programs through
:class:`~repro.isa.assembler.Asm` and the simulator consumes them here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .instruction import Instruction
from .opcodes import Cond, Opcode
from .semantics import Memory


@dataclass
class Program:
    """An assembled program ready for simulation."""

    name: str
    instructions: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    data: List[Tuple[int, bytes]] = field(default_factory=list)
    entry: int = 0

    def __len__(self) -> int:
        return len(self.instructions)

    def resolve_labels(self) -> None:
        """Replace symbolic branch targets with instruction indices."""
        for instr in self.instructions:
            if isinstance(instr.target, str):
                if instr.target not in self.labels:
                    raise KeyError(
                        f"undefined label {instr.target!r} in {self.name}")
                instr.target = self.labels[instr.target]

    def validate(self) -> None:
        """Sanity-check the program: labels resolved, PCs in range, HALT.

        Every pc execution can reach is an instruction: the entry and
        every branch target lie in ``[0, n)``, every B/BL has a target,
        and the last instruction is HALT or an unconditional B/BL, so
        nothing falls off the end.
        Raises ``ValueError`` on any structural problem so workload bugs
        (and malformed inline programs) fail fast instead of producing
        hung simulations or bogus traces.
        """
        if not self.instructions:
            raise ValueError(f"program {self.name!r} is empty")
        n = len(self.instructions)
        if not isinstance(self.entry, int) or not 0 <= self.entry < n:
            raise ValueError(f"entry {self.entry!r} out of range [0,{n})")
        for pc, instr in enumerate(self.instructions):
            if instr.op in (Opcode.B, Opcode.BL) and instr.target is None:
                raise ValueError(f"pc {pc}: {instr!r} has no branch target")
            if isinstance(instr.target, str):
                raise ValueError(
                    f"unresolved label {instr.target!r}; call resolve_labels()")
            if isinstance(instr.target, int) and not 0 <= instr.target < n:
                raise ValueError(
                    f"branch target {instr.target} out of range [0,{n})")
        if all(i.op is not Opcode.HALT for i in self.instructions):
            raise ValueError(f"program {self.name!r} has no HALT")
        last = self.instructions[-1]
        if not (last.op is Opcode.HALT
                or (last.op in (Opcode.B, Opcode.BL)
                    and last.cond is Cond.AL
                    and isinstance(last.target, int))):
            raise ValueError(
                f"program {self.name!r} falls through its last "
                f"instruction ({last!r}); end it with halt or an "
                f"unconditional branch")

    def build_memory(self) -> Memory:
        """Create a fresh :class:`Memory` with the initial data image."""
        mem = Memory()
        for addr, blob in self.data:
            mem.load_block(addr, blob)
        return mem
