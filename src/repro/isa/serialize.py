"""JSON-safe (de)serialisation of instructions and programs.

The verification subsystem (:mod:`repro.verify`) persists failing fuzz
programs as replayable artifacts under ``.redsoc-verify/``; campaigns
and bug reports need the *exact* micro-op stream back, including fields
the text assembler cannot express (index scales, resolved branch
targets, link registers).  These helpers round-trip every
:class:`~repro.isa.instruction.Instruction` field through plain JSON
types, so ``program_from_dict(program_to_dict(p))`` reproduces the
identical dynamic trace.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, Optional

from .instruction import Instruction
from .opcodes import Cond, Opcode, ShiftOp, SimdType
from .program import Program
from .registers import FLAGS, Reg, r, v


def reg_to_str(reg: Optional[Reg]) -> Optional[str]:
    """``r3`` / ``v1`` / ``flags`` — the assembly spelling."""
    if reg is None:
        return None
    return repr(reg)


def reg_from_str(token: Optional[str]) -> Optional[Reg]:
    if token is None:
        return None
    if token == "flags":
        return FLAGS
    cls, index = token[0], int(token[1:])
    if cls == "r":
        return r(index)
    if cls == "v":
        return v(index)
    raise ValueError(f"not a register token: {token!r}")


def instruction_to_dict(instr: Instruction) -> Dict[str, Any]:
    """One instruction as a JSON-safe dict (defaults omitted)."""
    d: Dict[str, Any] = {"op": instr.op.name}
    for field in ("rd", "rn", "rm", "ra", "rs"):
        reg = getattr(instr, field)
        if reg is not None:
            d[field] = reg_to_str(reg)
    if instr.imm is not None:
        d["imm"] = instr.imm
    if instr.shift is not ShiftOp.NONE:
        d["shift"] = instr.shift.value
        d["shift_amt"] = instr.shift_amt
    if instr.set_flags:
        d["s"] = True
    if instr.cond is not Cond.AL:
        d["cond"] = instr.cond.value
    if instr.target is not None:
        d["target"] = instr.target
    if instr.dtype is not None:
        d["dtype"] = instr.dtype.value
    if instr.scale != 1:
        d["scale"] = instr.scale
    return d


def _int_field(d: Dict[str, Any], key: str,
               default: Optional[int]) -> Optional[int]:
    """``d[key]`` (or *default*), refused unless it is an integer; an
    absent field with no default stays None."""
    value = d.get(key, default)
    if value is None and default is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"field {key!r} must be an integer, "
                        f"got {type(value).__name__}")
    return value


def instruction_from_dict(d: Dict[str, Any]) -> Instruction:
    set_flags = d.get("s", False)
    if not isinstance(set_flags, bool):
        raise TypeError(f"field 's' must be a bool, "
                        f"got {type(set_flags).__name__}")
    target = d.get("target")
    if not isinstance(target, str):      # a label name: resolve_labels
        target = _int_field(d, "target", None)
    return Instruction(
        op=Opcode[d["op"]],
        rd=reg_from_str(d.get("rd")),
        rn=reg_from_str(d.get("rn")),
        rm=reg_from_str(d.get("rm")),
        ra=reg_from_str(d.get("ra")),
        rs=reg_from_str(d.get("rs")),
        imm=_int_field(d, "imm", None),
        shift=ShiftOp(d.get("shift", ShiftOp.NONE.value)),
        shift_amt=_int_field(d, "shift_amt", 0),
        set_flags=set_flags,
        cond=Cond(d.get("cond", Cond.AL.value)),
        target=target,
        dtype=SimdType(d["dtype"]) if "dtype" in d else None,
        scale=_int_field(d, "scale", 1),
    )


def program_to_dict(program: Program) -> Dict[str, Any]:
    """A whole program (instructions + labels + data image) as JSON."""
    return {
        "name": program.name,
        "entry": program.entry,
        "instructions": [instruction_to_dict(i)
                         for i in program.instructions],
        "labels": dict(program.labels),
        "data": [[addr, base64.b64encode(blob).decode("ascii")]
                 for addr, blob in program.data],
    }


def program_from_dict(d: Dict[str, Any]) -> Program:
    instructions = []
    for pc, raw in enumerate(d["instructions"]):
        try:
            instructions.append(instruction_from_dict(raw))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"pc {pc}: {exc}") from exc
    program = Program(
        name=d["name"],
        instructions=instructions,
        labels={k: int(val) for k, val in d.get("labels", {}).items()},
        data=[(addr, base64.b64decode(blob))
              for addr, blob in d.get("data", [])],
        entry=d.get("entry", 0),
    )
    for pc, instr in enumerate(program.instructions):
        instr.pc = pc
    program.resolve_labels()
    program.validate()
    return program


__all__ = [
    "instruction_from_dict", "instruction_to_dict", "program_from_dict",
    "program_to_dict", "reg_from_str", "reg_to_str",
]
