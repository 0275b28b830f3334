"""Architectural register specification.

The micro-ISA has:

* 32 scalar integer registers ``r0``–``r31`` (32-bit),
* 32 SIMD vector registers ``v0``–``v31`` (128-bit, held as Python ints),
* one flags register (NZCV) modelled as an architectural register so the
  renamer can track flag dependencies like any other source/destination.

Registers are addressed by small integers in three disjoint namespaces;
:class:`Reg` pairs the namespace with the index so a register value can be
used as a dict key throughout the pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

NUM_INT_REGS = 32
NUM_VEC_REGS = 32

WORD_BITS = 32
WORD_MASK = (1 << WORD_BITS) - 1
VEC_BITS = 128
VEC_MASK = (1 << VEC_BITS) - 1


class RegClass(enum.Enum):
    INT = "r"
    VEC = "v"
    FLAGS = "f"


@dataclass(frozen=True)
class Reg:
    """An architectural register: namespace + index."""

    cls: RegClass
    index: int

    def __post_init__(self) -> None:
        # precomputed hash: Reg keys the RAT and register file on the
        # rename hot path, and the generated dataclass hash re-hashes
        # the RegClass member (a Python-level call) on every dict probe
        object.__setattr__(self, "_hash",
                           hash((self.cls.value, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.cls is RegClass.FLAGS:
            return "flags"
        return f"{self.cls.value}{self.index}"


def r(index: int) -> Reg:
    """Scalar integer register ``r<index>``."""
    if not 0 <= index < NUM_INT_REGS:
        raise ValueError(f"integer register index out of range: {index}")
    return Reg(RegClass.INT, index)


def v(index: int) -> Reg:
    """SIMD vector register ``v<index>``."""
    if not 0 <= index < NUM_VEC_REGS:
        raise ValueError(f"vector register index out of range: {index}")
    return Reg(RegClass.VEC, index)


#: The single architectural flags (NZCV) register.
FLAGS = Reg(RegClass.FLAGS, 0)

#: Flat register ids: ``r0``–``r31`` are 0–31, ``v0``–``v31`` are
#: 32–63 and the flags register is 64.  The trace executor's register
#: storage and the lowering's rename table are lists indexed by them.
NUM_REG_IDS = NUM_INT_REGS + NUM_VEC_REGS + 1
FLAGS_ID = NUM_REG_IDS - 1
_ID_BASE = {RegClass.INT: 0, RegClass.VEC: NUM_INT_REGS,
            RegClass.FLAGS: FLAGS_ID}
_CLASS_MASK = {RegClass.INT: WORD_MASK, RegClass.VEC: VEC_MASK,
               RegClass.FLAGS: 0xF}


def reg_id(reg: Reg) -> int:
    """The flat id of *reg* (see :data:`NUM_REG_IDS`)."""
    return _ID_BASE[reg.cls] + reg.index


def reg_mask(reg: Reg) -> int:
    """The mask a write to *reg* is cut to (its register class)."""
    return _CLASS_MASK[reg.cls]


@dataclass
class Flags:
    """NZCV condition flags."""

    n: bool = False
    z: bool = False
    c: bool = False
    v: bool = False

    def pack(self) -> int:
        """Encode as a 4-bit integer (N:3, Z:2, C:1, V:0)."""
        return (self.n << 3) | (self.z << 2) | (self.c << 1) | int(self.v)

    @classmethod
    def unpack(cls, value: int) -> "Flags":
        """Decode from :meth:`pack`'s representation."""
        return cls(bool(value & 8), bool(value & 4), bool(value & 2),
                   bool(value & 1))


class RegisterFile:
    """Architectural register state (used by the functional executor).

    Integer registers hold 32-bit unsigned words; vector registers hold
    128-bit unsigned values; the flags register holds a packed NZCV
    nibble.  All reads/writes go through :class:`Reg` keys.
    """

    def __init__(self) -> None:
        self._int = [0] * NUM_INT_REGS
        self._vec = [0] * NUM_VEC_REGS
        self._flags = 0

    def read(self, reg: Reg) -> int:
        if reg.cls is RegClass.INT:
            return self._int[reg.index]
        if reg.cls is RegClass.VEC:
            return self._vec[reg.index]
        return self._flags

    def write(self, reg: Reg, value: int) -> None:
        if reg.cls is RegClass.INT:
            self._int[reg.index] = value & WORD_MASK
        elif reg.cls is RegClass.VEC:
            self._vec[reg.index] = value & VEC_MASK
        else:
            self._flags = value & 0xF

    def flags(self) -> Flags:
        return Flags.unpack(self._flags)

    def set_flags(self, flags: Flags) -> None:
        self._flags = flags.pack()

    def snapshot(self) -> dict:
        """Copy of the full architectural state (for equivalence tests)."""
        return {"int": list(self._int), "vec": list(self._vec),
                "flags": self._flags}
