"""Execution-resource accounting: FU pools with per-cycle reservations.

ReDSOC's IT3 holds a functional unit for **two** cycles when an
operation's (mid-cycle-offset) execution crosses a clock edge — that
extra occupancy is the mechanism's main cost (Fig. 14's higher FU-stall
rates), so the FU model must track reservations on future cycles, not
just a per-cycle counter.
"""

from __future__ import annotations

from typing import Dict

from repro.isa.opcodes import OpClass


class FUPool:
    """Reservation table for one class of functional units."""

    __slots__ = ("op_class", "count", "_busy")

    def __init__(self, op_class: OpClass, count: int) -> None:
        self.op_class = op_class
        self.count = count
        # plain dict + .get: a defaultdict would insert a zero entry for
        # every cycle ever *queried*, which the per-cycle free_at probes
        # turn into unbounded growth (and release_past scan time)
        self._busy: Dict[int, int] = {}

    def free_at(self, cycle: int) -> int:
        return self.count - self._busy.get(cycle, 0)

    def can_reserve(self, cycle: int, *, extra_cycle: bool = False) -> bool:
        busy = self._busy
        if busy.get(cycle, 0) >= self.count:
            return False
        if extra_cycle and busy.get(cycle + 1, 0) >= self.count:
            return False
        return True

    def reserve(self, cycle: int, *, extra_cycle: bool = False) -> None:
        if not self.can_reserve(cycle, extra_cycle=extra_cycle):
            raise RuntimeError(
                f"{self.op_class}: no free unit at cycle {cycle}")
        busy = self._busy
        busy[cycle] = busy.get(cycle, 0) + 1
        if extra_cycle:
            busy[cycle + 1] = busy.get(cycle + 1, 0) + 1

    def try_reserve(self, cycle: int, *, extra_cycle: bool = False) -> bool:
        """Reserve if a unit is free; one probe for the check + claim.

        Fused ``can_reserve`` + ``reserve`` for the issue hot path —
        ``reserve`` alone re-validates, doubling the dict probes.
        """
        busy = self._busy
        n = busy.get(cycle, 0)
        if n >= self.count:
            return False
        if extra_cycle:
            m = busy.get(cycle + 1, 0)
            if m >= self.count:
                return False
            busy[cycle + 1] = m + 1
        busy[cycle] = n + 1
        return True

    def release_past(self, cycle: int) -> None:
        """Drop bookkeeping for cycles before *cycle* (memory hygiene)."""
        for c in [c for c in self._busy if c < cycle]:
            del self._busy[c]


class ExecutionResources:
    """All FU pools of a core (Table I's ALU/SIMD/FP columns + memory).

    Every class has a pool of its own.  LOAD and STORE each get
    ``mem_ports`` units (a load never waits for a store's port), and
    MUL and DIV each get ``complex_units`` units.  Both engines size
    their pools this way.
    """

    def __init__(self, *, alu: int, simd: int, fp: int, mem_ports: int,
                 complex_units: int = 1, branch_units: int = 2) -> None:
        self.pools: Dict[OpClass, FUPool] = {
            OpClass.ALU: FUPool(OpClass.ALU, alu),
            OpClass.SIMD: FUPool(OpClass.SIMD, simd),
            OpClass.FP: FUPool(OpClass.FP, fp),
            OpClass.LOAD: FUPool(OpClass.LOAD, mem_ports),
            OpClass.STORE: FUPool(OpClass.STORE, mem_ports),
            OpClass.MUL: FUPool(OpClass.MUL, complex_units),
            OpClass.DIV: FUPool(OpClass.DIV, complex_units),
            OpClass.BRANCH: FUPool(OpClass.BRANCH, branch_units),
        }

    def pool_for(self, op_class: OpClass) -> FUPool:
        return self.pools[op_class]

    def release_past(self, cycle: int) -> None:
        for pool in self.pools.values():
            pool.release_past(cycle)
