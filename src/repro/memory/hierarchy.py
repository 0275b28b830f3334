"""Two-level cache hierarchy + DRAM latency model (Table I).

``L1 (64 kB) → L2 (2 MB, with prefetch) → DRAM``.  The hierarchy is a
timing model: :meth:`MemoryHierarchy.load_latency` returns the cycles a
load spends in the memory system, while stores are charged at commit
(write-back, write-allocate).

The Fig. 10 operation classes use this model's outcome: a load that hits
L1 is MEM-LL (low latency), anything that misses L1 is MEM-HL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.events import Event, EventKind

from .cache import Cache, CacheStats
from .prefetch import NextLinePrefetcher, StridePrefetcher


@dataclass(frozen=True)
class MemoryConfig:
    """Latency/geometry parameters of the hierarchy."""

    l1_size: int = 64 * 1024
    l1_assoc: int = 4
    l2_size: int = 2 * 1024 * 1024
    l2_assoc: int = 8
    line_bytes: int = 64
    l1_latency: int = 2       # cycles, load-to-use on an L1 hit
    l2_latency: int = 12
    dram_latency: int = 80
    prefetch: bool = True


class MemoryHierarchy:
    """L1 + L2 + DRAM with stride/next-line prefetch into L2→L1."""

    def __init__(self, config: MemoryConfig = MemoryConfig()) -> None:
        self.config = config
        self.l1 = Cache("L1", size_bytes=config.l1_size,
                        assoc=config.l1_assoc, line_bytes=config.line_bytes)
        self.l2 = Cache("L2", size_bytes=config.l2_size,
                        assoc=config.l2_assoc, line_bytes=config.line_bytes)
        self._stride = StridePrefetcher(line_bytes=config.line_bytes)
        self._next_line = NextLinePrefetcher(line_bytes=config.line_bytes)
        #: cycles to an L1 hit, an L2 hit and a DRAM fill (cumulative),
        #: and the prefetch switch, read per access
        self._l1_hit = config.l1_latency
        self._l2_hit = config.l1_latency + config.l2_latency
        self._dram_fill = self._l2_hit + config.dram_latency
        self._prefetch_on = config.prefetch
        self.loads = 0
        self.stores = 0
        self.l1_load_misses = 0
        #: event sink + current cycle (attached by the simulator on
        #: traced runs; untraced accesses skip one None check)
        self.obs = None
        self.now = -1

    def _level_of(self, latency: int) -> str:
        if latency <= self._l1_hit:
            return "l1"
        if latency <= self._l2_hit:
            return "l2"
        return "dram"

    def load_latency(self, addr: int, pc: int = 0) -> int:
        """Cycles for a load at *addr*; trains the prefetchers."""
        self.loads += 1
        latency = self._access(addr, False)
        if latency > self._l1_hit:
            self.l1_load_misses += 1
        if self._prefetch_on:
            # a stride prefetch fills both levels (timing-only model)
            for pf_addr in self._stride.observe(pc, addr):
                self.l2.fill_prefetch(pf_addr)
                self.l1.fill_prefetch(pf_addr)
        if self.obs is not None:
            self.obs.emit(Event(EventKind.MEM_ACCESS, self.now, -1, {
                "access": "load", "addr": addr, "pc": pc,
                "level": self._level_of(latency), "latency": latency,
            }))
        return latency

    def store_latency(self, addr: int, pc: int = 0) -> int:
        """Cycles to retire a store (charged at commit)."""
        self.stores += 1
        latency = self._access(addr, True)
        if self.obs is not None:
            self.obs.emit(Event(EventKind.MEM_ACCESS, self.now, -1, {
                "access": "store", "addr": addr, "pc": pc,
                "level": self._level_of(latency), "latency": latency,
            }))
        return latency

    def _access(self, addr: int, is_write: bool) -> int:
        hit_l1, wb = self.l1.access(addr, is_write=is_write)
        if wb is not None:
            self.l2.access(wb, is_write=True)
        if hit_l1:
            return self._l1_hit
        hit_l2, _ = self.l2.access(addr)
        if hit_l2:
            return self._l2_hit
        if self._prefetch_on:
            nxt = self._next_line.observe_miss(addr)
            if nxt is not None:
                self.l2.fill_prefetch(nxt)
        return self._dram_fill

    def is_l1_hit(self, addr: int) -> bool:
        """Non-destructive L1 residence probe (for MEM-HL/LL stats)."""
        return self.l1.probe(addr)

    @property
    def l1_stats(self) -> CacheStats:
        return self.l1.stats
