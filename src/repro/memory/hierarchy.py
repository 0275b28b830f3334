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
        self._stride = StridePrefetcher()
        self._next_line = NextLinePrefetcher(line_bytes=config.line_bytes)
        self.loads = 0
        self.stores = 0
        self.l1_load_misses = 0
        #: event sink + current cycle (attached by the simulator on
        #: traced runs; untraced accesses skip one None check)
        self.obs = None
        self.now = -1

    def _level_of(self, latency: int) -> str:
        config = self.config
        if latency <= config.l1_latency:
            return "l1"
        if latency <= config.l1_latency + config.l2_latency:
            return "l2"
        return "dram"

    def load_latency(self, addr: int, pc: int = 0) -> int:
        """Cycles for a load at *addr*; trains the prefetchers."""
        self.loads += 1
        latency = self._access(addr, is_write=False)
        if latency > self.config.l1_latency:
            self.l1_load_misses += 1
        if self.config.prefetch:
            for pf_addr in self._stride.observe(pc, addr):
                self._prefetch(pf_addr)
        if self.obs is not None:
            self.obs.emit(Event(EventKind.MEM_ACCESS, self.now, -1, {
                "access": "load", "addr": addr, "pc": pc,
                "level": self._level_of(latency), "latency": latency,
            }))
        return latency

    def store_latency(self, addr: int, pc: int = 0) -> int:
        """Cycles to retire a store (charged at commit)."""
        self.stores += 1
        latency = self._access(addr, is_write=True)
        if self.obs is not None:
            self.obs.emit(Event(EventKind.MEM_ACCESS, self.now, -1, {
                "access": "store", "addr": addr, "pc": pc,
                "level": self._level_of(latency), "latency": latency,
            }))
        return latency

    def _access(self, addr: int, *, is_write: bool) -> int:
        hit_l1, wb = self.l1.access(addr, is_write=is_write)
        if wb is not None:
            self.l2.access(wb, is_write=True)
        if hit_l1:
            return self.config.l1_latency
        hit_l2, _ = self.l2.access(addr, is_write=False)
        if self.config.prefetch and not hit_l2:
            nxt = self._next_line.observe_miss(addr)
            if nxt is not None:
                self.l2.fill_prefetch(nxt)
        if hit_l2:
            return self.config.l1_latency + self.config.l2_latency
        return (self.config.l1_latency + self.config.l2_latency
                + self.config.dram_latency)

    def _prefetch(self, addr: int) -> None:
        """Prefetch into both levels (timing-only model)."""
        self.l2.fill_prefetch(addr)
        self.l1.fill_prefetch(addr)

    def is_l1_hit(self, addr: int) -> bool:
        """Non-destructive L1 residence probe (for MEM-HL/LL stats)."""
        return self.l1.probe(addr)

    @property
    def l1_stats(self) -> CacheStats:
        return self.l1.stats
