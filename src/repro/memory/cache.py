"""Set-associative cache model with LRU replacement.

A timing-only model: it tracks which lines are resident, not their
data — the functional memory image lives in
:class:`repro.isa.semantics.Memory`.  Write-back, write-allocate.

A line is named by its line address (``addr // line_bytes``), which
fixes its set (``line % num_sets``) and stands in for the tag.  The
model pays only for what a run touches: a set's list of resident
lines is created on the set's first fill, and the dirty and
prefetched flags are two sets of line addresses, cleared when the
line is evicted.  Building a cache allocates no per-set or per-line
state, so a short run does not pay for the thousands of sets it never
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_rate(self) -> float:
        return 1.0 - self.miss_rate if self.accesses else 0.0


class Cache:
    """One level of set-associative cache.

    ``access`` returns whether the reference hit; fills and evictions are
    handled internally and reported through the return value so the
    hierarchy can charge lower levels for the miss and the writeback.
    """

    def __init__(self, name: str, *, size_bytes: int, assoc: int,
                 line_bytes: int = 64) -> None:
        if size_bytes % (assoc * line_bytes) != 0:
            raise ValueError(f"{name}: size not divisible by assoc*line")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (assoc * line_bytes)
        if self.num_sets < 1 or self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count must be a power of 2")
        #: ``line % num_sets`` for a power-of-two set count
        self._set_mask = self.num_sets - 1
        #: set index -> resident line addresses, least recently used
        #: first; a set appears on its first fill
        self._sets: Dict[int, List[int]] = {}
        self._dirty: Set[int] = set()
        self._prefetched: Set[int] = set()
        self.stats = CacheStats()

    def probe(self, addr: int) -> bool:
        """Non-destructive lookup (no LRU update, no stats)."""
        line = addr // self.line_bytes
        ways = self._sets.get(line & self._set_mask)
        return ways is not None and line in ways

    def access(self, addr: int, *, is_write: bool = False
               ) -> Tuple[bool, Optional[int]]:
        """Reference *addr*; returns ``(hit, writeback_addr)``.

        On a miss the line is filled (write-allocate) and the victim's
        byte address is returned when it was dirty.
        """
        line = addr // self.line_bytes
        ways = self._sets.get(line & self._set_mask)
        if ways is not None and line in ways:
            stats = self.stats
            stats.hits += 1
            prefetched = self._prefetched
            if line in prefetched:
                stats.prefetch_hits += 1
                prefetched.remove(line)
            if is_write:
                self._dirty.add(line)
            if ways[-1] != line:            # move to MRU
                ways.remove(line)
                ways.append(line)
            return True, None
        self.stats.misses += 1
        return False, self._fill(line, is_write)

    def fill_prefetch(self, addr: int) -> None:
        """Install a line speculatively (prefetch); no demand stats."""
        line = addr // self.line_bytes
        ways = self._sets.get(line & self._set_mask)
        if ways is not None and line in ways:
            return
        self.stats.prefetch_fills += 1
        self._prefetched.add(line)
        self._fill(line, False)

    def _fill(self, line: int, dirty: bool) -> Optional[int]:
        """Make *line* the MRU line of its set; returns the writeback
        address of a dirty victim."""
        if dirty:
            self._dirty.add(line)
        set_idx = line & self._set_mask
        ways = self._sets.get(set_idx)
        if ways is None:
            self._sets[set_idx] = [line]
            return None
        writeback = None
        if len(ways) >= self.assoc:
            victim = ways.pop(0)  # LRU
            stats = self.stats
            stats.evictions += 1
            if victim in self._dirty:
                self._dirty.remove(victim)
                stats.writebacks += 1
                writeback = victim * self.line_bytes
            self._prefetched.discard(victim)
        ways.append(line)
        return writeback

    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets.values())

    def invariant_check(self) -> None:
        """Structural invariants (used by property tests)."""
        resident = set()
        for set_idx, ways in self._sets.items():
            assert len(ways) <= self.assoc, "set over-full"
            assert len(ways) == len(set(ways)), "duplicate line in set"
            assert all(line & self._set_mask == set_idx
                       for line in ways), "line in the wrong set"
            resident.update(ways)
        assert self._dirty <= resident, "dirty flag on an absent line"
        assert self._prefetched <= resident, \
            "prefetched flag on an absent line"
