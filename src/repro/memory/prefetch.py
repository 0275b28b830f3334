"""Hardware prefetchers: next-line and per-PC stride.

Table I's cores attach a prefetcher to the L1/L2 pair.  We implement the
standard combination: a next-line prefetcher for streaming code and a
PC-indexed stride detector (two confirmations before issuing) for
strided array walks — the access pattern the ML kernels and MiBench
loops generate.
"""

from __future__ import annotations

from typing import List, Optional


class StridePrefetcher:
    """PC-indexed stride prefetcher with confidence threshold.

    Prefetch distance is at least one cache line per step: small-stride
    streams (e.g. 16-byte SIMD loads walking a row) would otherwise
    prefetch within the line already being fetched and hide nothing.

    The table is three flat lists indexed by ``pc % entries``: last
    address (``-1`` until trained), stride and confidence.
    """

    def __init__(self, *, entries: int = 256, degree: int = 4,
                 threshold: int = 2, line_bytes: int = 64) -> None:
        self.entries = entries
        self.degree = degree
        self.threshold = threshold
        self.line_bytes = line_bytes
        self._last = [-1] * entries
        self._stride = [0] * entries
        self._confidence = [0] * entries
        self.issued = 0

    def observe(self, pc: int, addr: int) -> List[int]:
        """Train on a demand access; returns addresses to prefetch."""
        e = pc % self.entries
        last = self._last[e]
        self._last[e] = addr
        stride = self._stride[e]
        if last >= 0:
            step = addr - last
            if step != 0 and step == stride:
                conf = self._confidence[e] + 1
                self._confidence[e] = conf if conf < 3 else 3
            else:
                self._stride[e] = stride = step
                self._confidence[e] = 0
        if self._confidence[e] < self.threshold or stride == 0:
            return []
        step = stride
        if abs(step) < self.line_bytes:
            step = self.line_bytes if step > 0 else -self.line_bytes
        prefetches: List[int] = []
        for k in range(1, self.degree + 1):
            prefetches.append(addr + k * step)
        self.issued += len(prefetches)
        return prefetches


class NextLinePrefetcher:
    """Prefetch line N+1 on every demand miss to line N."""

    def __init__(self, *, line_bytes: int = 64) -> None:
        self.line_bytes = line_bytes
        self.issued = 0

    def observe_miss(self, addr: int) -> Optional[int]:
        self.issued += 1
        return (addr // self.line_bytes + 1) * self.line_bytes
