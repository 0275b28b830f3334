"""Loh-style resetting-counter data-width predictor (Sec. II-B).

Width slack cannot be read off the instruction encoding: operand values
arrive only at execute, but ReDSOC needs the width at *decode* so the
slack LUT can be consulted and the EX-TIME written into the RSE.  The
paper adopts Loh's resetting confidence predictor:

* table indexed by instruction PC (default 4K entries, the paper's size);
* each entry holds the most recent observed width class and a k-bit
  confidence counter;
* **predict**: if confidence is saturated (``2^k - 1``), predict the
  stored class; otherwise predict the conservative maximum width;
* **update**: on a match increment (saturating); on a mismatch store the
  new class and reset the counter to zero.

Mispredictions split into *conservative* (predicted wider than actual —
lost recycling opportunity, no correctness issue) and *aggressive*
(predicted narrower — the scheduled EX-TIME was too small, so the
instruction must be squashed and selectively reissued, like a cache-miss
replay).  The resetting policy keeps aggressive errors in the paper's
0.1–0.6 % band.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.semantics import width_bucket

#: Prediction classes are the same four width buckets the LUT uses.
MAX_WIDTH = 32


@dataclass
class WidthPredictorStats:
    """Counters for accuracy accounting (Sec. II-B overheads/accuracy)."""

    lookups: int = 0
    exact: int = 0
    conservative: int = 0
    aggressive: int = 0

    @property
    def aggressive_rate(self) -> float:
        return self.aggressive / self.lookups if self.lookups else 0.0

    @property
    def accuracy(self) -> float:
        return self.exact / self.lookups if self.lookups else 0.0


@dataclass
class _Entry:
    width_class: int = MAX_WIDTH
    confidence: int = 0


class WidthPredictor:
    """The resetting-counter predictor with a direct-mapped PC index."""

    def __init__(self, *, entries: int = 4096, confidence_bits: int = 2
                 ) -> None:
        if entries < 1 or confidence_bits < 1:
            raise ValueError("entries and confidence_bits must be >= 1")
        self.entries = entries
        self.max_confidence = (1 << confidence_bits) - 1
        self._table = [_Entry() for _ in range(entries)]
        self.stats = WidthPredictorStats()

    def _index(self, pc: int) -> int:
        return pc % self.entries

    def predict(self, pc: int) -> int:
        """Predicted width class (8/16/24/32) for the instruction at *pc*.

        Conservative (= MAX_WIDTH) until the stored width has repeated
        enough times to saturate the confidence counter.
        """
        entry = self._table[self._index(pc)]
        if entry.confidence >= self.max_confidence:
            return entry.width_class
        return MAX_WIDTH

    def update(self, pc: int, actual_width: int) -> None:
        """Train with the width observed at execute.

        The observed width is quantised to its class first — predictions
        are at class granularity, so an 11-bit operand trains the 16-bit
        class.
        """
        actual_class = width_bucket(actual_width)
        entry = self._table[self._index(pc)]
        if entry.width_class == actual_class:
            entry.confidence = min(entry.confidence + 1,
                                   self.max_confidence)
        else:
            entry.width_class = actual_class
            entry.confidence = 0

    def record_outcome(self, predicted: int, actual_width: int) -> bool:
        """Account a completed prediction; returns True when aggressive.

        Aggressive = predicted class narrower than the actual operand
        needs → correctness hazard → the caller must replay.
        """
        actual_class = width_bucket(actual_width)
        self.stats.lookups += 1
        if predicted == actual_class:
            self.stats.exact += 1
            return False
        if predicted > actual_class:
            self.stats.conservative += 1
            return False
        self.stats.aggressive += 1
        return True

    def state_bytes(self) -> int:
        """Predictor storage, for the paper's 1.5 KB overhead claim."""
        # 2 bits width class + confidence bits per entry
        bits_per_entry = 2 + self.max_confidence.bit_length()
        return self.entries * bits_per_entry // 8
