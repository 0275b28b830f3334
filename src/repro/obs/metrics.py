"""Metrics registry: counters, gauges, tick-resolution histograms.

The registry is what the exporters snapshot.  A simulation's registry
is built after the run by :func:`repro.obs.export.run_metrics`: its
counters and gauges mirror :class:`~repro.analysis.stats.SimStats` (the
flat dataclass every bench and report reads) under stable metric
names, and its histograms are derived from the run's EXEC_WINDOW
events, so the engines themselves hold no registry.  The serve stack
keeps its own live registries (``/metrics``).

Histograms are integer-bucketed at tick resolution (one bucket per
tick value), which matches the simulator's native time base: the
slack-per-op and issue-to-execute-latency distributions come out
exact, not binned.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def set(self, value: int) -> None:
        """Overwrite (used when mirroring an externally-kept count)."""
        self.value = value


class Gauge:
    """Last-value-wins float metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class TickHistogram:
    """Exact integer-valued histogram (one bucket per observed value)."""

    __slots__ = ("name", "counts", "total", "sum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: Dict[int, int] = {}
        self.total = 0
        self.sum = 0

    def observe(self, value: int, n: int = 1) -> None:
        self.counts[value] = self.counts.get(value, 0) + n
        self.total += n
        self.sum += value * n

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    @property
    def min(self) -> Optional[int]:
        return min(self.counts) if self.counts else None

    @property
    def max(self) -> Optional[int]:
        return max(self.counts) if self.counts else None

    def percentile(self, p: float) -> Optional[int]:
        """Smallest value covering fraction *p* of observations."""
        if not self.counts:
            return None
        need = p * self.total
        seen = 0
        for value in sorted(self.counts):
            seen += self.counts[value]
            if seen >= need:
                return value
        return max(self.counts)

    def items(self) -> List[Tuple[int, int]]:
        return sorted(self.counts.items())

    def cumulative(self, bounds: Sequence[float]
                   ) -> List[Tuple[float, int]]:
        """Fold exact value-buckets into cumulative ``le`` buckets.

        Returns ``[(le, count_at_or_below_le), ...]`` over *bounds*
        plus a terminal ``(inf, total)`` bucket — the canonical
        Prometheus histogram shape (every bucket counts everything at
        or below its boundary).
        """
        values = sorted(self.counts.items())
        out: List[Tuple[float, int]] = []
        index = 0
        running = 0
        for bound in sorted(bounds):
            while index < len(values) and values[index][0] <= bound:
                running += values[index][1]
                index += 1
            out.append((float(bound), running))
        out.append((math.inf, self.total))
        return out


class MetricsRegistry:
    """Named counters, gauges and histograms, created on first use."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, TickHistogram] = {}

    # -- accessors (get-or-create) ------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self.counters.get(name)
        if metric is None:
            metric = self.counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self.gauges.get(name)
        if metric is None:
            metric = self.gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str) -> TickHistogram:
        metric = self.histograms.get(name)
        if metric is None:
            metric = self.histograms[name] = TickHistogram(name)
        return metric

    # -- export --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every metric (stable key order)."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value
                       for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: {
                    "total": h.total,
                    "mean": h.mean,
                    "min": h.min,
                    "max": h.max,
                    "counts": {str(v): c for v, c in h.items()},
                }
                for n, h in sorted(self.histograms.items())
            },
        }

    def iter_jsonl_objs(self) -> Iterator[Dict[str, Any]]:
        """One JSON object per metric — the ``metrics.jsonl`` shape."""
        for name, counter in sorted(self.counters.items()):
            yield {"metric": name, "type": "counter",
                   "value": counter.value}
        for name, gauge in sorted(self.gauges.items()):
            yield {"metric": name, "type": "gauge", "value": gauge.value}
        for name, hist in sorted(self.histograms.items()):
            yield {"metric": name, "type": "histogram",
                   "total": hist.total, "mean": hist.mean,
                   "min": hist.min, "max": hist.max,
                   "counts": {str(v): c for v, c in hist.items()}}


# -- Prometheus exposition helpers -------------------------------------

#: canonical latency bucket boundaries in microseconds — a geometric
#: ladder from 100 µs (an LRU hit) to 10 s (a cold sweep), shared by
#: every ``*_us`` histogram the serve stack exposes so dashboards can
#: aggregate across daemons
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000, 250_000, 500_000, 1_000_000, 2_500_000, 5_000_000,
    10_000_000)


def format_le(bound: float) -> str:
    """Prometheus ``le`` label text for a bucket boundary."""
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^ #]+)"
    r"(?:\s*#\s*\{(?P<exemplar>[^}]*)\}\s*(?P<exvalue>\S+).*)?$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def _parse_labels(text: Optional[str]) -> Dict[str, str]:
    if not text:
        return {}
    return {match.group(1): match.group(2)
            for match in _LABEL.finditer(text)}


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Parse the text exposition format back into a structured dict.

    Returns ``{"types": {metric: type}, "samples": {metric: value},
    "histograms": {base: {"buckets": [(le, count)], "sum": s,
    "count": n, "exemplars": {le_label: {...}}}}}``.  It is the
    parse-back oracle of the ``/metrics`` exposition tests: if this
    can't ingest the output, neither can Prometheus.
    """
    types: Dict[str, str] = {}
    samples: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, Any]] = {}

    def hist(base: str) -> Dict[str, Any]:
        return histograms.setdefault(
            base, {"buckets": [], "sum": 0.0, "count": 0,
                   "exemplars": {}})

    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            parts = rest.split()
            if len(parts) == 2:
                types[parts[0]] = parts[1]
            continue
        if line.startswith("#"):
            continue
        match = _PROM_LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable exposition line: {raw!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels"))
        value = float(match.group("value"))
        if name.endswith("_bucket") and "le" in labels:
            base = name[:-len("_bucket")]
            le_text = labels["le"]
            le = math.inf if le_text == "+Inf" else float(le_text)
            hist(base)["buckets"].append((le, int(value)))
            if match.group("exemplar"):
                exemplar = _parse_labels(match.group("exemplar"))
                exemplar["value"] = float(match.group("exvalue"))
                hist(base)["exemplars"][le_text] = exemplar
        elif name.endswith("_sum") and name[:-4] in histograms:
            hist(name[:-4])["sum"] = value
        elif name.endswith("_count") and name[:-6] in histograms:
            hist(name[:-6])["count"] = int(value)
        else:
            samples[name] = value
    return {"types": types, "samples": samples,
            "histograms": histograms}
