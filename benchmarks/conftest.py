"""Shared infrastructure for the evaluation benches.

Every bench regenerates one of the paper's tables/figures.  Simulations
are expensive, so results are cached at two levels: a session-scoped
in-memory memo (Fig. 13/14/15 and the power table reuse the same runs
within one pytest session) and the persistent on-disk campaign cache
(``.redsoc-cache/``), which is shared with ``python -m repro.campaign``
— a bench session warms the CLI's cache and vice versa.  Traces are
generated once per workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import pytest

from repro.baselines.ts import TSResult, analyze_ts
from repro.campaign.cache import (
    ResultCache,
    cached_simulate,
    trace_fingerprint,
    trace_index_key,
)
from repro.core import CORES, CoreConfig, RecycleMode, SimResult
from repro.pipeline.trace import Trace, generate_trace
from repro.workloads.suites import SUITES, default_scale

#: evaluation order used by every figure
SUITE_ORDER = ("spec", "mibench", "ml")
CORE_ORDER = ("big", "medium", "small")


@dataclass
class Evaluation:
    """Lazy, memoised access to every simulation the figures need."""

    cache: ResultCache = field(default_factory=ResultCache)
    _traces: Dict[Tuple[str, str], Trace] = field(default_factory=dict)
    _runs: Dict[Tuple[str, str, str, str], SimResult] = field(
        default_factory=dict)
    _ts: Dict[Tuple[str, str], TSResult] = field(default_factory=dict)

    def trace(self, suite: str, bench: str) -> Trace:
        key = (suite, bench)
        if key not in self._traces:
            builder = SUITES[suite][bench]
            program = builder(**default_scale(suite, bench))
            trace = generate_trace(program)
            self._traces[key] = trace
            # publish the fingerprint so CLI campaigns can answer
            # warm jobs without regenerating this trace
            self.cache.put_trace_fingerprint(
                trace_index_key(suite, bench), trace_fingerprint(trace))
        return self._traces[key]

    def run(self, suite: str, bench: str, core: str,
            mode: RecycleMode) -> SimResult:
        key = (suite, bench, core, mode.value)
        if key not in self._runs:
            config = CORES[core].with_mode(mode)
            self._runs[key] = self.simulate(self.trace(suite, bench),
                                            config)
        return self._runs[key]

    def simulate(self, trace: Trace, config: CoreConfig) -> SimResult:
        """One run through the persistent cache, for benches whose
        configs or programs lie outside the preset grid (ablations,
        microbenchmarks): a warm session simulates nothing."""
        return cached_simulate(trace, config, self.cache)

    def speedup(self, suite: str, bench: str, core: str,
                mode: RecycleMode = RecycleMode.REDSOC) -> float:
        base = self.run(suite, bench, core, RecycleMode.BASELINE)
        other = self.run(suite, bench, core, mode)
        return base.cycles / other.cycles - 1.0

    def ts(self, suite: str, bench: str) -> TSResult:
        key = (suite, bench)
        if key not in self._ts:
            self._ts[key] = analyze_ts(self.trace(suite, bench))
        return self._ts[key]

    def benchmarks(self, suite: str):
        return list(SUITES[suite])

    def suite_mean_speedup(self, suite: str, core: str,
                           mode: RecycleMode = RecycleMode.REDSOC
                           ) -> float:
        values = [self.speedup(suite, b, core, mode)
                  for b in self.benchmarks(suite)]
        return sum(values) / len(values)


_EVALUATION = Evaluation()


@pytest.fixture(scope="session")
def evaluation() -> Evaluation:
    return _EVALUATION


@pytest.fixture()
def bench_once(benchmark):
    """Run a figure-generating callable exactly once under
    pytest-benchmark (simulations are far too heavy to repeat)."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)

    return runner
