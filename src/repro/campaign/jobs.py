"""Campaign job enumeration.

A :class:`CampaignJob` names one simulation — ``(suite, benchmark,
core, mode)`` plus an optional scale override — without holding any
heavyweight state, so jobs pickle cheaply across process boundaries.
Traces and configs are materialised lazily by :func:`job_trace` /
:func:`job_config`; each process keeps only its latest trace (see
``_TRACE_MEMO_SIZE``).  Jobs run on the config's default engine,
``compiled``, unless pinned to another.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import CORES, CoreConfig, ENGINES, RecycleMode
from repro.pipeline.trace import Trace, generate_trace
from repro.workloads.suites import SUITES, default_scale

#: evaluation order used by every figure (matches the bench harness)
SUITE_ORDER: Tuple[str, ...] = ("spec", "mibench", "ml")
CORE_ORDER: Tuple[str, ...] = ("big", "medium", "small")
MODE_ORDER: Tuple[str, ...] = tuple(m.value for m in RecycleMode)

#: one small benchmark per suite — the CI smoke campaign
SMOKE_BENCHMARKS: Dict[str, str] = {
    "spec": "soplex",
    "mibench": "bitcnt",
    "ml": "pool0",
}


@dataclass(frozen=True, order=True)
class CampaignJob:
    """One (suite, benchmark, core, mode) simulation request.

    ``engine`` picks the simulation backend; ``None`` means the config
    default.  Every registered engine is cycle-identical (CI-enforced),
    so the engine is not part of a job's identity — labels and
    regression-reference keys stay engine-free on purpose, which is
    what lets the backend-equivalence matrix diff engines against one
    shared reference.
    """

    suite: str
    bench: str
    core: str
    mode: str
    scale: Optional[int] = None
    engine: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.suite}/{self.bench}@{self.core}:{self.mode}"


def _validate(kind: str, requested: Sequence[str],
              known: Sequence[str]) -> List[str]:
    unknown = [name for name in requested if name not in known]
    if unknown:
        raise ValueError(
            f"unknown {kind} {unknown!r}; choose from {sorted(known)}")
    return list(requested)


def enumerate_jobs(suites: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   cores: Optional[Sequence[str]] = None,
                   modes: Optional[Sequence[str]] = None,
                   scale: Optional[int] = None,
                   engine: Optional[str] = None) -> List[CampaignJob]:
    """Expand a selection into evaluation-ordered jobs.

    ``None`` means "all".  *benchmarks* filters within the selected
    suites; a benchmark name that matches no selected suite is an
    error, so typos fail loudly instead of silently shrinking the run.
    *engine* pins every job to one simulation backend.
    """
    suites = _validate("suite(s)", suites or SUITE_ORDER, tuple(SUITES))
    cores = _validate("core(s)", cores or CORE_ORDER, tuple(CORES))
    modes = _validate("mode(s)", modes or MODE_ORDER, MODE_ORDER)
    if engine is not None:
        _validate("engine(s)", [engine], ENGINES.names())

    if benchmarks is not None:
        all_benches = {b for s in suites for b in SUITES[s]}
        _validate("benchmark(s)", benchmarks, tuple(all_benches))

    jobs: List[CampaignJob] = []
    for suite in suites:
        for bench in SUITES[suite]:
            if benchmarks is not None and bench not in benchmarks:
                continue
            for core in cores:
                for mode in modes:
                    jobs.append(CampaignJob(suite, bench, core, mode,
                                            scale=scale, engine=engine))
    return jobs


def smoke_jobs(modes: Optional[Sequence[str]] = None,
               scale: Optional[int] = None,
               engine: Optional[str] = None) -> List[CampaignJob]:
    """The CI smoke set: one small benchmark per suite, small core."""
    jobs: List[CampaignJob] = []
    for suite in SUITE_ORDER:
        jobs.extend(enumerate_jobs(
            suites=[suite], benchmarks=[SMOKE_BENCHMARKS[suite]],
            cores=["small"], modes=modes, scale=scale, engine=engine))
    return jobs


#: traces kept per process.  Every in-tree caller walks jobs grouped
#: by trace (evaluation order, ``runner._trace_chunks`` when
#: ``workers > 1``, ``campaign predict``'s ``_features_by_workload``),
#: so one is enough; it also bounds what a long-lived serve worker,
#: asked for any ``scale`` a request names, keeps alive
_TRACE_MEMO_SIZE = 1


@functools.lru_cache(maxsize=_TRACE_MEMO_SIZE)
def _trace(suite: str, bench: str, scale: Optional[int]) -> Trace:
    builder = SUITES[suite][bench]
    if scale is not None:
        kwargs: Dict[str, int] = {"scale": scale}
    else:
        kwargs = default_scale(suite, bench)
    # a module-global lookup on purpose: perfbench/layers.py wraps
    # ``repro.campaign.jobs.generate_trace`` to time trace generation
    return generate_trace(builder(**kwargs))


def job_trace(job: CampaignJob) -> Trace:
    """Materialise (and memoise) the dynamic trace for *job*."""
    return _trace(job.suite, job.bench, job.scale)


def job_config(job: CampaignJob) -> CoreConfig:
    """Table-I preset for *job*'s core, switched to *job*'s mode (and
    pinned to *job*'s engine when one was requested)."""
    config = CORES[job.core].with_mode(RecycleMode(job.mode))
    if job.engine is not None:
        config = replace(config, engine=job.engine)
    return config
