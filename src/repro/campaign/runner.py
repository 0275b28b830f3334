"""Serial / process-pool campaign execution.

Jobs are independent, deterministic, and read/write a shared on-disk
cache, so sharding is embarrassingly parallel: each worker process
materialises its own traces (memoised per process), probes the cache,
and simulates only on a miss.  Cache writes are atomic, and identical
keys always carry identical content, so racing workers are harmless.

``run_campaign`` keeps the results in submission (evaluation) order
regardless of worker scheduling, and joins every non-baseline record
with its ``(suite, bench, core)`` baseline to compute the paper's
speedup metric.

Every job also carries telemetry: which worker process ran it, and a
span breakdown (``cache_probe`` / ``trace_gen`` / ``simulate`` /
``cache_put``) of where its wall time went — written into
``BENCH_campaign.json`` so a slow campaign can be diagnosed from the
artefact alone.  Passing
``profile_dir`` additionally wraps each simulated job in
:mod:`cProfile` and drops one ``.pstats`` file per job.
"""

from __future__ import annotations

import cProfile
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import groupby
from pathlib import Path
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from repro.core import CoreConfig, RecycleMode
from repro.core.cpu import SimResult, simulate
from repro.pipeline.trace import Trace

from .cache import (
    ResultCache,
    model_version,
    payload_to_result,
    result_key_from_fingerprint,
    result_to_payload,
    trace_fingerprint,
    trace_index_key,
)
from .jobs import CampaignJob, job_config, job_trace


@dataclass
class JobRecord:
    """Outcome of one campaign job."""

    suite: str
    bench: str
    core: str
    mode: str
    key: str
    cycles: int
    committed: int
    ipc: float
    cache_hit: bool
    wall_time_s: float
    speedup: Optional[float] = None
    worker: str = ""
    #: simulation backend the job was pinned to (``reference`` or
    #: ``compiled``; ``None`` = the config default, ``reference``);
    #: engines are cycle-identical, so this is telemetry, not identity
    #: — labels and reference keys stay engine-free
    engine: Optional[str] = None
    spans: Dict[str, float] = field(default_factory=dict)
    #: simulator throughput for this job (simulated cycles per second
    #: of the ``simulate`` span); ``None`` on cache hits, which never
    #: ran the simulator
    sim_cycles_per_sec: Optional[float] = None
    #: analytic-model prediction for this job (``campaign predict``
    #: only; plain runs leave all three unset)
    predicted_cycles: Optional[float] = None
    #: signed relative error of the prediction, in percent
    #: ((predicted - actual) / actual * 100)
    predict_error: Optional[float] = None
    #: wall time of the prediction itself (features + dot product)
    predict_latency_us: Optional[int] = None

    @property
    def label(self) -> str:
        return f"{self.suite}/{self.bench}@{self.core}:{self.mode}"


def job_slug(label: str) -> str:
    """Filesystem-safe name for a job label (profiles, traces)."""
    return label.replace("/", "_").replace("@", "_").replace(":", "_")


@dataclass
class CampaignResult:
    """All records of one campaign invocation plus cache accounting."""

    records: List[JobRecord] = field(default_factory=list)
    workers: int = 1
    wall_time_s: float = 0.0

    @property
    def hits(self) -> int:
        return sum(1 for r in self.records if r.cache_hit)

    @property
    def misses(self) -> int:
        return len(self.records) - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / len(self.records) if self.records else 0.0

    def span_totals(self) -> Dict[str, float]:
        """Aggregate per-span seconds across every record."""
        totals: Dict[str, float] = {}
        for rec in self.records:
            for name, seconds in rec.spans.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return {name: round(seconds, 4)
                for name, seconds in sorted(totals.items())}

    def predict_summary(self) -> Optional[Dict[str, Any]]:
        """Aggregate predicted-vs-actual accuracy, when present.

        ``None`` unless at least one record carries ``predict_error``
        (i.e. the campaign ran through ``campaign predict``), so plain
        runs serialise without a ``predict`` block at all.
        """
        errs = [(abs(r.predict_error), r) for r in self.records
                if r.predict_error is not None]
        if not errs:
            return None
        worst_err, worst = max(errs, key=lambda pair: pair[0])
        return {
            "jobs": len(errs),
            "mape_pct": round(sum(e for e, _ in errs) / len(errs), 3),
            "max_abs_pct": round(worst_err, 3),
            "worst": worst.label,
        }

    def to_payload(self) -> Dict[str, Any]:
        """JSON document written to ``BENCH_campaign.json``."""
        predict = self.predict_summary()
        extra = {"predict": predict} if predict is not None else {}
        return {
            "schema": 4,
            **extra,
            "model_version": model_version(),
            "workers": self.workers,
            "jobs": len(self.records),
            "wall_time_s": round(self.wall_time_s, 3),
            "cache": {"hits": self.hits, "misses": self.misses,
                      "hit_rate": round(self.hit_rate, 4)},
            "telemetry": {
                "span_totals_s": self.span_totals(),
                "workers_used": sorted({r.worker for r in self.records
                                        if r.worker}),
            },
            "results": [asdict(r) for r in self.records],
        }


def simulate_cached(cache: ResultCache, tkey: str,
                    make_trace: Callable[[], Trace], config: CoreConfig,
                    *, force: bool = False,
                    profile_to: Optional[Path] = None
                    ) -> Tuple[str, SimResult, bool, Dict[str, float]]:
    """One job's cache-through, shared by campaign jobs and serve's
    inline programs; returns ``(key, result, cache_hit, spans)``.

    Fast path: the trace-fingerprint index entry *tkey* resolves the
    result key without making the trace, so a fully-warm job is three
    small file reads.  Slow path: ``make_trace()``, record its
    fingerprint in the index, probe again, and simulate only on a true
    miss.  *force* skips both probes (the result is still rewritten).

    Each stage is timed into *spans*: ``cache_probe`` (both probes),
    ``trace_gen`` (trace, fingerprint, index write), ``simulate`` (the
    run alone) and ``cache_put`` (the result write).  With
    *profile_to* set, the run is wrapped in :mod:`cProfile` and its
    stats dumped to that path.

    It reaches ``trace_fingerprint``, ``simulate`` and the cache
    methods through this module's globals, which ``perfbench/layers.py``
    wraps to time a traced campaign; that is why it does not reuse
    :func:`repro.campaign.cache.cached_simulate`, whose ``simulate``
    lives in the cache module.
    """
    spans: Dict[str, float] = {}
    start = time.perf_counter()
    if not force:
        fingerprint = cache.get_trace_fingerprint(tkey)
        if fingerprint is not None:
            key = result_key_from_fingerprint(fingerprint, config)
            payload = cache.get(key)
            if payload is not None:
                spans["cache_probe"] = time.perf_counter() - start
                return key, payload_to_result(payload, config), True, spans
    spans["cache_probe"] = time.perf_counter() - start

    start = time.perf_counter()
    trace = make_trace()
    fingerprint = trace_fingerprint(trace)
    cache.put_trace_fingerprint(tkey, fingerprint)
    spans["trace_gen"] = time.perf_counter() - start

    start = time.perf_counter()
    key = result_key_from_fingerprint(fingerprint, config)
    payload = None if force else cache.get(key)
    spans["cache_probe"] += time.perf_counter() - start
    if payload is not None:
        return key, payload_to_result(payload, config), True, spans

    start = time.perf_counter()
    if profile_to is None:
        result = simulate(trace, config)
    else:
        with cProfile.Profile() as profiler:
            result = simulate(trace, config)
        profile_to.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(profile_to)
    spans["simulate"] = time.perf_counter() - start

    start = time.perf_counter()
    cache.put(key, result_to_payload(result))
    spans["cache_put"] = time.perf_counter() - start
    return key, result, False, spans


def _execute_job(job: CampaignJob, cache_dir: str, force: bool,
                 profile_dir: Optional[str] = None) -> JobRecord:
    """Run one job against the shared cache (worker entry point)."""
    start = time.perf_counter()
    profile_to = (Path(profile_dir) / f"{job_slug(job.label)}.pstats"
                  if profile_dir is not None else None)
    key, result, cache_hit, spans = simulate_cached(
        ResultCache(Path(cache_dir)),
        trace_index_key(job.suite, job.bench, job.scale),
        lambda: job_trace(job), job_config(job), force=force,
        profile_to=profile_to)
    sim_seconds = spans.get("simulate", 0.0)
    return JobRecord(
        suite=job.suite, bench=job.bench, core=job.core, mode=job.mode,
        key=key, engine=job.engine,
        cycles=result.cycles, committed=result.stats.committed,
        ipc=result.ipc, cache_hit=cache_hit,
        wall_time_s=time.perf_counter() - start,
        worker=f"pid-{os.getpid()}",
        spans={name: round(seconds, 6)
               for name, seconds in spans.items()},
        sim_cycles_per_sec=(round(result.cycles / sim_seconds, 1)
                            if sim_seconds > 0 else None))


def _execute_jobs(jobs: Sequence[CampaignJob], cache_dir: str,
                  force: bool,
                  profile_dir: Optional[str] = None) -> List[JobRecord]:
    """Run a chunk of jobs one after another (worker entry point)."""
    return [_execute_job(job, cache_dir, force, profile_dir)
            for job in jobs]


def _trace_chunks(jobs: Sequence[CampaignJob],
                  workers: int) -> List[List[CampaignJob]]:
    """Split *jobs* into runs of consecutive jobs sharing a trace
    ``(suite, bench, scale)``, cutting every run into pieces of at most
    ``len(jobs) // workers`` jobs (at least one).

    A worker then makes each trace once for the piece of its mode grid
    it holds, and there are always at least ``min(len(jobs), workers)``
    chunks, so a campaign with fewer traces than workers still keeps
    every worker busy.
    """
    cap = max(1, len(jobs) // workers)
    chunks: List[List[CampaignJob]] = []
    for _, run in groupby(jobs, key=lambda j: (j.suite, j.bench, j.scale)):
        run = list(run)
        chunks.extend(run[i:i + cap] for i in range(0, len(run), cap))
    return chunks


def _attach_speedups(records: Sequence[JobRecord]) -> None:
    """Fill ``speedup`` on every record with a same-shape baseline."""
    baselines: Dict[Tuple[str, str, str], int] = {}
    for rec in records:
        if rec.mode == RecycleMode.BASELINE.value:
            baselines[(rec.suite, rec.bench, rec.core)] = rec.cycles
    for rec in records:
        base = baselines.get((rec.suite, rec.bench, rec.core))
        if base is not None and rec.mode != RecycleMode.BASELINE.value:
            rec.speedup = base / rec.cycles - 1.0


def run_campaign(jobs: Sequence[CampaignJob], *,
                 workers: int = 1,
                 cache_dir: Optional[Path] = None,
                 force: bool = False,
                 progress=None,
                 profile_dir: Optional[Path] = None,
                 logger=None) -> CampaignResult:
    """Execute *jobs*, sharded over *workers* processes.

    ``workers <= 1`` runs everything in-process (useful under pytest
    and for debugging); results are identical either way because the
    timing model is deterministic.  *progress* is an optional callable
    receiving each finished :class:`JobRecord`.  *profile_dir* turns
    on the per-job cProfile hook for cache misses.  *logger* (a
    :class:`repro.obs.log.JsonLogger`) emits one structured line per
    finished job.
    """
    cache_root = Path(cache_dir) if cache_dir is not None \
        else ResultCache().root
    profile_arg = str(profile_dir) if profile_dir is not None else None
    start = time.perf_counter()
    records: List[JobRecord] = []

    def finish(record: JobRecord) -> None:
        records.append(record)
        if logger is not None:
            logger.info("campaign.job", label=record.label,
                        cycles=record.cycles,
                        cache_hit=record.cache_hit,
                        wall_time_s=round(record.wall_time_s, 4),
                        worker=record.worker)
        if progress is not None:
            progress(record)

    if workers <= 1 or len(jobs) <= 1:
        workers = 1
        for job in jobs:
            finish(_execute_job(job, str(cache_root), force, profile_arg))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_jobs, chunk,
                                   str(cache_root), force, profile_arg)
                       for chunk in _trace_chunks(jobs, workers)]
            # collect in submission order so reports stay stable
            for future in futures:
                for record in future.result():
                    finish(record)

    _attach_speedups(records)
    if logger is not None:
        logger.info("campaign.done", jobs=len(records),
                    workers=workers,
                    wall_time_s=round(time.perf_counter() - start, 3))
    return CampaignResult(records=records, workers=workers,
                          wall_time_s=time.perf_counter() - start)
