"""Supervised ``ProcessPoolExecutor`` with crash recovery.

Simulation is CPU-bound pure Python, so the daemon executes every
request on a process pool.  A worker can die mid-request — OOM-killed,
``kill -9`` in the chaos tests, a segfaulting native extension — and
``concurrent.futures`` answers *every* outstanding future of a broken
pool with :class:`BrokenProcessPool`.  The supervisor here turns that
into availability instead of an error page:

* the broken executor is discarded and a fresh one spawned (at most
  one respawn at a time — concurrent victims share the new pool);
* each affected request is retried on the new pool with bounded
  attempts and jittered exponential backoff, as long as its deadline
  has budget left;
* retry/respawn counts land in the metrics registry, so a crash-looping
  worker is visible on ``/metrics`` long before it pages anyone.

The worker entry point (:func:`execute_payload`) is a module-level
function with JSON-safe arguments, so it pickles cheaply.  Named
workloads run through :func:`repro.campaign.runner._execute_job` and
inline programs through the same
:func:`~repro.campaign.runner.simulate_cached` cache-through, so the
daemon and overnight campaigns share one warm cache directory.

:func:`cached_answer` is the same code in its probe-only form: the
daemon calls it on its event loop and answers a request whose every
job is already cached without the queue or a worker (``served:
"inline"``).  It reads through the daemon's
:class:`~repro.campaign.cache.ResultCache`, which counts corrupt
entries into the daemon's registry; each pool worker builds its own
cache per work unit, so its corruption counts stay process-local and
never reach ``/metrics``.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.cache import ResultCache
from repro.obs import MetricsRegistry
from repro.obs.trace import IdSource, TraceContext, Tracer


class WorkerCrash(Exception):
    """A request ran out of retry budget against crashing workers."""


# -- worker-side execution (runs in the pool processes) ----------------

#: execution-order phase → span name for worker-side span synthesis
_PHASE_SPANS = (("cache_probe", "cache.probe"),
                ("trace_gen", "trace.gen"),
                ("simulate", "engine.simulate"),
                ("cache_put", "cache.put"))


def _synthesize_trace_spans(trace_ctx: Dict[str, Any],
                            result: Dict[str, Any],
                            kind: str) -> List[Dict[str, Any]]:
    """Build span JSON objects for one executed payload.

    The worker cannot share the daemon's tracer object, so spans cross
    the process boundary *by value*: phase durations (measured here,
    on this process's clock) become child spans of the daemon-side
    ``worker.attempt`` span named in ``trace_ctx``, stacked in
    execution order ending now.  The daemon re-emits them into its
    span sink; durations survive any inter-process clock skew.
    """
    ids = IdSource()
    now_us = int(time.time() * 1e6)
    trace_id = trace_ctx["trace_id"]
    parent = trace_ctx["parent"]
    worker = f"pid-{os.getpid()}"

    if kind == "verify":
        phases = [("verify.fuzz", result.get("wall_time_s", 0.0), {})]
    elif kind == "estimate":
        phases = [("predict.estimate",
                   result.get("predict_latency_us", 0) / 1e6,
                   {"cache_hit": result.get("cache_hit")})]
    else:
        spans_s: Dict[str, float] = result.get("spans", {})
        phases = []
        for phase, span_name in _PHASE_SPANS:
            if phase in spans_s:
                attrs: Dict[str, Any] = {}
                if phase == "cache_probe":
                    attrs["cache_hit"] = result.get("cache_hit")
                    attrs["tier"] = "content-addressed"
                if phase == "simulate":
                    attrs["engine"] = result.get("engine") \
                        or "config-default"
                    attrs["cycles"] = result.get("cycles")
                phases.append((span_name, spans_s[phase], attrs))

    total_us = int(sum(d for _, d, _ in phases) * 1e6)
    cursor = now_us - total_us
    spans: List[Dict[str, Any]] = []
    for name, duration_s, attrs in phases:
        duration_us = int(duration_s * 1e6)
        spans.append({
            "name": name, "trace_id": trace_id,
            "span_id": ids.span_id(), "parent_id": parent,
            "start_us": cursor, "end_us": cursor + duration_us,
            "component": "worker", "status": "ok",
            "attrs": {"worker": worker, **attrs},
        })
        cursor += duration_us
    return spans


def execute_payload(kind: str, payload: Dict[str, Any],
                    cache_dir: str) -> Dict[str, Any]:
    """Execute one unit of work; returns a JSON-safe result dict."""
    trace_ctx = payload.pop("_trace", None)
    if kind == "simulate":
        result = _execute_simulate(payload, ResultCache(Path(cache_dir)))
    elif kind == "estimate":
        result = _execute_estimate(payload, ResultCache(Path(cache_dir)))
    elif kind == "verify":
        result = _execute_verify(payload)
    elif kind == "sleep":   # chaos/debug hook (gated by the app)
        time.sleep(float(payload.get("seconds", 0.1)))
        result = {"slept_s": payload.get("seconds", 0.1),
                  "worker": f"pid-{os.getpid()}"}
    else:
        raise ValueError(f"unknown work kind {kind!r}")
    if trace_ctx is not None:
        result["trace_spans"] = _synthesize_trace_spans(
            trace_ctx, result, kind)
    return result


def cached_answer(kind: str, payload: Dict[str, Any],
                  cache: ResultCache) -> Optional[Dict[str, Any]]:
    """One ``simulate`` or ``estimate`` payload answered from *cache*
    alone, or ``None`` on a miss: never a trace, never a simulation.

    The worker's own code in its probe-only form, so a hit carries the
    same fields as the worker's answer; only ``worker`` (this
    process), ``wall_time_s`` and ``spans`` differ.  ``estimate_payload``
    is looked up at call time, so a wrapper installed on
    :mod:`repro.predict.service` sees these calls too.
    """
    if kind == "estimate":
        from repro.predict.service import estimate_payload
        return estimate_payload(payload, cache, allow_generate=False)
    return _execute_simulate(payload, cache, probe_only=True)


def _execute_simulate(payload: Dict[str, Any], cache: ResultCache, *,
                      probe_only: bool = False
                      ) -> Optional[Dict[str, Any]]:
    from repro.campaign.jobs import CampaignJob
    from repro.campaign.runner import _execute_job

    if "suite" not in payload:
        return _execute_inline(payload, cache, probe_only=probe_only)
    job = CampaignJob(suite=payload["suite"], bench=payload["bench"],
                      core=payload["core"], mode=payload["mode"],
                      scale=payload.get("scale"),
                      engine=payload.get("engine"))
    record = _execute_job(job, cache, force=False, probe_only=probe_only)
    if record is None:
        return None
    result = asdict(record)
    result["workload"] = f"{payload['suite']}/{payload['bench']}"
    return result


def _execute_inline(payload: Dict[str, Any], cache: ResultCache, *,
                    probe_only: bool = False
                    ) -> Optional[Dict[str, Any]]:
    from dataclasses import replace

    from repro.campaign.cache import inline_trace_index_key
    from repro.campaign.runner import simulate_cached
    from repro.core import CORES, RecycleMode
    from repro.isa.serialize import program_from_dict
    from repro.pipeline.trace import generate_trace

    start = time.perf_counter()
    config = CORES[payload["core"]].with_mode(
        RecycleMode(payload["mode"]))
    if payload.get("engine"):
        config = replace(config, engine=payload["engine"])
    # the program→trace mapping is deterministic, so inline programs
    # get the same trace-fingerprint-index fast path as named jobs: a
    # fully-warm request is two small file reads, no trace generation
    outcome = simulate_cached(
        cache, inline_trace_index_key(payload["program"]),
        None if probe_only else
        (lambda: generate_trace(program_from_dict(payload["program"]))),
        config)
    if outcome is None:
        return None
    key, result, cache_hit, spans = outcome
    name = payload["program"].get("name", "inline")
    return {
        "workload": name,
        "suite": "inline", "bench": name,
        "core": payload["core"], "mode": payload["mode"],
        "key": key,
        "cycles": result.cycles,
        "committed": result.stats.committed,
        "ipc": result.ipc,
        "cache_hit": cache_hit,
        "engine": payload.get("engine"),
        "spans": {k: round(v, 6) for k, v in spans.items()},
        "wall_time_s": round(time.perf_counter() - start, 6),
        "worker": f"pid-{os.getpid()}",
    }


def _execute_estimate(payload: Dict[str, Any],
                      cache: ResultCache) -> Dict[str, Any]:
    from repro.predict.service import estimate_payload

    result = estimate_payload(payload, cache, allow_generate=True)
    assert result is not None    # allow_generate=True never returns None
    return result


def _execute_verify(payload: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core import CORES
    from repro.verify.session import run_fuzz

    start = time.perf_counter()
    outcome = run_fuzz(budget=int(payload["budget"]),
                       seed=int(payload["seed"]),
                       config=CORES[payload.get("core", "small")],
                       metamorphic=bool(payload.get("metamorphic", True)),
                       engines=payload.get("engines") or None,
                       do_shrink=False)
    result = outcome.to_payload()
    result["ok"] = outcome.ok
    result["wall_time_s"] = round(time.perf_counter() - start, 6)
    result["worker"] = f"pid-{os.getpid()}"
    return result


# -- supervisor (runs in the daemon's event loop) ----------------------

class WorkerPool:
    """Crash-supervised process pool with async submission."""

    def __init__(self, workers: int, cache_dir: str, *,
                 max_retries: int = 2,
                 backoff_base_s: float = 0.05,
                 backoff_cap_s: float = 1.0,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 seed: Optional[int] = None) -> None:
        self.workers = max(1, workers)
        self.cache_dir = cache_dir
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.metrics = metrics or MetricsRegistry()
        self.tracer = tracer
        self._rng = random.Random(seed)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._generation = 0
        self._respawn_lock: Optional[asyncio.Lock] = None

    # -- lifecycle -----------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._generation += 1
            self.metrics.gauge("serve.worker_generation") \
                .set(self._generation)
        return self._pool

    async def warm_up(self) -> List[int]:
        """Spawn the workers eagerly; returns their pids."""
        pool = self._ensure_pool()
        loop = asyncio.get_running_loop()
        futures = [loop.run_in_executor(pool, os.getpid)
                   for _ in range(self.workers)]
        await asyncio.gather(*futures)
        return self.worker_pids()

    def worker_pids(self) -> List[int]:
        """Best-effort list of live worker pids (for /v1/status and
        the chaos tests; ``_processes`` is stable across 3.9–3.13)."""
        pool = self._pool
        processes = getattr(pool, "_processes", None) or {}
        return sorted(processes.keys())

    def shutdown(self) -> None:
        if self._pool is not None:
            # cancel_futures only exists on 3.9+; everything queued is
            # ours and already resolved by the supervisor on drain
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- supervised execution ------------------------------------------

    async def run(self, kind: str, payload: Dict[str, Any], *,
                  deadline_s: Optional[float] = None,
                  trace_parent: Optional["TraceContext"] = None
                  ) -> Dict[str, Any]:
        """Execute one payload, surviving worker crashes.

        Raises :class:`WorkerCrash` after ``max_retries`` broken-pool
        failures, or :class:`asyncio.TimeoutError` when *deadline_s*
        (seconds from now) expires first.

        With a tracer and *trace_parent*, each attempt gets its own
        ``worker.attempt`` span (so a crash-then-retry shows up as two
        sibling attempts under one request) and the worker returns its
        phase spans by value; they are re-emitted here and stripped
        from the result before it can reach the response LRU.
        """
        if self._respawn_lock is None:
            self._respawn_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        expiry = (time.monotonic() + deadline_s
                  if deadline_s is not None else None)
        last_error: Optional[BaseException] = None

        for attempt in range(self.max_retries + 1):
            pool = self._ensure_pool()
            generation = self._generation
            attempt_span = None
            work_payload = payload
            if self.tracer is not None and trace_parent is not None:
                attempt_span = self.tracer.start(
                    "worker.attempt", parent=trace_parent,
                    component="worker", kind=kind, attempt=attempt)
                work_payload = dict(payload)
                work_payload["_trace"] = {
                    "trace_id": attempt_span.ctx.trace_id,
                    "parent": attempt_span.ctx.span_id}
            future = loop.run_in_executor(
                pool, execute_payload, kind, work_payload,
                self.cache_dir)
            try:
                if expiry is None:
                    result = await future
                else:
                    remaining = expiry - time.monotonic()
                    if remaining <= 0:
                        raise asyncio.TimeoutError()
                    result = await asyncio.wait_for(
                        future, timeout=remaining)
            except BrokenProcessPool as exc:
                if attempt_span is not None:
                    attempt_span.end(status="worker-crash")
                last_error = exc
                self.metrics.counter("serve.worker_crashes").inc()
                await self._respawn(generation)
                if attempt < self.max_retries:
                    self.metrics.counter("serve.worker_retries").inc()
                    await asyncio.sleep(self._backoff(attempt, expiry))
                continue
            except asyncio.TimeoutError:
                if attempt_span is not None:
                    attempt_span.end(status="timeout")
                raise
            worker_spans = result.pop("trace_spans", None)
            if attempt_span is not None:
                if worker_spans:
                    self.tracer.record_json(worker_spans)
                attempt_span.set(worker=result.get("worker")).end()
            return result
        raise WorkerCrash(
            f"work unit failed after {self.max_retries + 1} attempts "
            f"on crashing workers") from last_error

    def _backoff(self, attempt: int,
                 expiry: Optional[float]) -> float:
        """Jittered exponential backoff, clipped to the deadline."""
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2 ** attempt))
        delay = base * (0.5 + self._rng.random())
        if expiry is not None:
            delay = min(delay, max(0.0, expiry - time.monotonic()))
        return delay

    async def _respawn(self, broken_generation: int) -> None:
        """Replace a broken executor exactly once per generation."""
        assert self._respawn_lock is not None
        async with self._respawn_lock:
            if self._generation != broken_generation:
                return          # another victim already respawned it
            broken, self._pool = self._pool, None
            if broken is not None:
                # a broken pool's shutdown is instant; don't block the
                # event loop on stuck children
                broken.shutdown(wait=False)
            self._ensure_pool()
            self.metrics.counter("serve.worker_respawns").inc()
