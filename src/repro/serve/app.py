"""The serve daemon: request flow, routes, drain, observability.

Request lifecycle::

    HTTP → parse/validate (400) → response LRU (hit? "lru") →
    result-cache probe on the event loop (every job hit? "inline") →
    admission queue (429/503, single-flight) → dispatcher →
    worker pool (crash-supervised; "worker", or "coalesced" for a
    single-flight follower) → response + metrics

The probe covers ``simulate``, ``sweep`` and ``estimate`` (never
``verify``) and runs the workers' own code in its probe-only form
(:func:`~repro.serve.workers.cached_answer`), so an inline answer
carries the worker's fields.  A sweep is answered inline only when
every job hits; one miss sends the whole sweep to the pool.  Because
the probe runs before admission, a warm request is still answered
while a drain is under way; only work that needs a worker gets 503.

Every stage is bounded: body size, queue depth, per-request deadline,
worker retry budget, drain grace.  ``/metrics`` exposes the whole
registry in the Prometheus text exposition format; ``/healthz`` flips
to 503 the moment a drain starts so load-balancers stop routing here.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaign.cache import (
    ResultCache,
    default_cache_dir,
    model_version,
)
from repro.obs import MetricsRegistry
from repro.obs.log import JsonLogger, stderr_logger
from repro.obs.metrics import LATENCY_BUCKETS_US, format_le
from repro.obs.trace import (
    ActiveSpan,
    JsonlSpanSink,
    TraceContext,
    Tracer,
)

from .admission import AdmissionQueue, Draining, QueueFull, Ticket
from .httpd import HttpProtocolError, HttpRequest, HttpResponse, HttpServer
from .protocol import (
    API_VERSION,
    BaseSpec,
    RequestError,
    SweepSpec,
    parse_request,
)
from .workers import WorkerCrash, WorkerPool, cached_answer

#: request kinds whose answers the result cache and the LRU hold
_CACHEABLE = ("simulate", "sweep", "estimate")


@dataclass
class ServeConfig:
    """Daemon knobs (all bounded-resource decisions in one place)."""

    host: str = "127.0.0.1"
    port: int = 8787
    workers: int = 2
    cache_dir: Optional[Path] = None
    queue_depth: int = 256
    #: concurrent worker-pool submissions (queue admits more; these run)
    max_inflight: Optional[int] = None
    lru_size: int = 1024
    max_body: int = 512 * 1024
    drain_grace_s: float = 10.0
    #: enables the `sleep` work kind and /v1/chaos/* (tests only)
    debug: bool = False
    #: span export directory — tracing is *on* iff this is set; spans
    #: stream to ``<trace_dir>/spans.jsonl`` (append mode, so a
    #: restarted daemon extends the same artifact)
    trace_dir: Optional[Path] = None
    #: structured JSON logging on stderr (one object per line)
    log_json: bool = False

    def resolved_cache_dir(self) -> Path:
        return Path(self.cache_dir) if self.cache_dir is not None \
            else default_cache_dir()

    @property
    def dispatchers(self) -> int:
        # a little headroom over the pool keeps workers saturated
        # while results are marshalled back on the event loop
        return self.max_inflight or self.workers + 2


class ServeApp:
    """Routes + request flow; owns the queue, pool, LRU and metrics."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.metrics = MetricsRegistry()
        self.tracer: Optional[Tracer] = None
        self._span_fh = None
        if config.trace_dir is not None:
            trace_dir = Path(config.trace_dir)
            trace_dir.mkdir(parents=True, exist_ok=True)
            self._span_fh = open(trace_dir / "spans.jsonl", "a",
                                 encoding="utf-8")
            self.tracer = Tracer(JsonlSpanSink(self._span_fh))
        self.logger: Optional[JsonLogger] = \
            stderr_logger(component="serve") if config.log_json \
            else None
        self.queue = AdmissionQueue(config.queue_depth,
                                    metrics=self.metrics)
        self.pool = WorkerPool(config.workers,
                               str(config.resolved_cache_dir()),
                               metrics=self.metrics,
                               tracer=self.tracer)
        #: the event loop's own reader of the result cache: corrupt
        #: entries it meets count into this registry
        self.cache = ResultCache(config.resolved_cache_dir(),
                                 metrics=self.metrics)
        self.server = HttpServer(self.handle, host=config.host,
                                 port=config.port,
                                 max_body=config.max_body)
        self._lru: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._dispatchers: List[asyncio.Task] = []
        self._inflight = 0
        self._draining = False
        #: created lazily inside the loop — binding an asyncio.Event at
        #: construction time breaks on 3.9 when the app is built
        #: before asyncio.run() starts the real loop
        self._drained: Optional[asyncio.Event] = None
        #: le-label -> most recent exemplar for serve.latency_us
        #: buckets (only populated when tracing is on)
        self._exemplars: Dict[str, Dict[str, Any]] = {}
        self.started_at = time.monotonic()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        await self.server.start()
        await self.pool.warm_up()
        # pre-import the predict stack, load the calibration and warm
        # the source-digest memo now, so the first inline estimate
        # doesn't pay import/hashing latency on the event loop (it
        # would block every in-flight lane)
        from repro.predict.calibrate import default_calibration
        from repro.predict.service import predict_version
        default_calibration()
        predict_version()
        for _ in range(self.config.dispatchers):
            self._dispatchers.append(
                asyncio.ensure_future(self._dispatch_loop()))

    @property
    def port(self) -> int:
        return self.server.port

    async def drain(self) -> None:
        """Graceful shutdown: reject new work, finish admitted work.

        Idempotent; resolves every in-flight request (completed or
        cleanly rejected) before tearing the pool down.
        """
        if self._draining:
            if self._drained is not None:
                await self._drained.wait()
            return
        self._draining = True
        self._drained = asyncio.Event()
        self.queue.begin_drain()
        try:
            await asyncio.wait_for(self.queue.join(),
                                   timeout=self.config.drain_grace_s)
        except asyncio.TimeoutError:
            self.metrics.counter("serve.drain_timeouts").inc()
        if self._dispatchers:
            await asyncio.wait(self._dispatchers,
                               timeout=self.config.drain_grace_s)
        for task in self._dispatchers:
            if not task.done():
                task.cancel()
        # in-flight responses are written by the connection tasks;
        # give them a beat, then close remaining (idle) connections
        await self.server.close(grace_s=0.5)
        self.pool.shutdown()
        if self._span_fh is not None:
            try:
                self._span_fh.close()
            except OSError:
                pass
        assert self._drained is not None
        self._drained.set()

    # -- dispatcher ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            ticket = await self.queue.next_ticket()
            if ticket is None:      # draining and empty
                return
            self._inflight += 1
            self.metrics.gauge("serve.inflight").set(self._inflight)
            try:
                result = await self._execute(ticket)
            except asyncio.CancelledError:  # forced teardown
                if not ticket.future.done():
                    ticket.future.cancel()
                raise
            except BaseException as exc:   # resolve, never drop
                if not ticket.future.done():
                    ticket.future.set_exception(exc)
                if ticket.abandoned:       # nobody will retrieve it
                    _consume(ticket.future)
            else:
                ticket.completed_wall_us = int(time.time() * 1e6)
                if not ticket.future.done():
                    ticket.future.set_result(result)
            finally:
                self._inflight -= 1
                self.metrics.gauge("serve.inflight").set(self._inflight)

    async def _execute(self, ticket: Ticket) -> Dict[str, Any]:
        spec = ticket.spec
        deadline_s = ticket.remaining_s
        payloads = spec.worker_payloads()
        kind = "simulate" if isinstance(spec, SweepSpec) else spec.kind
        trace_parent = ticket.trace_ctx \
            if self.tracer is not None else None
        if trace_parent is not None:
            # retroactive queue-wait segment: admission → dispatch
            self.tracer.start(
                "queue.wait", parent=trace_parent, component="queue",
                start_us=ticket.enqueued_wall_us,
                priority=spec.priority.name.lower()).end()
        if len(payloads) == 1:
            results = [await self.pool.run(
                kind, payloads[0], deadline_s=deadline_s,
                trace_parent=trace_parent)]
        else:
            # a sweep fans out across the pool as one batch
            results = list(await asyncio.gather(*[
                self.pool.run(kind, p, deadline_s=deadline_s,
                              trace_parent=trace_parent)
                for p in payloads]))
        return self._join(spec, results)

    def _join(self, spec: BaseSpec,
              results: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Count each job's cache outcome and shape the request's
        result (a sweep's jobs joined with their speedups)."""
        for result in results:
            if "cache_hit" in result:
                name = ("serve.cache_hits" if result["cache_hit"]
                        else "serve.cache_misses")
                self.metrics.counter(name).inc()
        if isinstance(spec, SweepSpec):
            _attach_sweep_speedups(results)
            return {"jobs": results, "cores": list(spec.cores),
                    "modes": list(spec.modes)}
        return results[0]

    def _cached_result(self, spec: BaseSpec) -> Optional[Dict[str, Any]]:
        """The request's result from the result cache alone, or
        ``None`` at the first job that misses."""
        kind = "simulate" if isinstance(spec, SweepSpec) else spec.kind
        results = []
        for payload in spec.worker_payloads():
            result = cached_answer(kind, payload, self.cache)
            if result is None:
                return None
            results.append(result)
        return self._join(spec, results)

    # -- request flow --------------------------------------------------

    async def handle(self, request: HttpRequest) -> HttpResponse:
        start = time.perf_counter()
        root: Optional[ActiveSpan] = None
        if self.tracer is not None and \
                request.path.startswith("/v1/"):
            # continue the caller's trace when it sent a (valid)
            # traceparent; mint a fresh one otherwise.  The request
            # span is this stream's local root — its parent is the
            # client SDK's span, which lives in the *client's* export.
            client_ctx = TraceContext.parse(
                request.headers.get("traceparent"))
            root = self.tracer.start(
                "request", parent=client_ctx, component="serve",
                method=request.method, path=request.path)
        try:
            response = await self._route(request, root)
        except HttpProtocolError as exc:
            response = _error_response(exc.status, "bad-request",
                                       exc.message)
        except RequestError as exc:
            response = HttpResponse.json(exc.to_payload(),
                                         status=exc.status)
        except (QueueFull, Draining) as exc:
            status = 429 if isinstance(exc, QueueFull) else 503
            response = _error_response(
                status,
                "queue-full" if status == 429 else "draining",
                str(exc), headers={"retry-after": "1"})
        except asyncio.TimeoutError:
            self.metrics.counter("serve.deadline_timeouts").inc()
            response = _error_response(504, "deadline-exceeded",
                                       "request deadline expired")
        except asyncio.CancelledError:
            # ticket expired while queued (cooperative cancellation)
            self.metrics.counter("serve.deadline_timeouts").inc()
            response = _error_response(504, "deadline-exceeded",
                                       "deadline expired in queue")
        except WorkerCrash as exc:
            response = _error_response(500, "worker-failed", str(exc))
        except Exception as exc:    # last-resort 500, never a traceback
            self.metrics.counter("serve.internal_errors").inc()
            response = _error_response(
                500, "internal", f"{type(exc).__name__}: {exc}")

        elapsed_us = int((time.perf_counter() - start) * 1e6)
        self.metrics.counter("serve.requests_total").inc()
        self.metrics.counter(
            f"serve.responses_{response.status // 100}xx").inc()
        if request.path.startswith("/v1/"):
            self.metrics.histogram("serve.latency_us").observe(
                elapsed_us)
        if root is not None:
            root.set(http_status=response.status)
            root.end(status="ok" if response.status < 400
                     else "error")
            response.headers.setdefault("x-trace-id",
                                        root.ctx.trace_id)
            self._note_latency(elapsed_us, root.ctx.trace_id)
        if self.logger is not None and \
                request.path.startswith("/v1/"):
            fields: Dict[str, Any] = {
                "method": request.method, "path": request.path,
                "status": response.status, "latency_us": elapsed_us}
            if root is not None:
                fields["trace_id"] = root.ctx.trace_id
            if response.status >= 500:
                self.logger.error("request.failed", **fields)
            elif response.status >= 400:
                self.logger.warning("request.rejected", **fields)
            else:
                self.logger.info("request", **fields)
        return response

    def _note_latency(self, elapsed_us: int, trace_id: str) -> None:
        """Pin an exemplar on the latency bucket this request landed in."""
        le = "+Inf"
        for bound in LATENCY_BUCKETS_US:
            if elapsed_us <= bound:
                le = format_le(bound)
                break
        self._exemplars[le] = {"trace_id": trace_id,
                               "value": elapsed_us,
                               "ts": round(time.time(), 3)}

    async def _route(self, request: HttpRequest,
                     root: Optional[ActiveSpan] = None
                     ) -> HttpResponse:
        path, method = request.path, request.method
        if path == "/healthz":
            status = 503 if self._draining else 200
            return HttpResponse.json(
                {"status": "draining" if self._draining else "ok"},
                status=status)
        if path == "/metrics":
            return HttpResponse.text(self._render_metrics())
        if path == "/v1/status":
            return HttpResponse.json(self._status_payload())
        if path.startswith("/v1/chaos/") and self.config.debug:
            return await self._chaos(request)
        if path.startswith("/v1/"):
            kind = path[len("/v1/"):]
            if method != "POST":
                return _error_response(405, "method-not-allowed",
                                       f"{kind} requires POST")
            return await self._submit(kind, request, root)
        return _error_response(404, "not-found",
                               f"no route for {path!r}")

    async def _submit(self, kind: str, request: HttpRequest,
                      root: Optional[ActiveSpan] = None
                      ) -> HttpResponse:
        spec = parse_request(kind, request.json())
        fingerprint = spec.fingerprint
        if root is not None:
            root.set(kind=spec.kind)

        cached = self._lru.get(fingerprint)
        if cached is not None:
            self.metrics.counter("serve.lru_hits").inc()
            return self._answer(fingerprint, cached, "lru", root)

        if spec.kind in _CACHEABLE:
            # a warm request answers on the event loop: two small file
            # reads per job (plus a dot product for an estimate), no
            # queue, no worker.  Any miss takes the worker-pool path,
            # whose admission span then also covers this probe.
            probe_us = self.tracer.now_us() if root is not None else 0
            result = self._cached_result(spec)
            if result is not None:
                self.metrics.counter(f"serve.{spec.kind}_inline").inc()
                response = self._answer(
                    fingerprint, {"api": API_VERSION, "kind": spec.kind,
                                  "result": result}, "inline", root)
                if root is not None:
                    # the probe span runs to the encoded answer
                    self._segment("admission", root,
                                  root.span.start_us, probe_us)
                    self._segment("cache.probe", root, probe_us,
                                  cache_hit=True)
                return response

        ticket = self.queue.submit(
            spec, trace_ctx=root.ctx if root is not None else None)
        if root is not None:
            # retroactive: parse/validate/LRU and cache probes/enqueue,
            # bracketed from the request span's own start so the
            # segments explain the front of the request's wall time
            self._segment("admission", root, root.span.start_us)
        shared = ticket.spec is not spec     # single-flight follower
        wait_span = None
        if root is not None and shared:
            # follower: its whole wait is one coalesced segment
            # pointing at the leader's trace
            leader = ticket.trace_ctx
            wait_span = self.tracer.start(
                "singleflight.wait", parent=root.ctx,
                component="queue",
                leader_trace_id=leader.trace_id if leader else None)
        # a follower waits at most its *own* deadline, even when the
        # leader it latched onto has more budget left
        timeout = min(ticket.remaining_s, spec.deadline_ms / 1000.0)
        try:
            result = await asyncio.wait_for(
                asyncio.shield(ticket.future), timeout=timeout)
        except asyncio.TimeoutError:
            if wait_span is not None:
                wait_span.end(status="timeout")
            if not shared:
                ticket.abandoned = True     # dispatcher will skip it
            raise
        except BaseException:
            if wait_span is not None:
                wait_span.end(status="error")
            raise
        if wait_span is not None:
            wait_span.end()
        elif root is not None and ticket.completed_wall_us:
            # retroactive: result ready in the dispatcher → this
            # handler resumed (event-loop handoff); the serialization
            # that follows is microseconds
            self._segment("respond", root, ticket.completed_wall_us)
        return self._answer(
            fingerprint, {"api": API_VERSION, "kind": spec.kind,
                          "result": result},
            "coalesced" if shared else "worker", root)

    def _answer(self, fingerprint: str, payload: Dict[str, Any],
                served: str, root: Optional[ActiveSpan]) -> HttpResponse:
        """Every answer's tail: keep a cacheable payload in the
        response LRU (most recent last) and say how it was served."""
        if root is not None:
            root.set(served=served)
        if payload["kind"] in _CACHEABLE:
            self._lru[fingerprint] = payload
            self._lru.move_to_end(fingerprint)
            while len(self._lru) > self.config.lru_size:
                self._lru.popitem(last=False)
        response = dict(payload)
        response["served"] = served
        return HttpResponse.json(response)

    def _segment(self, name: str, root: ActiveSpan, start_us: int,
                 end_us: Optional[int] = None, **attrs: Any) -> None:
        """Record a retroactive child span of the request (ending now
        unless *end_us* is given)."""
        span = self.tracer.start(name, parent=root.ctx,
                                 component="serve", start_us=start_us,
                                 **attrs)
        if end_us is not None:
            span.span.end_us = end_us
        span.end()

    async def _chaos(self, request: HttpRequest) -> HttpResponse:
        """Debug-only fault injection (used by tests/serve/chaos)."""
        action = request.path[len("/v1/chaos/"):]
        if action == "kill-worker":
            pids = self.pool.worker_pids()
            if not pids:
                return _error_response(503, "no-workers",
                                       "no live workers to kill")
            os.kill(pids[0], signal.SIGKILL)
            return HttpResponse.json({"killed": pids[0]})
        return _error_response(404, "not-found",
                               f"no chaos action {action!r}")

    # -- observability -------------------------------------------------

    def _status_payload(self) -> Dict[str, Any]:
        return {
            "api": API_VERSION,
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "model_version": model_version().split(":")[0],
            "queue": {"depth": self.queue.depth,
                      "max_depth": self.config.queue_depth,
                      "inflight": self._inflight},
            "workers": {"configured": self.config.workers,
                        "pids": self.pool.worker_pids()},
            "cache_dir": str(self.config.resolved_cache_dir()),
            "lru_entries": len(self._lru),
            "tracing": self.tracer is not None,
        }

    def _render_metrics(self) -> str:
        """Prometheus text exposition of the whole registry."""
        lines: List[str] = []
        snapshot = self.metrics.snapshot()
        for name, value in snapshot["counters"].items():
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, value in snapshot["gauges"].items():
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
        for name, hist in sorted(self.metrics.histograms.items()):
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} histogram")
            exemplars = self._exemplars \
                if name == "serve.latency_us" else {}
            for le, count in hist.cumulative(LATENCY_BUCKETS_US):
                label = format_le(le)
                line = f'{metric}_bucket{{le="{label}"}} {count}'
                exemplar = exemplars.get(label)
                if exemplar is not None:
                    # OpenMetrics exemplar: slow buckets name a trace
                    line += (f' # {{trace_id="'
                             f'{exemplar["trace_id"]}"}} '
                             f'{exemplar["value"]} {exemplar["ts"]}')
                lines.append(line)
            lines.append(f"{metric}_sum {hist.sum}")
            lines.append(f"{metric}_count {hist.total}")
        lines.append(f"redsoc_serve_uptime_seconds "
                     f"{round(time.monotonic() - self.started_at, 3)}")
        return "\n".join(lines) + "\n"


def _prom_name(name: str) -> str:
    return "redsoc_" + name.replace(".", "_").replace("-", "_")


def _consume(future: "asyncio.Future") -> None:
    """Swallow an already-set exception so asyncio doesn't warn."""
    if future.cancelled():
        return
    try:
        future.exception()
    except asyncio.CancelledError:
        pass


def _error_response(status: int, code: str, message: str,
                    headers: Optional[Dict[str, str]] = None
                    ) -> HttpResponse:
    return HttpResponse.json(
        {"api": API_VERSION, "error": code, "message": message},
        status=status, headers=headers)


def _attach_sweep_speedups(results: List[Dict[str, Any]]) -> None:
    """Join each sweep job with its same-core baseline (paper metric)."""
    baselines: Dict[str, int] = {}
    for result in results:
        if result.get("mode") == "baseline":
            baselines[result.get("core", "")] = result["cycles"]
    for result in results:
        base = baselines.get(result.get("core", ""))
        if base is not None and result.get("mode") != "baseline":
            result["speedup"] = base / result["cycles"] - 1.0


class ServeDaemon:
    """Process-level wrapper: signals, event loop, test harness."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.app: Optional[ServeApp] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- blocking entry point (the CLI) --------------------------------

    def run(self, *, announce=print) -> int:
        """Serve until SIGTERM/SIGINT; returns an exit code."""
        return asyncio.run(self._main(announce=announce))

    async def _main(self, *, announce=None) -> int:
        self.app = ServeApp(self.config)
        self._loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass    # non-main thread (tests) or exotic platform
        await self.app.start()
        if announce is not None:
            announce(f"serving on http://{self.config.host}:"
                     f"{self.app.port} "
                     f"(workers={self.config.workers}, "
                     f"queue={self.config.queue_depth})")
        self._ready.set()
        stopper = asyncio.ensure_future(stop.wait())
        try:
            await stopper
        finally:
            stopper.cancel()
            if announce is not None:
                announce("draining...")
            await self.app.drain()
            if announce is not None:
                announce("drained, bye")
        return 0

    # -- background harness (tests drive the daemon in a thread) -------

    def start_background(self, timeout_s: float = 20.0) -> int:
        """Run the daemon in a daemon thread; returns the bound port."""

        def runner() -> None:
            asyncio.run(self._background_main())

        self._thread = threading.Thread(target=runner,
                                        name="serve-daemon",
                                        daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout_s):
            raise RuntimeError("daemon failed to start in time")
        assert self.app is not None
        return self.app.port

    async def _background_main(self) -> None:
        self.app = ServeApp(self.config)
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.app.start()
        self._ready.set()
        await self._stop.wait()
        await self.app.drain()

    def request_shutdown(self) -> None:
        """Thread-safe drain trigger (the in-process SIGTERM)."""
        loop, app = self._loop, self.app
        if loop is None or app is None:
            return
        def _trigger() -> None:
            stop = getattr(self, "_stop", None)
            if stop is not None:
                stop.set()
        loop.call_soon_threadsafe(_trigger)

    def stop_background(self, timeout_s: float = 20.0) -> None:
        self.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout_s)
            if self._thread.is_alive():
                raise RuntimeError("daemon failed to drain in time")
