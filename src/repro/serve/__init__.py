"""Simulation-as-a-service: a stdlib-only asyncio HTTP daemon.

``repro.serve`` turns the batch simulator into a long-lived service:

* :mod:`repro.serve.protocol` — versioned JSON wire format: ``simulate``
  (named workload or inline text-asm/serialised program), ``sweep``
  (a core × mode grid), ``verify`` (a seeded fuzz batch) and
  ``estimate`` (the analytic predictor), each fully validated before
  admission so malformed input maps to typed 400s;
* :mod:`repro.serve.httpd` — a minimal asyncio HTTP/1.1 server with
  keep-alive and connection tracking for graceful drain;
* :mod:`repro.serve.admission` — bounded priority admission queue with
  typed 429/503 rejections, single-flight deduplication of identical
  in-flight requests, and cooperative deadline expiry;
* :mod:`repro.serve.workers` — a supervised ``ProcessPoolExecutor``
  that detects crashed workers and respawns with bounded, jittered
  retries; simulation reads through the :mod:`repro.campaign` cache;
* :mod:`repro.serve.app` — the daemon wiring request flow, response
  LRU, ``/metrics`` + ``/healthz`` + ``/v1/status`` and SIGTERM drain;
* :mod:`repro.serve.client` — sync and async SDKs with retry/backoff
  and deadlines;
* :mod:`repro.serve.loadgen` — closed/open-loop load generator that
  writes ``BENCH_serve.json`` (throughput, latency percentiles, status
  counts) and gates it (zero 5xx, p99, estimate p99 and throughput).

Run ``python -m repro.serve start`` and point curl at
``http://127.0.0.1:8787/v1/simulate``.
"""

from .admission import AdmissionQueue, Draining, QueueFull, Ticket
from .app import ServeApp, ServeConfig, ServeDaemon
from .client import AsyncServeClient, ServeClient, ServeError
from .loadgen import LoadReport, run_loadgen
from .protocol import (
    API_VERSION,
    Priority,
    RequestError,
    SimulateSpec,
    SweepSpec,
    VerifySpec,
    parse_request,
)
from .workers import WorkerCrash, WorkerPool

__all__ = [
    "API_VERSION", "AdmissionQueue", "AsyncServeClient", "Draining",
    "LoadReport", "Priority", "QueueFull", "RequestError", "ServeApp",
    "ServeClient", "ServeConfig", "ServeDaemon", "ServeError",
    "SimulateSpec", "SweepSpec", "Ticket", "VerifySpec", "WorkerCrash",
    "WorkerPool", "parse_request", "run_loadgen",
]
