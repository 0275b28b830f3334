"""Pipeline observability: structured events, metrics, exporters.

``repro.obs`` is the tracing/metrics substrate of the simulator:

* :mod:`repro.obs.events` — a near-zero-overhead event bus with typed
  pipeline events (fetch → dispatch → wakeup → select → issue →
  execute-window → writeback → commit, plus GP-speculative grants,
  mispredict replays, 2-cycle holds and stalls).  Tracing is *off* by
  default: every emission site in the hot simulator loop is guarded by
  a single ``is None`` check, so an untraced run is bit-identical (in
  cycles *and* wall-clock shape) to an uninstrumented one.
* :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  tick-resolution histograms).
* :mod:`repro.obs.export` — JSONL event dumps, Chrome trace-event /
  Perfetto JSON (one track per FU class, one tick-precise slice per
  uop execution window), and :func:`~repro.obs.export.run_metrics`, a
  run's registry built from its :class:`~repro.analysis.stats.SimStats`
  and its EXEC_WINDOW events.  The EXEC_WINDOW payload
  (:func:`repro.core.cpu.exec_window`) is the one per-uop record the
  Perfetto slices, the histograms, the audit and the ASCII timeline all
  read.

Audit-trace *replay* (running :func:`repro.core.audit.audit_run`'s
invariant checks over a recorded event stream) lives in
:mod:`repro.core.audit` next to the live auditor.

The *service* layers (repro.serve, repro.campaign) observe through
two sibling modules built on the same explicit-object discipline:

* :mod:`repro.obs.trace` — W3C-traceparent request tracing: explicit
  :class:`~repro.obs.trace.TraceContext`/:class:`~repro.obs.trace.Tracer`
  objects (no ambient globals), spans across the client → httpd →
  queue → worker-process → cache → engine chain, JSONL + Perfetto
  export, span-tree analysis and a CI validator;
* :mod:`repro.obs.log` — structured JSON logging with bound
  correlation fields (every error line carries its ``trace_id``).
"""

from .events import (
    Event,
    EventKind,
    JsonlSink,
    NULL_SINK,
    NullSink,
    Recorder,
    TeeSink,
)
from .export import (
    chrome_trace,
    metrics_to_jsonl,
    read_events_jsonl,
    run_metrics,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_jsonl,
)
from .log import JsonLogger, JsonLogHandler, stderr_logger
from .metrics import (
    Counter,
    Gauge,
    LATENCY_BUCKETS_US,
    MetricsRegistry,
    TickHistogram,
    parse_prometheus,
)

#: names re-exported from :mod:`repro.obs.trace`, imported on first
#: use (PEP 562): importing ``repro`` loads this package, and an eager
#: import would put ``repro.obs.trace`` in ``sys.modules`` before
#: ``python -m repro.obs.trace`` runs it, so ``runpy`` would warn and
#: run the CLI beside a second copy of the module
_TRACE_NAMES = frozenset({
    "IdSource", "JsonlSpanSink", "Span", "SpanRecorder", "TraceContext",
    "Tracer", "merge_chrome_traces", "span_trees", "spans_chrome_trace",
    "validate_spans",
})


def __getattr__(name: str):
    if name in _TRACE_NAMES:
        from . import trace
        return getattr(trace, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Counter", "Event", "EventKind", "Gauge", "IdSource",
    "JsonLogHandler", "JsonLogger", "JsonlSink", "JsonlSpanSink",
    "LATENCY_BUCKETS_US", "MetricsRegistry", "NULL_SINK", "NullSink",
    "Recorder", "Span", "SpanRecorder", "TeeSink", "TickHistogram",
    "TraceContext", "Tracer", "chrome_trace", "merge_chrome_traces",
    "metrics_to_jsonl", "parse_prometheus", "read_events_jsonl",
    "run_metrics", "span_trees", "spans_chrome_trace", "stderr_logger",
    "validate_spans", "write_chrome_trace", "write_events_jsonl",
    "write_metrics_jsonl",
]
