"""Request tracing: W3C-traceparent contexts, spans, sinks, export.

The serve/campaign stack is a chain of queues and process boundaries —
client SDK → httpd → admission queue → worker process → campaign cache
→ engine — and a slow request's time can hide in any hop.  This module
gives every hop a **span** correlated by one **trace id**:

* :class:`TraceContext` is the wire-format identity — a 32-hex
  ``trace_id`` shared by every span of one request, a 16-hex
  ``span_id`` naming the current hop, serialised as a W3C
  ``traceparent`` header (``00-<trace>-<span>-<flags>``);
* :class:`Tracer` mints contexts and records finished spans into a
  sink.  It is an **explicit object** — there is no ambient
  thread-local or global tracer, so code that was deterministic
  without tracing stays deterministic (the ``--exact-cycles`` gate
  never sees a hidden RNG draw);
* sinks: :class:`SpanRecorder` (in-memory list) and
  :class:`JsonlSpanSink` (streaming JSONL file), mirroring the event
  bus in :mod:`repro.obs.events`;
* export: :func:`spans_chrome_trace` renders a span stream as
  Perfetto-compatible Chrome trace JSON (one track per component /
  worker pid), and :func:`merge_chrome_traces` splices request tracks
  into a simulator trace document from
  :func:`repro.obs.export.chrome_trace`;
* analysis: :func:`span_trees` reconstructs per-trace parent/child
  trees, :func:`trace_coverage` measures how much of a request's wall
  time its child segments explain (the end-to-end tracing acceptance
  gate), :func:`validate_spans` is the CI schema check.

``python -m repro.obs.trace validate|perfetto|coverage|tree`` wraps
the analysis functions for CI and interactive debugging.

Spans cross the worker process boundary **by value**: the parent
serialises its context into the payload, the worker builds spans
locally (its own clock) and returns them as JSON objects in the result
envelope; the parent re-emits them into its sink.  Durations are
therefore immune to inter-process clock skew.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

PathLike = Union[str, Path]

#: span stream schema version (validated by :func:`validate_spans`)
SPAN_SCHEMA = 1

_TRACEPARENT = re.compile(
    r"^00-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")


@dataclass(frozen=True)
class TraceContext:
    """One hop's identity inside a trace (immutable, explicit)."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def to_traceparent(self) -> str:
        """W3C ``traceparent`` header value for this context."""
        return (f"00-{self.trace_id}-{self.span_id}-"
                f"{'01' if self.sampled else '00'}")

    @classmethod
    def parse(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` when malformed.

        A malformed header is *not* an error — per the W3C spec the
        receiver simply starts a fresh trace.
        """
        if not header:
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        trace_id, span_id, flags = match.groups()
        if trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        return cls(trace_id=trace_id, span_id=span_id,
                   sampled=bool(int(flags, 16) & 1))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for crossing a process boundary."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "sampled": self.sampled}

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "TraceContext":
        return cls(trace_id=obj["trace_id"], span_id=obj["span_id"],
                   sampled=bool(obj.get("sampled", True)))


class IdSource:
    """Seedable trace/span id generator (an explicit RNG, no globals).

    Pass a seed for reproducible ids in tests and the deterministic
    load generator; leave it ``None`` for entropy-seeded production
    ids.  Either way the RNG is *owned* — nothing here touches the
    module-level :mod:`random` state the simulator's determinism gates
    care about.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(seed)

    def trace_id(self) -> str:
        return f"{self._rng.getrandbits(128):032x}"

    def span_id(self) -> str:
        return f"{self._rng.getrandbits(64):016x}"


@dataclass
class Span:
    """One finished (or finishing) segment of a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    #: wall-clock epoch microseconds (same-host spans compare fine)
    start_us: int = 0
    end_us: int = 0
    component: str = ""
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_us(self) -> int:
        return max(0, self.end_us - self.start_us)

    def to_json_obj(self) -> Dict[str, Any]:
        obj: Dict[str, Any] = {
            "name": self.name, "trace_id": self.trace_id,
            "span_id": self.span_id, "start_us": self.start_us,
            "end_us": self.end_us, "component": self.component,
            "status": self.status,
        }
        if self.parent_id is not None:
            obj["parent_id"] = self.parent_id
        if self.attrs:
            obj["attrs"] = self.attrs
        return obj


def span_from_json_obj(obj: Dict[str, Any]) -> Span:
    return Span(
        name=obj["name"], trace_id=obj["trace_id"],
        span_id=obj["span_id"], parent_id=obj.get("parent_id"),
        start_us=int(obj["start_us"]), end_us=int(obj["end_us"]),
        component=obj.get("component", ""),
        status=obj.get("status", "ok"),
        attrs=dict(obj.get("attrs", {})))


class SpanRecorder:
    """Collects finished spans in memory (tests, small tools)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def emit(self, span: Span) -> None:
        self.spans.append(span)


class JsonlSpanSink:
    """Streams spans to a JSONL handle (one object per line).

    Thread-safe: the serve daemon's event loop and the background
    flusher may emit concurrently.
    """

    def __init__(self, fh: IO[str]) -> None:
        self._fh = fh
        self._lock = threading.Lock()

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_json_obj(), separators=(",", ":"))
        with self._lock:
            self._fh.write(line + "\n")


class ActiveSpan:
    """A span being timed; finish with :meth:`end` or ``with``."""

    __slots__ = ("_tracer", "span", "ctx")

    def __init__(self, tracer: "Tracer", span: Span,
                 ctx: TraceContext) -> None:
        self._tracer = tracer
        self.span = span
        self.ctx = ctx

    def set(self, **attrs: Any) -> "ActiveSpan":
        self.span.attrs.update(attrs)
        return self

    def end(self, status: Optional[str] = None) -> Span:
        if status is not None:
            self.span.status = status
        if self.span.end_us == 0:
            self.span.end_us = self._tracer.now_us()
        self._tracer.record(self.span)
        return self.span

    def __enter__(self) -> "ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end(status="error" if exc_type is not None else None)


class Tracer:
    """Explicit tracer: mints contexts, times spans, feeds a sink."""

    def __init__(self, sink: Any, *, ids: Optional[IdSource] = None,
                 clock=time.time) -> None:
        self.sink = sink
        self.ids = ids if ids is not None else IdSource()
        self._clock = clock

    def now_us(self) -> int:
        return int(self._clock() * 1e6)

    # -- contexts ------------------------------------------------------

    def new_root(self) -> TraceContext:
        return TraceContext(trace_id=self.ids.trace_id(),
                            span_id=self.ids.span_id())

    def child_of(self, ctx: TraceContext) -> TraceContext:
        return TraceContext(trace_id=ctx.trace_id,
                            span_id=self.ids.span_id(),
                            sampled=ctx.sampled)

    # -- spans ---------------------------------------------------------

    def start(self, name: str, *,
              parent: Optional[TraceContext] = None,
              component: str = "",
              start_us: Optional[int] = None,
              **attrs: Any) -> ActiveSpan:
        """Open a span.  With *parent* the span continues that trace
        (becoming its child); without, it roots a fresh trace."""
        ctx = self.child_of(parent) if parent is not None \
            else self.new_root()
        span = Span(
            name=name, trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_us=start_us if start_us is not None else self.now_us(),
            component=component, attrs=dict(attrs))
        return ActiveSpan(self, span, ctx)

    def record(self, span: Span) -> None:
        """Emit an already-built span (e.g. returned by a worker)."""
        if self.sink is not None:
            self.sink.emit(span)

    def record_json(self, objs: Iterable[Dict[str, Any]]) -> None:
        """Re-emit worker-marshalled span objects into the sink."""
        for obj in objs:
            self.record(span_from_json_obj(obj))


# -- persistence -------------------------------------------------------

def write_spans_jsonl(spans: Iterable[Span], path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        sink = JsonlSpanSink(fh)
        for span in spans:
            sink.emit(span)
    return path


def read_spans_jsonl(path: PathLike) -> List[Span]:
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(span_from_json_obj(json.loads(line)))
    return spans


# -- validation (the CI schema gate) -----------------------------------

_HEX_TRACE = re.compile(r"^[0-9a-f]{32}$")
_HEX_SPAN = re.compile(r"^[0-9a-f]{16}$")


def validate_spans(objs: Sequence[Dict[str, Any]]) -> List[str]:
    """Schema-check raw span objects; returns problem strings.

    Checks id formats, timestamps, span-id uniqueness, and that every
    trace is rooted.  A span whose parent is absent from the stream is
    *not* an error — it is a **remote-parented root** (the server's
    ``request`` span parents to the client SDK's span, which lives in
    the client's own export); what is an error is a trace where every
    span's parent resolves locally in a cycle, which can never render
    as a tree.
    """
    problems: List[str] = []
    by_trace: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for i, obj in enumerate(objs):
        if not isinstance(obj, dict):
            problems.append(f"[{i}] not an object")
            continue
        for key in ("name", "trace_id", "span_id", "start_us",
                    "end_us"):
            if key not in obj:
                problems.append(f"[{i}] missing {key!r}")
        trace_id = obj.get("trace_id", "")
        span_id = obj.get("span_id", "")
        if not _HEX_TRACE.match(str(trace_id)):
            problems.append(f"[{i}] bad trace_id {trace_id!r}")
        if not _HEX_SPAN.match(str(span_id)):
            problems.append(f"[{i}] bad span_id {span_id!r}")
        start, end = obj.get("start_us"), obj.get("end_us")
        if not isinstance(start, int) or not isinstance(end, int):
            problems.append(f"[{i}] non-integer timestamps")
        elif end < start:
            problems.append(f"[{i}] ends before it starts "
                            f"({end} < {start})")
        trace = by_trace.setdefault(str(trace_id), {})
        if span_id in trace:
            problems.append(f"[{i}] duplicate span_id {span_id!r} "
                            f"in trace {trace_id!r}")
        trace[str(span_id)] = obj
    for trace_id, spans in by_trace.items():
        roots = sum(
            1 for obj in spans.values()
            if obj.get("parent_id") is None
            or obj.get("parent_id") not in spans)
        if roots == 0 and spans:
            problems.append(f"trace {trace_id}: no root span "
                            f"(parent cycle)")
    return problems


# -- analysis ----------------------------------------------------------

@dataclass
class SpanNode:
    """One span plus its resolved children (a trace tree node)."""

    span: Span
    children: List["SpanNode"] = field(default_factory=list)

    def walk(self, depth: int = 0):
        yield depth, self.span
        for child in sorted(self.children,
                            key=lambda n: n.span.start_us):
            yield from child.walk(depth + 1)


def span_trees(spans: Sequence[Span]) -> Dict[str, List[SpanNode]]:
    """Reconstruct the root nodes of every trace in a span stream.

    A root is a span with no parent *or* a parent absent from the
    stream (remote-parented — e.g. a server ``request`` span whose
    parent is the client SDK's span, exported elsewhere).  One trace
    can have several roots: a client retry produces one ``request``
    root per attempt, all under the same trace id.
    """
    nodes: Dict[Tuple[str, str], SpanNode] = {}
    for span in spans:
        nodes[(span.trace_id, span.span_id)] = SpanNode(span)
    trees: Dict[str, List[SpanNode]] = {}
    for (trace_id, _), node in nodes.items():
        parent_id = node.span.parent_id
        parent = nodes.get((trace_id, parent_id)) \
            if parent_id is not None else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            trees.setdefault(trace_id, []).append(node)
    for roots in trees.values():
        roots.sort(key=lambda n: n.span.start_us)
    return trees


def _iter_nodes(node: SpanNode):
    yield node
    for child in node.children:
        yield from _iter_nodes(child)


def trace_coverage(root: SpanNode) -> float:
    """Fraction of the root span's wall time its descendants explain.

    Direct children's durations are summed over the union of their
    intervals (overlapping children — e.g. a sweep's parallel worker
    fan-out — count once), so the result is ``<= 1`` modulo worker
    clock skew and answers "how much of this request's latency is
    attributed to a traced segment?".
    """
    duration = root.span.duration_us
    if duration <= 0:
        return 1.0
    intervals = sorted(
        (child.span.start_us, child.span.end_us)
        for child in root.children if child.span.duration_us > 0)
    covered = 0
    cursor: Optional[int] = None
    end_max = 0
    for start, end in intervals:
        if cursor is None or start > end_max:
            if cursor is not None:
                covered += end_max - cursor
            cursor, end_max = start, end
        else:
            end_max = max(end_max, end)
    if cursor is not None:
        covered += end_max - cursor
    return min(1.0, covered / duration)


def coverage_report(spans: Sequence[Span],
                    root_name: str = "request") -> Dict[str, Any]:
    """Coverage stats over every request tree in a span stream.

    Only roots that actually fanned out (have children) are scored —
    an LRU hit is answered inline and legitimately has no segments.
    """
    trees = span_trees(spans)
    scored: List[Tuple[float, int, str]] = []
    leaves = 0
    for trace_id, roots in trees.items():
        for root in roots:
            for node in _iter_nodes(root):
                if node.span.name != root_name:
                    continue
                if not node.children:
                    leaves += 1
                    continue
                scored.append((trace_coverage(node),
                               node.span.duration_us, trace_id))
    scored.sort()
    def pct(p: float) -> Optional[float]:
        if not scored:
            return None
        return round(scored[min(len(scored) - 1,
                                int(p * len(scored)))][0], 4)
    return {
        "traces": len(trees),
        "scored": len(scored),
        "segmentless": leaves,
        "coverage_min": round(scored[0][0], 4) if scored else None,
        "coverage_p50": pct(0.50),
        "coverage_p99": pct(0.99),
        "worst": [{"trace_id": t, "coverage": round(c, 4),
                   "duration_us": d} for c, d, t in scored[:5]],
    }


# -- Perfetto / Chrome trace export ------------------------------------

def spans_chrome_trace(spans: Sequence[Span], *,
                       pid: int = 100) -> Dict[str, Any]:
    """Render spans as Chrome trace JSON: one track per component.

    Worker-side spans carry a ``worker`` attribute (``pid-1234``), so
    each worker process gets its own track; ``ts`` is microseconds
    relative to the earliest span, which keeps the document compact
    and lines up with the simulator convention (1 trace µs = 1 unit).
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    base = min(s.start_us for s in spans)

    def track_of(span: Span) -> str:
        worker = span.attrs.get("worker")
        if worker:
            return f"worker {worker}"
        return span.component or "request"

    tracks: List[str] = []
    for span in spans:
        track = track_of(span)
        if track not in tracks:
            tracks.append(track)
    tid_of = {track: i + 1 for i, track in enumerate(tracks)}

    out: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": "redsoc-serve requests (1 us = 1 us wall)"},
    }]
    for track, tid in tid_of.items():
        out.append({"name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": track}})
        out.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"sort_index": tid}})
    for span in spans:
        out.append({
            "name": span.name, "cat": span.component or "span",
            "ph": "X", "pid": pid, "tid": tid_of[track_of(span)],
            "ts": span.start_us - base, "dur": span.duration_us,
            "args": {"trace_id": span.trace_id,
                     "span_id": span.span_id,
                     "status": span.status, **span.attrs},
        })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def merge_chrome_traces(*docs: Dict[str, Any]) -> Dict[str, Any]:
    """Splice several Chrome trace documents into one.

    Process ids are re-numbered to stay distinct, so request-span
    tracks and simulator FU tracks coexist in one Perfetto view.
    """
    merged: List[Dict[str, Any]] = []
    for index, doc in enumerate(docs):
        for event in doc.get("traceEvents", ()):
            event = dict(event)
            event["pid"] = index + 1
            merged.append(event)
    return {"traceEvents": merged, "displayTimeUnit": "ms"}


# -- CLI (CI artifact validation + interactive debugging) --------------

def _load_objs(path: Path) -> List[Dict[str, Any]]:
    objs: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                objs.append(json.loads(line))
    return objs


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.trace",
        description="Validate, export and analyse request-span JSONL "
                    "streams written by the serve daemon.")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate",
                              help="schema-check a spans.jsonl file")
    validate.add_argument("path", type=Path)

    perfetto = sub.add_parser(
        "perfetto", help="render spans as Chrome/Perfetto trace JSON")
    perfetto.add_argument("path", type=Path)
    perfetto.add_argument("--out", type=Path, required=True)
    perfetto.add_argument("--merge", type=Path, default=None,
                          help="splice in an existing Chrome trace "
                               "document (e.g. a simulator trace)")

    coverage = sub.add_parser(
        "coverage",
        help="check that request segments explain the request wall "
             "time (the end-to-end tracing gate)")
    coverage.add_argument("path", type=Path)
    coverage.add_argument("--min-coverage", type=float, default=0.95,
                          help="fail (exit 1) when the median request's "
                               "segment coverage falls below this "
                               "fraction, or the worst request's below "
                               "0.8 of it (the p99 is printed, not "
                               "gated)")

    tree = sub.add_parser("tree",
                          help="print one trace's span tree")
    tree.add_argument("path", type=Path)
    tree.add_argument("trace_id")

    args = parser.parse_args(argv)
    objs = _load_objs(args.path)

    if args.command == "validate":
        problems = validate_spans(objs)
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"{len(objs)} spans, {len(problems)} problem(s)")
        return 1 if problems else 0

    spans = [span_from_json_obj(obj) for obj in objs]

    if args.command == "perfetto":
        doc = spans_chrome_trace(spans)
        if args.merge is not None:
            with open(args.merge, "r", encoding="utf-8") as fh:
                doc = merge_chrome_traces(json.load(fh), doc)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        print(f"wrote {args.out} "
              f"({len(doc['traceEvents'])} trace events)")
        return 0

    if args.command == "coverage":
        report = coverage_report(spans)
        print(json.dumps(report, indent=2, sort_keys=True))
        if not report["scored"]:
            print("no scoreable request trees", file=sys.stderr)
            return 1
        # the median and the minimum are gated; the p99 is only reported
        p50, worst = report["coverage_p50"], report["coverage_min"]
        floor = args.min_coverage * 0.8
        if p50 < args.min_coverage or worst < floor:
            print(f"FAIL: coverage p50={p50} (bound {args.min_coverage}) "
                  f"min={worst} (bound {round(floor, 4)})",
                  file=sys.stderr)
            return 1
        return 0

    if args.command == "tree":
        trees = span_trees(spans)
        roots = trees.get(args.trace_id)
        if roots is None:
            matches = [t for t in trees if t.startswith(args.trace_id)]
            if len(matches) == 1:
                roots = trees[matches[0]]
            else:
                print(f"trace {args.trace_id!r} not found "
                      f"({len(trees)} traces in file)", file=sys.stderr)
                return 2
        for root in roots:
            for depth, span in root.walk():
                indent = "  " * depth
                attrs = " ".join(f"{k}={v}"
                                 for k, v in span.attrs.items())
                print(f"{indent}{span.name} [{span.component}] "
                      f"{span.duration_us} us {span.status} {attrs}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
