"""Structured JSON logging with per-request correlation ids.

One log line = one JSON object: ``{"ts", "level", "component",
"event", ...fields}``.  The point is correlation — every serve-stack
line that belongs to a request carries its ``trace_id``, so a 5xx in
the daemon log resolves to the exported span tree of the exact request
that failed, and a nightly-fuzz failure line names the session and
program that produced it.

Two deliberate design constraints:

* **explicit objects, no global configuration** — a
  :class:`JsonLogger` is constructed and passed, exactly like the
  tracer in :mod:`repro.obs.trace`; code without a logger logs
  nothing and pays one ``is None`` check, which is what keeps the
  serve hot path inside its throughput gates when logging is off;
* **machine-first** — values are JSON scalars, keys are stable, and
  the line is self-contained; ``jq`` is the intended reader.

:class:`JsonLogHandler` bridges stdlib :mod:`logging` records (the
campaign cache's corrupt-entry warnings, third-party libraries) into
the same stream, preserving ``extra={...}`` fields;
:func:`stdlib_logs_to` installs it on the ``repro`` logger for the
three ``--log-json`` entry points (``campaign run``, ``verify fuzz``,
``serve start``).
"""

from __future__ import annotations

import contextlib
import io
import json
import logging
import sys
import threading
import time
from typing import Any, Dict, IO, Iterator, List, Optional

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _scrub(value: Any) -> Any:
    """Best-effort JSON-safe coercion (never raises from a log call)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _scrub(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_scrub(v) for v in value]
    return repr(value)


class JsonLogger:
    """Structured logger writing one JSON object per line.

    *streams* is a list of open text handles (stderr, a log file, or
    both); writes are line-atomic under a shared lock.  :meth:`bind`
    returns a child logger whose lines always carry the bound fields —
    the idiom for request correlation::

        req_log = logger.bind(trace_id=ctx.trace_id, path=path)
        req_log.warning("request.failed", status=503)
    """

    def __init__(self, streams: Optional[List[IO[str]]] = None, *,
                 component: str = "",
                 min_level: str = "info",
                 clock=time.time,
                 _bound: Optional[Dict[str, Any]] = None,
                 _lock: Optional[threading.Lock] = None) -> None:
        self.streams = list(streams) if streams else []
        self.component = component
        self.min_level = LEVELS.get(min_level, 20)
        self._clock = clock
        self._bound = dict(_bound) if _bound else {}
        self._lock = _lock if _lock is not None else threading.Lock()

    def bind(self, **fields: Any) -> "JsonLogger":
        bound = dict(self._bound)
        bound.update(fields)
        child = JsonLogger(
            self.streams, component=self.component,
            clock=self._clock, _bound=bound, _lock=self._lock)
        child.min_level = self.min_level
        return child

    @property
    def enabled(self) -> bool:
        return bool(self.streams)

    # -- emission ------------------------------------------------------

    def log(self, level: str, event: str, **fields: Any) -> None:
        if not self.streams or \
                LEVELS.get(level, 20) < self.min_level:
            return
        obj: Dict[str, Any] = {
            "ts": round(self._clock(), 6),
            "level": level,
            "event": event,
        }
        if self.component:
            obj["component"] = self.component
        for key, value in self._bound.items():
            obj[key] = _scrub(value)
        for key, value in fields.items():
            obj[key] = _scrub(value)
        line = json.dumps(obj, separators=(",", ":"),
                          sort_keys=False) + "\n"
        with self._lock:
            for stream in self.streams:
                try:
                    stream.write(line)
                    stream.flush()
                except (ValueError, OSError):
                    pass    # a closed log stream never takes down serve

    def debug(self, event: str, **fields: Any) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields: Any) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields: Any) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields: Any) -> None:
        self.log("error", event, **fields)


def stderr_logger(component: str = "",
                  min_level: str = "info") -> JsonLogger:
    """The common construction: JSON lines on stderr."""
    return JsonLogger([sys.stderr], component=component,
                      min_level=min_level)


#: stdlib LogRecord attributes that are bookkeeping, not payload
_RECORD_FIELDS = frozenset(vars(logging.LogRecord(
    "", 0, "", 0, "", (), None)).keys()) | {"message", "asctime",
                                            "taskName"}


class JsonLogHandler(logging.Handler):
    """Routes stdlib :mod:`logging` records into a :class:`JsonLogger`.

    ``extra={...}`` fields on the record survive as JSON fields, so
    e.g. the campaign cache's corrupt-entry warning carries its cache
    key and path as structured data instead of a formatted string.
    """

    def __init__(self, logger: JsonLogger,
                 level: int = logging.NOTSET) -> None:
        super().__init__(level)
        self.json_logger = logger

    def emit(self, record: logging.LogRecord) -> None:
        try:
            level = record.levelname.lower()
            if level not in LEVELS:
                level = "info"
            fields = {key: value
                      for key, value in vars(record).items()
                      if key not in _RECORD_FIELDS}
            self.json_logger.log(
                level, record.name,
                message=record.getMessage(), **fields)
        except Exception:   # logging must never raise
            self.handleError(record)


@contextlib.contextmanager
def stdlib_logs_to(logger: Optional[JsonLogger]) -> Iterator[None]:
    """Inside the block, route the ``repro`` stdlib logger's records
    through *logger* only (``None``: leave logging as it is).

    Propagation stops while the handler is installed, so a
    ``--log-json`` stream stays one JSON object per line; otherwise
    the stdlib's last-resort handler prints a warning, such as the
    campaign cache's corrupt-entry one, as a plain-text line.  Worker
    processes forked inside the block inherit the routing.
    """
    if logger is None:
        yield
        return
    target = logging.getLogger("repro")
    handler = JsonLogHandler(logger)
    propagate = target.propagate
    target.addHandler(handler)
    target.propagate = False
    try:
        yield
    finally:
        target.removeHandler(handler)
        target.propagate = propagate


def capture_logger() -> "tuple[JsonLogger, io.StringIO]":
    """An in-memory logger plus its buffer (test helper)."""
    buffer = io.StringIO()
    return JsonLogger([buffer]), buffer


def parse_log_lines(text: str) -> List[Dict[str, Any]]:
    """Parse JSONL log output back into objects (test/CI helper)."""
    objs: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            objs.append(json.loads(line))
    return objs
