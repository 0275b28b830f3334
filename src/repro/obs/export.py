"""Exporters: JSONL event dumps, Chrome trace-event JSON, metrics.

Every per-uop artifact here reads the EXEC_WINDOW record
(:func:`repro.core.cpu.exec_window`): the Perfetto slices below and the
tick histograms of :func:`run_metrics`, which also mirrors a run's
:class:`~repro.analysis.stats.SimStats` as counters and gauges.

The Chrome trace-event output follows the (Perfetto-compatible) JSON
array format: ``{"traceEvents": [...]}`` where

* each **FU class** is one named track (``thread_name`` metadata on a
  stable ``tid``),
* each **uop execution window** is one complete slice (``"ph": "X"``)
  whose ``ts``/``dur`` are the window's start tick and tick length —
  tick-for-tick the values :func:`repro.core.audit.audit_run` checks,
* transparent hand-offs (mid-cycle recycled starts), 2-cycle holds,
  GP-speculative grants and replays appear as instant markers
  (``"ph": "i"``) on the owning FU track,
* per-cycle stalls land on a dedicated ``sched`` track.

Time unit: **1 trace µs = 1 tick** (the paper's 1/8-cycle quantum).
Perfetto renders any consistent unit; documenting the convention in the
trace's process name keeps screenshots self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence, Union

from .events import Event, EventKind, events_from_jsonl
from .metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.analysis.stats import SimStats

PathLike = Union[str, Path]

#: gauge name → SimStats field: values computed once at the end of a run
GAUGE_FIELDS: Dict[str, str] = {
    "predict.width.aggressive_rate": "width_aggressive_rate",
    "predict.width.accuracy": "width_accuracy",
    "predict.la.misprediction_rate": "la_misprediction_rate",
    "predict.la.predictions": "la_predictions",
    "predict.la.mispredictions": "la_mispredictions",
    "seq.expected_length": "seq_expected_length",
    "seq.mean_length": "seq_mean_length",
    "seq.count": "num_sequences",
    "front.branches": "branches",
    "front.branch_mispredicts": "branch_mispredicts",
}

#: counter name → SimStats field: counts the engine keeps during the run
COUNTER_FIELDS: Dict[str, str] = {
    "core.cycles": "cycles",
    "core.committed": "committed",
    "sched.recycled_ops": "recycled_ops",
    "sched.eager_issues": "eager_issues",
    "sched.two_cycle_holds": "two_cycle_holds",
    "sched.fu_stall_cycles": "fu_stall_cycles",
    "sched.dispatch_stall_cycles": "dispatch_stall_cycles",
    "replay.la": "la_replays",
    "replay.width": "width_replays",
}

#: markers rendered as instants on the owning FU track
_FU_MARKERS = {
    EventKind.HOLD: "hold (2-cycle FU occupancy)",
    EventKind.GP_GRANT: "eager grandparent grant",
    EventKind.LA_REPLAY: "last-arrival replay",
    EventKind.WIDTH_MISPREDICT: "width mispredict replay",
}

#: markers rendered on the scheduler track (cycle-, not uop-bound)
_SCHED_MARKERS = {
    EventKind.FU_STALL: "FU stall",
    EventKind.DISPATCH_STALL: "dispatch stall",
}


def write_events_jsonl(events: Iterable[Event],
                       path: PathLike) -> Path:
    """Dump *events* one JSON object per line; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_json_obj(),
                                separators=(",", ":")))
            fh.write("\n")
    return path


def read_events_jsonl(path: PathLike) -> List[Event]:
    """Load an event stream previously written by
    :func:`write_events_jsonl`."""
    with open(path, "r", encoding="utf-8") as fh:
        return events_from_jsonl(fh)


def _fu_tracks(events: Sequence[Event]) -> List[str]:
    """Stable FU-track order: META pool order, then discovery order."""
    tracks: List[str] = []
    for event in events:
        if event.kind is EventKind.META:
            tracks.extend(fu for fu in event.data.get("pools", {})
                          if fu not in tracks)
        elif event.kind is EventKind.EXEC_WINDOW:
            fu = event.data.get("fu")
            if fu is not None and fu not in tracks:
                tracks.append(fu)
    return tracks


def chrome_trace(events: Sequence[Event], *,
                 pid: int = 1) -> Dict[str, Any]:
    """Render an event stream as a Chrome trace-event JSON document."""
    tracks = _fu_tracks(events)
    tid_of = {fu: i + 1 for i, fu in enumerate(tracks)}
    sched_tid = len(tracks) + 1

    meta = next((e for e in events if e.kind is EventKind.META), None)
    name = "redsoc-core"
    if meta is not None:
        name = (f"redsoc {meta.data.get('core', '?')}/"
                f"{meta.data.get('mode', '?')} — "
                f"{meta.data.get('trace', '?')} (1 us = 1 tick, "
                f"{meta.data.get('ticks_per_cycle', '?')} ticks/cycle)")

    out: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
        "args": {"name": name},
    }]
    for fu, tid in tid_of.items():
        out.append({"name": "thread_name", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"name": f"FU {fu}"}})
        out.append({"name": "thread_sort_index", "ph": "M", "pid": pid,
                    "tid": tid, "args": {"sort_index": tid}})
    out.append({"name": "thread_name", "ph": "M", "pid": pid,
                "tid": sched_tid, "args": {"name": "sched"}})

    #: last known FU track per uop, for uop-bound markers whose payload
    #: does not repeat the FU class
    fu_of_seq: Dict[int, int] = {}

    for event in events:
        kind = event.kind
        if kind is EventKind.EXEC_WINDOW:
            data = event.data
            tid = tid_of.get(data["fu"], sched_tid)
            fu_of_seq[event.seq] = tid
            start = data["start"]
            slice_args = {
                "seq": event.seq,
                "issue_cycle": data["issue"],
                "ex_ticks": data["ex"],
                "transparent": data["transparent"],
                "recycled": data["recycled"],
                "eager": data["eager"],
                "hold": data["hold"],
            }
            out.append({
                "name": data["op"], "cat": "exec", "ph": "X",
                "pid": pid, "tid": tid,
                "ts": start, "dur": data["end"] - start,
                "args": slice_args,
            })
            if data["recycled"]:
                # the defining moment of the paper: a consumer started
                # mid-cycle, at the instant its producer stabilised
                out.append({
                    "name": "transparent hand-off", "cat": "recycle",
                    "ph": "i", "s": "t", "pid": pid, "tid": tid,
                    "ts": start, "args": {"seq": event.seq},
                })
        elif kind in _FU_MARKERS:
            tid = fu_of_seq.get(event.seq, sched_tid)
            ts = event.data.get("tick",
                                event.data.get("start", event.cycle))
            out.append({
                "name": _FU_MARKERS[kind], "cat": kind.value,
                "ph": "i", "s": "t", "pid": pid, "tid": tid,
                "ts": ts, "args": {"seq": event.seq, **event.data},
            })
        elif kind in _SCHED_MARKERS:
            ts = event.data.get("tick", event.cycle)
            out.append({
                "name": _SCHED_MARKERS[kind], "cat": kind.value,
                "ph": "i", "s": "t", "pid": pid, "tid": sched_tid,
                "ts": ts, "args": dict(event.data),
            })

    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Sequence[Event], path: PathLike, *,
                       pid: int = 1) -> Path:
    """Write :func:`chrome_trace` output to *path* (returns it)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(events, pid=pid), fh)
        fh.write("\n")
    return path


def run_metrics(stats: "SimStats",
                events: Iterable[Event]) -> MetricsRegistry:
    """The metrics registry of one run.

    Counters and gauges mirror *stats* (plus ``dist.<class>`` for the
    Fig. 10 distribution and ``core.ipc``).  The tick histograms come
    from the run's EXEC_WINDOW events, so an untraced run (no events)
    has none: ``lat.issue_to_execute`` (start tick minus issue-cycle
    edge), ``slack.per_op`` (single-cycle non-memory ops) and
    ``recycle.start_offset`` (tick-in-cycle of each mid-cycle start).
    """
    m = MetricsRegistry()
    for name, field in COUNTER_FIELDS.items():
        m.counter(name).set(getattr(stats, field))
    for op_class, count in stats.distribution.counts.items():
        m.counter(f"dist.{op_class}").set(count)
    for name, field in GAUGE_FIELDS.items():
        m.gauge(name).set(getattr(stats, field))
    m.gauge("core.ipc").set(stats.ipc)
    tpc = None
    for event in events:
        if event.kind is EventKind.META:
            tpc = event.data["ticks_per_cycle"]
        elif event.kind is EventKind.EXEC_WINDOW:
            d = event.data
            m.histogram("lat.issue_to_execute").observe(
                d["start"] - d["issue"] * tpc)
            if not d["mem"] and d["lat"] == 1:
                m.histogram("slack.per_op").observe(
                    max(0, tpc - d["ex_actual"]))
            if d["recycled"]:
                m.histogram("recycle.start_offset").observe(
                    d["start"] % tpc)
    return m


def metrics_to_jsonl(registry: MetricsRegistry) -> str:
    """Metrics registry as JSONL text (one metric per line)."""
    return "".join(json.dumps(obj, separators=(",", ":")) + "\n"
                   for obj in registry.iter_jsonl_objs())


def write_metrics_jsonl(registry: MetricsRegistry,
                        path: PathLike) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(metrics_to_jsonl(registry), encoding="utf-8")
    return path


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Schema check for a trace document; returns problem strings.

    Checks the subset of the trace-event format that Perfetto's JSON
    importer requires: a ``traceEvents`` list whose members carry
    ``name``/``ph``/``pid``/``tid``, integer ``ts`` on every timed
    event, non-negative integer ``dur`` on complete ("X") slices, and
    a scope on instants.  Used by the tests and the CLI.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"[{i}] not an object")
            continue
        for field in ("name", "ph", "pid", "tid"):
            if field not in ev:
                problems.append(f"[{i}] missing {field!r}")
        ph = ev.get("ph")
        if ph in ("X", "i", "B", "E", "C"):
            if not isinstance(ev.get("ts"), int):
                problems.append(f"[{i}] ph={ph} without integer ts")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"[{i}] X slice with bad dur {dur!r}")
        if ph == "i" and ev.get("s") not in ("t", "p", "g"):
            problems.append(f"[{i}] instant without scope")
    return problems


def load_chrome_trace(path: PathLike) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def exec_slices(doc: Dict[str, Any]) -> Dict[int, Dict[str, int]]:
    """Map uop seq → ``{"start": ts, "end": ts+dur}`` of exec slices."""
    windows: Dict[int, Dict[str, int]] = {}
    for ev in doc.get("traceEvents", ()):
        if ev.get("ph") == "X" and ev.get("cat") == "exec":
            seq = ev["args"]["seq"]
            windows[seq] = {"start": ev["ts"],
                            "end": ev["ts"] + ev["dur"]}
    return windows


# re-exported for __init__ convenience
__all__ = [
    "COUNTER_FIELDS", "GAUGE_FIELDS", "chrome_trace", "exec_slices",
    "load_chrome_trace", "metrics_to_jsonl", "read_events_jsonl",
    "run_metrics", "validate_chrome_trace", "write_chrome_trace",
    "write_events_jsonl", "write_metrics_jsonl",
]
