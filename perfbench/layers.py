"""Per-layer timing from outside the program.

Two sources, both used only by traced runs:

* :class:`Timers` wraps the public functions a campaign binds
  (trace generation, trace fingerprinting, simulation, result-cache
  reads and writes) and accumulates calls, seconds and work done;
* :func:`serve_layers` reads the serve daemon's ``--trace-dir`` spans
  and joins them with the client's own latencies.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from common import median

class Timers:
    """Accumulates ``calls`` / ``seconds`` / ``work`` per layer name."""

    def __init__(self) -> None:
        self.stats: Dict[str, Dict[str, Any]] = {}

    def note(self, name: str, seconds: float, work: float = 0.0) -> None:
        entry = self.stats.setdefault(
            name, {"calls": 0, "seconds": 0.0, "work": 0.0,
                   "samples": []})
        entry["calls"] += 1
        entry["seconds"] += seconds
        entry["work"] += work
        entry["samples"].append(seconds)

    def timed(self, fn: Callable, name: str,
              work: Optional[Callable[[Any], float]] = None) -> Callable:
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.note(name, time.perf_counter() - start,
                      work(result) if work is not None else 0.0)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             work: Optional[Callable[[Any], float]] = None) -> None:
        setattr(owner, attr, self.timed(getattr(owner, attr), name, work))


def install_campaign_timers(timers: Timers) -> None:
    """Wrap the names ``run_campaign`` binds (call before running)."""
    import repro.campaign.jobs as jobs
    import repro.campaign.runner as runner
    from repro.campaign.cache import ResultCache
    from repro.core.engine import ENGINES

    timers.wrap(jobs, "generate_trace", "pipeline.trace_gen",
                lambda trace: len(trace.entries))
    timers.wrap(runner, "trace_fingerprint", "campaign.fingerprint")
    timers.wrap(runner, "simulate", "core.simulate",
                lambda result: result.cycles)
    timers.wrap(ResultCache, "get", "campaign.cache_get")
    timers.wrap(ResultCache, "put", "campaign.cache_put")
    timers.wrap(ResultCache, "get_trace_fingerprint",
                "campaign.cache_index")
    timers.wrap(ResultCache, "put_trace_fingerprint",
                "campaign.cache_index")

    # a batch-capable default engine replays cache misses through its
    # batch entry point instead of ``simulate``: time that too
    lookup = ENGINES.batch

    def batch(name):
        fn = lookup(name)
        if fn is None:
            return None
        return timers.timed(fn, "core.simulate",
                            lambda results: sum(r.cycles for r in results))
    ENGINES.batch = batch


def campaign_ledger(stats: Dict[str, Dict[str, Any]],
                    op_time_s: float) -> Dict[str, float]:
    """Layer -> seconds of one traced campaign pass."""
    ledger: Dict[str, float] = {"op_time": op_time_s}
    for name, entry in stats.items():
        layer = "campaign.cache_io" if name.startswith("campaign.cache") \
            else name
        ledger[layer] = ledger.get(layer, 0.0) + entry["seconds"]
    return ledger


def campaign_layers(stats: Dict[str, Dict[str, Any]],
                    op_time_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign pass."""
    def get(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0.0)

    def per_second(name: str) -> float:
        seconds = get(name, "seconds")
        return get(name, "work") / seconds if seconds else 0.0

    explained = sum(entry["seconds"] for entry in stats.values())
    probes = stats.get("campaign.cache_get", {}).get("samples", [])
    return {
        "core.simulate_s": get("core.simulate", "seconds"),
        "core.simulate_ms": 1000 * median(
            stats.get("core.simulate", {}).get("samples", [])),
        "core.sim_cycles_per_s": per_second("core.simulate"),
        "core.calls": get("core.simulate", "calls"),
        "pipeline.trace_gen_s": get("pipeline.trace_gen", "seconds"),
        "pipeline.trace_gen_ms": 1000 * median(
            stats.get("pipeline.trace_gen", {}).get("samples", [])),
        "pipeline.instrs_per_s": per_second("pipeline.trace_gen"),
        "pipeline.calls": get("pipeline.trace_gen", "calls"),
        "campaign.fingerprint_s": get("campaign.fingerprint", "seconds"),
        "campaign.fingerprint_calls": get("campaign.fingerprint", "calls"),
        "campaign.cache_put_s": get("campaign.cache_put", "seconds"),
        "campaign.cache_probe_ms": 1000 * median(probes),
        "trace.coverage": explained / op_time_s if op_time_s else 0.0,
    }


# -- serve: cache-put log written from inside the pool workers ---------

def install_put_log(log_dir: Path) -> None:
    """Wrap ``ResultCache.put`` so every call appends its duration to
    ``<log_dir>/put-<pid>.log``.  Installed in the daemon launcher
    before the pool forks, so the workers inherit it."""
    from repro.campaign.cache import ResultCache
    original = ResultCache.put

    def put(self, key, payload):
        start = time.perf_counter()
        original(self, key, payload)
        elapsed = time.perf_counter() - start
        with open(log_dir / f"put-{os.getpid()}.log", "a") as fh:
            fh.write(f"{elapsed:.9f}\n")
    ResultCache.put = put


def install_serve_spans() -> None:
    """Give the daemon's request span children for the synchronous
    work it does on the event loop that its own spans leave out: JSON
    decode and validation (``serve.parse``), the inline estimate
    (``predict.estimate``) and response encoding (``serve.encode``).

    The wrapped functions are public; the request's root span is
    learnt by wrapping one private method, ``ServeApp._route``, and
    carried in a context variable, which asyncio keeps per task."""
    import contextvars

    import repro.predict.service as service
    import repro.serve.app as app
    from repro.serve.httpd import HttpRequest, HttpResponse

    current = contextvars.ContextVar("perfbench_root", default=None)

    def spanned(fn: Callable, name: str) -> Callable:
        def wrapper(*args, **kwargs):
            entry = current.get()
            if entry is None:
                return fn(*args, **kwargs)
            root, tracer = entry
            start_us = tracer.now_us()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.start(name, parent=root.ctx, component="serve",
                             start_us=start_us).end()
        return wrapper

    route = app.ServeApp._route

    async def _route(self, request, root=None):
        current.set((root, self.tracer) if root is not None else None)
        return await route(self, request, root)

    app.ServeApp._route = _route
    app.parse_request = spanned(app.parse_request, "serve.parse")
    HttpRequest.json = spanned(HttpRequest.json, "serve.parse")
    service.estimate_payload = spanned(service.estimate_payload,
                                       "predict.estimate")
    encode = HttpResponse.json.__func__
    HttpResponse.json = classmethod(spanned(encode, "serve.encode"))


def read_put_log(log_dir: Path) -> float:
    total = 0.0
    for path in log_dir.glob("put-*.log"):
        total += sum(float(line) for line in path.read_text().split())
    return total


# -- serve: span analysis ---------------------------------------------

def _dur_ms(span: Dict[str, Any]) -> float:
    return (span["end_us"] - span["start_us"]) / 1000.0


def _union_us(intervals: Sequence[Tuple[int, int]]) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


#: daemon span name -> ledger layer, most specific first: a stretch of
#: a request covered by several spans is charged to the first listed
SERVE_LEDGER = (
    ("engine.simulate", "core.simulate"),
    ("trace.gen", "pipeline.trace_gen"),
    ("cache.probe", "campaign.cache_probe"),
    ("predict.estimate", "predict.estimate"),
    ("serve.parse", "serve.parse"),
    ("serve.encode", "serve.encode"),
    ("queue.wait", "serve.queue_wait"),
    ("pool.wait", "serve.queue_wait"),
    ("singleflight.wait", "serve.singleflight"),
    ("respond", "serve.respond"),
    ("admission", "serve.admission"),
    ("worker.attempt", "serve.worker_hop"),
)
_RANK = {name: rank for rank, (name, _) in enumerate(SERVE_LEDGER)}


def attribute(root: Dict[str, Any], spans: Sequence[Dict[str, Any]]
              ) -> Dict[str, int]:
    """Split *root*'s interval among *spans* (its descendants): each
    elementary stretch goes to the most specific span covering it;
    stretches no span covers stay unattributed."""
    lo, hi = root["start_us"], root["end_us"]
    items = [(_RANK[span["name"]], max(span["start_us"], lo),
              min(span["end_us"], hi))
             for span in spans if span["name"] in _RANK]
    cuts = sorted({lo, hi, *(start for _, start, end in items
                             if lo < start < hi),
                   *(end for _, start, end in items if lo < end < hi)})
    charged: Dict[str, int] = {}
    for left, right in zip(cuts, cuts[1:]):
        ranks = [rank for rank, start, end in items
                 if start <= left and end >= right]
        if ranks:
            layer = SERVE_LEDGER[min(ranks)][1]
            charged[layer] = charged.get(layer, 0) + right - left
    return charged


def _overlaps(window: Tuple[int, int],
              intervals: Sequence[Tuple[int, int]]
              ) -> List[Tuple[int, int]]:
    """The parts of *window* that some interval covers (merged)."""
    lo, hi = window
    clipped = sorted((max(lo, start), min(hi, end))
                     for start, end in intervals)
    merged: List[Tuple[int, int]] = []
    for start, end in clipped:
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def serve_layers(spans: List[Dict[str, Any]],
                 requests: List[Dict[str, Any]],
                 window_s: float
                 ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and the time ledger (layer -> seconds of
    client latency) from daemon spans + client records.

    *requests* carry ``trace_id``, ``latency_ms`` and, for simulations,
    ``instrs`` (committed instructions).
    """
    by_parent: Dict[str, List[Dict[str, Any]]] = {}
    roots: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        if span.get("parent_id"):
            by_parent.setdefault(span["parent_id"], []).append(span)
        if span["name"] == "request":
            roots[span["trace_id"]] = span
    # when the worker runs each attempt's phases (one worker: busy);
    # an attempt waiting while the worker is busy with another waits
    # in the pool's queue, which its own span cannot tell apart
    runs: Dict[str, Tuple[int, int]] = {}
    for span in spans:
        if span["name"] == "worker.attempt":
            phases = by_parent.get(span["span_id"], [])
            if phases:
                runs[span["span_id"]] = (
                    min(p["start_us"] for p in phases),
                    max(p["end_us"] for p in phases))

    transport, admission, queue_wait, hop = [], [], [], []
    probe, gen, sim = [], [], []
    sim_cycles, gen_instrs, attempts = 0.0, 0, []
    ledger_us: Dict[str, float] = {}
    total_us = 0.0
    for req in requests:
        root = roots.get(req["trace_id"])
        if root is None:
            continue
        latency_us = req["latency_ms"] * 1000.0
        total_us += latency_us
        wire_us = latency_us - (root["end_us"] - root["start_us"])
        transport.append(wire_us / 1000.0)
        ledger_us["serve.transport"] = \
            ledger_us.get("serve.transport", 0.0) + wire_us
        children = by_parent.get(root["span_id"], [])
        descendants = list(children)
        for child in children:
            if child["name"] == "admission":
                admission.append(_dur_ms(child))
        worker_calls = [c for c in children
                        if c["name"] == "worker.attempt"]
        waited_us = sum(_dur_ms(c) * 1000 for c in children
                        if c["name"] == "queue.wait")
        for attempt in worker_calls:
            attempts.append((attempt["start_us"], attempt["end_us"]))
            phases = by_parent.get(attempt["span_id"], [])
            descendants.extend(phases)
            own = runs.get(attempt["span_id"])
            if own is not None:
                for start, end in _overlaps(
                        (attempt["start_us"], own[0]),
                        [run for span_id, run in runs.items()
                         if span_id != attempt["span_id"]
                         and run[1] > attempt["start_us"]
                         and run[0] < own[0]]):
                    descendants.append({"name": "pool.wait",
                                        "start_us": start,
                                        "end_us": end})
                    waited_us += end - start
            for phase in phases:
                if phase["name"] == "cache.probe":
                    probe.append(_dur_ms(phase))
                elif phase["name"] == "trace.gen":
                    gen.append(_dur_ms(phase))
                    gen_instrs += req.get("instrs", 0)
                elif phase["name"] == "engine.simulate":
                    sim.append(_dur_ms(phase))
                    sim_cycles += phase.get("attrs", {}).get("cycles", 0)
        charged = attribute(root, descendants)
        queue_wait.append(waited_us / 1000.0)
        if len(worker_calls) == 1:
            hop.append(charged.get("serve.worker_hop", 0) / 1000.0)
        for layer, us in charged.items():
            ledger_us[layer] = ledger_us.get(layer, 0.0) + us

    sim_s = sum(sim) / 1000.0
    gen_s = sum(gen) / 1000.0
    explained_us = sum(ledger_us.values())
    metrics = {
        "core.simulate_s": sim_s,
        "core.simulate_ms": median(sim),
        "core.sim_cycles_per_s": sim_cycles / sim_s if sim_s else 0.0,
        "core.calls": len(sim),
        "pipeline.trace_gen_s": gen_s,
        "pipeline.trace_gen_ms": median(gen),
        "pipeline.instrs_per_s": gen_instrs / gen_s if gen_s else 0.0,
        "pipeline.calls": len(gen),
        "campaign.cache_probe_ms": median(probe),
        "serve.transport_ms": median(transport),
        "serve.admission_ms": median(admission),
        "serve.queue_wait_ms": median(queue_wait),
        "serve.worker_busy_frac":
            _union_us(attempts) / 1e6 / window_s if window_s else 0.0,
        "serve.worker_hop_ms": median(hop),
        "trace.coverage": explained_us / total_us if total_us else 0.0,
    }
    ledger = {layer: us / 1e6 for layer, us in ledger_us.items()}
    ledger["op_time"] = total_us / 1e6
    return metrics, ledger
