"""Closed/open-loop load generator for the serve daemon.

Two classic shapes:

* **closed loop** — N lanes, each issuing its next request the moment
  the previous one answers.  Measures the service's sustainable
  throughput at a fixed concurrency (think: N synchronous callers).
* **open loop** — requests fire on a fixed arrival schedule at a
  target rate regardless of completions, which is how real traffic
  behaves and what exposes queueing collapse: if the daemon can't keep
  up, latency grows and 429s appear instead of the generator politely
  slowing down.

The request **mix** is deterministic under ``--seed``: warm named
workloads (cache hits after the first round), inline text-asm kernels,
periodic sweeps, and (optionally) deliberately malformed programs to
keep the 400 path honest.  Every response is bucketed by status class;
latency percentiles come from the full reservoir (no sampling), and
the report is written to ``BENCH_serve.json``.

The report (**schema 3**) carries p50 through p99.9, a
per-request-class latency breakdown (``simulate``/``sweep``/``estimate``
× warm/cold), and — with ``trace=True`` — one trace id per request
(seed-derived, so the id stream is reproducible) plus the slowest
requests for drill-down.  :func:`gate_failures` checks a report
against the gates that ``loadgen``'s ``--assert-zero-5xx``,
``--max-p99-ms``, ``--max-estimate-p99-ms`` and ``--min-throughput``
set.
"""

from __future__ import annotations

import asyncio
import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.trace import IdSource, TraceContext

from .client import AsyncServeClient, ServeError
from .protocol import API_VERSION

DEFAULT_OUTPUT = "BENCH_serve.json"

#: benchmarks the default mix rotates through (small + fast ones)
_NAMED = (("ml", "pool0", 4), ("ml", "act", 8), ("mibench", "bitcnt", 8),
          ("mibench", "crc", 64), ("spec", "soplex", 4))

_INLINE_ASM = """
    mov   r1, #{imm}
    mov   r2, #200
loop:
    eor   r1, r1, #0x5A
    ror   r1, r1, #3
    subs  r2, r2, #1
    bne   loop
    halt
"""

_BAD_ASM = "    frobnicate r1, r2\n    halt\n"


@dataclass
class MixItem:
    name: str
    weight: float
    make_body: Callable[[random.Random], Tuple[str, Dict[str, Any]]]


def _named_body(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    suite, bench, scale = _NAMED[rng.randrange(len(_NAMED))]
    mode = rng.choice(("baseline", "redsoc", "mos"))
    return "simulate", {"api": API_VERSION, "suite": suite,
                        "bench": bench, "scale": scale,
                        "core": "small", "mode": mode}


def _inline_body(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    # a handful of distinct immediates → mostly warm, sometimes cold
    imm = rng.choice((17, 23, 91, 128))
    return "simulate", {"api": API_VERSION,
                        "asm": _INLINE_ASM.format(imm=imm),
                        "name": f"lg-{imm}", "core": "small",
                        "mode": "redsoc"}


def _sweep_body(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    suite, bench, scale = _NAMED[rng.randrange(2)]
    return "sweep", {"api": API_VERSION, "suite": suite, "bench": bench,
                     "scale": scale, "cores": ["small"],
                     "modes": ["baseline", "redsoc"],
                     "priority": "batch"}


def _estimate_body(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    # same rotation as the named simulates, so after the first rounds
    # the feature cache is warm and estimates answer inline
    suite, bench, scale = _NAMED[rng.randrange(len(_NAMED))]
    mode = rng.choice(("baseline", "redsoc", "mos"))
    return "estimate", {"api": API_VERSION, "suite": suite,
                        "bench": bench, "scale": scale,
                        "core": "small", "mode": mode}


def _bad_body(rng: random.Random) -> Tuple[str, Dict[str, Any]]:
    return "simulate", {"api": API_VERSION, "asm": _BAD_ASM,
                        "core": "small", "mode": "baseline"}


def default_mix(include_errors: bool = False) -> List[MixItem]:
    mix = [MixItem("named-simulate", 0.50, _named_body),
           MixItem("inline-simulate", 0.27, _inline_body),
           MixItem("estimate", 0.15, _estimate_body),
           MixItem("sweep", 0.08, _sweep_body)]
    if include_errors:
        mix.append(MixItem("bad-asm", 0.05, _bad_body))
    return mix


def estimate_mix() -> List[MixItem]:
    """Pure-estimate mix — measures the analytic fast path alone."""
    return [MixItem("estimate", 1.0, _estimate_body)]


def _pick(mix: List[MixItem], rng: random.Random) -> MixItem:
    total = sum(m.weight for m in mix)
    roll = rng.random() * total
    for item in mix:
        roll -= item.weight
        if roll <= 0:
            return item
    return mix[-1]


@dataclass
class Sample:
    kind: str
    status: int
    latency_us: int
    served: str = ""
    #: "warm" (LRU / coalesced / cache hit) or "cold" (simulated)
    temp: str = ""
    trace_id: str = ""

    @property
    def request_class(self) -> str:
        return f"{self.kind}:{self.temp}" if self.temp else self.kind


@dataclass
class LoadReport:
    """Everything one loadgen run measured."""

    mode: str
    requests: int = 0
    samples: List[Sample] = field(default_factory=list)
    wall_time_s: float = 0.0
    target_rate: Optional[float] = None
    concurrency: int = 0
    errors: Dict[str, int] = field(default_factory=dict)

    @property
    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for sample in self.samples:
            key = f"{sample.status // 100}xx"
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def throughput_rps(self) -> float:
        return (len(self.samples) / self.wall_time_s
                if self.wall_time_s else 0.0)

    def _latencies(self, ok_only: bool = True) -> List[int]:
        return sorted(s.latency_us for s in self.samples
                      if not ok_only or s.status < 400)

    def percentile_ms(self, p: float) -> Optional[float]:
        lats = self._latencies()
        if not lats:
            return None
        index = min(len(lats) - 1, int(p * len(lats)))
        return lats[index] / 1000.0

    def kind_percentile_ms(self, kind: str,
                           p: float) -> Optional[float]:
        """Latency percentile of one request kind (successes only) —
        what the ``--max-estimate-p99-ms`` gate reads."""
        lats = sorted(s.latency_us for s in self.samples
                      if s.kind == kind and s.status < 400)
        if not lats:
            return None
        return lats[min(len(lats) - 1, int(p * len(lats)))] / 1000.0

    def class_breakdown(self) -> Dict[str, Dict[str, Any]]:
        by_class: Dict[str, List[int]] = {}
        for sample in self.samples:
            if sample.status < 400:
                by_class.setdefault(sample.request_class, []) \
                    .append(sample.latency_us)
        out: Dict[str, Dict[str, Any]] = {}
        for name, lats in sorted(by_class.items()):
            lats.sort()
            def pick(p: float) -> float:
                return lats[min(len(lats) - 1,
                                int(p * len(lats)))] / 1000.0
            out[name] = {"requests": len(lats),
                         "latency_ms": {"p50": pick(0.50),
                                        "p95": pick(0.95),
                                        "p99": pick(0.99)}}
        return out

    def slowest(self, n: int = 5) -> List[Dict[str, Any]]:
        ranked = sorted(self.samples, key=lambda s: -s.latency_us)[:n]
        return [{"latency_us": s.latency_us, "kind": s.kind,
                 "status": s.status, "trace_id": s.trace_id}
                for s in ranked]

    def to_payload(self) -> Dict[str, Any]:
        lats = self._latencies()
        served: Dict[str, int] = {}
        for sample in self.samples:
            if sample.served:
                served[sample.served] = served.get(sample.served, 0) + 1
        return {
            "schema": 3,
            "mode": self.mode,
            "requests": len(self.samples),
            "concurrency": self.concurrency,
            "target_rate_rps": self.target_rate,
            "wall_time_s": round(self.wall_time_s, 3),
            "throughput_rps": round(self.throughput_rps, 1),
            "status_counts": self.status_counts,
            "served_by": served,
            "transport_errors": dict(self.errors),
            "latency_ms": {
                "p50": self.percentile_ms(0.50),
                "p95": self.percentile_ms(0.95),
                "p99": self.percentile_ms(0.99),
                "p99.9": self.percentile_ms(0.999),
                "mean": (round(sum(lats) / len(lats) / 1000.0, 3)
                         if lats else None),
                "max": (lats[-1] / 1000.0) if lats else None,
            },
            "classes": self.class_breakdown(),
            "slowest": self.slowest(),
        }


def _temperature(payload: Any) -> str:
    """Classify a response as warm (answered from a cache tier or a
    coalesced flight) or cold (actually simulated)."""
    if not isinstance(payload, dict):
        return ""
    if payload.get("served") in ("lru", "coalesced", "inline"):
        return "warm"
    result = payload.get("result")
    if isinstance(result, dict):
        if "cache_hit" in result:
            return "warm" if result["cache_hit"] else "cold"
        jobs = result.get("jobs")
        if isinstance(jobs, list) and jobs:
            return "warm" if all(j.get("cache_hit")
                                 for j in jobs) else "cold"
    return "cold" if payload.get("served") == "worker" else ""


async def _issue(client: AsyncServeClient, kind: str,
                 body: Dict[str, Any], report: LoadReport,
                 timeout_s: float,
                 ids: Optional[IdSource] = None) -> None:
    ctx = TraceContext(ids.trace_id(), ids.span_id()) \
        if ids is not None else None
    start = time.perf_counter()
    try:
        status, payload = await asyncio.wait_for(
            client.raw_status("POST", f"/v1/{kind}", body,
                              trace_ctx=ctx),
            timeout=timeout_s)
        served = payload.get("served", "") if isinstance(payload, dict) \
            else ""
    except (ConnectionError, OSError, asyncio.IncompleteReadError,
            asyncio.TimeoutError, ServeError) as exc:
        await client.close()
        name = type(exc).__name__
        report.errors[name] = report.errors.get(name, 0) + 1
        return
    report.samples.append(Sample(
        kind=kind, status=status, served=served,
        temp=_temperature(payload),
        trace_id=ctx.trace_id if ctx is not None else "",
        latency_us=int((time.perf_counter() - start) * 1e6)))


async def _closed_loop(host: str, port: int, *, requests: int,
                       concurrency: int, mix: List[MixItem],
                       seed: int, timeout_s: float,
                       trace: bool = False) -> LoadReport:
    report = LoadReport(mode="closed", concurrency=concurrency)
    issued = {"n": 0}
    start = time.perf_counter()

    async def lane(lane_id: int) -> None:
        rng = random.Random((seed << 8) | lane_id)
        ids = IdSource((seed << 16) | lane_id) if trace else None
        client = AsyncServeClient(host, port, timeout_s=timeout_s)
        try:
            while issued["n"] < requests:
                issued["n"] += 1
                kind, body = _pick(mix, rng).make_body(rng)
                await _issue(client, kind, body, report, timeout_s,
                             ids)
        finally:
            await client.close()

    await asyncio.gather(*[lane(i) for i in range(concurrency)])
    report.wall_time_s = time.perf_counter() - start
    report.requests = len(report.samples)
    return report


async def _open_loop(host: str, port: int, *, requests: int,
                     rate: float, mix: List[MixItem], seed: int,
                     timeout_s: float,
                     max_outstanding: int = 256,
                     trace: bool = False) -> LoadReport:
    report = LoadReport(mode="open", target_rate=rate,
                        concurrency=max_outstanding)
    rng = random.Random(seed)
    ids = IdSource(seed << 16) if trace else None
    interval = 1.0 / rate
    gate = asyncio.Semaphore(max_outstanding)
    tasks: List[asyncio.Task] = []
    start = time.perf_counter()

    async def one(kind: str, body: Dict[str, Any]) -> None:
        client = AsyncServeClient(host, port, timeout_s=timeout_s)
        try:
            await _issue(client, kind, body, report, timeout_s, ids)
        finally:
            await client.close()
            gate.release()

    for index in range(requests):
        target = start + index * interval
        delay = target - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        kind, body = _pick(mix, rng).make_body(rng)
        await gate.acquire()
        tasks.append(asyncio.ensure_future(one(kind, body)))
    await asyncio.gather(*tasks)
    report.wall_time_s = time.perf_counter() - start
    report.requests = len(report.samples)
    return report


def run_loadgen(host: str = "127.0.0.1", port: int = 8787, *,
                mode: str = "closed", requests: int = 200,
                concurrency: int = 8, rate: float = 100.0,
                seed: int = 0, timeout_s: float = 30.0,
                include_errors: bool = False,
                trace: bool = False,
                mix: Optional[List[MixItem]] = None) -> LoadReport:
    """Drive the daemon and return a :class:`LoadReport`."""
    mix = mix if mix is not None else default_mix(include_errors)
    if mode == "closed":
        coro = _closed_loop(host, port, requests=requests,
                            concurrency=concurrency, mix=mix,
                            seed=seed, timeout_s=timeout_s,
                            trace=trace)
    elif mode == "open":
        coro = _open_loop(host, port, requests=requests, rate=rate,
                          mix=mix, seed=seed, timeout_s=timeout_s,
                          trace=trace)
    else:
        raise ValueError(f"mode must be 'closed' or 'open', not {mode!r}")
    return asyncio.run(coro)


def write_report(report: LoadReport,
                 path: Path = Path(DEFAULT_OUTPUT),
                 extra: Optional[Dict[str, Any]] = None) -> Path:
    payload = report.to_payload()
    if extra:
        payload.update(extra)
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def gate_failures(report: LoadReport, *, zero_5xx: bool = False,
                  max_p99_ms: Optional[float] = None,
                  max_estimate_p99_ms: Optional[float] = None,
                  min_throughput: Optional[float] = None) -> List[str]:
    """One message per gate *report* fails; empty when it passes all.

    A gate left at its default is not checked.  *zero_5xx* fails on any
    5xx answer or transport error.  The latency gates read successful
    requests only, and fail when there is none to read.  The throughput
    gate compares the report's rounded ``throughput_rps``.
    """
    failures: List[str] = []
    counts = report.status_counts
    if zero_5xx and counts.get("5xx", 0):
        failures.append(f"{counts['5xx']} 5xx responses")
    if zero_5xx and report.errors:
        failures.append(f"transport errors: {report.errors}")
    if max_p99_ms is not None:
        p99 = report.percentile_ms(0.99)
        if p99 is None:
            failures.append("no successful requests to gate")
        elif p99 > max_p99_ms:
            failures.append(f"p99 {p99:.1f}ms exceeds {max_p99_ms}ms")
    if max_estimate_p99_ms is not None:
        est_p99 = report.kind_percentile_ms("estimate", 0.99)
        if est_p99 is None:
            failures.append("no successful estimate requests to gate")
        elif est_p99 > max_estimate_p99_ms:
            failures.append(f"estimate p99 {est_p99:.1f}ms exceeds "
                            f"{max_estimate_p99_ms}ms")
    throughput = round(report.throughput_rps, 1)
    if min_throughput is not None and throughput < min_throughput:
        failures.append(f"throughput {throughput} req/s below "
                        f"{min_throughput}")
    return failures
