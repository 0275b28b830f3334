"""The repository benchmark: three workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload campaign-cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (host time, tracing off);
``--trace 1`` makes one untraced and one traced measurement and prints
the per-layer metrics.  The last stdout line is the result object; the
line before it is the run record (set-up samples, host-speed probe,
ledger shares, first failures), a diagnostic only.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import shutil
import signal
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from common import (
    BENCH_DIR,
    GRID_CORE,
    MODES,
    SCALE_DIVISOR,
    SERVE_LANES,
    SETUP_SAMPLES,
    ROOT,
    SRC,
    WORK,
    Child,
    grid_scales,
    have_source,
    host_probe_ms,
    job_label,
    load_expected,
    median,
    percentile,
    reap_all,
)

CHILD = str(BENCH_DIR / "child.py")
#: serve metrics are medians over this many equal parts of the window
SUB_WINDOWS = 4


class Run:
    """Everything one benchmark run accumulates."""

    def __init__(self, args: argparse.Namespace, run_dir: Path) -> None:
        self.args = args
        self.dir = run_dir
        self.setup_s: List[float] = []
        self.maxrss_kb: List[int] = []
        self.probe_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: traced runs: layer -> seconds of op time (plus "op_time")
        self.ledger: Dict[str, float] = {}
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.dir / f"{stem}-{self._serial}"

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def reaped(self, child: Child, timeout_s: float = 30.0) -> int:
        code = child.reap(timeout_s)
        self.maxrss_kb.append(child.maxrss_kb)
        return code

    def e2e(self, ops_per_s: float, latencies_ms: List[List[float]]
            ) -> Dict[str, float]:
        """End-to-end metrics; latency percentiles are medians over the
        given groups of samples."""
        def pct(q: float) -> float:
            return median([percentile(group, q) for group in latencies_ms])
        return {
            "setup_s": median(self.setup_s),
            "ops_per_s": ops_per_s,
            "latency_p50_ms": pct(50),
            "latency_p90_ms": pct(90),
            "peak_rss_mb": max(self.maxrss_kb) / 1024.0,
        }


# -- campaign-cold -----------------------------------------------------

def _campaign_pass(run: Run, traced: bool) -> Dict[str, Any]:
    child = Child([CHILD, "campaign", "--cache", str(run.path("cache")),
                   "--trace", str(int(traced))],
                  stderr_path=run.path("campaign.err"))
    child.expect("ready", 60)
    run.setup_s.append(time.perf_counter() - child.started)
    payload = json.loads(child.expect("RESULT ", 170)[len("RESULT "):])
    if run.reaped(child) != 0:
        raise RuntimeError("campaign child failed")
    run.probe_ms.extend(payload["probe_ms"])
    expected = load_expected()
    for label, cycles, committed, _ in payload["jobs"]:
        run.attempted += 1
        if expected.get(label) != {"cycles": cycles,
                                   "committed": committed}:
            run.fail(f"{label}: cycles={cycles} committed={committed}")
    return payload


def campaign_cold(run: Run) -> Dict[str, float]:
    for _ in range(SETUP_SAMPLES - 1):
        child = Child([CHILD, "campaign", "--cache", str(run.path("cache")),
                       "--setup-only"])
        child.expect("ready", 60)
        run.setup_s.append(time.perf_counter() - child.started)
        run.reaped(child)

    if run.args.trace:
        plain = _campaign_pass(run, traced=False)
        traced = _campaign_pass(run, traced=True)
        layers = dict(traced["layers"])
        run.ledger = traced["ledger"]
        plain_rate = len(plain["jobs"]) / plain["op_time_s"]
        traced_rate = len(traced["jobs"]) / traced["op_time_s"]
        layers["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate
        return layers

    passes = []
    while not passes or sum(p["op_time_s"] for p in passes) \
            < run.args.seconds:
        passes.append(_campaign_pass(run, traced=False))
    jobs = sum(len(p["jobs"]) for p in passes)
    op_time = sum(p["op_time_s"] for p in passes)
    # time to results: each job's service time summed over the jobs
    # evaluated up to it, so a percentile reads how long the grid takes
    # to deliver that share of its results, not one job's time
    done_ms = [list(itertools.accumulate(1000.0 * job[3]
                                         for job in p["jobs"]))
               for p in passes]
    return run.e2e(jobs / op_time, done_ms)


# -- serve: daemon, client lanes, metrics ------------------------------

class Daemon:
    """One benchmark-owned serve daemon process."""

    def __init__(self, run: Run, cache_dir: Path,
                 trace_dir: Optional[Path] = None) -> None:
        self.run = run
        args = [CHILD, "serve", "--cache", str(cache_dir)]
        if trace_dir is not None:
            args += ["--trace-dir", str(trace_dir)]
        self.child = Child(args, stderr_path=run.path("daemon.err"))
        line = self.child.expect("serving on http://", 60)
        run.setup_s.append(time.perf_counter() - self.child.started)
        self.port = int(line.split("http://", 1)[1].split()[0]
                        .rsplit(":", 1)[1])

    def counters(self) -> Dict[str, float]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=30)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode()
        finally:
            conn.close()
        values = {}
        for line in text.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0].startswith("redsoc_serve_"):
                values[parts[0][len("redsoc_"):]] = float(parts[1])
        return values

    def stop(self) -> None:
        self.child.proc.send_signal(signal.SIGTERM)
        if self.run.reaped(self.child, 30.0) != 0:
            raise RuntimeError("serve daemon did not drain cleanly")


class Stream:
    """A seeded stream materialised ahead of the timed window (and
    extended on demand) so the lanes do no generation work."""

    def __init__(self, source: Iterator, ahead: int) -> None:
        self._source = source
        self.items = [next(source) for _ in range(ahead)]

    def __getitem__(self, index: int):
        while index >= len(self.items):
            self.items.append(next(self._source))
        return self.items[index]


def _post(conn: http.client.HTTPConnection, kind: str, body: bytes,
          headers: Dict[str, str]) -> Tuple[int, bytes]:
    conn.request("POST", f"/v1/{kind}", body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def drive(port: int, stream: Stream, seconds: float, seed: int,
          traced: bool) -> Tuple[List[Dict[str, Any]], float]:
    """Closed loop: ``SERVE_LANES`` lanes, each sending its next request
    when the previous answer arrived, until *seconds* have passed."""
    lock = threading.Lock()
    counter = [0]
    records: List[Dict[str, Any]] = []
    start = time.perf_counter()
    deadline = start + seconds

    def lane() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    index = counter[0]
                    counter[0] += 1
                kind, body, check = stream[index]
                headers = {"content-type": "application/json"}
                trace_id = f"{seed % (1 << 32):08x}{index + 1:024x}"
                if traced:
                    headers["traceparent"] = \
                        f"00-{trace_id}-{index + 1:016x}-01"
                sent = time.perf_counter()
                try:
                    status, data = _post(conn, kind, body, headers)
                except (OSError, http.client.HTTPException) as exc:
                    # counted as a failed op; reconnect for the next one
                    status, data = 0, json.dumps(
                        {"error": repr(exc)}).encode()
                    conn.close()
                done = time.perf_counter()
                records.append({
                    "index": index, "kind": kind, "check": check,
                    "status": status, "data": data, "done": done,
                    "latency_ms": (done - sent) * 1000.0,
                    "trace_id": trace_id})
        finally:
            conn.close()

    lanes = [threading.Thread(target=lane) for _ in range(SERVE_LANES)]
    for thread in lanes:
        thread.start()
    for thread in lanes:
        thread.join(seconds + 90)
    records.sort(key=lambda rec: rec["index"])
    for rec in records:
        rec["done"] -= start
        rec["body"] = json.loads(rec.pop("data") or b"{}")
    return records, max(rec["done"] for rec in records)


def sub_windows(records: List[Dict[str, Any]], window: float
                ) -> Tuple[float, List[List[float]]]:
    """Split the timed window into ``SUB_WINDOWS`` equal parts by
    completion time: the median part's throughput, and each part's
    latencies.  A slow stretch of the host then spoils one part, not
    the run's figures."""
    width = window / SUB_WINDOWS
    parts: List[List[float]] = [[] for _ in range(SUB_WINDOWS)]
    for rec in records:
        part = min(int(rec["done"] / width), SUB_WINDOWS - 1)
        parts[part].append(rec["latency_ms"])
    return median([len(part) / width for part in parts]), parts


def warm_up(port: int, items) -> None:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        for kind, body, _ in items:
            status, data = _post(conn, kind, body,
                                 {"content-type": "application/json"})
            if status != 200:
                raise RuntimeError(f"warm-up {kind} failed: {status} "
                                   f"{data[:200]!r}")
    finally:
        conn.close()


def session(run: Run, cache_dir: Path, stream: Stream, warm_items,
            traced: bool) -> Dict[str, Any]:
    """Spawn a daemon, warm it up, drive the timed window, drain it."""
    trace_dir = run.path("spans") if traced else None
    daemon = Daemon(run, cache_dir, trace_dir)
    try:
        warm_up(daemon.port, warm_items)
        run.probe_ms.append(host_probe_ms())
        before = daemon.counters()
        records, window = drive(daemon.port, stream, run.args.seconds,
                                run.args.seed, traced)
        after = daemon.counters()
        run.probe_ms.append(host_probe_ms())
    finally:
        daemon.stop()
    counts = {name: after.get(name, 0.0) - before.get(name, 0.0)
              for name in after}
    out = {"records": records, "window": window, "counts": counts}
    if trace_dir is not None:
        from layers import read_put_log
        with open(trace_dir / "spans.jsonl", encoding="utf-8") as fh:
            out["spans"] = [json.loads(line) for line in fh if line.strip()]
        out["put_s"] = read_put_log(trace_dir)
    return out


def serve_e2e_or_layers(run: Run, make_cache: Callable[[], Path],
                        stream: Stream, warm_items,
                        check: Callable[[List[Dict[str, Any]],
                                         Dict[str, float]], None]
                        ) -> Dict[str, float]:
    for _ in range(SETUP_SAMPLES - 1):
        Daemon(run, make_cache()).stop()
    plain = session(run, make_cache(), stream, warm_items, traced=False)
    check(plain["records"], plain["counts"])
    plain_rate = len(plain["records"]) / plain["window"]
    if not run.args.trace:
        return run.e2e(*sub_windows(plain["records"], plain["window"]))

    from layers import serve_layers
    traced = session(run, make_cache(), stream, warm_items, traced=True)
    check(traced["records"], traced["counts"])
    records = traced["records"]
    for rec in records:
        result = rec["body"].get("result", {})
        rec["served"] = rec["body"].get("served")
        rec["predict_latency_us"] = result.get("predict_latency_us", 0)
        rec["instrs"] = result.get("committed", 0)
    layers, run.ledger = serve_layers(traced["spans"], records,
                                      traced["window"])
    counts = traced["counts"]
    n = len(records)
    lookups = counts.get("serve_cache_hits", 0.0) + \
        counts.get("serve_cache_misses", 0.0)
    estimates = [rec["predict_latency_us"] for rec in records
                 if rec["kind"] == "estimate"]
    layers.update({
        "campaign.cache_put_s": traced["put_s"],
        "predict.estimate_us": median(estimates),
        "serve.requests": n,
        "serve.lru_hit_ratio":
            sum(rec["served"] == "lru" for rec in records) / n,
        "serve.cache_lookups": lookups,
        "serve.cache_hit_ratio":
            counts.get("serve_cache_hits", 0.0) / lookups if lookups
            else 0.0,
        "serve.inline_estimate_ratio":
            sum(rec["served"] == "inline" for rec in records) / n,
        "serve.coalesced_ratio":
            sum(rec["served"] == "coalesced" for rec in records) / n,
        "trace.overhead_frac":
            1.0 - (n / traced["window"]) / plain_rate,
    })
    return layers


# -- serve-warm --------------------------------------------------------

def prefill_key() -> str:
    """Digest of every program source file under ``src/repro``, the
    grid and ``expected.json``: the model, the predictor, trace
    generation, the workloads and the cache format all shape the
    pre-fill, so a change to any of them rebuilds it."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sha.update(path.relative_to(SRC).as_posix().encode())
        sha.update(path.read_bytes())
    sha.update(json.dumps([grid_scales(), GRID_CORE]).encode())
    sha.update((BENCH_DIR / "expected.json").read_bytes())
    return sha.hexdigest()[:16]


def _prefill_dir() -> Path:
    """The serve-warm cache for this source tree, built on first use
    (outside every run's timing) and reused while :func:`prefill_key`
    stays the same."""
    key = prefill_key()
    target = WORK / f"prefill-{key}"
    if (target / "READY").is_file():
        return target
    for stale in WORK.glob("prefill-*"):
        shutil.rmtree(stale, ignore_errors=True)
    building = WORK / f"prefill-{key}.tmp{os.getpid()}"
    child = Child([CHILD, "prefill", "--out", str(building)],
                  stderr_path=WORK / "prefill.err")
    child.expect("RESULT ", 600)
    if child.reap(60) != 0:
        raise RuntimeError("serve-warm pre-fill failed; see "
                           f"{WORK / 'prefill.err'}")
    (building / "READY").write_text("ok\n")
    building.rename(target)
    return target


def _expected_estimates(prefill: Path) -> Dict[str, Dict[str, Any]]:
    """In-process ``repro.predict.predict`` over the pre-filled
    features: what every serve-warm estimate must equal."""
    from repro.campaign.cache import ResultCache
    from repro.core import CORES, RecycleMode
    from repro.predict import default_calibration, predict
    from repro.predict.service import cached_features

    cache = ResultCache(prefill)
    calibration = default_calibration()
    expected = {}
    for suite, bench, scale in grid_scales():
        hit = cached_features(
            {"suite": suite, "bench": bench, "scale": scale},
            CORES[GRID_CORE].with_mode(RecycleMode.BASELINE), cache,
            allow_generate=False)
        if hit is None:
            raise RuntimeError(f"pre-fill lacks features for "
                               f"{suite}/{bench}")
        for mode in MODES:
            config = CORES[GRID_CORE].with_mode(RecycleMode(mode))
            expected[job_label(suite, bench, mode)] = predict(
                hit["features"], config, mode, calibration=calibration,
                confidence=0.9).to_payload()
    return expected


def serve_warm(run: Run) -> Dict[str, float]:
    from streams import warm_stream, warm_up_requests
    prefill = _prefill_dir()
    expected = load_expected()
    estimates = _expected_estimates(prefill)

    def make_cache() -> Path:
        target = run.path("cache")
        shutil.copytree(prefill, target)
        return target

    def check_job(label: str, job: Dict[str, Any]) -> bool:
        return (expected.get(label) == {"cycles": job.get("cycles"),
                                        "committed": job.get("committed")}
                and job.get("cache_hit") is True
                and "simulate" not in job.get("spans", {}))

    def check(records: List[Dict[str, Any]],
              counts: Dict[str, float]) -> None:
        for rec in records:
            run.attempted += 1
            result = rec["body"].get("result")
            if rec["status"] != 200 or result is None:
                ok = False
            elif rec["kind"] == "simulate":
                ok = check_job(rec["check"], result)
            elif rec["kind"] == "sweep":
                ok = [job.get("mode") for job in result["jobs"]] \
                    == list(MODES) and all(
                        check_job(f"{rec['check']}:{job['mode']}", job)
                        for job in result["jobs"])
            else:
                want = estimates[rec["check"]]
                ok = all(result.get(k) == v for k, v in want.items())
            if not ok:
                run.fail(f"{rec['kind']} {rec['check']}: "
                         f"{rec['status']} {str(rec['body'])[:300]}")
        misses = int(counts.get("serve_cache_misses", 0.0))
        for _ in range(misses):
            run.fail("serve.cache_misses increased (a request simulated)")

    grid = grid_scales()
    ahead = max(2000, 400 * run.args.seconds)
    stream = Stream(warm_stream(run.args.seed, grid), ahead)
    return serve_e2e_or_layers(run, make_cache, stream,
                               warm_up_requests(grid), check)


# -- serve-cold --------------------------------------------------------

def _reference_answers(run: Run, records: List[Dict[str, Any]]
                       ) -> Dict[str, List[int]]:
    """Reference-engine cycles/commits for every program, computed in
    two child processes after the timed window."""
    programs = []
    for rec in records:
        body = json.loads(rec["request"])
        programs.append({"name": body["name"], "asm": body["asm"],
                         "mode": body["mode"]})
    children = []
    for part in range(2):
        path = run.path("programs.json")
        path.write_text(json.dumps(programs[part::2]))
        children.append(Child([CHILD, "check", "--programs", str(path)],
                              stderr_path=run.path("check.err")))
    answers: Dict[str, List[int]] = {}
    for child in children:
        answers.update(json.loads(
            child.expect("RESULT ", 120)[len("RESULT "):]))
        if child.reap(30) != 0:
            raise RuntimeError("reference check failed")
    return answers


def serve_cold(run: Run) -> Dict[str, float]:
    from streams import cold_stream, cold_warm_up_requests

    def make_cache() -> Path:
        target = run.path("cache")
        target.mkdir()
        return target

    def check(records: List[Dict[str, Any]],
              counts: Dict[str, float]) -> None:
        for rec in records:
            rec["request"] = stream[rec["index"]][1]
        answers = _reference_answers(run, records)
        for rec in records:
            run.attempted += 1
            result = rec["body"].get("result") or {}
            ok = (rec["status"] == 200
                  and result.get("cache_hit") is False
                  and answers.get(rec["check"])
                  == [result.get("cycles"), result.get("committed")])
            if not ok:
                run.fail(f"{rec['check']}: {rec['status']} "
                         f"{str(rec['body'])[:300]}")

    ahead = max(200, 60 * run.args.seconds)
    stream = Stream(cold_stream(run.args.seed), ahead)
    return serve_e2e_or_layers(run, make_cache, stream,
                               cold_warm_up_requests(run.args.seed),
                               check)


def ledger_shares(ledger: Dict[str, float]) -> Dict[str, float]:
    """Each layer's share of op time, largest first (the first entry
    names the workload's top layer)."""
    op_time = ledger.get("op_time", 0.0)
    if not op_time:
        return {}
    layers = sorted(((seconds / op_time, layer)
                     for layer, seconds in ledger.items()
                     if layer != "op_time"), reverse=True)
    return {layer: share for share, layer in layers}


WORKLOADS = {"campaign-cold": campaign_cold, "serve-warm": serve_warm,
             "serve-cold": serve_cold}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not have_source():
        print(f"error: no program source under {SRC}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    WORK.mkdir(exist_ok=True)
    run = Run(args, WORK / f"run-{os.getpid()}")
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir()
    try:
        values = WORKLOADS[args.workload](run)
    finally:
        reap_all()
        shutil.rmtree(run.dir, ignore_errors=True)

    # every metric BENCHMARK.json lists for this kind of run; a layer
    # that is not on the workload's path reports 0
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in listed}
    shares = ledger_shares(run.ledger)
    for layer, share in shares.items():
        print(f"ledger {args.workload}: {layer:24s} {share:7.2%}",
              file=sys.stderr)
    print(json.dumps({"run_record": {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "scale_divisor": SCALE_DIVISOR,
        "setup_samples_s": run.setup_s,
        "host_probe_ms": run.probe_ms,
        "ledger_shares": shares,
        "failures": run.failures}}))
    print(json.dumps({"correct": run.failed == 0,
                      "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
