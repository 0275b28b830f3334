"""``python -m repro.serve`` — start, status, loadgen.

Examples::

    # start the daemon (ctrl-C or SIGTERM drains gracefully)
    python -m repro.serve start --port 8787 --workers 4

    # one-line health + queue/worker overview of a running daemon
    python -m repro.serve status --port 8787

    # closed-loop: 8 lanes, 500 requests, write BENCH_serve.json
    python -m repro.serve loadgen --requests 500 --concurrency 8

    # open-loop at 250 req/s against a daemon it spawns itself,
    # failing (exit 1) on any 5xx or a p99 above 150 ms
    python -m repro.serve loadgen --spawn --mode open --rate 250 \
        --requests 1000 --assert-zero-5xx --max-p99-ms 150

``loadgen``'s exit-1 gates are :func:`repro.serve.loadgen.gate_failures`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.obs.log import stderr_logger, stdlib_logs_to

from .app import ServeConfig, ServeDaemon
from .client import ServeClient, ServeError
from .loadgen import DEFAULT_OUTPUT, estimate_mix, gate_failures, \
    run_loadgen, write_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="ReDSOC simulation-as-a-service daemon, status "
                    "probe and load generator.")
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run the daemon (foreground)")
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument("--port", type=int, default=8787,
                       help="0 picks an ephemeral port (announced on "
                            "stdout)")
    start.add_argument("--workers", type=int,
                       default=max(2, (os.cpu_count() or 2) // 2),
                       help="simulation worker processes")
    start.add_argument("--cache-dir", type=Path, default=None,
                       help="shared result cache (default: "
                            "$REDSOC_CACHE_DIR or ./.redsoc-cache)")
    start.add_argument("--queue-depth", type=int, default=256,
                       help="admission queue bound (429 beyond this)")
    start.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="S", help="drain budget on SIGTERM")
    start.add_argument("--debug", action="store_true",
                       help="enable /v1/chaos/* fault injection")
    start.add_argument("--trace-dir", type=Path, default=None,
                       help="enable request tracing; spans stream to "
                            "<dir>/spans.jsonl")
    start.add_argument("--log-json", action="store_true",
                       help="structured JSON log lines on stderr")

    status = sub.add_parser("status", help="query a running daemon")
    status.add_argument("--host", default="127.0.0.1")
    status.add_argument("--port", type=int, default=8787)
    status.add_argument("--json", action="store_true",
                        help="raw JSON instead of the summary line")

    loadgen = sub.add_parser("loadgen", help="generate load + report")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8787)
    loadgen.add_argument("--spawn", action="store_true",
                         help="start a private daemon for the run and "
                              "SIGTERM-drain it afterwards")
    loadgen.add_argument("--spawn-workers", type=int, default=2,
                         help="workers for the spawned daemon")
    loadgen.add_argument("--cache-dir", type=Path, default=None,
                         help="cache dir for the spawned daemon")
    loadgen.add_argument("--mode", choices=("closed", "open"),
                         default="closed")
    loadgen.add_argument("--requests", "-n", type=int, default=200)
    loadgen.add_argument("--concurrency", "-c", type=int, default=8,
                         help="closed-loop lanes")
    loadgen.add_argument("--rate", type=float, default=100.0,
                         help="open-loop arrival rate (req/s)")
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument("--timeout", type=float, default=30.0,
                         metavar="S", help="per-request timeout")
    loadgen.add_argument("--include-errors", action="store_true",
                         help="mix in malformed requests (400 path)")
    loadgen.add_argument("--estimate-only", action="store_true",
                         help="pure estimate mix (measures the "
                              "analytic fast path alone)")
    loadgen.add_argument("--output", "-o", type=Path,
                         default=Path(DEFAULT_OUTPUT))
    loadgen.add_argument("--assert-zero-5xx", action="store_true",
                         help="exit 1 if any 5xx was observed")
    loadgen.add_argument("--max-p99-ms", type=float, default=None,
                         help="exit 1 if p99 latency exceeds this")
    loadgen.add_argument("--max-estimate-p99-ms", type=float,
                         default=None,
                         help="exit 1 if the estimate request class's "
                              "p99 latency exceeds this")
    loadgen.add_argument("--min-throughput", type=float, default=None,
                         metavar="RPS",
                         help="exit 1 if throughput falls below this")
    loadgen.add_argument("--trace", action="store_true",
                         help="send a W3C traceparent with every "
                              "request (report rows then carry "
                              "trace ids)")
    loadgen.add_argument("--trace-dir", type=Path, default=None,
                         help="with --spawn: daemon span export dir "
                              "(implies --trace)")
    return parser


def _cmd_start(args: argparse.Namespace) -> int:
    config = ServeConfig(host=args.host, port=args.port,
                         workers=args.workers,
                         cache_dir=args.cache_dir,
                         queue_depth=args.queue_depth,
                         drain_grace_s=args.drain_grace,
                         debug=args.debug,
                         trace_dir=args.trace_dir,
                         log_json=args.log_json)
    daemon = ServeDaemon(config)

    def announce(message: str) -> None:
        print(message, flush=True)

    logger = stderr_logger(component="serve") if args.log_json else None
    with stdlib_logs_to(logger):
        return daemon.run(announce=announce)


def _cmd_status(args: argparse.Namespace) -> int:
    client = ServeClient(args.host, args.port, timeout_s=5.0,
                         max_retries=0)
    try:
        payload = client.status()
    except ServeError as exc:
        print(f"error: daemon at {args.host}:{args.port} is not "
              f"answering ({exc})", file=sys.stderr)
        return 1
    finally:
        client.close()
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    queue = payload["queue"]
    workers = payload["workers"]
    print(f"{payload['status']} up={payload['uptime_s']:.0f}s "
          f"queue={queue['depth']}/{queue['max_depth']} "
          f"inflight={queue['inflight']} "
          f"workers={len(workers['pids'])}/{workers['configured']} "
          f"lru={payload['lru_entries']} cache={payload['cache_dir']}")
    return 0


def _spawn_daemon(args: argparse.Namespace) -> "subprocess.Popen[str]":
    cmd = [sys.executable, "-m", "repro.serve", "start", "--port", "0",
           "--workers", str(args.spawn_workers)]
    if args.cache_dir is not None:
        cmd += ["--cache-dir", str(args.cache_dir)]
    if getattr(args, "trace_dir", None) is not None:
        cmd += ["--trace-dir", str(args.trace_dir)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    assert proc.stdout is not None
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        if line.startswith("serving on http://"):
            address = line.split("http://", 1)[1].split()[0]
            args.port = int(address.rsplit(":", 1)[1])
            args.host = address.rsplit(":", 1)[0]
            return proc
    proc.kill()
    raise RuntimeError("spawned daemon never announced its port")


def _drain_spawned(proc: "subprocess.Popen[str]") -> float:
    """SIGTERM the daemon; returns the drain wall time (s)."""
    start = time.monotonic()
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=15.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise RuntimeError("spawned daemon did not drain within 15 s")
    return time.monotonic() - start


def _cmd_loadgen(args: argparse.Namespace) -> int:
    proc = None
    drain_s: Optional[float] = None
    if args.spawn:
        proc = _spawn_daemon(args)
    try:
        report = run_loadgen(
            args.host, args.port, mode=args.mode,
            requests=args.requests, concurrency=args.concurrency,
            rate=args.rate, seed=args.seed, timeout_s=args.timeout,
            include_errors=args.include_errors,
            trace=args.trace or args.trace_dir is not None,
            mix=estimate_mix() if args.estimate_only else None)
    finally:
        if proc is not None:
            drain_s = _drain_spawned(proc)
    extra = {"drain_s": round(drain_s, 3)} if drain_s is not None \
        else None
    path = write_report(report, args.output, extra=extra)

    payload = report.to_payload()
    lat = payload["latency_ms"]
    def fmt(v):
        return f"{v:.1f}" if v is not None else "-"
    print(f"{payload['mode']} loop: {payload['requests']} requests in "
          f"{payload['wall_time_s']}s = "
          f"{payload['throughput_rps']} req/s")
    print(f"latency ms: p50={fmt(lat['p50'])} p95={fmt(lat['p95'])} "
          f"p99={fmt(lat['p99'])} p99.9={fmt(lat['p99.9'])} "
          f"max={fmt(lat['max'])}")
    print(f"status: {payload['status_counts']} "
          f"transport errors: {payload['transport_errors']}")
    if drain_s is not None:
        print(f"daemon drained in {drain_s:.2f}s")
    print(f"wrote {path}")

    failures = gate_failures(
        report, zero_5xx=args.assert_zero_5xx,
        max_p99_ms=args.max_p99_ms,
        max_estimate_p99_ms=args.max_estimate_p99_ms,
        min_throughput=args.min_throughput)
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"start": _cmd_start, "status": _cmd_status,
               "loadgen": _cmd_loadgen}[args.command]
    try:
        return handler(args)
    except KeyboardInterrupt:
        return 130
    except (RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
