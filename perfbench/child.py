"""Child-process entry points (run with ``PYTHONPATH=src``).

``campaign``  one cold ``run_campaign`` over the grid (or, with
              ``--setup-only``, just the imports it needs)
``serve``     the benchmark-owned daemon launcher: ``ServeDaemon``
              with a response LRU smaller than the serve-warm
              working set, one pool worker and an ephemeral port
``check``     reference-engine cycles and commits of inline programs
``prefill``   the serve-warm result and feature cache

Each prints ``ready`` once it can take work (the daemon: its
``serving on`` line) and its answer as one ``RESULT <json>`` line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from common import (
    GRID_CORE,
    MODES,
    SERVE_WORKERS,
    grid_scales,
    host_probe_ms,
    job_label,
)


def _grid_jobs():
    from repro.campaign.jobs import CampaignJob
    return [CampaignJob(suite, bench, GRID_CORE, mode, scale=scale)
            for suite, bench, scale in grid_scales() for mode in MODES]


def _emit(payload) -> None:
    print("RESULT " + json.dumps(payload), flush=True)


def cmd_campaign(args: argparse.Namespace) -> None:
    from repro.campaign.runner import run_campaign
    jobs = _grid_jobs()
    print("ready", flush=True)
    if args.setup_only:
        return
    timers = None
    if args.trace:
        from layers import Timers, install_campaign_timers
        timers = Timers()
        install_campaign_timers(timers)
    probe = [host_probe_ms()]
    start = time.perf_counter()
    result = run_campaign(jobs, workers=1, cache_dir=Path(args.cache))
    op_time = time.perf_counter() - start
    probe.append(host_probe_ms())
    payload = {
        "op_time_s": op_time,
        "jobs": [[job_label(r.suite, r.bench, r.mode), r.cycles,
                  r.committed, sum(r.spans.values())]
                 for r in result.records],
        "probe_ms": probe,
    }
    if timers is not None:
        from layers import campaign_ledger, campaign_layers
        payload["layers"] = campaign_layers(timers.stats, op_time)
        payload["ledger"] = campaign_ledger(timers.stats, op_time)
    _emit(payload)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import ServeConfig, ServeDaemon

    from streams import LRU_SIZE
    trace_dir = Path(args.trace_dir) if args.trace_dir else None
    if trace_dir is not None:
        from layers import install_put_log, install_serve_spans
        trace_dir.mkdir(parents=True, exist_ok=True)
        install_put_log(trace_dir)
        install_serve_spans()
    config = ServeConfig(host="127.0.0.1", port=0, workers=SERVE_WORKERS,
                         cache_dir=Path(args.cache), lru_size=LRU_SIZE,
                         trace_dir=trace_dir)
    return ServeDaemon(config).run(
        announce=lambda message: print(message, flush=True))


def cmd_check(args: argparse.Namespace) -> None:
    from dataclasses import replace

    from repro.core import CORES, RecycleMode
    from repro.core.cpu import simulate
    from repro.isa.textasm import assemble_text
    from repro.pipeline.trace import generate_trace

    with open(args.programs, encoding="utf-8") as fh:
        programs = json.load(fh)
    print("ready", flush=True)
    answers = {}
    for item in programs:
        trace = generate_trace(assemble_text(item["asm"],
                                             name=item["name"]))
        config = replace(CORES[GRID_CORE].with_mode(
            RecycleMode(item["mode"])), engine="reference")
        result = simulate(trace, config)
        answers[item["name"]] = [result.cycles, result.stats.committed]
    _emit(answers)


def cmd_prefill(args: argparse.Namespace) -> None:
    """Fill a result + feature cache with the whole grid and check the
    results against ``expected.json`` before marking it usable."""
    from repro.campaign.cache import ResultCache
    from repro.campaign.runner import run_campaign
    from repro.core import CORES, RecycleMode
    from repro.predict.service import cached_features

    from common import load_expected

    print("ready", flush=True)
    out = Path(args.out)
    result = run_campaign(_grid_jobs(), workers=1, cache_dir=out)
    expected = load_expected()
    wrong = [job_label(r.suite, r.bench, r.mode) for r in result.records
             if expected.get(job_label(r.suite, r.bench, r.mode))
             != {"cycles": r.cycles, "committed": r.committed}]
    if wrong:
        raise SystemExit(f"pre-fill results differ from expected.json: "
                         f"{wrong}")
    cache = ResultCache(out)
    config = CORES[GRID_CORE].with_mode(RecycleMode.BASELINE)
    for suite, bench, scale in grid_scales():
        cached_features({"suite": suite, "bench": bench, "scale": scale},
                        config, cache)
    _emit({"jobs": len(result.records)})


def main() -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="command", required=True)
    campaign = sub.add_parser("campaign")
    campaign.add_argument("--cache", required=True)
    campaign.add_argument("--trace", type=int, default=0)
    campaign.add_argument("--setup-only", action="store_true")
    serve = sub.add_parser("serve")
    serve.add_argument("--cache", required=True)
    serve.add_argument("--trace-dir", default=None)
    check = sub.add_parser("check")
    check.add_argument("--programs", required=True)
    prefill = sub.add_parser("prefill")
    prefill.add_argument("--out", required=True)
    args = parser.parse_args()
    handler = {"campaign": cmd_campaign, "serve": cmd_serve,
               "check": cmd_check, "prefill": cmd_prefill}[args.command]
    return handler(args) or 0


if __name__ == "__main__":
    sys.exit(main())
