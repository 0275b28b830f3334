"""``python -m repro.campaign`` — run, report, clean, trace, profile.

Examples::

    # full evaluation grid, sharded over every CPU
    python -m repro.campaign run

    # the CI smoke set (one small benchmark per suite, small core)
    python -m repro.campaign run --smoke --jobs 2

    # one benchmark, two modes, tiny scale (fast sanity check)
    python -m repro.campaign run --suites ml --benchmarks pool0 \
        --modes baseline redsoc --scale 4

    # analytic predictions vs exact runs, CI-gated on accuracy
    python -m repro.campaign predict --max-mape 8 --max-abs-err 15

    # re-render the summary of a previous campaign
    python -m repro.campaign report --input BENCH_campaign.json

    # drop every cached result
    python -m repro.campaign clean

    # trace one job: Perfetto JSON + events JSONL + metrics JSONL
    python -m repro.campaign trace ml/pool0@small:redsoc --scale 4

    # profile one job and print the hottest functions
    python -m repro.campaign profile mibench/bitcnt@small:baseline
"""

from __future__ import annotations

import argparse
import cProfile
import os
import pstats
import re
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import ENGINES
from repro.core.cpu import CoreSimulator, simulate
from repro.obs import Recorder, write_chrome_trace, write_events_jsonl, \
    write_metrics_jsonl

from .cache import ResultCache, default_cache_dir
from .jobs import (
    CORE_ORDER,
    MODE_ORDER,
    SUITE_ORDER,
    CampaignJob,
    enumerate_jobs,
    job_config,
    job_trace,
    smoke_jobs,
)
from .report import load_campaign_json, render_summary, write_campaign_json
from .runner import job_slug, run_campaign

DEFAULT_OUTPUT = "BENCH_campaign.json"

_JOBSPEC = re.compile(
    r"^(?P<suite>[\w-]+)/(?P<bench>[\w-]+)"
    r"@(?P<core>[\w-]+):(?P<mode>[\w-]+)$")


def parse_jobspec(spec: str,
                  scale: Optional[int] = None) -> CampaignJob:
    """Parse ``suite/bench@core:mode`` (a JobRecord label) into a job.

    The one-job grid expansion reuses :func:`enumerate_jobs`, so
    unknown names fail with the same loud error messages as ``run``.
    """
    match = _JOBSPEC.match(spec)
    if match is None:
        raise ValueError(
            f"bad job spec {spec!r}; expected suite/bench@core:mode "
            f"(e.g. ml/pool0@small:redsoc)")
    jobs = enumerate_jobs(suites=[match["suite"]],
                          benchmarks=[match["bench"]],
                          cores=[match["core"]],
                          modes=[match["mode"]], scale=scale)
    if not jobs:
        raise ValueError(f"job spec {spec!r} matches no benchmark in "
                         f"suite {match['suite']!r}")
    return jobs[0]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaign",
        description="Parallel ReDSOC simulation campaigns with a "
                    "persistent result cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a campaign")
    run.add_argument("--suites", nargs="+", metavar="SUITE",
                     help=f"subset of {list(SUITE_ORDER)}")
    run.add_argument("--benchmarks", nargs="+", metavar="BENCH",
                     help="subset of benchmarks within the suites")
    run.add_argument("--cores", nargs="+", metavar="CORE",
                     help=f"subset of {list(CORE_ORDER)}")
    run.add_argument("--modes", nargs="+", metavar="MODE",
                     help=f"subset of {list(MODE_ORDER)}")
    run.add_argument("--scale", type=int, default=None,
                     help="uniform scale override (default: per-suite "
                          "evaluation scales)")
    run.add_argument("--engine", choices=list(ENGINES.names()),
                     default=None,
                     help="pin every job to one simulation backend "
                          "(default: the config default; all engines "
                          "are cycle-identical, so cached results serve "
                          "every engine: add --force to run this one)")
    run.add_argument("--smoke", action="store_true",
                     help="one small benchmark per suite on the small "
                          "core (the CI smoke set)")
    run.add_argument("--jobs", "-j", type=int,
                     default=os.cpu_count() or 1, metavar="N",
                     help="worker processes (default: cpu count)")
    run.add_argument("--cache-dir", type=Path, default=None,
                     help="cache root (default: $REDSOC_CACHE_DIR or "
                          "./.redsoc-cache)")
    run.add_argument("--force", action="store_true",
                     help="re-simulate even on cache hits")
    run.add_argument("--output", "-o", type=Path,
                     default=Path(DEFAULT_OUTPUT),
                     help=f"result JSON path (default: {DEFAULT_OUTPUT})")
    run.add_argument("--quiet", "-q", action="store_true",
                     help="suppress per-job progress and summary")
    run.add_argument("--log-json", action="store_true",
                     help="structured JSON log lines on stderr (one "
                          "per finished job)")
    run.add_argument("--profile-dir", type=Path, default=None,
                     metavar="DIR",
                     help="cProfile every simulated (non-cached) job "
                          "and dump one .pstats file per job here")

    trace = sub.add_parser(
        "trace",
        help="trace one job: Perfetto trace + events/metrics JSONL")
    trace.add_argument("job", metavar="SUITE/BENCH@CORE:MODE",
                       help="job spec, e.g. ml/pool0@small:redsoc")
    trace.add_argument("--scale", type=int, default=None,
                       help="workload scale override")
    trace.add_argument("--out-dir", type=Path, default=Path("traces"),
                       help="output directory (default: ./traces)")

    profile = sub.add_parser(
        "profile", help="cProfile one job and print hot functions")
    profile.add_argument("job", metavar="SUITE/BENCH@CORE:MODE",
                         help="job spec, e.g. mibench/bitcnt@small:mos")
    profile.add_argument("--scale", type=int, default=None,
                         help="workload scale override")
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="functions to print (default: 15)")
    profile.add_argument("--output", "-o", type=Path, default=None,
                         help="also dump raw .pstats here")

    pred = sub.add_parser(
        "predict",
        help="run a grid exactly, predict it analytically, and report "
             "predicted-vs-actual error per job")
    pred.add_argument("--suites", nargs="+", metavar="SUITE",
                      help=f"subset of {list(SUITE_ORDER)}")
    pred.add_argument("--benchmarks", nargs="+", metavar="BENCH",
                      help="subset of benchmarks within the suites")
    pred.add_argument("--cores", nargs="+", metavar="CORE",
                      help=f"subset of {list(CORE_ORDER)}")
    pred.add_argument("--modes", nargs="+", metavar="MODE",
                      help=f"subset of {list(MODE_ORDER)}")
    pred.add_argument("--scale", type=int, default=None,
                      help="uniform scale override")
    pred.add_argument("--jobs", "-j", type=int,
                      default=os.cpu_count() or 1, metavar="N",
                      help="worker processes for the exact runs")
    pred.add_argument("--cache-dir", type=Path, default=None,
                      help="cache root (default: $REDSOC_CACHE_DIR or "
                           "./.redsoc-cache)")
    pred.add_argument("--output", "-o", type=Path,
                      default=Path(DEFAULT_OUTPUT),
                      help=f"result JSON path (default: {DEFAULT_OUTPUT})")
    pred.add_argument("--quiet", "-q", action="store_true",
                      help="suppress per-job progress and summary")
    pred.add_argument("--fit-calibration", type=Path, default=None,
                      metavar="PATH",
                      help="refit the calibration from this matrix and "
                           "save it to PATH before predicting")
    pred.add_argument("--max-mape", type=float, default=None,
                      metavar="PCT",
                      help="fail (exit 1) if full-matrix MAPE exceeds "
                           "this percentage")
    pred.add_argument("--max-abs-err", type=float, default=None,
                      metavar="PCT",
                      help="fail (exit 1) if any job's absolute error "
                           "exceeds this percentage")

    report = sub.add_parser("report",
                            help="summarise an existing campaign JSON")
    report.add_argument("--input", "-i", type=Path,
                        default=Path(DEFAULT_OUTPUT),
                        help=f"campaign JSON (default: {DEFAULT_OUTPUT})")

    clean = sub.add_parser("clean", help="delete the result cache")
    clean.add_argument("--cache-dir", type=Path, default=None,
                       help="cache root (default: $REDSOC_CACHE_DIR or "
                            "./.redsoc-cache)")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.smoke:
        jobs = smoke_jobs(modes=args.modes, scale=args.scale,
                          engine=args.engine)
    else:
        jobs = enumerate_jobs(suites=args.suites,
                              benchmarks=args.benchmarks,
                              cores=args.cores, modes=args.modes,
                              scale=args.scale, engine=args.engine)
    if not jobs:
        print("no jobs selected", file=sys.stderr)
        return 2

    def progress(record):
        if not args.quiet:
            status = "hit " if record.cache_hit else "sim "
            print(f"[{status}] {record.label:40s} "
                  f"cycles={record.cycles:<8d} ipc={record.ipc:.3f} "
                  f"({record.wall_time_s:.2f}s)")

    logger = None
    if args.log_json:
        from repro.obs.log import stderr_logger
        logger = stderr_logger(component="campaign")
    result = run_campaign(jobs, workers=max(1, args.jobs),
                          cache_dir=args.cache_dir, force=args.force,
                          progress=progress,
                          profile_dir=args.profile_dir,
                          logger=logger)
    path = write_campaign_json(result, args.output)
    if not args.quiet:
        print()
        print(render_summary(result.to_payload()))
        print(f"\nwrote {path}")
        if args.profile_dir is not None:
            print(f"profiles in {args.profile_dir}/")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .cache import default_cache_dir
    from .predict import attach_predictions, fit_from_records

    jobs = enumerate_jobs(suites=args.suites,
                          benchmarks=args.benchmarks,
                          cores=args.cores, modes=args.modes,
                          scale=args.scale)
    if not jobs:
        print("no jobs selected", file=sys.stderr)
        return 2

    def progress(record):
        if not args.quiet:
            status = "hit " if record.cache_hit else "sim "
            print(f"[{status}] {record.label:40s} "
                  f"cycles={record.cycles:<8d} "
                  f"({record.wall_time_s:.2f}s)")

    cache_dir = args.cache_dir or default_cache_dir()
    result = run_campaign(jobs, workers=max(1, args.jobs),
                          cache_dir=cache_dir, progress=progress)

    calibration = None
    if args.fit_calibration is not None:
        calibration = fit_from_records(result.records, list(jobs),
                                       cache_dir, args.fit_calibration)
        if not args.quiet:
            print(f"\nrefitted calibration -> {args.fit_calibration}")
    attach_predictions(result.records, list(jobs), cache_dir,
                       calibration=calibration)

    path = write_campaign_json(result, args.output)
    summary = result.predict_summary()
    if not args.quiet:
        print()
        print(render_summary(result.to_payload()))
        print(f"\nwrote {path}")
    if summary is None:     # pragma: no cover - jobs is non-empty here
        print("error: no predictions produced", file=sys.stderr)
        return 2
    print(f"predict: {summary['jobs']} jobs, "
          f"MAPE {summary['mape_pct']:.2f}%, "
          f"worst {summary['max_abs_pct']:.2f}% ({summary['worst']})")
    failed = False
    if args.max_mape is not None and summary["mape_pct"] > args.max_mape:
        print(f"FAIL: MAPE {summary['mape_pct']:.2f}% > "
              f"--max-mape {args.max_mape}", file=sys.stderr)
        failed = True
    if args.max_abs_err is not None \
            and summary["max_abs_pct"] > args.max_abs_err:
        print(f"FAIL: worst error {summary['max_abs_pct']:.2f}% > "
              f"--max-abs-err {args.max_abs_err}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    job = parse_jobspec(args.job, scale=args.scale)
    recorder = Recorder()
    sim = CoreSimulator(job_trace(job), job_config(job), obs=recorder)
    result = sim.run()

    out_dir: Path = args.out_dir
    slug = job_slug(job.label)
    trace_path = write_chrome_trace(recorder.events,
                                    out_dir / f"{slug}.trace.json")
    events_path = write_events_jsonl(recorder.events,
                                     out_dir / f"{slug}.events.jsonl")
    metrics_path = write_metrics_jsonl(sim.metrics,
                                       out_dir / f"{slug}.metrics.jsonl")

    print(f"{job.label}: {result.cycles} cycles, "
          f"ipc={result.ipc:.3f}, {len(recorder)} events")
    print(f"  perfetto trace  {trace_path}")
    print(f"  events jsonl    {events_path}")
    print(f"  metrics jsonl   {metrics_path}")
    print("open the trace at https://ui.perfetto.dev or "
          "chrome://tracing")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    job = parse_jobspec(args.job, scale=args.scale)
    trace = job_trace(job)
    config = job_config(job)

    profiler = cProfile.Profile()
    profiler.enable()
    result = simulate(trace, config)
    profiler.disable()

    print(f"{job.label}: {result.cycles} cycles, "
          f"ipc={result.ipc:.3f}")
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative").print_stats(args.top)
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        stats.dump_stats(args.output)
        print(f"wrote {args.output}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if not args.input.is_file():
        print(f"no campaign JSON at {args.input} "
              f"(run `python -m repro.campaign run` first)",
              file=sys.stderr)
        return 2
    try:
        payload = load_campaign_json(args.input)
        summary = render_summary(payload)
    except (OSError, ValueError, KeyError, TypeError,
            AttributeError) as exc:
        # empty file, torn write, or a document of the wrong shape:
        # one line on stderr, not a traceback
        print(f"error: {args.input} is not a readable campaign JSON "
              f"({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2
    print(summary)
    return 0


def _cmd_clean(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir or default_cache_dir())
    removed = cache.clear()
    print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "predict": _cmd_predict,
               "report": _cmd_report,
               "clean": _cmd_clean, "trace": _cmd_trace,
               "profile": _cmd_profile}[args.command]
    try:
        return handler(args)
    except ValueError as exc:        # bad suite/bench/core/mode names
        print(f"error: {exc}", file=sys.stderr)
        return 2
