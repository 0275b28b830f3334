#!/usr/bin/env python
"""Core-simulator throughput benchmark (sim-cycles per second).

Times every selected ``(suite, bench, core, mode)`` job **per engine**
and two ways per engine:

* **cold** — trace generation plus simulation, the cost of a
  first-ever run of a job (what a forced campaign pays per miss).
  Every engine generates its trace with
  :func:`~repro.pipeline.trace.generate_trace`, the generator campaign
  and serve use, so cold rows differ only by the engine;
* **warm** — simulation alone against a pre-generated trace, the
  steady-state cost once the per-process trace memo is hot.

Each row's measurement is the **minimum of N repeats** (default 3, the
standard ``timeit`` practice): wall-clock on shared runners jitters by
10-20%, and the minimum is the best estimator of the true cost because
noise is strictly additive.  Each engine's aggregate sums the rows'
minima and also reports the **median and interquartile range** of the
per-repeat totals (``<metric>_median`` / ``<metric>_iqr``), so a
committed number carries its spread.  A throwaway warm-up run precedes
timing so allocator and bytecode-cache effects land outside the window.

Results go to ``BENCH_core.json`` (schema 3) with one row per
``(job, engine)``, one aggregate per engine, and the host's CPU count
and Python version.  ``--update-reference`` measures
:data:`UPDATE_PASSES` whole passes and commits, for every engine and
row, each metric's median over the passes: one pass's minima swing by
more than the gate's tolerance on a shared host, so a single pass is
not a steady baseline.  It refuses (exit 2, reference untouched) when
any pass's (or the median's) cold or warm quanta spread — IQR over
median of the per-repeat totals — exceeds :data:`MAX_SPREAD`: a number
that noisy is not worth committing.  ``--check`` gates against a
committed reference (``benchmarks/core_reference.json``):

* per-engine aggregate cold and warm cost must stay within
  ``--tolerance`` (default 10%) of the reference **in
  machine-normalised units** — a short pure-Python calibration probe is
  timed immediately before every repeat, each repeat's wall time is
  expressed in multiples of its adjacent probe ("quanta"), and the gate
  compares min-of-N quanta;
* engines listed under the reference's ``floors`` section must beat
  their absolute ``min_cold_cyc_per_s`` floor (a loose machine-speed
  sanity bound, deliberately far below typical measurements);
* every job's simulated cycle count must match the reference row for
  the same engine, and all engines must agree on every job's cycle
  count within the run itself (backend bit-identity).

Gate failures name the offending engine and bench row.

::

    python benchmarks/bench_core.py --smoke --check --engines compiled
    python benchmarks/bench_core.py --smoke --update-reference
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.campaign.jobs import (enumerate_jobs, job_config,  # noqa: E402
                                 smoke_jobs)
from repro.core import ENGINES  # noqa: E402
from repro.core.cpu import simulate  # noqa: E402
from repro.pipeline.trace import generate_trace  # noqa: E402
from repro.workloads.suites import SUITES, default_scale  # noqa: E402

DEFAULT_REFERENCE = Path(__file__).parent / "core_reference.json"
DEFAULT_OUTPUT = Path("BENCH_core.json")
DEFAULT_REPEATS = 3
DEFAULT_TOLERANCE = 0.10
SCHEMA = 3

#: largest IQR / median of an engine's per-repeat quanta totals that
#: ``--update-reference`` accepts
MAX_SPREAD = 0.15

#: whole benchmark passes ``--update-reference`` takes the median of
UPDATE_PASSES = 3

#: iteration count of the machine-speed calibration probe; sized so one
#: pass takes ~25 ms on a 2020s-era core — cheap enough to run before
#: every timing repeat, long enough to be stable.
_CALIBRATION_ITERS = 500_000


def _calibrate() -> float:
    """Seconds for a fixed pure-Python integer loop (one probe).

    The loop exercises the same interpreter machinery the simulator
    leans on (integer arithmetic, name lookups, loop overhead), so the
    ratio ``job_time / probe_time`` is roughly host-invariant.  A probe
    runs *adjacent to each timing repeat* and normalises only that
    repeat, which also cancels slowly-varying background load.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(_CALIBRATION_ITERS):
        acc += i & 7
    elapsed = time.perf_counter() - start
    assert acc >= 0  # keep the loop body live
    return elapsed


def _build_program(job):
    builder = SUITES[job.suite][job.bench]
    if job.scale is not None:
        kwargs = {"scale": job.scale}
    else:
        kwargs = default_scale(job.suite, job.bench)
    return builder(**kwargs)


def _time_job(job, repeats: int, engine: str):
    """Timings for one job on one engine.

    Returns ``(row, samples)``: the row holds min-of-N cold and warm
    costs; *samples* maps ``cold_s`` / ``warm_s`` / ``cold_quanta`` /
    ``warm_quanta`` to the per-repeat values, which the aggregate sums
    repeat by repeat for its median and spread.
    """
    program = _build_program(job)
    config = replace(job_config(job), engine=engine)

    # warm-up: one untimed full pass (also yields the reusable trace
    # and, for the compiled engine, its memoized columns)
    trace = generate_trace(program)
    result = simulate(trace, config)
    cycles = result.cycles

    gens = []
    samples = {"cold_s": [], "warm_s": [], "cold_quanta": [],
               "warm_quanta": []}
    for _ in range(repeats):
        probe = _calibrate()
        start = time.perf_counter()
        cold_trace = generate_trace(program)
        mid = time.perf_counter()
        simulate(cold_trace, config)
        end = time.perf_counter()
        gens.append(mid - start)
        samples["cold_s"].append(end - start)
        samples["cold_quanta"].append((end - start) / probe)

        probe = _calibrate()
        start = time.perf_counter()
        simulate(trace, config)
        warm_s = time.perf_counter() - start
        samples["warm_s"].append(warm_s)
        samples["warm_quanta"].append(warm_s / probe)

    cold_s = min(samples["cold_s"])
    warm_s = min(samples["warm_s"])
    row = {
        "suite": job.suite, "bench": job.bench,
        "core": job.core, "mode": job.mode,
        "engine": engine,
        "cycles": cycles,
        "trace_gen_s": round(min(gens), 6),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "cold_cyc_per_s": round(cycles / cold_s, 1),
        "warm_cyc_per_s": round(cycles / warm_s, 1),
        # machine-normalised cost (wall time in calibration quanta);
        # the regression gate compares these, not raw seconds
        "cold_quanta": round(min(samples["cold_quanta"]), 3),
        "warm_quanta": round(min(samples["warm_quanta"]), 3),
    }
    return row, samples


def _spread(values):
    """(median, interquartile range) of per-repeat aggregate totals."""
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def run_bench(jobs, repeats: int, engines, *, quiet: bool = False) -> dict:
    """Benchmark *jobs* on *engines*; returns the BENCH_core payload."""
    jobs = list(jobs)
    rows = []
    aggregates = {}
    for engine in engines:
        total_cycles = 0
        total_cold = total_warm = 0.0
        total_cold_q = total_warm_q = 0.0
        per_repeat = {}
        for job in jobs:
            row, samples = _time_job(job, repeats, engine)
            rows.append(row)
            total_cycles += row["cycles"]
            total_cold += row["cold_s"]
            total_warm += row["warm_s"]
            total_cold_q += row["cold_quanta"]
            total_warm_q += row["warm_quanta"]
            for metric, values in samples.items():
                sums = per_repeat.setdefault(metric, [0.0] * repeats)
                for i, value in enumerate(values):
                    sums[i] += value
            if not quiet:
                print(f"  [{engine:>9s}] {job.label:35s} "
                      f"cold {row['cold_s']:6.3f}s "
                      f"({row['cold_cyc_per_s']:>9,.0f} cyc/s)  "
                      f"warm {row['warm_s']:6.3f}s "
                      f"({row['warm_cyc_per_s']:>9,.0f} cyc/s)")
        agg = aggregates[engine] = {
            "cycles": total_cycles,
            "cold_s": round(total_cold, 3),
            "warm_s": round(total_warm, 3),
            "cold_cyc_per_s": round(total_cycles / total_cold, 1),
            "warm_cyc_per_s": round(total_cycles / total_warm, 1),
            "cold_quanta": round(total_cold_q, 3),
            "warm_quanta": round(total_warm_q, 3),
        }
        for metric, totals in per_repeat.items():
            median, iqr = _spread(totals)
            agg[f"{metric}_median"] = round(median, 3)
            agg[f"{metric}_iqr"] = round(iqr, 3)
        if not quiet:
            print(f"aggregate [{engine}]: "
                  f"cold {agg['cold_cyc_per_s']:,.0f} cyc/s, "
                  f"warm {agg['warm_cyc_per_s']:,.0f} cyc/s "
                  f"({total_cycles} cycles, {len(jobs)} jobs); "
                  f"warm quanta min {agg['warm_quanta']:,.1f} "
                  f"median {agg['warm_quanta_median']:,.1f} "
                  f"IQR {agg['warm_quanta_iqr']:,.1f}")
    return {
        "schema": SCHEMA,
        # the machine facts a committed timing depends on
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "repeats": repeats,
        "calibration_iters": _CALIBRATION_ITERS,
        "engines": list(engines),
        "jobs": rows,
        "aggregates": aggregates,
    }


def median_payload(passes) -> dict:
    """One payload holding, per engine aggregate and per job row, the
    median of every timing metric over *passes* (identical runs of
    :func:`run_bench`); counts and labels come from the first pass."""
    def merge(records):
        return {key: (statistics.median(r[key] for r in records)
                      if isinstance(value, float) else value)
                for key, value in records[0].items()}

    merged = dict(passes[0])
    merged["aggregates"] = {
        engine: merge([p["aggregates"][engine] for p in passes])
        for engine in passes[0]["aggregates"]}
    if "jobs" in merged:
        merged["jobs"] = [merge(rows)
                          for rows in zip(*(p["jobs"] for p in passes))]
    return merged


def spread_failures(payload: dict) -> list:
    """Engines whose cold or warm quanta spread exceeds MAX_SPREAD."""
    failures = []
    for engine, agg in payload["aggregates"].items():
        for metric in ("cold_quanta", "warm_quanta"):
            median = agg[f"{metric}_median"]
            iqr = agg[f"{metric}_iqr"]
            if iqr > MAX_SPREAD * median:
                failures.append(
                    f"{engine}: {metric} IQR/median "
                    f"{iqr / median:.3f} > {MAX_SPREAD}")
    return failures


def _row_key(row):
    return (row["suite"], row["bench"], row["core"], row["mode"])


def _row_label(row):
    return "/".join(_row_key(row)) + f" [{row['engine']}]"


def check_against_reference(payload: dict, reference: dict,
                            tolerance: float):
    """Return drift failures of *payload* vs *reference* (schema 2+).

    Costs are compared per engine in calibration quanta (wall time
    divided by the adjacent probe's time), which cancels the host's raw
    CPU speed and slow background-load drift.  Lower quanta = faster
    simulator.  Every failure message names the engine and, for
    row-level checks, the offending bench row.
    """
    failures = []
    ref_aggs = reference.get("aggregates", {})
    for engine, agg in payload["aggregates"].items():
        ref_agg = ref_aggs.get(engine)
        if ref_agg is None:
            failures.append(f"engine {engine!r}: no reference aggregate "
                            "— regenerate with --update-reference")
            continue
        for metric in ("cold_quanta", "warm_quanta"):
            ratio = agg[metric] / ref_agg[metric]
            if ratio > 1.0 + tolerance:
                failures.append(
                    f"engine {engine!r} aggregate {metric}: "
                    f"{ratio - 1.0:.1%} above reference "
                    f"({agg[metric]:,.1f} vs {ref_agg[metric]:,.1f} "
                    f"quanta — slower)")

    # absolute throughput floors (loose machine-speed sanity bounds)
    for engine, floor in reference.get("floors", {}).items():
        agg = payload["aggregates"].get(engine)
        minimum = floor.get("min_cold_cyc_per_s")
        if agg is None or minimum is None:
            continue
        if agg["cold_cyc_per_s"] < minimum:
            failures.append(
                f"engine {engine!r} aggregate cold throughput "
                f"{agg['cold_cyc_per_s']:,.0f} cyc/s is below its floor "
                f"of {minimum:,.0f} cyc/s")

    # per-row cycle identity vs the reference for the same engine
    ref_rows = {(_row_key(r), r["engine"]): r
                for r in reference.get("jobs", [])}
    measured_engines = set(payload["aggregates"])
    for (key, engine), ref_row in sorted(ref_rows.items()):
        if engine in measured_engines and \
                (key, engine) not in {(_row_key(r), r["engine"])
                                      for r in payload["jobs"]}:
            failures.append("missing job vs reference: "
                            + "/".join(key) + f" [{engine}]")
    for row in payload["jobs"]:
        ref_row = ref_rows.get((_row_key(row), row["engine"]))
        if ref_row is not None and row["cycles"] != ref_row["cycles"]:
            failures.append(
                f"{_row_label(row)}: simulated cycles changed "
                f"(ref {ref_row['cycles']}, got {row['cycles']}) — "
                f"timing-model change, update the reference")

    # backend bit-identity inside this run: every engine must report
    # the same cycle count for the same job
    by_job = {}
    for row in payload["jobs"]:
        by_job.setdefault(_row_key(row), []).append(row)
    for key, rows in sorted(by_job.items()):
        cycles = {r["cycles"] for r in rows}
        if len(cycles) > 1:
            detail = ", ".join(f"{r['engine']}={r['cycles']}"
                               for r in rows)
            failures.append("cross-engine cycle mismatch on "
                            + "/".join(key) + f": {detail}")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="benchmark the CI smoke set (one small "
                             "benchmark per suite, small core, all "
                             "modes)")
    parser.add_argument("--suites", nargs="*", default=None)
    parser.add_argument("--cores", nargs="*", default=None)
    parser.add_argument("--modes", nargs="*", default=None)
    parser.add_argument("--engines", nargs="+", metavar="ENGINE",
                        choices=list(ENGINES.names()), default=None,
                        help="simulation backends to measure "
                             "(default: all registered engines)")
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="timing repeats per job; each metric is "
                             "the minimum (default: 3)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="result JSON path (default: "
                             "BENCH_core.json)")
    parser.add_argument("--reference", type=Path,
                        default=DEFAULT_REFERENCE,
                        help="reference JSON for --check / "
                             "--update-reference")
    parser.add_argument("--check", action="store_true",
                        help="fail if any engine regresses more than "
                             "--tolerance vs the reference "
                             "(machine-speed normalised), misses its "
                             "floor, or breaks cycle identity")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="max relative regression (default: 0.10)")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite the reference from the per-metric "
                             f"medians of {UPDATE_PASSES} passes "
                             "(preserves a hand-maintained floors "
                             "section)")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.smoke:
        jobs = smoke_jobs(modes=args.modes)
    else:
        jobs = enumerate_jobs(suites=args.suites, cores=args.cores,
                              modes=args.modes)
    engines = args.engines or list(ENGINES.names())

    passes = []
    for index in range(UPDATE_PASSES if args.update_reference else 1):
        if args.update_reference and not args.quiet:
            print(f"pass {index + 1} of {UPDATE_PASSES}")
        passes.append(run_bench(jobs, args.repeats, engines,
                                quiet=args.quiet))
    payload = median_payload(passes)

    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output}")

    if args.update_reference:
        failures = [f"pass {index + 1}: {failure}"
                    for index, run in enumerate(passes)
                    for failure in spread_failures(run)]
        failures += [f"median: {failure}"
                     for failure in spread_failures(payload)]
        if failures:
            print(f"error: spread too wide to commit; {args.reference} "
                  f"left unchanged:", file=sys.stderr)
            for failure in failures:
                print(f"  - {failure}", file=sys.stderr)
            return 2
        if args.reference.is_file():
            with open(args.reference, "r", encoding="utf-8") as fh:
                floors = json.load(fh).get("floors")
            if floors:
                payload = dict(payload, floors=floors)
        with open(args.reference, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.reference}")
        return 0

    if args.check:
        if not args.reference.is_file():
            print(f"error: no reference at {args.reference}; create "
                  f"one with --update-reference", file=sys.stderr)
            return 2
        with open(args.reference, "r", encoding="utf-8") as fh:
            reference = json.load(fh)
        failures = check_against_reference(payload, reference,
                                           args.tolerance)
        if failures:
            print(f"CORE-BENCH REGRESSION ({len(failures)} failure(s), "
                  f"tolerance {args.tolerance:.0%}):")
            for failure in failures:
                print(f"  - {failure}")
            return 1
        print(f"core-bench gate OK: every engine within "
              f"{args.tolerance:.0%} of reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
