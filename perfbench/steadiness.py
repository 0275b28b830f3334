"""Steadiness report: two interleaved sets of runs per workload.

    python3 perfbench/steadiness.py
    python3 perfbench/steadiness.py --report .perfbench-work/steadiness.jsonl

Every workload of ``BENCHMARK.json`` runs ``RUNS`` times per set, each
run ``run_seconds`` long.  Set A uses seeds 1000.., set B seeds
2000..; runs alternate A/B and cycle through the workloads, so a slow
epoch of the host lands on both sets alike.  For every (workload,
end-to-end metric) the report gives each set's median, the spread over
all runs (quartile distance over median, as
``statistics.quantiles(n=4)`` gives it), its ratio to the metric's
bound, max-min and the B/A median ratio.  A metric fails when its
spread exceeds its bound (``setup_s`` excepted) or set B's median is
worse than set A's by more than the bound; exit 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from common import BENCH_DIR, ROOT

#: runs per set and workload
RUNS = 5


def spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["run_record"]
    return {"workload": workload, "seed": seed, "result": result,
            "probe_ms": record["host_probe_ms"]}


def collect(out: Path) -> None:
    bench = spec()
    seconds = bench["run_seconds"]
    with open(out, "a", encoding="utf-8") as fh:
        for i in range(RUNS):
            for workload in [w["name"] for w in bench["workloads"]]:
                order = ((1000, 2000) if i % 2 == 0 else (2000, 1000))
                for base in order:
                    row = run_once(workload, base + i, seconds)
                    row["set"] = "A" if base == 1000 else "B"
                    fh.write(json.dumps(row) + "\n")
                    fh.flush()
                    metrics = {name: round(m["value"], 4) for name, m
                               in row["result"]["metrics"].items()}
                    print(f"{workload} {row['set']} seed={row['seed']} "
                          f"failed={row['result']['failed']} {metrics}",
                          file=sys.stderr)


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(path: Path) -> int:
    rows = [json.loads(line) for line in path.read_text().splitlines()
            if line.strip()]
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"]
              if m["better"] == "higher"}
    failures = 0
    print(f"{'workload':14s} {'metric':15s} {'median A':>11s} "
          f"{'median B':>11s} {'B/A-1':>7s} {'IQR/med':>8s} "
          f"{'/bound':>6s} {'max-min':>8s} {'bound':>6s} verdict")
    for workload in [w["name"] for w in bench["workloads"]]:
        picked = [r for r in rows if r["workload"] == workload]
        if not picked:
            continue
        bad_runs = sum(r["result"]["failed"] for r in picked)
        if bad_runs:
            print(f"{workload}: {bad_runs} failed ops", file=sys.stderr)
            failures += 1
        for name, bound in bounds.items():
            by_set = {s: [r["result"]["metrics"][name]["value"]
                          for r in picked if r["set"] == s]
                      for s in ("A", "B")}
            every = by_set["A"] + by_set["B"]
            q1, med, q3 = _quartiles(every)
            spread = (q3 - q1) / med if med else 0.0
            med_a = statistics.median(by_set["A"]) if by_set["A"] else med
            med_b = statistics.median(by_set["B"]) if by_set["B"] else med
            drift = med_b / med_a - 1.0 if med_a else 0.0
            worse = -drift if name in higher else drift
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict = "SPREAD"
            if worse > bound:
                verdict = "DRIFT"
            if verdict != "ok":
                failures += 1
            print(f"{workload:14s} {name:15s} {med_a:11.4f} "
                  f"{med_b:11.4f} {drift:+7.3f} {spread:8.3f} "
                  f"{spread / bound:6.2f} "
                  f"{(max(every) - min(every)) / med:8.3f} "
                  f"{bound:6.2f} {verdict}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    parser.add_argument("--out", type=Path,
                        default=ROOT / ".perfbench-work" / "steadiness.jsonl")
    parser.add_argument("--report", type=Path, default=None,
                        help="only summarise an existing results file")
    args = parser.parse_args()
    if args.report is None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        collect(args.out)
        args.report = args.out
    return report(args.report)


if __name__ == "__main__":
    sys.exit(main())
