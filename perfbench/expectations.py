"""Expected ``cycles`` / ``committed`` for the benchmark grid.

    PYTHONPATH=src python3 perfbench/expectations.py           # check
    PYTHONPATH=src python3 perfbench/expectations.py --update  # rewrite

Simulates the 45 grid jobs once per registered engine (cycle-identical
by contract) and compares every engine with the ``reference`` oracle.
``--update`` writes ``perfbench/expected.json`` from the reference
results, and refuses (exit 1) when any engine disagrees; without it
the command checks the committed file and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from typing import Dict

from common import (
    BENCH_DIR,
    GRID_CORE,
    MODES,
    SCALE_DIVISOR,
    WORK,
    grid_scales,
    job_label,
    load_expected,
)

Table = Dict[str, Dict[str, int]]


def simulate_grid(engine: str) -> Table:
    from repro.campaign.jobs import CampaignJob
    from repro.campaign.runner import run_campaign

    jobs = [CampaignJob(suite, bench, GRID_CORE, mode, scale=scale,
                        engine=engine)
            for suite, bench, scale in grid_scales() for mode in MODES]
    WORK.mkdir(exist_ok=True)
    cache = tempfile.mkdtemp(prefix="expectations-", dir=WORK)
    try:
        result = run_campaign(jobs, workers=2, cache_dir=cache, force=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    return {job_label(r.suite, r.bench, r.mode):
            {"cycles": r.cycles, "committed": r.committed}
            for r in result.records}


def diff(name: str, got: Table, want: Table) -> int:
    bad = sorted(label for label in set(got) | set(want)
                 if got.get(label) != want.get(label))
    for label in bad:
        print(f"  {name}: {label}: {got.get(label)} != {want.get(label)}",
              file=sys.stderr)
    return len(bad)


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/expectations.py")
    parser.add_argument("--update", action="store_true",
                        help="rewrite expected.json from the reference "
                             "engine (refused if engines disagree)")
    args = parser.parse_args()
    from repro.core.engine import ENGINES

    reference = simulate_grid("reference")
    mismatches = 0
    for engine in ENGINES.names():
        if engine != "reference":
            mismatches += diff(engine, simulate_grid(engine), reference)
    if mismatches:
        print(f"engines disagree on {mismatches} job(s); expected.json "
              f"left unchanged", file=sys.stderr)
        return 1
    if args.update:
        doc = {"grid": {"core": GRID_CORE, "scale_divisor": SCALE_DIVISOR,
                        "engine": "reference",
                        "engines_agreeing": list(ENGINES.names())},
               "jobs": reference}
        (BENCH_DIR / "expected.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(reference)} expectations")
        return 0
    if diff("expected.json", reference, load_expected()):
        return 1
    print(f"{len(reference)} expectations match every engine")
    return 0


if __name__ == "__main__":
    sys.exit(main())
