"""Shared helpers: paths, the evaluation grid, statistics, the host
probe and child-process handling.

Everything here is standard library only, so ``run.py`` can start,
validate its arguments and fail cleanly in a checkout that holds no
``src/`` tree.
"""

from __future__ import annotations

import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space for caches, span exports and the serve-warm pre-fill
WORK = ROOT / ".perfbench-work"

#: the campaign-cold grid: every benchmark of every suite on the small
#: core, in all three modes, at its default scale divided by this
#: factor (traces stay between ~5k and ~20k dynamic instructions)
SCALE_DIVISOR = 2
GRID_CORE = "small"
MODES = ("baseline", "redsoc", "mos")

#: serve daemons run one worker; the client drives two closed-loop lanes
SERVE_WORKERS = 1
SERVE_LANES = 2
#: how many times a run spawns the system under test to time set-up
SETUP_SAMPLES = 9


def have_source() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for every child: the checkout's own sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("REDSOC_CACHE_DIR", None)
    return env


def grid_scales() -> List[Tuple[str, str, int]]:
    """``(suite, bench, scale)`` for the grid, in evaluation order."""
    from repro.campaign.jobs import SUITE_ORDER
    from repro.workloads.suites import DEFAULT_SCALES, SUITES
    return [(suite, bench,
             max(1, DEFAULT_SCALES[suite][bench] // SCALE_DIVISOR))
            for suite in SUITE_ORDER for bench in SUITES[suite]]


def job_label(suite: str, bench: str, mode: str) -> str:
    return f"{suite}/{bench}:{mode}"


def load_expected() -> Dict[str, Dict[str, int]]:
    with open(BENCH_DIR / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)["jobs"]


# -- statistics --------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, *q* in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- host-speed probe --------------------------------------------------

#: iterations of the host-speed probe's loop (~10 ms)
PROBE_ITERATIONS = 200_000


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop (a diagnostic, never a
    metric): a slow epoch of the host shows up here too."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) & 0xFFFF
    return (time.perf_counter() - start) * 1000.0


# -- child processes ---------------------------------------------------

#: every child started and not yet reaped
_LIVE: List["Child"] = []


def reap_all() -> None:
    """Kill and reap whatever children an error path left running."""
    for child in list(_LIVE):
        child.proc.kill()
        child.reap(10.0)


class Child:
    """A child process whose stdout lines are read by a thread, so
    waits can be bounded, and whose resource usage is taken at reap
    time (``ru_maxrss`` then covers the child and every descendant it
    reaped, e.g. a serve daemon's pool workers)."""

    def __init__(self, args: Sequence[str], *,
                 stderr_path: Optional[Path] = None) -> None:
        self.started = time.perf_counter()
        self._stderr = open(stderr_path, "w") if stderr_path else None
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=str(ROOT), env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=self._stderr or subprocess.DEVNULL, text=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.maxrss_kb = 0
        _LIVE.append(self)

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, timeout_s: float) -> str:
        """Wait for the first stdout line starting with *prefix*."""
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"child never printed {prefix!r}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(
                    f"child exited before printing {prefix!r}")
            if line.startswith(prefix):
                return line

    def reap(self, timeout_s: float) -> int:
        """Wait for exit (killing on timeout); returns the exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                self.maxrss_kb = usage.ru_maxrss
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.01)
        _LIVE.remove(self)
        self._reader.join(5.0)
        if self._stderr is not None:
            self._stderr.close()
        return self.proc.returncode
