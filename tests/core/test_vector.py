"""Columnar engine (``compiled``): shared lowering, edge cases.

The module name is historical: these cases first pinned the NumPy
``vector`` engine, whose precompute the ``compiled`` engine absorbed.
"""

import subprocess
import sys
import textwrap
from dataclasses import replace

import pytest

from repro.core import CORES, RecycleMode, simulate
from repro.core.compiled import CompiledSimulator, _entry_columns
from repro.core.lower import lower_trace
from repro.pipeline.trace import Trace, generate_trace
from repro.workloads.suites import SUITES


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(SUITES["ml"]["pool0"](scale=3))


def _cfg(core="small", mode=RecycleMode.REDSOC):
    return replace(CORES[core].with_mode(mode), engine="compiled")


def _ref(config):
    return replace(config, engine="reference")


def _empty_trace():
    return Trace(name="empty", entries=[], final_regs={}, final_mem={})


class TestSingleRun:
    def test_run_matches_reference(self, small_trace):
        run = CompiledSimulator(small_trace, _cfg()).run()
        ref = simulate(small_trace, _ref(_cfg()))
        assert run.stats == ref.stats

    def test_empty_trace(self):
        result = CompiledSimulator(_empty_trace(), _cfg()).run()
        assert result.stats.cycles == 0
        assert result.stats.committed == 0

    def test_repeat_runs_are_deterministic(self, small_trace):
        # the memoized lowering and entry columns must not leak width
        # predictions (or any other state) between runs
        first = CompiledSimulator(small_trace, _cfg()).run()
        second = CompiledSimulator(small_trace, _cfg()).run()
        assert first.stats == second.stats


def test_mode_grid_shares_one_lowering():
    # one simulate call per job: a trace's mode grid lowers it once and
    # every mode replays the same config-independent entry columns
    trace = generate_trace(SUITES["ml"]["pool0"](scale=3))
    low = lower_trace(trace)
    cols = _entry_columns(low)
    for mode in RecycleMode:
        cfg = _cfg(mode=mode)
        assert simulate(trace, cfg).stats == \
            simulate(trace, _ref(cfg)).stats
        assert lower_trace(trace) is low
        assert low._columns is cols


def test_no_numpy_on_any_production_path():
    # the engines, campaign and serve stacks are pure Python: importing
    # them and running the compiled engine must not pull NumPy in
    script = textwrap.dedent("""
        import sys
        from dataclasses import replace
        import repro.core
        import repro.campaign.runner
        import repro.serve.app
        from repro.core import CORES, RecycleMode, simulate
        from repro.pipeline.trace import generate_trace
        from repro.workloads.suites import SUITES
        trace = generate_trace(SUITES["ml"]["pool0"](scale=2))
        for mode in RecycleMode:
            simulate(trace, replace(CORES["small"].with_mode(mode),
                                    engine="compiled"))
        assert "numpy" not in sys.modules, "numpy was imported"
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
