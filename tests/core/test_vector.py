"""Columnar engine (``compiled``): batch lanes, decode memo, edge cases.

The module name is historical: these cases first pinned the NumPy
``vector`` engine, whose precompute the ``compiled`` engine absorbed.
"""

import subprocess
import sys
import textwrap
from dataclasses import fields, replace

import pytest

from repro.core import CORES, CoreConfig, RecycleMode, SchedulerDesign
from repro.core import simulate
from repro.core.compiled import (
    CompiledSimulator,
    _decode_key,
    _DecodeColumns,
    _entry_columns,
    _shared_lut,
    simulate_batch,
)
from repro.core.lower import lower_trace
from repro.memory.hierarchy import MemoryConfig
from repro.pipeline.trace import Trace, generate_trace
from repro.workloads.suites import SUITES


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(SUITES["ml"]["pool0"](scale=3))


@pytest.fixture(scope="module")
def other_trace():
    # a different workload at a different scale: ragged lane lengths
    return generate_trace(SUITES["mibench"]["crc"](scale=2))


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
        # the decode memo and the per-run ex copy must not leak width
        # predictions (or any other state) between runs
        first = CompiledSimulator(small_trace, _cfg()).run()
        second = CompiledSimulator(small_trace, _cfg()).run()
        assert first.stats == second.stats


#: decode-key inputs; every other CoreConfig field must leave the
#: decode columns untouched (mode enters only as "is it BASELINE")
_KEYED = {"mode", "ticks_per_cycle", "tech", "pvt_scale", "mul_latency",
          "div_latency", "fp_latency", "fdiv_latency",
          "simd_multicycle_latency"}

#: one non-default value per CoreConfig field outside the decode key
_MUTATIONS = {
    "name": "custom",
    "front_width": 2,
    "rob_size": 24,
    "lsq_size": 8,
    "rse_size": 12,
    "alu_units": 1,
    "simd_units": 1,
    "fp_units": 1,
    "mem_ports": 1,
    "branch_units": 2,
    "complex_units": 2,
    "mispredict_penalty": 3,
    "replay_penalty": 5,
    "taken_branches_per_cycle": 2,
    "scheduler": SchedulerDesign.ILLUSTRATIVE,
    "engine": "reference",
    "skewed_select": False,
    "eager_issue": False,
    "slack_threshold": 2,
    "eager_spare_units": 1,
    "adaptive_threshold": False,
    "threshold_window": 64,
    "memory": MemoryConfig(l1_latency=3, l2_latency=20, prefetch=False),
}


def _decode(trace, config):
    """Fresh (unmemoized) decode columns of *trace* under *config*."""
    base, lut = _shared_lut(config)
    cols = _DecodeColumns(lower_trace(trace), config, lut,
                          base.ticks_per_cycle)
    return {slot: getattr(cols, slot) for slot in _DecodeColumns.__slots__}


class TestDecodeMemo:
    def test_redsoc_and_mos_share_decode(self, small_trace):
        # decode depends on recycling on/off only, never the flavour
        assert _decode_key(_cfg(mode=RecycleMode.REDSOC)) == \
            _decode_key(_cfg(mode=RecycleMode.MOS))
        assert _decode_key(_cfg(mode=RecycleMode.BASELINE)) != \
            _decode_key(_cfg(mode=RecycleMode.REDSOC))
        assert _decode(small_trace, _cfg(mode=RecycleMode.REDSOC)) == \
            _decode(small_trace, _cfg(mode=RecycleMode.MOS))

    def test_memo_lands_on_lowered_trace(self, small_trace):
        CompiledSimulator(small_trace, _cfg()).run()
        low = lower_trace(small_trace)
        assert _decode_key(_cfg()) in _entry_columns(low).decode

    def test_every_config_field_is_keyed_or_mutated(self):
        names = {f.name for f in fields(CoreConfig)}
        assert names == _KEYED | set(_MUTATIONS), \
            "new CoreConfig field: add it to _decode_key or _MUTATIONS"

    @pytest.mark.parametrize("field", sorted(_MUTATIONS))
    def test_fields_outside_key_leave_decode_unchanged(
            self, small_trace, other_trace, field):
        # a field decode reads but _decode_key omits would make two
        # configs share a memo entry with different true columns
        for trace in (small_trace, other_trace):
            for mode in (RecycleMode.BASELINE, RecycleMode.REDSOC):
                base = _cfg(mode=mode)
                mutated = replace(base, **{field: _MUTATIONS[field]})
                assert getattr(mutated, field) != getattr(base, field)
                assert _decode_key(mutated) == _decode_key(base)
                assert _decode(trace, mutated) == _decode(trace, base)


class TestBatchLanes:
    def test_k_equals_one(self, small_trace):
        cfg = _cfg()
        (result,) = simulate_batch([(small_trace, cfg)])
        assert result.stats == simulate(small_trace, _ref(cfg)).stats

    def test_empty_items(self):
        assert simulate_batch([]) == []

    def test_ragged_lane_lengths(self, small_trace, other_trace):
        # lanes of different trace lengths in one call; results must
        # match unbatched reference runs lane by lane
        items = [(small_trace, _cfg()), (other_trace, _cfg()),
                 (small_trace, _cfg("big"))]
        results = simulate_batch(items)
        for (trace, cfg), result in zip(items, results):
            assert result.stats == simulate(trace, _ref(cfg)).stats

    def test_empty_trace_lane(self, small_trace):
        items = [(_empty_trace(), _cfg()), (small_trace, _cfg())]
        empty, real = simulate_batch(items)
        assert empty.stats.cycles == 0
        assert real.stats == simulate(small_trace, _ref(_cfg())).stats

    def test_duplicate_trace_lanes(self, small_trace):
        # the same trace under several configs: one lowering, decode
        # computed once per distinct decode key
        items = [(small_trace, _cfg(mode=m)) for m in RecycleMode]
        results = simulate_batch(items)
        for (trace, cfg), result in zip(items, results):
            assert result.stats == simulate(trace, _ref(cfg)).stats
        decode = _entry_columns(lower_trace(small_trace)).decode
        assert {_decode_key(cfg) for _, cfg in items} <= set(decode)

    def test_lane_times_telemetry(self, small_trace, other_trace):
        lane_times = []
        simulate_batch([(small_trace, _cfg()), (other_trace, _cfg())],
                       lane_times=lane_times)
        assert len(lane_times) == 2
        assert all(t > 0 for t in lane_times)

    def test_rejects_programs(self):
        with pytest.raises(TypeError, match="pre-generated Traces"):
            simulate_batch([(SUITES["ml"]["pool0"](scale=3), _cfg())])

    def test_order_preserved(self, small_trace, other_trace):
        items = [(other_trace, _cfg()), (small_trace, _cfg())]
        results = simulate_batch(items)
        assert results[0].name == other_trace.name
        assert results[1].name == small_trace.name


def test_no_numpy_on_any_production_path():
    # the engines, campaign and serve stacks are pure Python: importing
    # them and running both compiled entry points must not pull NumPy in
    script = textwrap.dedent("""
        import sys
        from dataclasses import replace
        import repro.core
        import repro.campaign.runner
        import repro.serve.app
        from repro.core import CORES, simulate
        from repro.core.compiled import simulate_batch
        from repro.pipeline.trace import generate_trace
        from repro.workloads.suites import SUITES
        trace = generate_trace(SUITES["ml"]["pool0"](scale=2))
        config = replace(CORES["small"], engine="compiled")
        simulate(trace, config)
        simulate_batch([(trace, config)])
        assert "numpy" not in sys.modules, "numpy was imported"
        print("ok")
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
