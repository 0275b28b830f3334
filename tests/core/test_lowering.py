"""Lowering pass: column round-trip, dataflow, property tests."""

import gc
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CORES, RecycleMode, simulate
from repro.core.lower import lower_trace
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import FLAGS, RegClass
from repro.pipeline.trace import generate_trace
from repro.verify.generator import GenConfig, ProgramGenerator, materialize
from repro.workloads.suites import SUITES


@pytest.fixture(scope="module")
def trace():
    return generate_trace(SUITES["mibench"]["bitcnt"](scale=12))


@pytest.fixture(scope="module")
def lowered(trace):
    return lower_trace(trace)


class TestColumnsRoundTrip:
    def test_every_entry_round_trips(self, trace, lowered):
        assert lowered.n == len(trace.entries)
        for i, entry in enumerate(trace.entries):
            assert lowered.entry_tuple(i) == (
                entry.instr, entry.pc, entry.taken,
                entry.op_width, entry.mem_addr, entry.mem_size or 0,
                entry.is_store, entry.cls)

    def test_static_table_is_keyed_by_pc(self, trace, lowered):
        index_of_pc = {}
        for i, entry in enumerate(trace.entries):
            sidx = lowered.static_idx[i]
            assert lowered.instrs[sidx] is entry.instr
            assert index_of_pc.setdefault(entry.pc, sidx) == sidx
        assert len(index_of_pc) == len(lowered.instrs)

    def test_memoized_on_trace(self, trace, lowered):
        assert lower_trace(trace) is lowered

    def test_lowered_trace_dies_with_its_last_reference(self):
        # the lowering (and the replay columns memoized on it) must not
        # point back at the trace: a cycle would keep an evicted trace
        # alive until a full GC pass
        fresh = generate_trace(SUITES["ml"]["pool0"](scale=3))
        simulate(fresh, replace(CORES["small"], engine="compiled"))
        assert fresh._lowered is lower_trace(fresh)
        alive = weakref.ref(fresh)
        gc.disable()
        try:
            del fresh
            assert alive() is None
        finally:
            gc.enable()


class TestStaticDataflow:
    def test_producers_match_a_dynamic_rat(self, trace, lowered):
        rat = {}
        for i, entry in enumerate(trace.entries):
            expected = []
            for reg in entry.instr.sources():
                p = rat.get(reg)
                if p is not None and p not in expected:
                    expected.append(p)
            assert lowered.producers[i] == tuple(expected)
            for reg in entry.instr.dests():
                rat[reg] = i

    def test_order_dep_is_youngest_older_overlapping_store(
            self, trace, lowered):
        for i, entry in enumerate(trace.entries):
            if entry.cls is not OpClass.LOAD:
                assert lowered.order_dep[i] == -1
                continue
            lo, hi = entry.mem_addr, entry.mem_addr + entry.mem_size
            expected = -1
            for j in range(i):
                other = trace.entries[j]
                if not other.is_store:
                    continue
                s_lo = other.mem_addr
                if s_lo < hi and lo < s_lo + other.mem_size:
                    expected = j
            assert lowered.order_dep[i] == expected

    def test_dependents_are_sorted_and_inverse_of_producers(
            self, trace, lowered):
        for i in range(lowered.n):
            deps = lowered.dependents[i]
            assert list(deps) == sorted(deps)
        for child in range(lowered.n):
            for p in lowered.producers[child]:
                assert child in lowered.dependents[p]
            od = lowered.order_dep[child]
            if od >= 0:
                assert child in lowered.dependents[od]


#: traces the static-dataflow checks rerun on, besides bitcnt: an ml
#: kernel (vector registers, VLD1/VST1) and a generated program (flag
#: producers, ADC and SBC reading the flags)
MORE_FLOW_TRACES = {
    "ml-pool0": lambda: SUITES["ml"]["pool0"](scale=3),
    "fuzz": lambda: ProgramGenerator(0).program(1),
}


class TestStaticDataflowVectorAndFlags(TestStaticDataflow):
    @pytest.fixture(scope="class", params=sorted(MORE_FLOW_TRACES))
    def flow(self, request):
        trace = generate_trace(MORE_FLOW_TRACES[request.param]())
        return request.param, trace, lower_trace(trace)

    @pytest.fixture
    def trace(self, flow):
        return flow[1]

    @pytest.fixture
    def lowered(self, flow):
        return flow[2]

    def test_trace_has_vector_or_flag_dataflow(self, flow):
        name, trace, _ = flow
        sources = {reg for e in trace.entries for reg in e.instr.sources()}
        if name == "ml-pool0":
            assert any(reg.cls is RegClass.VEC for reg in sources)
        else:
            assert FLAGS in sources
            assert any(e.instr.op is Opcode.ADC for e in trace.entries)


class TestLoweredExecutionProperty:
    """Seeded repro.verify programs: lowered execution == reference."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           core=st.sampled_from(["small", "medium", "big"]),
           mode=st.sampled_from([RecycleMode.BASELINE,
                                 RecycleMode.REDSOC,
                                 RecycleMode.MOS]))
    def test_engines_match_reference(self, seed, core, mode):
        spec = ProgramGenerator(seed, GenConfig()).spec(0)
        trace = generate_trace(materialize(spec))
        config = CORES[core].with_mode(mode)
        ref = simulate(trace, replace(config, engine="reference"))
        run = simulate(trace, replace(config, engine="compiled"))
        assert run.stats == ref.stats
