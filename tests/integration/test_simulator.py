"""Integration tests: full pipeline simulations on small programs.

These pin down the core behavioural contracts of the reproduction:

* ReDSOC is timing-only — architectural results match the interpreter;
* recycling accelerates dependency chains by the analytically expected
  factors (8/7 for 7-tick chains, ~2x for 3-tick logic chains);
* ReDSOC never slows a workload down beyond noise;
* structural limits (ROB/RS/FU) and penalties behave sanely.
"""


from repro.core import (
    BIG,
    MEDIUM,
    RecycleMode,
    SMALL,
    SchedulerDesign,
    simulate,
)
from repro.isa import Asm, Cond, SimdType, r, v
from repro.pipeline.trace import generate_trace


def loop_program(name, body, iters=300, setup=None):
    a = Asm(name)
    a.mov(r(1), 1)
    a.mov(r(2), iters)
    if setup:
        setup(a)
    a.label("loop")
    body(a)
    a.subs(r(2), r(2), 1)
    a.b("loop", cond=Cond.NE)
    a.halt()
    return a.finish()


def logic_chain(a):
    for _ in range(4):
        a.eor(r(1), r(1), 0x5A)


def arith_chain(a):
    for _ in range(4):
        a.add(r(1), r(1), 0x1000000)


def run_pair(program, config=BIG):
    base = simulate(program, config.with_mode(RecycleMode.BASELINE))
    red = simulate(program, config.with_mode(RecycleMode.REDSOC))
    return base, red


class TestBaselineSanity:
    def test_dependent_chain_is_one_per_cycle(self):
        program = loop_program("chain", logic_chain, iters=500)
        base = simulate(program, BIG.with_mode(RecycleMode.BASELINE))
        # 6 ops/iteration, 4-op serial chain + flag-serial subs: the
        # loop-carried chain limits IPC to ~1.5
        assert 1.2 < base.ipc < 1.8

    def test_independent_ops_reach_machine_width(self):
        def body(a):
            for i in range(4, 10):
                a.mov(r(i), 7)
        program = loop_program("wide", body, iters=300)
        base = simulate(program, BIG.with_mode(RecycleMode.BASELINE))
        assert base.ipc > 3.5

    def test_small_core_slower_than_big(self):
        def body(a):
            for i in range(4, 10):
                a.eor(r(i), r(2), 3)
        program = loop_program("width-bound", body, iters=300)
        small = simulate(program, SMALL.with_mode(RecycleMode.BASELINE))
        big = simulate(program, BIG.with_mode(RecycleMode.BASELINE))
        assert big.ipc > small.ipc

    def test_all_instructions_commit(self):
        program = loop_program("commit", logic_chain, iters=100)
        trace = generate_trace(program)
        base = simulate(trace, MEDIUM.with_mode(RecycleMode.BASELINE))
        assert base.stats.committed == len(trace)


class TestRecyclingSpeedups:
    def test_logic_chain_speedup_near_2x(self):
        program = loop_program("logic", logic_chain, iters=500)
        base, red = run_pair(program)
        speedup = base.cycles / red.cycles
        assert 1.7 < speedup < 2.2

    def test_arith_chain_speedup_near_8_over_7(self):
        program = loop_program("arith", arith_chain, iters=500)
        base, red = run_pair(program)
        speedup = base.cycles / red.cycles
        assert 1.08 < speedup < 1.2

    def test_redsoc_never_slower(self):
        """Across a variety of kernels ReDSOC stays within noise of the
        baseline or better (skewed selection protects conventional
        requests)."""
        bodies = {
            "logic": logic_chain,
            "arith": arith_chain,
            "mixed": lambda a: (a.eor(r(1), r(1), 3),
                                a.add(r(1), r(1), 0x100000),
                                a.ror(r(1), r(1), 5)),
        }
        for name, body in bodies.items():
            program = loop_program(name, body, iters=200)
            base, red = run_pair(program)
            assert red.cycles <= base.cycles * 1.02, name

    def test_recycled_ops_counted(self):
        program = loop_program("logic", logic_chain, iters=200)
        _, red = run_pair(program)
        assert red.stats.recycled_ops > 200
        assert red.stats.eager_issues > 0

    def test_baseline_never_recycles(self):
        program = loop_program("logic", logic_chain, iters=100)
        base = simulate(program, BIG.with_mode(RecycleMode.BASELINE))
        assert base.stats.recycled_ops == 0
        assert base.stats.eager_issues == 0
        assert base.stats.two_cycle_holds == 0

    def test_long_transparent_sequences_on_arith(self):
        program = loop_program("arith", arith_chain, iters=300)
        _, red = run_pair(program)
        assert red.stats.seq_expected_length > 3.0

    def test_mos_cannot_fuse_arith(self):
        program = loop_program("arith", arith_chain, iters=300)
        base = simulate(program, BIG.with_mode(RecycleMode.BASELINE))
        mos = simulate(program, BIG.with_mode(RecycleMode.MOS))
        red = simulate(program, BIG.with_mode(RecycleMode.REDSOC))
        assert mos.cycles >= red.cycles
        assert mos.cycles >= base.cycles * 0.98

    def test_mos_fuses_logic_pairs(self):
        program = loop_program("logic", logic_chain, iters=300)
        base = simulate(program, BIG.with_mode(RecycleMode.MOS))
        ref = simulate(program, BIG.with_mode(RecycleMode.BASELINE))
        assert ref.cycles / base.cycles > 1.5


class TestThresholdAndAblation:
    def test_zero_threshold_disables_eager_issue(self):
        program = loop_program("logic", logic_chain, iters=200)
        cfg = BIG.variant(slack_threshold=0, adaptive_threshold=False)
        red = simulate(program, cfg)
        assert red.stats.eager_issues == 0

    def test_threshold_monotone_on_chain(self):
        program = loop_program("arith", arith_chain, iters=200)
        cycles = [simulate(program, BIG.variant(
            slack_threshold=t, adaptive_threshold=False)).cycles
                  for t in (0, 4, 7)]
        assert cycles[0] >= cycles[1] >= cycles[2]

    def test_coarse_precision_recycles_less(self):
        program = loop_program("arith", arith_chain, iters=200)
        fine = simulate(program, BIG.variant(ticks_per_cycle=8))
        coarse = simulate(program, BIG.variant(
            ticks_per_cycle=2, slack_threshold=1,
            adaptive_threshold=False))
        assert coarse.cycles >= fine.cycles

    def test_illustrative_vs_operational_close(self):
        program = loop_program("mixed", lambda a: (
            a.eor(r(3), r(1), r(2)),
            a.add(r(1), r(3), 0x33),
            a.orr(r(1), r(1), r(2))), iters=300)
        op = simulate(program, MEDIUM.variant(
            scheduler=SchedulerDesign.OPERATIONAL))
        il = simulate(program, MEDIUM.variant(
            scheduler=SchedulerDesign.ILLUSTRATIVE))
        assert abs(op.cycles - il.cycles) / il.cycles < 0.05


class TestMemoryAndBranches:
    def test_load_store_program(self):
        a = Asm("memcpy")
        a.data_words(0x1000, range(64))
        a.mov(r(1), 0x1000)
        a.mov(r(2), 0x2000)
        a.mov(r(3), 64)
        a.label("loop")
        a.ldr(r(4), r(1))
        a.str_(r(4), r(2))
        a.add(r(1), r(1), 4)
        a.add(r(2), r(2), 4)
        a.subs(r(3), r(3), 1)
        a.b("loop", cond=Cond.NE)
        a.halt()
        program = a.finish()
        base, red = run_pair(program, MEDIUM)
        assert base.stats.committed == red.stats.committed
        assert red.cycles <= base.cycles * 1.02

    def test_store_load_forwarding_faster_than_miss(self):
        a = Asm("fwd")
        a.mov(r(1), 0x8000)
        a.mov(r(2), 123)
        for _ in range(20):
            a.str_(r(2), r(1))
            a.ldr(r(2), r(1))
            a.add(r(1), r(1), 0)  # keep the chain alive
        a.halt()
        res = simulate(a.finish(), MEDIUM.with_mode(RecycleMode.BASELINE))
        # forwarding keeps per-roundtrip cost far below DRAM latency
        assert res.cycles < 20 * MEDIUM.memory.dram_latency

    def test_branchy_code_pays_mispredict_penalty(self):
        # data-dependent branch pattern the gshare cannot learn perfectly
        a = Asm("branchy")
        a.mov(r(1), 12345)
        a.mov(r(2), 400)
        a.mov(r(5), 0x9E3779B9)
        a.mov(r(6), 0x3C6EF372)
        a.label("loop")
        a.mul(r(1), r(1), r(5))      # LCG state update
        a.add(r(1), r(1), r(6))
        a.ands(r(3), r(1), 0x10000)  # a high bit: effectively random
        a.b("skip", cond=Cond.EQ)
        a.add(r(4), r(4), 1)
        a.label("skip")
        a.subs(r(2), r(2), 1)
        a.b("loop", cond=Cond.NE)
        a.halt()
        res = simulate(a.finish(), MEDIUM.with_mode(RecycleMode.BASELINE))
        assert res.stats.branch_mispredicts > 10
        assert res.stats.branches > 700

    def test_dispatch_stalls_on_tiny_rob(self):
        program = loop_program("logic", logic_chain, iters=200)
        tiny = MEDIUM.variant(rob_size=4, mode=RecycleMode.BASELINE)
        res = simulate(program, tiny)
        assert res.stats.dispatch_stall_cycles > 50


class TestSimdPipeline:
    def test_vmla_chain_runs(self):
        a = Asm("vmla")
        a.data(0x100, bytes(range(16)) * 4)
        a.mov(r(1), 0x100)
        a.mov(r(3), 50)
        a.mov(r(4), 0)
        a.vdup(v(2), r(4), SimdType.I16)
        a.vld1(v(0), r(1))
        a.vld1(v(1), r(1), 16)
        a.label("loop")
        a.vmla(v(2), v(0), v(1), SimdType.I16)
        a.subs(r(3), r(3), 1)
        a.b("loop", cond=Cond.NE)
        a.halt()
        program = a.finish()
        base, red = run_pair(program, MEDIUM)
        assert base.stats.committed == len(generate_trace(program))
        assert red.cycles <= base.cycles

    def test_simd_type_slack_recycled(self):
        """A dependent chain of narrow (I8) VADDs recycles; I64 cannot."""
        def make(dtype):
            a = Asm(f"vadd-{dtype.name}")
            a.mov(r(3), 300)
            a.mov(r(4), 1)
            a.vdup(v(0), r(4), dtype)
            a.vdup(v(1), r(4), dtype)
            a.label("loop")
            for _ in range(3):
                a.vadd(v(0), v(0), v(1), dtype)
            a.subs(r(3), r(3), 1)
            a.b("loop", cond=Cond.NE)
            a.halt()
            return a.finish()
        narrow = run_pair(make(SimdType.I8), BIG)
        wide = run_pair(make(SimdType.I64), BIG)
        narrow_speedup = narrow[0].cycles / narrow[1].cycles
        wide_speedup = wide[0].cycles / wide[1].cycles
        assert narrow_speedup > wide_speedup
        assert narrow_speedup > 1.2


class TestDeterminism:
    def test_simulation_is_deterministic(self):
        program = loop_program("det", logic_chain, iters=150)
        a = simulate(program, MEDIUM)
        b = simulate(program, MEDIUM)
        assert a.cycles == b.cycles
        assert a.stats.recycled_ops == b.stats.recycled_ops
