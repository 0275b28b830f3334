"""Decoded steps vs the golden model (``semantics.execute``).

Every opcode's step must reproduce ``execute`` exactly: the outcome it
records (next pc, taken, op width, memory access, halt) and every
register, flag and memory effect.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.isa import (
    FLAGS,
    Cond,
    Instruction,
    Interpreter,
    Memory,
    Opcode,
    RegisterFile,
    ShiftOp,
    SimdType,
    execute,
    r,
    v,
)
from repro.isa.decode import Machine, decode, new_registers, \
    register_snapshot
from repro.pipeline.trace import generate_trace
from repro.workloads.suites import DEFAULT_SCALES, SUITES

#: registers the generated instructions draw from (scalar-heavy; vector
#: and flags operands exercise the per-class read and write masks)
POOL = [r(0), r(1), r(2), r(3), r(0), r(1), r(2), r(3), v(0), v(1), FLAGS]
EDGE_WORDS = [0, 1, 2, 31, 32, 33, 0x7F, 0xFF, 0x7FFFFFFF, 0x80000000,
              0x80000001, 0xFFFFFFFF, 0xFFFFFFFE]

word = st.one_of(st.sampled_from(EDGE_WORDS),
                 st.integers(0, 64),          # small: lands in the data
                 st.integers(0, 0xFFFFFFFF))
vec = st.one_of(st.just(0), st.integers(0, (1 << 128) - 1))
reg = st.sampled_from(POOL)
opt_reg = st.one_of(st.none(), reg, reg, reg)
imm = st.one_of(st.none(), st.sampled_from([0, 1, 4, -4, -1, 31, 32, 33,
                                            255, 256, 0x80000000]),
                st.integers(-(1 << 32), 1 << 32))


@st.composite
def instructions(draw, op):
    return Instruction(
        op=op, rd=draw(opt_reg), rn=draw(opt_reg), rm=draw(opt_reg),
        ra=draw(opt_reg), rs=draw(opt_reg), imm=draw(imm),
        shift=draw(st.sampled_from(list(ShiftOp))),
        shift_amt=draw(st.one_of(
            st.sampled_from([0, 1, 31, 32, 33, 255, 256, 257]),
            st.integers(0, 300))),
        set_flags=draw(st.booleans()),
        cond=draw(st.sampled_from(list(Cond))),
        target=draw(st.one_of(st.integers(0, 40), st.integers(0, 40),
                              st.none())),
        dtype=draw(st.one_of(st.none(),
                             st.sampled_from(list(SimdType)))),
        scale=draw(st.sampled_from([1, 2, 4])))


state = st.tuples(st.lists(word, min_size=4, max_size=4),
                  st.lists(vec, min_size=2, max_size=2),
                  st.integers(0, 15),
                  st.binary(min_size=96, max_size=96))


def _golden(instr, pc, init, data):
    regs = RegisterFile()
    for reg, value in init.items():
        regs.write(reg, value)
    mem = Memory()
    mem.load_block(0, data)
    try:
        res = execute(instr, regs, mem, pc)
        for reg, value in res.writes.items():
            regs.write(reg, value)
    except (AttributeError, ValueError):
        return "raises"
    if res.is_store:
        mem.write(res.mem_addr, res.store_value, res.mem_size)
    outcome = (res.next_pc, res.taken, res.op_width, res.mem_addr,
               res.mem_size, res.is_store, res.halted)
    return outcome, regs.snapshot(), mem.snapshot()


def _decoded(instr, pc, init, data):
    regs = new_registers(init)
    mem = Memory()
    mem.load_block(0, data)
    recorded = []
    step = decode(instr, pc, Machine(regs, mem, recorded.append,
                                     lambda *fields: fields))
    try:
        returned = step()
    except ValueError:
        return "raises"
    [(e_instr, e_pc, next_pc, taken, width, addr, size, store)] = recorded
    assert e_instr is instr and e_pc == pc
    assert regs[-1] == 0, "the absent-operand slot was written"
    halted = returned == -1
    assert halted or returned == next_pc
    outcome = (next_pc, taken, width, addr, size, store, halted)
    return outcome, register_snapshot(regs), mem.snapshot()


def check_parity(instr, pc, st_):
    ints, vecs, flags, data = st_
    init = {r(i): value for i, value in enumerate(ints)}
    init.update({v(i): value for i, value in enumerate(vecs)})
    init[FLAGS] = flags
    assert _decoded(instr, pc, init, data) == _golden(instr, pc, init,
                                                      data)


@pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.name)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), pc=st.integers(0, 40), st_=state)
def test_every_opcode_matches_execute(op, data, pc, st_):
    check_parity(data.draw(instructions(op)), pc, st_)


def _ins(op, **kw):
    return Instruction(op=op, **kw)


#: r0 = r1 = 0xFFFFFFFF, r2 = 1, r3 = 0, C set: every carry op carries
#: out and every divide by r3 divides by zero
CARRY_SET = ([0xFFFFFFFF, 0xFFFFFFFF, 1, 0], [0, 0], 0b0010, bytes(96))


@pytest.mark.parametrize("instr", [
    _ins(Opcode.ADD, rd=r(0), rn=r(1), rm=r(2), shift=ShiftOp.RRX,
         set_flags=True),
    _ins(Opcode.MOV, rd=r(0), rm=r(2), shift=ShiftOp.RRX, set_flags=True),
    _ins(Opcode.AND, rd=r(0), rn=r(1), rm=r(2), shift=ShiftOp.LSL,
         shift_amt=32, set_flags=True),
    _ins(Opcode.ORR, rd=r(0), rn=r(1), rm=r(2), shift=ShiftOp.LSR,
         shift_amt=33, set_flags=True),
    _ins(Opcode.EOR, rd=r(0), rn=r(1), rm=r(2), shift=ShiftOp.ASR,
         shift_amt=40, set_flags=True),
    _ins(Opcode.BIC, rd=r(0), rn=r(1), rm=r(2), shift=ShiftOp.ROR,
         shift_amt=32, set_flags=True),
    _ins(Opcode.TST, rn=r(1), rm=r(2), shift=ShiftOp.LSL, shift_amt=256),
    _ins(Opcode.RRX, rd=r(0), rn=r(1), set_flags=True),
    _ins(Opcode.LSL, rd=r(0), rn=r(1), rm=r(2), set_flags=True),
    _ins(Opcode.ROR, rd=r(0), rn=r(1), imm=32, set_flags=True),
    _ins(Opcode.ADC, rd=r(0), rn=r(1), rm=r(2), set_flags=True),
    _ins(Opcode.SBC, rd=r(0), rn=r(1), rm=r(2), set_flags=True),
    _ins(Opcode.RSC, rd=r(0), rn=r(1), imm=5, set_flags=True),
    _ins(Opcode.SDIV, rd=r(0), rn=r(1), rm=r(3)),
    _ins(Opcode.UDIV, rd=r(0), rn=r(1), rm=r(3)),
    _ins(Opcode.FDIV, rd=r(0), rn=r(1), rm=r(3)),
    _ins(Opcode.LDRB, rd=r(0), rn=r(2), imm=3),
    _ins(Opcode.STRB, rs=r(1), rn=r(2), imm=-1),
    _ins(Opcode.VLD1, rd=v(0), rn=r(2), rm=r(2), scale=4),
    _ins(Opcode.VST1, rs=v(1), rn=r(2), imm=8),
    _ins(Opcode.BL, rd=r(3), target=7),
    _ins(Opcode.BL, rd=r(3), target=7, cond=Cond.CC),
    # scalar results written to vector and flags registers: each write
    # is cut to 32 bits, then to the destination's register class
    _ins(Opcode.SUB, rd=v(0), rn=r(3), imm=5),
    _ins(Opcode.RSB, rd=v(1), rn=r(1), rm=r(3), shift=ShiftOp.LSL,
         shift_amt=2),
    _ins(Opcode.ADD, rd=FLAGS, rn=r(0), rm=r(1)),
    _ins(Opcode.MUL, rd=v(0), rn=r(0), rm=r(1)),
], ids=repr)
@settings(max_examples=25, deadline=None)
@given(pc=st.integers(0, 40), st_=state)
@example(pc=0, st_=CARRY_SET)
def test_edge_cases_match_execute(instr, pc, st_):
    check_parity(instr, pc, st_)


@pytest.mark.parametrize("cond", list(Cond), ids=lambda c: c.name)
def test_every_condition_on_every_flag_value(cond):
    for flags in range(16):
        check_parity(_ins(Opcode.B, target=9, cond=cond), 3,
                     ([0] * 4, [0, 0], flags, bytes(96)))


LANEWISE = [op for op in Opcode if op.name.startswith("V")
            and op not in (Opcode.VLD1, Opcode.VST1)]


@pytest.mark.parametrize("dtype", list(SimdType), ids=lambda d: d.name)
@pytest.mark.parametrize("op", LANEWISE, ids=lambda op: op.name)
@settings(max_examples=10, deadline=None)
@given(st_=state)
def test_every_simd_type_matches_execute(op, dtype, st_):
    check_parity(_ins(op, rd=v(0), rn=v(1), rm=v(0), ra=v(1),
                      dtype=dtype), 0, st_)


@pytest.mark.parametrize("bad,error,golden_error", [
    # execute reads an absent register as None.cls
    (_ins(Opcode.ADD, rn=r(1), imm=1), ValueError, AttributeError),
    (_ins(Opcode.STR, rn=r(1)), ValueError, AttributeError),
    (_ins(Opcode.ORR, rd=r(0), rn=r(1), imm="1"), TypeError, TypeError),
    (_ins(Opcode.EOR, rd=r(0), rn=r(1), rm=r(2), shift=ShiftOp.LSL,
          shift_amt=None), TypeError, TypeError),
    # execute looks the condition up when the branch runs
    (_ins(Opcode.B, target=3, cond="eq"), ValueError, KeyError),
], ids=["no-rd", "no-rs", "str-imm", "no-shift-amount", "non-cond"])
def test_malformed_instruction_raises_only_when_reached(bad, error,
                                                        golden_error):
    step = decode(bad, 0, Machine(new_registers(), Memory(), [].append,
                                  lambda *f: f))
    with pytest.raises(error):
        step()
    with pytest.raises(golden_error):
        _golden_raise(bad)


def _golden_raise(instr):
    regs = RegisterFile()
    res = execute(instr, regs, Memory(), 0)
    for reg, value in res.writes.items():
        regs.write(reg, value)


HALF_SCALE = [(suite, bench, max(1, DEFAULT_SCALES[suite][bench] // 2))
              for suite in SUITES for bench in SUITES[suite]]


@pytest.mark.parametrize("suite,bench,scale", HALF_SCALE,
                         ids=[f"{s}/{b}" for s, b, _ in HALF_SCALE])
def test_generate_trace_matches_golden_record(suite, bench, scale):
    program = SUITES[suite][bench](scale=scale)
    golden = Interpreter(program).run(record=True)
    trace = generate_trace(program)
    assert [(e.pc, e.taken, e.op_width, e.mem_addr, e.mem_size,
             e.is_store) for e in trace.entries] == golden.trace
    assert [e.next_pc for e in trace.entries[:-1]] == \
        [e.pc for e in trace.entries[1:]]
    assert all(e.instr is program.instructions[e.pc]
               for e in trace.entries)
    assert trace.arch_state() == golden.arch_state()


def test_init_regs_are_honoured_and_masked():
    program = SUITES["mibench"]["bitcnt"](scale=2)
    init = {r(5): 0x1_2345_6789, v(3): (1 << 130) | 7, FLAGS: 0x1F}
    golden = Interpreter(program, init_regs=init).run(record=True)
    trace = generate_trace(program, init_regs=init)
    assert [(e.pc, e.taken, e.op_width, e.mem_addr, e.mem_size,
             e.is_store) for e in trace.entries] == golden.trace
    assert trace.arch_state() == golden.arch_state()
    assert trace.final_regs["vec"][3] == 7
