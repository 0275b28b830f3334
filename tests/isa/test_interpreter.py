"""Unit tests for the reference interpreter (the golden model)."""


import pytest

from repro.isa import Asm, Cond, Interpreter, r, run_program
from repro.pipeline.trace import generate_trace


def counting_program(n=5):
    a = Asm("count")
    a.mov(r(1), n)
    a.mov(r(2), 0)
    a.label("loop")
    a.add(r(2), r(2), 1)
    a.subs(r(1), r(1), 1)
    a.b("loop", cond=Cond.NE)
    a.halt()
    return a.finish()


class TestInterpreter:
    def test_runs_to_halt(self):
        result = run_program(counting_program(5))
        assert result.halted
        assert result.regs.read(r(2)) == 5

    def test_instruction_count(self):
        result = run_program(counting_program(3))
        assert result.instructions == 2 + 3 * 3 + 1

    def test_init_regs(self):
        a = Asm("echo")
        a.add(r(2), r(1), 0)
        a.halt()
        result = Interpreter(a.finish(), init_regs={r(1): 77}).run()
        assert result.regs.read(r(2)) == 77

    def test_instruction_cap_reported_not_raised(self):
        interp = Interpreter(counting_program(10**6),
                             max_instructions=100)
        result = interp.run()
        assert not result.halted
        assert result.instructions == 100

    def test_width_tracing(self):
        interp = Interpreter(counting_program(2))
        result = interp.run(record=True)
        assert len(result.trace) == result.instructions
        assert all(1 <= w <= 32 for _, _, w, _, _, _ in result.trace)

    def test_record_keeps_every_outcome(self):
        result = Interpreter(counting_program(2)).run(record=True)
        pcs = [pc for pc, *_ in result.trace]
        assert pcs == [0, 1, 2, 3, 4, 2, 3, 4, 5]
        taken = [t for _, t, *_ in result.trace]
        assert taken == [False] * 4 + [True] + [False] * 4
        assert all(addr is None and size == 0 and not store
                   for _, _, _, addr, size, store in result.trace)

    def test_arch_state_snapshot(self):
        result = run_program(counting_program(2))
        state = result.arch_state()
        assert "regs" in state and "mem" in state

    def test_matches_trace_generator_exactly(self):
        """The two functional paths (interpreter, trace generator) agree
        on every architectural outcome."""
        program = counting_program(9)
        interp = run_program(program)
        trace = generate_trace(program)
        assert trace.final_regs == interp.regs.snapshot()
        assert trace.final_mem == interp.mem.snapshot()
        assert len(trace) == interp.instructions


class TestProgramValidation:
    """validate() keeps every reachable pc inside the program."""

    def _program(self, last):
        a = Asm("tail")
        a.mov(r(1), 1)
        a.b("end", cond=Cond.NE)
        a.halt()
        a.label("end")
        last(a)
        return a

    @pytest.mark.parametrize("last", [
        lambda a: a.halt(),
        lambda a: a.b("end"),
        lambda a: a.bl("end", link=r(14)),
    ], ids=["halt", "b", "bl"])
    def test_last_instruction_that_cannot_fall_through(self, last):
        self._program(last).finish()

    @pytest.mark.parametrize("last", [
        lambda a: a.add(r(1), r(1), 1),
        lambda a: a.b("end", cond=Cond.EQ),
        lambda a: a.nop(),
    ], ids=["alu", "conditional-b", "nop"])
    def test_last_instruction_falling_through_is_rejected(self, last):
        with pytest.raises(ValueError, match="falls through"):
            self._program(last).finish()

    @pytest.mark.parametrize("entry", [-1, 6, 7, "0"])
    def test_entry_outside_the_program_is_rejected(self, entry):
        program = counting_program(2)
        program.entry = entry
        with pytest.raises(ValueError, match="entry"):
            program.validate()
        with pytest.raises(ValueError, match="entry"):
            generate_trace(program)

    def test_entry_inside_the_program_runs_from_there(self):
        program = counting_program(2)
        program.entry = 5                   # the HALT
        assert [e.pc for e in generate_trace(program).entries] == [5]
        assert run_program(program).instructions == 1
