"""Tests for the differential oracle and the defect-injection seam."""

import pytest

from repro.core.config import RecycleMode, SMALL
from repro.isa.interpreter import run_program
from repro.pipeline.trace import generate_trace
from repro.verify.defects import DEFECTS, inject_defect
from repro.verify.generator import OpSpec, ProgramGenerator, ProgramSpec, \
    materialize
from repro.verify.oracle import check_program


class TestCleanPrograms:
    def test_clean_program_has_no_divergence(self):
        verdict = check_program(ProgramGenerator(0).program(0))
        assert verdict.ok
        assert verdict.instructions > 0
        for mode in RecycleMode:
            assert verdict.cycles[mode.value] > 0

    def test_metamorphic_adds_variant_cycles(self):
        verdict = check_program(ProgramGenerator(0).program(1))
        assert "redsoc-noegpw" in verdict.cycles
        assert "redsoc-coarse-ci" in verdict.cycles

    def test_metamorphic_can_be_skipped(self):
        verdict = check_program(ProgramGenerator(0).program(1),
                                metamorphic=False)
        assert verdict.ok
        assert "redsoc-noegpw" not in verdict.cycles

    def test_mode_subset(self):
        verdict = check_program(ProgramGenerator(0).program(2),
                                modes=[RecycleMode.BASELINE],
                                metamorphic=False)
        assert verdict.ok
        assert list(verdict.cycles) == [RecycleMode.BASELINE.value]


class TestEngineLegs:
    def test_cached_simulate_fn_cannot_answer_engine_legs(
            self, tmp_path, monkeypatch):
        # result keys leave the engine out, so a cache-backed
        # simulate_fn would answer compiled's leg with reference's
        # entry; the legs must run the engine itself and catch this
        from repro.campaign import ResultCache, cached_simulate
        from repro.core.compiled import CompiledSimulator

        original = CompiledSimulator.run

        def one_cycle_late(self):
            result = original(self)
            result.stats.cycles += 1
            return result

        monkeypatch.setattr(CompiledSimulator, "run", one_cycle_late)
        cache = ResultCache(tmp_path / "cache")
        verdict = check_program(
            ProgramGenerator(0).program(0), metamorphic=False,
            engines=["reference", "compiled"],
            simulate_fn=lambda trace, cfg: cached_simulate(
                trace, cfg, cache))
        flagged = {(d.check, d.mode) for d in verdict.divergences}
        assert flagged == {("engine.stats", mode.value)
                           for mode in RecycleMode}


class TestDefectInjection:
    @pytest.mark.parametrize("name", sorted(DEFECTS))
    def test_every_defect_is_caught(self, name):
        # each defect must surface as a golden-vs-trace divergence on at
        # least one of the first generated programs
        gen = ProgramGenerator(0)
        for i in range(40):
            with inject_defect(name):
                verdict = check_program(gen.program(i),
                                        metamorphic=False)
            if not verdict.ok:
                checks = {d.check for d in verdict.divergences}
                assert any(c.startswith("arch.") for c in checks)
                return
        pytest.fail(f"defect {name!r} went undetected in 40 programs")

    def test_injection_only_affects_trace_executor(self):
        spec = ProgramSpec(name="seam", seed="", body=[
            OpSpec(op="EOR", rd="r1", rn="r2", imm=0xFF)])
        program = materialize(spec)
        clean = run_program(program).arch_state()
        with inject_defect("eor-lsb"):
            # golden model keeps its own semantics binding
            assert run_program(program).arch_state() == clean
            assert generate_trace(program).arch_state() != clean

    def test_injection_is_scoped(self):
        program = materialize(ProgramSpec(name="scope", seed="", body=[
            OpSpec(op="EOR", rd="r1", rn="r2", imm=0xFF)]))
        clean = generate_trace(program).arch_state()
        with inject_defect("eor-lsb"):
            assert generate_trace(program).arch_state() != clean
        assert generate_trace(program).arch_state() == clean

    def test_unknown_defect_rejected(self):
        with pytest.raises(KeyError):
            with inject_defect("no-such-defect"):
                pass


class TestDivergenceReporting:
    def test_divergence_detail_names_registers(self):
        program = materialize(ProgramSpec(name="detail", seed="", body=[
            OpSpec(op="EOR", rd="r3", rn="r4", imm=1)]))
        with inject_defect("eor-lsb"):
            verdict = check_program(program, metamorphic=False)
        assert not verdict.ok
        [reg_div] = [d for d in verdict.divergences
                     if d.check == "arch.regs"]
        assert "i3" in reg_div.detail
        assert "golden=" in reg_div.detail

    def test_payload_shape(self):
        verdict = check_program(ProgramGenerator(0).program(3),
                                metamorphic=False)
        payload = verdict.to_payload()
        assert payload["ok"] is True
        assert payload["divergences"] == []
        assert set(payload["cycles"]) == {m.value for m in RecycleMode}


class TestEagerIssueAblation:
    def test_eager_issue_off_still_commits_everything(self):
        from repro.core.audit import audit_run
        program = ProgramGenerator(0).program(4)
        trace = generate_trace(program)
        config = SMALL.with_mode(RecycleMode.REDSOC).variant(
            eager_issue=False)
        audit = audit_run(trace, config)
        assert audit.ok
        assert audit.result.stats.committed == len(trace.entries)
