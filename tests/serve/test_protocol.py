"""Request validation: every malformed body is a typed 4xx."""

import pytest

from repro.isa import assemble_text, program_to_dict
from repro.serve.protocol import (
    API_VERSION,
    MAX_SWEEP_JOBS,
    MAX_VERIFY_BUDGET,
    Priority,
    RequestError,
    parse_request,
)

SPIN = "mov r1, #3\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"
#: HALT is reachable only by falling off the end past ``end``
FALLS_THROUGH = "mov r1, #1\nb end\nhalt\nend: add r1, r1, #1\n"


def err(kind, body):
    with pytest.raises(RequestError) as exc_info:
        parse_request(kind, body)
    return exc_info.value


class TestEnvelope:
    def test_unknown_kind_is_404(self):
        exc = err("transmogrify", {})
        assert (exc.status, exc.code) == (404, "unknown-endpoint")

    def test_non_object_body(self):
        assert err("simulate", [1, 2]).code == "bad-body"

    def test_wrong_api_version(self):
        exc = err("simulate", {"api": 99, "suite": "ml",
                               "bench": "pool0", "core": "small",
                               "mode": "baseline"})
        assert exc.code == "bad-api-version"

    def test_error_payload_shape(self):
        payload = err("simulate", {}).to_payload()
        assert payload["api"] == API_VERSION
        assert set(payload) == {"api", "error", "message"}


class TestSimulate:
    NAMED = {"suite": "ml", "bench": "pool0",
             "core": "small", "mode": "baseline"}

    def test_named_workload_parses(self):
        spec = parse_request("simulate", dict(self.NAMED))
        assert spec.kind == "simulate"
        assert spec.priority is Priority.INTERACTIVE
        [payload] = spec.worker_payloads()
        assert payload["suite"] == "ml" and payload["core"] == "small"

    def test_unknown_suite_bench_core_mode(self):
        for field, code in [("suite", "unknown-suite"),
                            ("bench", "unknown-bench"),
                            ("core", "unknown-core"),
                            ("mode", "unknown-mode")]:
            body = dict(self.NAMED)
            body[field] = "nope"
            assert err("simulate", body).code == code

    def test_neither_named_nor_inline(self):
        assert err("simulate", {"core": "small",
                                "mode": "baseline"}).code == "bad-workload"

    def test_both_named_and_inline(self):
        body = dict(self.NAMED)
        body["asm"] = SPIN
        assert err("simulate", body).code == "bad-workload"

    def test_inline_asm_is_assembled_server_side(self):
        spec = parse_request("simulate", {"asm": SPIN, "core": "small",
                                          "mode": "redsoc"})
        [payload] = spec.worker_payloads()
        assert "program" in payload      # serialised, not text
        assert payload["program"]["instructions"]

    def test_bad_asm_is_a_400(self):
        exc = err("simulate", {"asm": "frobnicate r1\nhalt",
                               "core": "small", "mode": "baseline"})
        assert (exc.status, exc.code) == (400, "bad-asm")
        assert "line 1" in exc.message

    def test_undefined_label_is_a_400(self):
        exc = err("simulate", {"asm": "b nowhere\nhalt",
                               "core": "small", "mode": "baseline"})
        assert exc.code == "bad-asm"

    def test_program_falling_off_its_end_is_a_400(self):
        exc = err("simulate", {"asm": FALLS_THROUGH, "core": "small",
                               "mode": "baseline"})
        assert (exc.status, exc.code) == (400, "bad-asm")
        assert "falls through" in exc.message

    @pytest.mark.parametrize("entry", [7, -1, 4])
    def test_program_entry_out_of_range_is_a_400(self, entry):
        program = program_to_dict(assemble_text(SPIN))   # 4 instructions
        program["entry"] = entry
        exc = err("simulate", {"program": program, "core": "small",
                               "mode": "baseline"})
        assert (exc.status, exc.code) == (400, "bad-program")
        assert "entry" in exc.message

    def test_program_form_falling_through_is_a_400(self):
        program = program_to_dict(assemble_text(SPIN))
        program["instructions"].append({"op": "NOP"})
        exc = err("simulate", {"program": program, "core": "small",
                               "mode": "baseline"})
        assert (exc.status, exc.code) == (400, "bad-program")

    @pytest.mark.parametrize("bad, why", [
        ({"op": "ADD", "rn": "r1", "imm": 1}, "lacks a register operand"),
        ({"op": "ADD", "rd": "r2", "rn": "r1", "imm": "x"},
         "'imm' must be an integer"),
        ({"op": "ADD", "rd": "r2", "rn": "r1", "imm": 1.5},
         "'imm' must be an integer"),
        ({"op": "MOV", "rd": "r2", "rm": "r1", "shift": "lsl",
          "shift_amt": "2"}, "'shift_amt' must be an integer"),
        ({"op": "LDR", "rd": "r2", "rn": "r1", "rm": "r3", "scale": None},
         "'scale' must be an integer"),
        ({"op": "ADD", "rd": "r2", "rn": "r1", "imm": 1, "s": 1},
         "'s' must be a bool"),
        ({"op": "B", "target": 1.0}, "'target' must be an integer"),
        ({"op": "B"}, "has no branch target"),
    ])
    def test_program_form_malformed_instruction_is_a_400(self, bad, why):
        program = {"name": "bad", "instructions": [
            {"op": "MOV", "rd": "r1", "imm": 3}, bad, {"op": "HALT"}]}
        exc = err("simulate", {"program": program, "core": "small",
                               "mode": "baseline"})
        assert (exc.status, exc.code) == (400, "bad-program")
        assert "pc 1" in exc.message and why in exc.message

    def test_program_form_label_target_still_resolves(self):
        program = program_to_dict(assemble_text(SPIN))
        program["instructions"][2]["target"] = "loop"
        spec = parse_request("simulate", {"program": program,
                                          "core": "small",
                                          "mode": "baseline"})
        [payload] = spec.worker_payloads()
        assert payload["program"]["instructions"][2]["target"] == 1

    def test_bad_scale(self):
        body = dict(self.NAMED)
        body["scale"] = 0
        assert err("simulate", body).code == "bad-scale"

    def test_bad_deadline_and_priority(self):
        body = dict(self.NAMED)
        body["deadline_ms"] = -5
        assert err("simulate", body).code == "bad-deadline"
        body = dict(self.NAMED)
        body["priority"] = "urgent"
        assert err("simulate", body).code == "bad-priority"

    def test_batch_priority(self):
        body = dict(self.NAMED)
        body["priority"] = "batch"
        spec = parse_request("simulate", body)
        assert spec.priority is Priority.BATCH


class TestFingerprint:
    BODY = {"suite": "ml", "bench": "pool0",
            "core": "small", "mode": "baseline"}

    def test_same_work_same_fingerprint(self):
        a = parse_request("simulate", dict(self.BODY))
        b = parse_request("simulate", dict(self.BODY))
        assert a.fingerprint == b.fingerprint

    def test_deadline_and_priority_excluded(self):
        hurried = dict(self.BODY, deadline_ms=500, priority="batch")
        assert parse_request("simulate", hurried).fingerprint == \
            parse_request("simulate", dict(self.BODY)).fingerprint

    def test_work_changes_fingerprint(self):
        other = dict(self.BODY, mode="redsoc")
        assert parse_request("simulate", other).fingerprint != \
            parse_request("simulate", dict(self.BODY)).fingerprint

    def test_inline_equivalent_to_itself(self):
        body = {"asm": SPIN, "core": "small", "mode": "baseline"}
        assert parse_request("simulate", dict(body)).fingerprint == \
            parse_request("simulate", dict(body)).fingerprint


class TestSweep:
    def test_defaults_cover_grid(self):
        spec = parse_request("sweep", {"suite": "ml", "bench": "pool0",
                                       "cores": ["small"],
                                       "modes": ["baseline", "redsoc"]})
        assert spec.kind == "sweep"
        payloads = spec.worker_payloads()
        assert [(p["core"], p["mode"]) for p in payloads] == \
            [("small", "baseline"), ("small", "redsoc")]

    def test_duplicates_collapse_and_full_grid_fits_cap(self):
        spec = parse_request("sweep", {"suite": "ml", "bench": "pool0",
                                       "cores": ["small", "small"],
                                       "modes": ["baseline"]})
        assert spec.cores == ("small",)
        # the defaults grid (all cores x all modes) must stay servable
        full = parse_request("sweep", {"suite": "ml", "bench": "pool0"})
        assert len(full.worker_payloads()) <= MAX_SWEEP_JOBS

    def test_empty_grid_rejected(self):
        exc = err("sweep", {"suite": "ml", "bench": "pool0",
                            "cores": [], "modes": ["baseline"]})
        assert exc.code == "bad-grid"

    def test_unknown_core_in_grid(self):
        exc = err("sweep", {"suite": "ml", "bench": "pool0",
                            "cores": ["small", "nope"],
                            "modes": ["baseline"]})
        assert exc.code == "unknown-core"


class TestVerify:
    def test_defaults(self):
        spec = parse_request("verify", {"seed": 7})
        [payload] = spec.worker_payloads()
        assert payload == {"seed": 7, "budget": 10, "core": "small",
                           "metamorphic": True}

    def test_budget_bounds(self):
        assert err("verify", {"budget": 0}).code == "bad-budget"
        assert err("verify",
                   {"budget": MAX_VERIFY_BUDGET + 1}).code == "bad-budget"
        assert err("verify", {"budget": True}).code == "bad-budget"

    def test_bad_seed(self):
        assert err("verify", {"seed": -1}).code == "bad-seed"

    def test_bad_metamorphic(self):
        assert err("verify", {"metamorphic": "yes"}).code == \
            "bad-metamorphic"


class TestEngine:
    NAMED = {"suite": "ml", "bench": "pool0",
             "core": "small", "mode": "baseline"}

    def test_simulate_engine_parses_and_reaches_payload(self):
        spec = parse_request("simulate",
                             dict(self.NAMED, engine="compiled"))
        assert spec.engine == "compiled"
        [payload] = spec.worker_payloads()
        assert payload["engine"] == "compiled"

    def test_engine_absent_means_server_default(self):
        spec = parse_request("simulate", dict(self.NAMED))
        assert spec.engine is None
        [payload] = spec.worker_payloads()
        assert "engine" not in payload

    def test_unknown_engine_is_a_400(self):
        for kind, body in [
                ("simulate", dict(self.NAMED, engine="warp")),
                ("sweep", {"suite": "ml", "bench": "pool0",
                           "engine": "warp"})]:
            exc = err(kind, body)
            assert (exc.status, exc.code) == (400, "unknown-engine")
            # the 400 must enumerate every registered backend so a
            # client can self-correct
            for name in ("reference", "compiled"):
                assert name in exc.message

    @pytest.mark.parametrize("name", ["fast", "vector"])
    def test_removed_engines_are_a_400(self, name):
        exc = err("simulate", dict(self.NAMED, engine=name))
        assert (exc.status, exc.code) == (400, "unknown-engine")
        assert "'reference'" in exc.message
        assert "'compiled'" in exc.message

    def test_engine_changes_fingerprint_only_when_pinned(self):
        base = parse_request("simulate", dict(self.NAMED))
        pinned = parse_request("simulate",
                               dict(self.NAMED, engine="reference"))
        assert pinned.fingerprint != base.fingerprint

    def test_sweep_engine_reaches_every_payload(self):
        spec = parse_request("sweep",
                             {"suite": "ml", "bench": "pool0",
                              "cores": ["small"],
                              "modes": ["baseline", "redsoc"],
                              "engine": "compiled"})
        assert all(p["engine"] == "compiled"
                   for p in spec.worker_payloads())

    def test_verify_engines_validated_and_deduped(self):
        spec = parse_request(
            "verify", {"seed": 1,
                       "engines": ["compiled", "reference", "compiled"]})
        assert spec.engines == ("compiled", "reference")
        [payload] = spec.worker_payloads()
        assert payload["engines"] == ["compiled", "reference"]

    def test_verify_bad_engines(self):
        assert err("verify", {"engines": "compiled"}).code == \
            "bad-engines"
        assert err("verify", {"engines": ["warp"]}).code == \
            "unknown-engine"
