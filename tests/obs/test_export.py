"""Exporter tests: Perfetto/Chrome trace schema + audit agreement.

The acceptance bar for the whole tracing layer lives here:

* the Chrome trace-event JSON passes a schema check (loads in
  Perfetto),
* its per-uop slices agree **tick-for-tick** with the windows
  ``repro.core.audit`` records on a live instrumented run,
* a run with tracing disabled produces cycle counts identical to an
  uninstrumented run.
"""

import json

from repro.core import CORES, CoreSimulator
from repro.core.audit import _RecordingSimulator
from repro.obs import (
    EventKind,
    MetricsRegistry,
    Recorder,
    chrome_trace,
    metrics_to_jsonl,
    read_events_jsonl,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_jsonl,
)
from repro.obs.export import (
    exec_slices,
    load_chrome_trace,
    validate_chrome_trace,
)
from repro.pipeline.trace import generate_trace
from repro.workloads.microbench import MICROBENCHES
from repro.workloads.suites import SUITES


def _traced_audit_run(trace, core="big"):
    recorder = Recorder()
    sim = _RecordingSimulator(trace, CORES[core], obs=recorder)
    result = sim.run()
    return sim, result, recorder


class TestChromeTrace:
    def test_schema_valid_and_json_serialisable(self):
        trace = generate_trace(MICROBENCHES["logic"].build(40))
        _, _, recorder = _traced_audit_run(trace)
        doc = chrome_trace(recorder.events)
        assert validate_chrome_trace(doc) == []
        json.dumps(doc)  # must be JSON-clean

    def test_one_track_per_fu_plus_sched(self):
        trace = generate_trace(SUITES["ml"]["pool0"](scale=3))
        _, _, recorder = _traced_audit_run(trace, core="small")
        doc = chrome_trace(recorder.events)
        names = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "M" and ev["name"] == "thread_name"}
        # every FU pool from META gets a named track
        meta = recorder.of_kind(EventKind.META)[0]
        for fu in meta.data["pools"]:
            assert f"FU {fu}" in names
        assert "sched" in names

    def test_slices_agree_tick_for_tick_with_audit_log(self):
        """Acceptance: Perfetto slices == the auditor's windows."""
        for bench, n in (("logic", 40), ("wide-arith", 30)):
            trace = generate_trace(MICROBENCHES[bench].build(n))
            sim, _, recorder = _traced_audit_run(trace)
            doc = chrome_trace(recorder.events)
            slices = exec_slices(doc)
            assert len(slices) == len(sim.windows)
            for window in sim.windows:
                assert slices[window.seq]["start"] == window.data["start"]
                assert slices[window.seq]["end"] == window.data["end"]

    def test_handoff_and_hold_markers(self):
        trace = generate_trace(MICROBENCHES["logic"].build(40))
        _, result, recorder = _traced_audit_run(trace)
        doc = chrome_trace(recorder.events)
        handoffs = [ev for ev in doc["traceEvents"]
                    if ev["name"] == "transparent hand-off"]
        holds = [ev for ev in doc["traceEvents"]
                 if ev.get("cat") == "hold"]
        assert len(handoffs) == result.stats.recycled_ops
        assert len(holds) == result.stats.two_cycle_holds

    def test_write_and_load_round_trip(self, tmp_path):
        trace = generate_trace(MICROBENCHES["shift"].build(20))
        _, _, recorder = _traced_audit_run(trace)
        path = write_chrome_trace(recorder.events,
                                  tmp_path / "out" / "trace.json")
        doc = load_chrome_trace(path)
        assert validate_chrome_trace(doc) == []

    def test_validator_catches_malformed_documents(self):
        assert validate_chrome_trace({}) == \
            ["traceEvents missing or not a list"]
        bad = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": -2,
             "name": "x"},
            {"name": "y", "ph": "i", "pid": 1, "tid": 1, "ts": 3},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("bad dur" in p for p in problems)
        assert any("without scope" in p for p in problems)


class TestEventsJsonl:
    def test_file_round_trip(self, tmp_path):
        trace = generate_trace(MICROBENCHES["logic"].build(25))
        _, _, recorder = _traced_audit_run(trace)
        path = write_events_jsonl(recorder.events,
                                  tmp_path / "events.jsonl")
        back = read_events_jsonl(path)
        assert back == recorder.events


class TestMetricsExport:
    def test_metrics_jsonl_lines_parse(self, tmp_path):
        m = MetricsRegistry()
        m.counter("core.cycles").set(10)
        m.histogram("slack.per_op").observe(5, 3)
        text = metrics_to_jsonl(m)
        objs = [json.loads(line) for line in text.splitlines()]
        assert {o["metric"] for o in objs} == \
            {"core.cycles", "slack.per_op"}
        path = write_metrics_jsonl(m, tmp_path / "metrics.jsonl")
        assert path.read_text() == text


class TestTraceOffIsBitIdentical:
    def test_cycles_and_stats_identical_without_tracing(self):
        """The instrumentation guard: obs=None runs must match an
        uninstrumented simulator bit for bit (CI additionally pins the
        smoke campaign's cycle counts to the committed reference)."""
        for bench in ("logic", "wide-arith", "simd-i8"):
            trace = generate_trace(MICROBENCHES[bench].build(30))
            plain = CoreSimulator(trace, CORES["medium"]).run()
            traced = CoreSimulator(trace, CORES["medium"],
                                   obs=Recorder()).run()
            assert plain.stats.cycles == traced.stats.cycles
            assert plain.stats == traced.stats
