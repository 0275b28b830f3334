"""Trace contexts, spans, trees, coverage, export, CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.trace import (
    IdSource,
    Span,
    SpanRecorder,
    TraceContext,
    Tracer,
    coverage_report,
    main as trace_main,
    merge_chrome_traces,
    read_spans_jsonl,
    span_from_json_obj,
    span_trees,
    spans_chrome_trace,
    trace_coverage,
    validate_spans,
    write_spans_jsonl,
)


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        header = ctx.to_traceparent()
        assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"
        parsed = TraceContext.parse(header)
        assert parsed == ctx

    def test_unsampled_flag_survives(self):
        ctx = TraceContext("ab" * 16, "cd" * 8, sampled=False)
        assert ctx.to_traceparent().endswith("-00")
        assert TraceContext.parse(ctx.to_traceparent()) == ctx

    @pytest.mark.parametrize("header", [
        None, "", "garbage", "00-short-span-01",
        "00-" + "g" * 32 + "-" + "cd" * 8 + "-01",   # non-hex
        "00-" + "0" * 32 + "-" + "cd" * 8 + "-01",   # all-zero trace
        "00-" + "ab" * 16 + "-" + "0" * 16 + "-01",  # all-zero span
        "ff-" + "ab" * 16 + "-" + "cd" * 8 + "-01",  # unknown version
    ])
    def test_malformed_headers_start_fresh_traces(self, header):
        assert TraceContext.parse(header) is None

    def test_parse_is_case_and_whitespace_tolerant(self):
        header = f"  00-{'AB' * 16}-{'CD' * 8}-01  "
        parsed = TraceContext.parse(header)
        assert parsed is not None
        assert parsed.trace_id == "ab" * 16

    def test_dict_round_trip(self):
        ctx = TraceContext("ab" * 16, "cd" * 8, sampled=False)
        assert TraceContext.from_dict(ctx.to_dict()) == ctx


class TestIdSource:
    def test_seeded_ids_are_reproducible(self):
        a, b = IdSource(7), IdSource(7)
        assert a.trace_id() == b.trace_id()
        assert a.span_id() == b.span_id()
        assert IdSource(7).trace_id() != IdSource(8).trace_id()

    def test_ids_are_wire_format(self):
        ids = IdSource(0)
        assert TraceContext.parse(
            TraceContext(ids.trace_id(),
                         ids.span_id()).to_traceparent()) is not None

    def test_owns_its_rng(self):
        # drawing ids must not touch the global random module state
        import random
        random.seed(123)
        before = random.getstate()
        IdSource().trace_id()
        assert random.getstate() == before


class TestTracer:
    def _tracer(self):
        rec = SpanRecorder()
        clock = iter(range(1, 100))
        return Tracer(rec, ids=IdSource(0),
                      clock=lambda: next(clock)), rec

    def test_root_and_child_spans(self):
        tracer, rec = self._tracer()
        root = tracer.start("request", component="serve")
        child = tracer.start("queue.wait", parent=root.ctx,
                             component="queue")
        child.end()
        root.end()
        assert [s.name for s in rec.spans] == ["queue.wait", "request"]
        queue, request = rec.spans
        assert queue.trace_id == request.trace_id
        assert queue.parent_id == request.span_id
        assert request.parent_id is None

    def test_context_manager_marks_errors(self):
        tracer, rec = self._tracer()
        with pytest.raises(RuntimeError):
            with tracer.start("boom"):
                raise RuntimeError("x")
        assert rec.spans[0].status == "error"

    def test_set_attrs_and_explicit_start(self):
        tracer, rec = self._tracer()
        span = tracer.start("queue.wait", start_us=5, priority="low")
        span.set(depth=3).end(status="ok")
        assert rec.spans[0].start_us == 5
        assert rec.spans[0].attrs == {"priority": "low", "depth": 3}

    def test_record_json_re_emits_worker_spans(self):
        tracer, rec = self._tracer()
        obj = Span(name="engine.simulate", trace_id="ab" * 16,
                   span_id="cd" * 8, start_us=1,
                   end_us=9).to_json_obj()
        tracer.record_json([obj])
        assert rec.spans[0].name == "engine.simulate"
        assert rec.spans[0].duration_us == 8


class TestPersistence:
    def _spans(self):
        return [
            Span("request", "ab" * 16, "11" * 8, start_us=0,
                 end_us=100, component="serve",
                 attrs={"path": "/v1/simulate"}),
            Span("queue.wait", "ab" * 16, "22" * 8,
                 parent_id="11" * 8, start_us=0, end_us=10,
                 component="queue"),
        ]

    def test_jsonl_round_trip(self, tmp_path):
        path = write_spans_jsonl(self._spans(),
                                 tmp_path / "spans.jsonl")
        loaded = read_spans_jsonl(path)
        assert loaded == self._spans()

    def test_sink_is_one_object_per_line(self, tmp_path):
        path = write_spans_jsonl(self._spans(), tmp_path / "s.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["name"] == "request"

    def test_json_obj_defaults(self):
        span = span_from_json_obj({
            "name": "x", "trace_id": "ab" * 16, "span_id": "cd" * 8,
            "start_us": 1, "end_us": 2})
        assert span.parent_id is None
        assert span.status == "ok"
        assert span.attrs == {}


def _obj(name, trace, span, parent=None, start=0, end=10):
    obj = {"name": name, "trace_id": trace, "span_id": span,
           "start_us": start, "end_us": end}
    if parent is not None:
        obj["parent_id"] = parent
    return obj


class TestValidateSpans:
    TRACE = "ab" * 16

    def test_clean_stream_passes(self):
        objs = [_obj("request", self.TRACE, "11" * 8),
                _obj("queue.wait", self.TRACE, "22" * 8,
                     parent="11" * 8)]
        assert validate_spans(objs) == []

    def test_remote_parented_root_is_not_an_error(self):
        # the server's request span parents to the client SDK's span,
        # which lives in the client's own export — still a valid root
        objs = [_obj("request", self.TRACE, "11" * 8,
                     parent="ee" * 8)]
        assert validate_spans(objs) == []

    def test_parent_cycle_fails(self):
        objs = [_obj("a", self.TRACE, "11" * 8, parent="22" * 8),
                _obj("b", self.TRACE, "22" * 8, parent="11" * 8)]
        assert any("no root span" in p for p in validate_spans(objs))

    def test_bad_ids_and_timestamps_fail(self):
        problems = validate_spans([
            _obj("x", "nothex", "11" * 8),
            _obj("y", self.TRACE, "shrt"),
            _obj("z", self.TRACE, "33" * 8, start=10, end=5),
        ])
        assert any("bad trace_id" in p for p in problems)
        assert any("bad span_id" in p for p in problems)
        assert any("ends before it starts" in p for p in problems)

    def test_duplicate_span_ids_fail(self):
        objs = [_obj("a", self.TRACE, "11" * 8),
                _obj("b", self.TRACE, "11" * 8)]
        assert any("duplicate span_id" in p
                   for p in validate_spans(objs))

    def test_missing_keys_fail(self):
        assert any("missing" in p for p in validate_spans(
            [{"name": "x", "trace_id": self.TRACE}]))


class TestSpanTrees:
    TRACE = "ab" * 16

    def _spans(self):
        return [
            Span("request", self.TRACE, "11" * 8, start_us=0,
                 end_us=100),
            Span("queue.wait", self.TRACE, "22" * 8,
                 parent_id="11" * 8, start_us=0, end_us=20),
            Span("worker.attempt", self.TRACE, "33" * 8,
                 parent_id="11" * 8, start_us=20, end_us=100),
            Span("engine.simulate", self.TRACE, "44" * 8,
                 parent_id="33" * 8, start_us=30, end_us=90),
        ]

    def test_tree_reconstruction(self):
        trees = span_trees(self._spans())
        (root,) = trees[self.TRACE]
        assert root.span.name == "request"
        names = {c.span.name for c in root.children}
        assert names == {"queue.wait", "worker.attempt"}
        attempt = next(c for c in root.children
                       if c.span.name == "worker.attempt")
        assert attempt.children[0].span.name == "engine.simulate"

    def test_retries_give_multiple_roots_per_trace(self):
        spans = [Span("request", self.TRACE, f"{i}{i}" * 8,
                      parent_id="ee" * 8, start_us=i * 100,
                      end_us=i * 100 + 50) for i in (1, 2, 3)]
        roots = span_trees(spans)[self.TRACE]
        assert len(roots) == 3
        assert [r.span.start_us for r in roots] == [100, 200, 300]

    def test_walk_orders_children_by_start(self):
        trees = span_trees(self._spans())
        names = [span.name
                 for _, span in trees[self.TRACE][0].walk()]
        assert names == ["request", "queue.wait", "worker.attempt",
                         "engine.simulate"]


class TestCoverage:
    TRACE = "ab" * 16

    def _tree(self, child_intervals):
        spans = [Span("request", self.TRACE, "00" * 8, start_us=0,
                      end_us=100)]
        for i, (start, end) in enumerate(child_intervals):
            spans.append(Span(f"seg{i}", self.TRACE,
                              f"{i + 1:02d}" * 8,
                              parent_id="00" * 8, start_us=start,
                              end_us=end))
        (root,) = span_trees(spans)[self.TRACE]
        return root

    def test_full_coverage(self):
        assert trace_coverage(self._tree([(0, 60), (60, 100)])) == 1.0

    def test_gaps_reduce_coverage(self):
        assert trace_coverage(self._tree([(0, 25), (75, 100)])) \
            == pytest.approx(0.5)

    def test_overlapping_children_count_once(self):
        # a sweep's parallel fan-out overlaps; union, not sum
        assert trace_coverage(self._tree([(0, 80), (20, 80)])) \
            == pytest.approx(0.8)

    def test_zero_duration_root_is_fully_covered(self):
        root = span_trees([Span("request", self.TRACE, "00" * 8,
                                start_us=5, end_us=5)])[self.TRACE][0]
        assert trace_coverage(root) == 1.0

    def test_coverage_report_scores_only_fanned_out_roots(self):
        spans = [
            Span("request", "aa" * 16, "11" * 8, start_us=0,
                 end_us=100),
            Span("worker.attempt", "aa" * 16, "22" * 8,
                 parent_id="11" * 8, start_us=0, end_us=90),
            # an LRU hit: segmentless by design, must not drag the gate
            Span("request", "bb" * 16, "33" * 8, start_us=0,
                 end_us=10),
        ]
        report = coverage_report(spans)
        assert report["traces"] == 2
        assert report["scored"] == 1
        assert report["segmentless"] == 1
        assert report["coverage_p50"] == pytest.approx(0.9)


class TestChromeExport:
    TRACE = "ab" * 16

    def _spans(self):
        return [
            Span("request", self.TRACE, "11" * 8, start_us=1000,
                 end_us=2000, component="serve"),
            Span("engine.simulate", self.TRACE, "22" * 8,
                 parent_id="11" * 8, start_us=1200, end_us=1900,
                 attrs={"worker": "pid-42"}),
        ]

    def test_one_track_per_component_and_worker(self):
        doc = spans_chrome_trace(self._spans())
        threads = [e["args"]["name"] for e in doc["traceEvents"]
                   if e["name"] == "thread_name"]
        assert "serve" in threads
        assert "worker pid-42" in threads

    def test_timestamps_are_relative_to_earliest_span(self):
        doc = spans_chrome_trace(self._spans())
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(s["ts"] for s in slices) == 0
        sim = next(s for s in slices
                   if s["name"] == "engine.simulate")
        assert sim["ts"] == 200 and sim["dur"] == 700
        assert sim["args"]["trace_id"] == self.TRACE

    def test_empty_stream(self):
        assert spans_chrome_trace([])["traceEvents"] == []

    def test_merge_renumbers_pids(self):
        doc = merge_chrome_traces(
            spans_chrome_trace(self._spans()),
            {"traceEvents": [{"name": "sim", "ph": "X", "pid": 100,
                              "tid": 1, "ts": 0, "dur": 5}]})
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, 2}


class TestCli:
    TRACE = "ab" * 16

    def _write(self, tmp_path, spans):
        return write_spans_jsonl(spans, tmp_path / "spans.jsonl")

    def _good_spans(self):
        return [
            Span("request", self.TRACE, "11" * 8, start_us=0,
                 end_us=100, component="serve"),
            Span("worker.attempt", self.TRACE, "22" * 8,
                 parent_id="11" * 8, start_us=0, end_us=98),
        ]

    def test_validate_ok(self, tmp_path, capsys):
        path = self._write(tmp_path, self._good_spans())
        assert trace_main(["validate", str(path)]) == 0
        assert "0 problem(s)" in capsys.readouterr().out

    def test_validate_catches_cycles(self, tmp_path):
        spans = [Span("a", self.TRACE, "11" * 8, parent_id="22" * 8,
                      start_us=0, end_us=1),
                 Span("b", self.TRACE, "22" * 8, parent_id="11" * 8,
                      start_us=0, end_us=1)]
        path = self._write(tmp_path, spans)
        assert trace_main(["validate", str(path)]) == 1

    def test_perfetto_writes_document(self, tmp_path):
        path = self._write(tmp_path, self._good_spans())
        out = tmp_path / "trace.json"
        assert trace_main(["perfetto", str(path),
                           "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])

    def test_coverage_gate_passes_and_fails(self, tmp_path):
        path = self._write(tmp_path, self._good_spans())
        assert trace_main(["coverage", str(path),
                           "--min-coverage", "0.9"]) == 0
        assert trace_main(["coverage", str(path),
                           "--min-coverage", "0.999"]) == 1

    def _requests(self, coverages):
        """One request tree per coverage: a 100 µs root whose one
        child covers that fraction of it."""
        spans = []
        for i, coverage in enumerate(coverages):
            trace = f"{i + 1:032x}"
            spans += [
                Span("request", trace, "11" * 8, start_us=0, end_us=100,
                     component="serve"),
                Span("worker.attempt", trace, "22" * 8,
                     parent_id="11" * 8, start_us=0,
                     end_us=round(coverage * 100)),
            ]
        return spans

    def _coverage(self, tmp_path, coverages, bound="0.9"):
        path = self._write(tmp_path, self._requests(coverages))
        return trace_main(["coverage", str(path),
                           "--min-coverage", bound])

    def test_coverage_passes_with_worst_request_above_floor(
            self, tmp_path):
        # the worst request, 0.75, is below 0.9 but above 0.8 * 0.9
        assert self._coverage(tmp_path, [0.75, 0.95, 0.98]) == 0

    def test_coverage_fails_on_median_below_bound(self, tmp_path, capsys):
        # the minimum, 0.85, clears 0.8 * 0.9; the median does not
        assert self._coverage(tmp_path, [0.85, 0.85, 0.99]) == 1
        assert "FAIL: coverage p50=0.85 (bound 0.9)" in \
            capsys.readouterr().err

    def test_coverage_fails_on_minimum_below_floor(self, tmp_path, capsys):
        # the median, 0.98, clears 0.9; the worst request is below 0.72
        assert self._coverage(tmp_path, [0.5, 0.98, 0.98]) == 1
        assert "min=0.5 (bound 0.72)" in capsys.readouterr().err

    def test_cli_module_runs_without_runpy_warning(self, tmp_path):
        path = self._write(tmp_path, self._good_spans())
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.obs.trace", "validate", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "Warning" not in proc.stderr
        assert "2 spans, 0 problem(s)" in proc.stdout

    def test_tree_prints_by_prefix(self, tmp_path, capsys):
        path = self._write(tmp_path, self._good_spans())
        assert trace_main(["tree", str(path), self.TRACE[:8]]) == 0
        out = capsys.readouterr().out
        assert "request" in out and "worker.attempt" in out

    def test_tree_unknown_trace(self, tmp_path):
        path = self._write(tmp_path, self._good_spans())
        assert trace_main(["tree", str(path), "ff" * 16]) == 2
