"""End-to-end trace propagation: client SDK → daemon → worker.

Three legs:

* the **client SDK** keeps one trace id across 429/503 retries while
  minting a fresh span id per attempt (proved against a stub server
  that rejects twice, then accepts);
* the **daemon** continues a valid ``traceparent``, mints on a missing
  or malformed one, echoes ``x-trace-id``, and exports a span tree
  whose segments (queue wait, worker attempt, cache probe, trace gen,
  simulate) hang off the request root and explain its wall time;
* the **chaos leg**: a worker SIGKILLed mid-request leaves a
  ``worker-crash`` attempt span, and the respawned worker's retry
  span carries the *same* trace id — one tree tells the whole story.
"""

import http.client
import http.server
import json
import threading
import time

import pytest

from repro.obs.trace import (
    TraceContext,
    read_spans_jsonl,
    span_trees,
    trace_coverage,
    validate_spans,
)
from repro.serve import ServeClient, ServeConfig, ServeDaemon

SPIN = "mov r1, #%d\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"


class _FlakyHandler(http.server.BaseHTTPRequestHandler):
    """Replies with two retryable errors, then 200 — records headers."""

    protocol_version = "HTTP/1.1"
    statuses = [503, 429, 200]
    seen_traceparents = []

    def do_POST(self):
        self.rfile.read(int(self.headers.get("content-length", 0)))
        type(self).seen_traceparents.append(
            self.headers.get("traceparent"))
        index = min(len(type(self).seen_traceparents) - 1,
                    len(self.statuses) - 1)
        status = self.statuses[index]
        body = json.dumps({"ok": status == 200}).encode()
        self.send_response(status)
        self.send_header("content-type", "application/json")
        self.send_header("content-length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def flaky_server():
    _FlakyHandler.seen_traceparents = []
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _FlakyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


class TestClientRetryPropagation:
    def test_retries_reuse_trace_id_with_fresh_span_ids(
            self, flaky_server):
        with ServeClient(port=flaky_server, max_retries=3,
                         timeout_s=30, seed=0, trace=True,
                         trace_seed=7) as client:
            reply = client.request("POST", "/v1/simulate", {"x": 1})
        assert reply == {"ok": True}

        headers = _FlakyHandler.seen_traceparents
        assert len(headers) == 3
        contexts = [TraceContext.parse(h) for h in headers]
        assert all(ctx is not None for ctx in contexts)
        assert len({ctx.trace_id for ctx in contexts}) == 1
        assert len({ctx.span_id for ctx in contexts}) == 3

        assert client.last_trace["trace_id"] == contexts[0].trace_id
        assert client.last_trace["attempt_span_ids"] \
            == [ctx.span_id for ctx in contexts]

        spans = client.spans.spans
        assert [s.name for s in spans] == ["client.request"] * 3
        assert [s.status for s in spans] == ["error", "error", "ok"]
        assert [s.attrs["http_status"] for s in spans] \
            == [503, 429, 200]

    def test_each_logical_request_gets_its_own_trace(
            self, flaky_server):
        _FlakyHandler.statuses = [200]
        try:
            with ServeClient(port=flaky_server, max_retries=0,
                             trace=True, trace_seed=7) as client:
                client.request("POST", "/v1/simulate", {"x": 1})
                first = client.last_trace["trace_id"]
                client.request("POST", "/v1/simulate", {"x": 2})
                assert client.last_trace["trace_id"] != first
        finally:
            _FlakyHandler.statuses = [503, 429, 200]

    def test_tracing_off_sends_no_header(self, flaky_server):
        _FlakyHandler.statuses = [200]
        try:
            with ServeClient(port=flaky_server,
                             max_retries=0) as client:
                client.request("POST", "/v1/simulate", {"x": 1})
            assert _FlakyHandler.seen_traceparents == [None]
            assert client.spans is None
        finally:
            _FlakyHandler.statuses = [503, 429, 200]


def _raw_post(port, path, body, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        data = json.dumps(body).encode()
        all_headers = {"content-type": "application/json"}
        all_headers.update(headers or {})
        conn.request("POST", path, body=data, headers=all_headers)
        response = conn.getresponse()
        payload = json.loads(response.read().decode())
        return response, payload
    finally:
        conn.close()


class TestDaemonContextHandling:
    @pytest.fixture
    def traced_daemon(self, tmp_path):
        config = ServeConfig(port=0, workers=1,
                             cache_dir=tmp_path / "cache",
                             trace_dir=tmp_path / "traces")
        daemon = ServeDaemon(config)
        port = daemon.start_background()
        yield daemon, port, tmp_path / "traces" / "spans.jsonl"
        if daemon._thread is not None and daemon._thread.is_alive():
            daemon.stop_background()

    def test_valid_traceparent_is_continued(self, traced_daemon):
        daemon, port, spans_path = traced_daemon
        ctx = TraceContext("ab" * 16, "cd" * 8)
        # a few hundred ms of simulation (60,002 uops, over 300 ms on
        # small): the fixed parse/marshal overhead must be a rounding
        # error next to the traced segments, as it is for any real
        # request
        response, payload = _raw_post(
            port, "/v1/simulate",
            {"api": 1, "asm": SPIN % 30000, "core": "small",
             "mode": "baseline"},
            headers={"traceparent": ctx.to_traceparent()})
        assert response.status == 200
        assert payload["result"]["cycles"] > 0
        assert response.getheader("x-trace-id") == ctx.trace_id

        daemon.stop_background()
        spans = read_spans_jsonl(spans_path)
        assert validate_spans(
            [s.to_json_obj() for s in spans]) == []
        (root,) = span_trees(spans)[ctx.trace_id]
        assert root.span.name == "request"
        # remote-parented: the client SDK's span owns the parent slot
        assert root.span.parent_id == ctx.span_id
        assert root.span.attrs["path"] == "/v1/simulate"
        assert root.span.attrs["served"] == "worker"

        child_names = {c.span.name for c in root.children}
        assert child_names == {"admission", "queue.wait",
                               "worker.attempt", "respond"}
        attempt = next(c for c in root.children
                       if c.span.name == "worker.attempt")
        worker_names = {c.span.name for c in attempt.children}
        assert {"cache.probe", "trace.gen",
                "engine.simulate"} <= worker_names
        # segments explain the request's wall latency (the 5% gate)
        assert trace_coverage(root) >= 0.95

    def test_malformed_traceparent_mints_fresh(self, traced_daemon):
        daemon, port, spans_path = traced_daemon
        response, _ = _raw_post(
            port, "/v1/simulate",
            {"api": 1, "asm": SPIN % 30, "core": "small",
             "mode": "baseline"},
            headers={"traceparent": "not-a-traceparent"})
        assert response.status == 200
        minted = response.getheader("x-trace-id")
        assert minted is not None
        assert len(minted) == 32
        assert minted != "not-a-traceparent"

        daemon.stop_background()
        spans = read_spans_jsonl(spans_path)
        roots = span_trees(spans)[minted]
        assert roots[0].span.parent_id is None

    def test_absent_traceparent_mints_fresh(self, traced_daemon):
        _, port, _ = traced_daemon
        response, _ = _raw_post(
            port, "/v1/simulate",
            {"api": 1, "asm": SPIN % 30, "core": "small",
             "mode": "baseline"})
        assert response.status == 200
        assert response.getheader("x-trace-id") is not None

    def test_lru_hit_is_marked_and_segmentless(self, traced_daemon):
        daemon, port, spans_path = traced_daemon
        body = {"api": 1, "asm": SPIN % 35, "core": "small",
                "mode": "baseline"}
        ctx_cold = TraceContext("aa" * 16, "11" * 8)
        ctx_warm = TraceContext("bb" * 16, "22" * 8)
        _raw_post(port, "/v1/simulate", body,
                  headers={"traceparent": ctx_cold.to_traceparent()})
        _, payload = _raw_post(
            port, "/v1/simulate", body,
            headers={"traceparent": ctx_warm.to_traceparent()})
        assert payload["served"] == "lru"

        daemon.stop_background()
        spans = read_spans_jsonl(spans_path)
        trees = span_trees(spans)
        (warm_root,) = trees[ctx_warm.trace_id]
        assert warm_root.span.attrs["served"] == "lru"
        assert warm_root.children == []

    def test_tracing_off_leaves_no_artifacts(self, tmp_path):
        config = ServeConfig(port=0, workers=1,
                             cache_dir=tmp_path / "cache")
        daemon = ServeDaemon(config)
        port = daemon.start_background()
        try:
            response, _ = _raw_post(
                port, "/v1/simulate",
                {"api": 1, "asm": SPIN % 30, "core": "small",
                 "mode": "baseline"})
            assert response.status == 200
            assert response.getheader("x-trace-id") is None
        finally:
            daemon.stop_background()
        assert not (tmp_path / "traces").exists()


class TestChaosRetrySpans:
    def test_respawned_worker_retry_links_to_original_trace(
            self, tmp_path):
        config = ServeConfig(port=0, workers=1,
                             cache_dir=tmp_path / "cache",
                             debug=True,
                             trace_dir=tmp_path / "traces")
        daemon = ServeDaemon(config)
        port = daemon.start_background()
        ctx = TraceContext("ab" * 16, "cd" * 8)
        outcome = {}
        try:
            def slow_request():
                # ~1 s of cold simulation on a 2-vCPU host:
                # mid-flight when killed 0.6 s in
                response, payload = _raw_post(
                    port, "/v1/simulate",
                    {"api": 1, "asm": SPIN % 60000, "core": "small",
                     "mode": "baseline"},
                    headers={"traceparent": ctx.to_traceparent()})
                outcome["status"] = response.status
                outcome["payload"] = payload

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.6)     # the spin is now on the victim worker

            with ServeClient(port=port, max_retries=0) as client:
                client.request("POST", "/v1/chaos/kill-worker")
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert outcome["status"] == 200
            assert outcome["payload"]["result"]["cycles"] > 0
        finally:
            daemon.stop_background()

        spans = read_spans_jsonl(tmp_path / "traces" / "spans.jsonl")
        assert validate_spans(
            [s.to_json_obj() for s in spans]) == []
        (root,) = span_trees(spans)[ctx.trace_id]
        attempts = sorted(
            (c for c in root.children
             if c.span.name == "worker.attempt"),
            key=lambda n: n.span.attrs["attempt"])
        assert len(attempts) >= 2
        assert attempts[0].span.status == "worker-crash"
        assert attempts[-1].span.status == "ok"
        # the respawned worker's simulate span is in the same tree
        retry_names = {c.span.name for c in attempts[-1].children}
        assert "engine.simulate" in retry_names
