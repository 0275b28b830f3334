"""The ``estimate`` request class: fast analytic predictions.

Protocol-level validation (typed 400s for malformed bodies) plus
end-to-end daemon behaviour: a cold estimate runs on the worker pool,
a warm one answers inline on the event loop, and repeats come from the
response LRU — all carrying ``predicted=true`` and an ``error_bound``.
"""

import pytest

from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeError
from repro.serve.protocol import RequestError, parse_request

SPIN = "mov r1, #40\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"


def err(kind, body):
    with pytest.raises(RequestError) as exc_info:
        parse_request(kind, body)
    return exc_info.value


class TestEstimateProtocol:
    NAMED = {"suite": "ml", "bench": "pool0",
             "core": "small", "mode": "redsoc"}

    def test_named_workload_parses(self):
        spec = parse_request("estimate", dict(self.NAMED))
        assert spec.kind == "estimate"
        [payload] = spec.worker_payloads()
        assert payload["suite"] == "ml" and payload["mode"] == "redsoc"
        assert payload["confidence"] == 0.9

    def test_confidence_threads_through(self):
        spec = parse_request("estimate",
                             dict(self.NAMED, confidence=0.5))
        [payload] = spec.worker_payloads()
        assert payload["confidence"] == 0.5

    @pytest.mark.parametrize("confidence",
                             [0.0, 1.0, -0.2, 1.5, "high", True, None])
    def test_malformed_confidence_is_400(self, confidence):
        exc = err("estimate", dict(self.NAMED, confidence=confidence))
        assert (exc.status, exc.code) == (400, "bad-confidence")

    def test_unknown_engine_is_400(self):
        # engines are irrelevant to a prediction, but a typo'd backend
        # name must still fail loudly rather than be silently ignored
        exc = err("estimate", dict(self.NAMED, engine="frobnicate"))
        assert (exc.status, exc.code) == (400, "unknown-engine")
        for name in ("reference", "compiled"):
            assert name in exc.message

    def test_unknown_request_kind_is_404(self):
        exc = err("estimote", dict(self.NAMED))
        assert (exc.status, exc.code) == (404, "unknown-endpoint")

    def test_bad_workload_is_400(self):
        exc = err("estimate", {"core": "small", "mode": "baseline"})
        assert (exc.status, exc.code) == (400, "bad-workload")

    def test_fingerprint_varies_with_confidence(self):
        a = parse_request("estimate", dict(self.NAMED))
        b = parse_request("estimate", dict(self.NAMED, confidence=0.5))
        assert a.fingerprint != b.fingerprint


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    config = ServeConfig(port=0, workers=2,
                         cache_dir=tmp_path_factory.mktemp("cache"))
    d = ServeDaemon(config)
    port = d.start_background()
    yield d, port
    d.stop_background()


@pytest.fixture()
def client(daemon):
    _, port = daemon
    with ServeClient(port=port, timeout_s=60) as c:
        yield c


class TestEstimateEndToEnd:
    BODY = dict(suite="ml", bench="pool0", core="small",
                mode="redsoc", scale=3)

    def test_cold_estimate_runs_on_workers(self, client):
        reply = client.estimate(**self.BODY)
        assert reply["api"] == 1 and reply["kind"] == "estimate"
        result = reply["result"]
        assert result["predicted"] is True
        assert result["cycles"] > 0 and result["ipc"] > 0
        assert reply["served"] in ("worker", "coalesced")
        bound = result["error_bound"]
        assert bound["p50_pct"] <= bound["p95_pct"] <= bound["max_pct"]
        assert bound["samples"] > 0
        lo, hi = result["interval"]["lo"], result["interval"]["hi"]
        assert lo <= result["cycles"] <= hi

    def test_repeat_is_served_from_lru(self, client):
        first = client.estimate(**self.BODY)
        again = client.estimate(**self.BODY)
        assert again["served"] == "lru"
        assert again["result"]["cycles"] == first["result"]["cycles"]

    def test_warm_features_answer_inline(self, client):
        # same workload+core → same feature-cache entry; a different
        # confidence dodges the LRU, so this exercises the inline path
        client.estimate(**self.BODY)
        reply = client.estimate(**self.BODY, confidence=0.8)
        assert reply["served"] == "inline"
        assert reply["result"]["predicted"] is True
        assert reply["result"]["interval"]["confidence"] == 0.8

    def test_estimate_consistent_with_simulate_bound(self, client):
        est = client.estimate(**self.BODY)["result"]
        sim = client.simulate(**self.BODY)["result"]
        bound = max(est["error_bound"]["max_pct"], 20.0)
        rel_err = abs(est["cycles"] - sim["cycles"]) / sim["cycles"]
        assert rel_err * 100 <= bound

    def test_inline_program_estimate(self, client):
        reply = client.estimate(asm=SPIN, core="small", mode="baseline")
        assert reply["result"]["predicted"] is True
        assert reply["result"]["cycles"] > 0

    def test_http_bad_confidence_is_400(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.estimate(**self.BODY, confidence=2.0)
        assert exc_info.value.status == 400
        assert exc_info.value.code == "bad-confidence"

    def test_http_unknown_engine_is_400(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.estimate(**self.BODY, engine="nope")
        assert exc_info.value.status == 400
        assert exc_info.value.code == "unknown-engine"

    def test_http_unknown_kind_is_404(self, client):
        with pytest.raises(ServeError) as exc_info:
            client.request("POST", "/v1/predictify",
                           {"api": 1, **self.BODY})
        assert exc_info.value.status == 404
        assert exc_info.value.code == "unknown-endpoint"
