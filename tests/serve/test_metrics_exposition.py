"""/metrics exposition: canonical histograms, exemplars, parse-back.

The oracle is :func:`repro.obs.metrics.parse_prometheus` — if that
round-trips the daemon's exposition into monotone cumulative buckets
with matching ``_sum``/``_count`` and readable exemplars, so can a
real Prometheus scraper.
"""

import math

import pytest

from repro.obs.metrics import parse_prometheus
from repro.obs.trace import TraceContext
from repro.serve import ServeClient, ServeConfig, ServeDaemon

SPIN = "mov r1, #%d\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"


@pytest.fixture(scope="module")
def traced_daemon(tmp_path_factory):
    root = tmp_path_factory.mktemp("metrics")
    config = ServeConfig(port=0, workers=2,
                         cache_dir=root / "cache",
                         trace_dir=root / "traces")
    daemon = ServeDaemon(config)
    port = daemon.start_background()
    with ServeClient(port=port, timeout_s=60) as client:
        for i in range(4):
            client.simulate(asm=SPIN % (50 + i), core="small",
                            mode="baseline")
    yield port
    daemon.stop_background()


@pytest.fixture(scope="module")
def parsed(traced_daemon):
    with ServeClient(port=traced_daemon, max_retries=0) as client:
        text = client.metrics_text()
    return text, parse_prometheus(text)


class TestCanonicalHistogram:
    def test_latency_histogram_is_typed_and_present(self, parsed):
        text, doc = parsed
        assert doc["types"]["redsoc_serve_latency_us"] == "histogram"
        assert "redsoc_serve_latency_us" in doc["histograms"]

    def test_buckets_are_cumulative_and_monotone(self, parsed):
        _, doc = parsed
        hist = doc["histograms"]["redsoc_serve_latency_us"]
        buckets = sorted(hist["buckets"])
        assert len(buckets) >= 2
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)

    def test_inf_bucket_equals_count(self, parsed):
        _, doc = parsed
        hist = doc["histograms"]["redsoc_serve_latency_us"]
        le, top = sorted(hist["buckets"])[-1]
        assert math.isinf(le)
        assert top == hist["count"]
        assert hist["count"] == 4

    def test_sum_is_consistent_with_buckets(self, parsed):
        _, doc = parsed
        hist = doc["histograms"]["redsoc_serve_latency_us"]
        assert hist["sum"] > 0
        # mean latency must sit inside the observed bucket range
        mean = hist["sum"] / hist["count"]
        bounded = [le for le, count in sorted(hist["buckets"])
                   if count == hist["count"]
                   and not math.isinf(le)]
        if bounded:
            assert mean <= bounded[0]

    def test_counters_survive_parse_back(self, parsed):
        _, doc = parsed
        assert doc["samples"]["redsoc_serve_requests_total"] >= 4
        assert doc["types"]["redsoc_serve_requests_total"] == "counter"


class TestExemplars:
    def test_exemplars_carry_resolvable_trace_ids(self, parsed):
        text, doc = parsed
        hist = doc["histograms"]["redsoc_serve_latency_us"]
        assert hist["exemplars"], \
            "traced requests must pin exemplars on their buckets"
        for exemplar in hist["exemplars"].values():
            ctx = TraceContext.parse(
                f"00-{exemplar['trace_id']}-{'ab' * 8}-01")
            assert ctx is not None
            assert exemplar["value"] > 0

    def test_exemplar_sits_in_its_bucket(self, parsed):
        _, doc = parsed
        hist = doc["histograms"]["redsoc_serve_latency_us"]
        bounds = sorted(le for le, _ in hist["buckets"])
        for le_text, exemplar in hist["exemplars"].items():
            le = math.inf if le_text == "+Inf" else float(le_text)
            below = [b for b in bounds if b < le]
            lower = below[-1] if below else 0.0
            assert lower < exemplar["value"] <= le


class TestTracingOffExposition:
    def test_histogram_is_canonical_without_exemplars(self, tmp_path):
        config = ServeConfig(port=0, workers=1,
                             cache_dir=tmp_path / "cache")
        daemon = ServeDaemon(config)
        port = daemon.start_background()
        try:
            with ServeClient(port=port, timeout_s=60) as client:
                client.simulate(asm=SPIN % 60, core="small",
                                mode="baseline")
                doc = parse_prometheus(client.metrics_text())
        finally:
            daemon.stop_background()
        hist = doc["histograms"]["redsoc_serve_latency_us"]
        assert hist["count"] == 1
        assert not hist["exemplars"]
