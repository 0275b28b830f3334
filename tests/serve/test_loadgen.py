"""Load generator: deterministic mix, honest accounting, report shape."""

import json
import random

import pytest

from repro.serve import ServeConfig, ServeDaemon, run_loadgen
from repro.serve.loadgen import LoadReport, Sample, default_mix, \
    gate_failures, write_report


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    config = ServeConfig(port=0, workers=2,
                         cache_dir=tmp_path_factory.mktemp("cache"))
    d = ServeDaemon(config)
    port = d.start_background()
    yield port
    d.stop_background()


class TestMix:
    def test_mix_is_deterministic_under_seed(self):
        from repro.serve.loadgen import _pick

        def draws(seed):
            rng = random.Random(seed)
            mix = default_mix()
            out = []
            for _ in range(20):
                kind, body = _pick(mix, rng).make_body(rng)
                out.append((kind, json.dumps(body, sort_keys=True)))
            return out
        assert draws(7) == draws(7)
        assert draws(7) != draws(8)

    def test_error_mix_is_opt_in(self):
        names = [m.name for m in default_mix()]
        assert "bad-asm" not in names
        assert "bad-asm" in [m.name for m in default_mix(True)]


class TestReport:
    def _report(self):
        report = LoadReport(mode="closed", concurrency=2)
        for i, status in enumerate([200, 200, 200, 400, 429]):
            report.samples.append(Sample(
                kind="simulate", status=status,
                latency_us=(i + 1) * 1000, served="worker"))
        report.wall_time_s = 0.5
        return report

    def test_status_buckets_and_throughput(self):
        payload = self._report().to_payload()
        assert payload["status_counts"] == {"2xx": 3, "4xx": 2}
        assert payload["throughput_rps"] == 10.0
        assert payload["schema"] == 3

    def test_percentiles_exclude_errors(self):
        # errors (the two slowest samples here) must not pollute the
        # latency distribution
        payload = self._report().to_payload()
        assert payload["latency_ms"]["max"] == 3.0

    def test_empty_report_has_null_latencies(self):
        payload = LoadReport(mode="open").to_payload()
        assert payload["latency_ms"]["p99"] is None
        assert payload["throughput_rps"] == 0.0

    def test_write_report_round_trips(self, tmp_path):
        path = write_report(self._report(), tmp_path / "BENCH_serve.json",
                            extra={"drain_s": 0.05})
        payload = json.loads(path.read_text())
        assert payload["drain_s"] == 0.05
        assert payload["requests"] == 5


def _gated(*samples, wall_time_s=1.0, errors=None):
    """A report of (kind, status, latency_ms) samples over
    *wall_time_s*, with *errors* as its transport-error counts."""
    report = LoadReport(mode="closed", concurrency=1,
                        errors=errors or {})
    for kind, status, latency_ms in samples:
        report.samples.append(Sample(kind=kind, status=status,
                                     latency_us=int(latency_ms * 1000)))
    report.wall_time_s = wall_time_s
    return report


#: all four gates on, with bounds these small reports can meet
ALL_GATES = dict(zero_5xx=True, max_p99_ms=250.0,
                 max_estimate_p99_ms=5.0, min_throughput=2.0)


class TestGates:
    HEALTHY = (("simulate", 200, 40), ("estimate", 200, 2),
               ("simulate", 400, 900))

    def test_healthy_report_passes_every_gate(self):
        # the slow 400 is not a success, so no latency gate reads it
        assert gate_failures(_gated(*self.HEALTHY), **ALL_GATES) == []

    def test_unset_gates_check_nothing(self):
        assert gate_failures(_gated(("simulate", 503, 1))) == []

    def test_any_5xx_fails(self):
        report = _gated(*self.HEALTHY, ("simulate", 503, 1))
        assert gate_failures(report, **ALL_GATES) == ["1 5xx responses"]

    def test_any_transport_error_fails(self):
        report = _gated(*self.HEALTHY, errors={"TimeoutError": 2})
        assert gate_failures(report, **ALL_GATES) == [
            "transport errors: {'TimeoutError': 2}"]

    def test_p99_over_bound_fails(self):
        report = _gated(*self.HEALTHY, ("simulate", 200, 250.4))
        assert gate_failures(report, max_p99_ms=250.0) == [
            "p99 250.4ms exceeds 250.0ms"]
        assert gate_failures(report, max_p99_ms=250.4) == []

    def test_no_successful_request_fails_the_p99_gate(self):
        report = _gated(("simulate", 400, 1))
        assert gate_failures(report, max_p99_ms=250.0) == [
            "no successful requests to gate"]

    def test_estimate_p99_over_bound_fails(self):
        # only estimate samples count: the 40 ms simulate does not
        report = _gated(*self.HEALTHY, ("estimate", 200, 6))
        assert gate_failures(report, max_estimate_p99_ms=5.0) == [
            "estimate p99 6.0ms exceeds 5.0ms"]

    def test_no_estimate_sample_fails_the_estimate_gate(self):
        report = _gated(("simulate", 200, 1), ("estimate", 400, 1))
        assert gate_failures(report, max_estimate_p99_ms=5.0) == [
            "no successful estimate requests to gate"]

    def test_throughput_under_floor_fails(self):
        # 3 requests in 2 s: 1.5 req/s
        report = _gated(*self.HEALTHY, wall_time_s=2.0)
        assert gate_failures(report, min_throughput=2.0) == [
            "throughput 1.5 req/s below 2.0"]
        assert gate_failures(report, min_throughput=1.5) == []

    def test_every_failure_is_reported(self):
        report = _gated(("simulate", 503, 1), wall_time_s=10.0,
                        errors={"ConnectionError": 1})
        assert len(gate_failures(report, **ALL_GATES)) == 5


class TestAgainstDaemon:
    def test_closed_loop_end_to_end(self, daemon, tmp_path):
        report = run_loadgen("127.0.0.1", daemon, mode="closed",
                             requests=20, concurrency=4, seed=1,
                             timeout_s=60)
        payload = report.to_payload()
        assert payload["requests"] == 20
        assert payload["status_counts"].get("2xx", 0) == 20
        assert payload["status_counts"].get("5xx", 0) == 0
        assert not payload["transport_errors"]
        assert payload["latency_ms"]["p99"] is not None

    def test_open_loop_end_to_end(self, daemon):
        report = run_loadgen("127.0.0.1", daemon, mode="open",
                             requests=15, rate=50.0, seed=2,
                             timeout_s=60)
        payload = report.to_payload()
        assert payload["mode"] == "open"
        assert payload["requests"] == 15
        assert payload["status_counts"].get("5xx", 0) == 0

    def test_bad_mode_rejected(self, daemon):
        with pytest.raises(ValueError, match="mode must be"):
            run_loadgen("127.0.0.1", daemon, mode="sideways")
