"""bench_core.py's reference gate, on synthetic payloads (no timing)."""

import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench():
    path = REPO_ROOT / "benchmarks" / "bench_core.py"
    spec = importlib.util.spec_from_file_location("bench_core", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["bench_core"] = module
    spec.loader.exec_module(module)
    return module


bench = _load_bench()


def _payload(warm_iqr=1.0, cold_iqr=1.0):
    """Two engines' aggregates with medians of 100 quanta."""
    agg = {"cold_quanta_median": 100.0, "cold_quanta_iqr": cold_iqr,
           "warm_quanta_median": 100.0, "warm_quanta_iqr": warm_iqr}
    return {"schema": bench.SCHEMA,
            "aggregates": {"reference": dict(agg), "compiled": dict(agg)}}


class TestSpread:
    def test_tight_payload_passes(self):
        assert bench.spread_failures(_payload()) == []

    def test_bound_is_inclusive(self):
        at_bound = 100.0 * bench.MAX_SPREAD
        assert bench.spread_failures(
            _payload(warm_iqr=at_bound, cold_iqr=at_bound)) == []

    @pytest.mark.parametrize("metric", ["cold_quanta", "warm_quanta"])
    def test_wide_spread_names_engine_and_metric(self, metric):
        payload = _payload()
        payload["aggregates"]["compiled"][f"{metric}_iqr"] = 16.0
        (failure,) = bench.spread_failures(payload)
        assert failure.startswith(f"compiled: {metric}")

    def test_committed_reference_is_within_bound(self):
        reference = json.loads(
            (REPO_ROOT / "benchmarks" / "core_reference.json").read_text())
        assert bench.spread_failures(reference) == []


class TestUpdateReference:
    def _main(self, monkeypatch, tmp_path, payload):
        monkeypatch.setattr(bench, "run_bench", lambda *a, **k: payload)
        reference = tmp_path / "ref.json"
        reference.write_text('{"old": true}\n')
        code = bench.main(["--smoke", "--update-reference", "--quiet",
                           "--reference", str(reference),
                           "--output", str(tmp_path / "out.json")])
        return code, json.loads(reference.read_text())

    def test_wide_spread_refuses_and_keeps_reference(self, monkeypatch,
                                                     tmp_path):
        code, reference = self._main(monkeypatch, tmp_path,
                                     _payload(warm_iqr=20.0))
        assert code == 2
        assert reference == {"old": True}

    def test_tight_spread_rewrites_reference(self, monkeypatch, tmp_path):
        payload = _payload()
        code, reference = self._main(monkeypatch, tmp_path, payload)
        assert code == 0
        assert reference == payload


class TestPayload:
    def test_records_host(self, monkeypatch, tmp_path):
        """run_bench's payload names the host it was timed on."""
        def time_job(job, repeats, engine):
            row = {"suite": job.suite, "bench": job.bench,
                   "core": job.core, "mode": job.mode, "engine": engine,
                   "cycles": 100, "cold_s": 1.0, "warm_s": 0.5,
                   "cold_quanta": 40.0, "warm_quanta": 20.0}
            samples = {"cold_s": [1.0] * repeats,
                       "warm_s": [0.5] * repeats,
                       "cold_quanta": [40.0] * repeats,
                       "warm_quanta": [20.0] * repeats}
            return row, samples

        monkeypatch.setattr(bench, "_time_job", time_job)
        out = tmp_path / "out.json"
        assert bench.main(["--smoke", "--quiet", "--repeats", "2",
                           "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["cpu_count"] == os.cpu_count()
        assert payload["python"] == platform.python_version()
