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


class TestUpdateFromPasses:
    """--update-reference commits per-metric medians of several passes."""

    def _pass(self, cold, warm, cold_iqr=1.0, row_cold=1.0):
        agg = {"cycles": 1000, "cold_quanta": cold, "warm_quanta": warm,
               "cold_quanta_median": 100.0, "cold_quanta_iqr": cold_iqr,
               "warm_quanta_median": 100.0, "warm_quanta_iqr": 1.0}
        row = {"suite": "ml", "bench": "pool0", "core": "small",
               "mode": "redsoc", "engine": "compiled", "cycles": 1000,
               "cold_s": row_cold}
        return {"schema": bench.SCHEMA, "repeats": 3,
                "aggregates": {"compiled": agg}, "jobs": [row]}

    def _main(self, monkeypatch, tmp_path, passes):
        queue = list(passes)
        monkeypatch.setattr(bench, "run_bench",
                            lambda *a, **k: queue.pop(0))
        reference = tmp_path / "ref.json"
        reference.write_text('{"old": true}\n')
        code = bench.main(["--smoke", "--update-reference", "--quiet",
                           "--reference", str(reference),
                           "--output", str(tmp_path / "out.json")])
        assert queue == []          # every pass was measured
        return code, json.loads(reference.read_text())

    def test_commits_each_metric_median(self, monkeypatch, tmp_path):
        # the medians come from different passes: 77.8 from the third,
        # 178.3 from the second, 1.2 s from the first
        passes = [self._pass(70.7, 157.3, row_cold=1.2),
                  self._pass(81.9, 178.3, row_cold=1.1),
                  self._pass(77.8, 180.4, row_cold=1.3)]
        assert len(passes) == bench.UPDATE_PASSES
        code, reference = self._main(monkeypatch, tmp_path, passes)
        assert code == 0
        agg = reference["aggregates"]["compiled"]
        assert (agg["cold_quanta"], agg["warm_quanta"]) == (77.8, 178.3)
        assert agg["cycles"] == 1000
        (row,) = reference["jobs"]
        assert row["cold_s"] == 1.2
        assert row["bench"] == "pool0"

    def test_one_wide_pass_refuses(self, monkeypatch, tmp_path):
        passes = [self._pass(70.0, 150.0),
                  self._pass(71.0, 151.0, cold_iqr=30.0),
                  self._pass(72.0, 152.0)]
        code, reference = self._main(monkeypatch, tmp_path, passes)
        assert code == 2
        assert reference == {"old": True}

    def test_median_of_identical_passes_is_the_pass(self):
        one = self._pass(70.0, 150.0)
        assert bench.median_payload([one, one, one]) == one

    def test_check_measures_one_pass(self, monkeypatch, tmp_path):
        calls = []

        def run_bench(*args, **kwargs):
            calls.append(args)
            return self._pass(70.0, 150.0)

        monkeypatch.setattr(bench, "run_bench", run_bench)
        reference = tmp_path / "ref.json"
        reference.write_text(json.dumps(self._pass(70.0, 150.0)))
        assert bench.main(["--smoke", "--check", "--quiet",
                           "--reference", str(reference),
                           "--output", str(tmp_path / "out.json")]) == 0
        assert len(calls) == 1


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
