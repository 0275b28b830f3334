"""CLI smoke tests via subprocess: run, report, clean, trace, profile."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _campaign(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.campaign"] + args,
        cwd=str(cwd), env=env, capture_output=True, text=True,
        timeout=300)


RUN_ARGS = ["run", "--suites", "ml", "--benchmarks", "pool0",
            "--cores", "small", "--modes", "baseline", "redsoc",
            "--scale", "3"]


def test_run_report_clean_cycle(tmp_path):
    proc = _campaign(RUN_ARGS + ["--jobs", "2"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Campaign results" in proc.stdout

    out = tmp_path / "BENCH_campaign.json"
    assert out.is_file()
    payload = json.loads(out.read_text())
    assert payload["jobs"] == 2
    assert payload["cache"]["misses"] == 2
    modes = {r["mode"]: r for r in payload["results"]}
    assert set(modes) == {"baseline", "redsoc"}
    assert modes["redsoc"]["speedup"] is not None
    assert (tmp_path / ".redsoc-cache").is_dir()

    # second invocation: pure cache hits
    proc = _campaign(RUN_ARGS + ["--jobs", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rerun = json.loads(out.read_text())
    assert rerun["cache"] == {"hits": 2, "misses": 0, "hit_rate": 1.0}
    assert [r["cycles"] for r in rerun["results"]] == \
        [r["cycles"] for r in payload["results"]]

    proc = _campaign(["report"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Campaign results" in proc.stdout
    assert "100.0%" in proc.stdout  # hit rate of the rerun

    proc = _campaign(["clean"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "removed 2" in proc.stdout
    assert not list((tmp_path / ".redsoc-cache").glob("*.json"))


def test_report_and_clean_with_explicit_cache_dir(tmp_path):
    cache = tmp_path / "my-cache"
    proc = _campaign(RUN_ARGS + ["--jobs", "1", "--cache-dir",
                                 str(cache), "-q"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert cache.is_dir() and list(cache.glob("*.json"))

    proc = _campaign(["report"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Campaign results" in proc.stdout

    proc = _campaign(["clean", "--cache-dir", str(cache)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "removed 2" in proc.stdout
    assert not list(cache.glob("*.json"))


def test_log_json_keeps_stderr_json_with_a_corrupt_entry(tmp_path):
    # the cache's corrupt-entry warning goes through stdlib logging;
    # under --log-json it must arrive as one more JSON line
    cache = tmp_path / "cache"
    args = RUN_ARGS + ["--jobs", "1", "--cache-dir", str(cache), "-q"]
    proc = _campaign(args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    entry = sorted(cache.glob("*.json"))[0]
    entry.write_text(entry.read_text()[:20])      # a torn write
    proc = _campaign(args + ["--log-json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines
    objs = [json.loads(line) for line in lines]
    (warning,) = [o for o in objs if o["event"] == "repro.campaign.cache"]
    assert warning["level"] == "warning"
    assert warning["entry"] == str(entry)
    assert warning["component"] == "campaign"


def test_run_payload_carries_telemetry(tmp_path):
    proc = _campaign(RUN_ARGS + ["--jobs", "1", "-q"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(
        (tmp_path / "BENCH_campaign.json").read_text())
    assert payload["telemetry"]["workers_used"]
    assert "simulate" in payload["telemetry"]["span_totals_s"]
    for record in payload["results"]:
        assert record["worker"].startswith("pid-")
        assert "cache_probe" in record["spans"]
        assert "simulate" in record["spans"]  # cold cache → simulated


def test_trace_subcommand_writes_artifacts(tmp_path):
    proc = _campaign(["trace", "ml/pool0@small:redsoc", "--scale", "3",
                      "--out-dir", "artifacts"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "perfetto trace" in proc.stdout

    slug = "ml_pool0_small_redsoc"
    out = tmp_path / "artifacts"
    doc = json.loads((out / f"{slug}.trace.json").read_text())
    from repro.obs.export import validate_chrome_trace
    assert validate_chrome_trace(doc) == []

    events = [json.loads(line) for line in
              (out / f"{slug}.events.jsonl").read_text().splitlines()]
    assert events[0]["kind"] == "meta"
    assert any(e["kind"] == "exec_window" for e in events)

    metrics = [json.loads(line) for line in
               (out / f"{slug}.metrics.jsonl").read_text().splitlines()]
    assert {m["metric"] for m in metrics} >= {"core.cycles",
                                              "slack.per_op"}


def test_trace_rejects_bad_jobspec(tmp_path):
    proc = _campaign(["trace", "pool0-small"], tmp_path)
    assert proc.returncode == 2
    assert "bad job spec" in proc.stderr


def test_profile_subcommand_prints_hot_functions(tmp_path):
    proc = _campaign(["profile", "ml/pool0@small:baseline",
                      "--scale", "3", "--top", "5",
                      "--output", "prof/job.pstats"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "cumulative" in proc.stdout
    assert "cycles" in proc.stdout

    import pstats
    stats = pstats.Stats(str(tmp_path / "prof" / "job.pstats"))
    assert stats.total_calls > 0


def test_run_rejects_unknown_selection(tmp_path):
    proc = _campaign(["run", "--suites", "nope"], tmp_path)
    assert proc.returncode == 2
    assert "unknown suite" in proc.stderr


@pytest.mark.parametrize("engine", ["fast", "vector"])
def test_run_rejects_removed_engines(tmp_path, engine):
    proc = _campaign(RUN_ARGS + ["--engine", engine], tmp_path)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr
    assert "'reference'" in proc.stderr and "'compiled'" in proc.stderr


def test_report_without_campaign_json(tmp_path):
    proc = _campaign(["report"], tmp_path)
    assert proc.returncode == 2
    assert "no campaign JSON" in proc.stderr


@pytest.mark.parametrize("content", [
    "",                      # empty file (torn write before any bytes)
    "{not json",             # truncated/corrupt JSON
    "{}",                    # valid JSON, wrong document shape
    '{"results": "nope"}',   # right key, wrong type
])
def test_report_rejects_unreadable_json(tmp_path, content):
    (tmp_path / "BENCH_campaign.json").write_text(content)
    proc = _campaign(["report"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


PREDICT_ARGS = ["predict", "--suites", "ml", "--benchmarks", "pool0",
                "--cores", "small", "--modes", "baseline", "redsoc",
                "--scale", "3"]


def test_predict_subcommand_attaches_errors(tmp_path):
    proc = _campaign(PREDICT_ARGS + ["--jobs", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "predict:" in proc.stdout and "MAPE" in proc.stdout
    assert "pred err" in proc.stdout

    payload = json.loads(
        (tmp_path / "BENCH_campaign.json").read_text())
    assert payload["schema"] == 4
    assert payload["predict"]["jobs"] == 2
    assert payload["predict"]["mape_pct"] >= 0.0
    for rec in payload["results"]:
        assert rec["predicted_cycles"] is not None
        assert rec["predict_error"] is not None
        assert rec["predict_latency_us"] >= 0

    # a plain run must NOT carry a predict block (schema stays clean)
    proc = _campaign(RUN_ARGS + ["--jobs", "1", "-q"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    rerun = json.loads((tmp_path / "BENCH_campaign.json").read_text())
    assert "predict" not in rerun
    assert rerun["results"][0]["predict_error"] is None


def test_predict_gates_fail_loudly(tmp_path):
    proc = _campaign(PREDICT_ARGS + ["--jobs", "1", "-q",
                                     "--max-abs-err", "0.0001"],
                     tmp_path)
    assert proc.returncode == 1
    assert "FAIL" in proc.stderr


def test_predict_refits_calibration(tmp_path):
    proc = _campaign(PREDICT_ARGS + ["--jobs", "1", "-q",
                                     "--fit-calibration", "cal.json"],
                     tmp_path)
    assert proc.returncode == 0, proc.stderr
    refit = json.loads((tmp_path / "cal.json").read_text())
    assert refit["schema"] == 1
    assert refit["fits"]
