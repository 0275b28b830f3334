"""The benchmark's own tests (not part of the repository's test tier).

    python3 -m pytest perfbench/tests -q

The end-to-end cases run the benchmark for a few seconds each; the
serve-warm case builds the shared pre-fill on first use (~30 s).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import streams  # noqa: E402
from common import grid_scales  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _run(root: Path, *args: str, timeout: int = 300):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=str(root), capture_output=True, text=True, timeout=timeout)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- seeded inputs -----------------------------------------------------

def test_same_seed_gives_byte_identical_streams():
    grid = grid_scales()
    for make in (lambda seed: streams.warm_stream(seed, grid),
                 streams.cold_stream):
        first = list(islice(make(7), 300))
        again = list(islice(make(7), 300))
        assert first == again


def test_other_seed_gives_other_programs():
    one = [body for _, body, _ in islice(streams.cold_stream(1), 50)]
    two = [body for _, body, _ in islice(streams.cold_stream(2), 50)]
    asm_one = {json.loads(body)["asm"] for body in one}
    asm_two = {json.loads(body)["asm"] for body in two}
    assert len(asm_one) == 50 and not asm_one & asm_two


def test_cold_programs_assemble_and_stay_in_range():
    from repro.isa.textasm import assemble_text
    from repro.pipeline.trace import generate_trace
    for _, body, name in islice(streams.cold_stream(3), 20):
        request = json.loads(body)
        trace = generate_trace(assemble_text(request["asm"], name=name))
        assert streams.COLD_MIN_INSTRS // 2 <= len(trace.entries) \
            <= streams.COLD_MAX_INSTRS * 2


def test_warm_stream_never_repeats_within_the_lru_window():
    stream = list(islice(streams.warm_stream(5, grid_scales()), 5000))
    last_seen = {}
    for index, (_, body, _) in enumerate(stream):
        if body in last_seen:
            assert index - last_seen[body] >= streams.REPEAT_GAP
        last_seen[body] = index
    assert len(last_seen) > streams.REPEAT_GAP > streams.LRU_SIZE
    kinds = [kind for kind, _, _ in stream]
    for kind, weight in streams.WARM_MIX:
        assert abs(kinds.count(kind) / len(kinds) - weight) < 0.05


# -- the BENCHMARK.json contract ---------------------------------------

def test_metric_names_and_units_are_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + \
        [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
        assert NAME.fullmatch(name), name
    for metric in metrics:
        assert UNIT.fullmatch(metric["unit"]), metric
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "serve-warm", "--seed", "1",
                "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_prefill_key_follows_workload_sources(tmp_path, monkeypatch):
    # a workloads-only change moves trace_version() but not
    # model_version(); the pre-fill's trace index must not go stale
    import run
    shutil.copytree(ROOT / "src" / "repro", tmp_path / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(run, "SRC", tmp_path)
    before = run.prefill_key()
    assert run.prefill_key() == before
    path = tmp_path / "repro" / "workloads" / "suites.py"
    path.write_text(path.read_text() + "\n# touched\n")
    assert run.prefill_key() != before


# -- ledger attribution ------------------------------------------------

def test_attribute_charges_the_most_specific_span():
    root = {"start_us": 0, "end_us": 100}
    spans = [{"name": "worker.attempt", "start_us": 10, "end_us": 90},
             {"name": "engine.simulate", "start_us": 30, "end_us": 70},
             {"name": "admission", "start_us": 0, "end_us": 5}]
    assert layers.attribute(root, spans) == {
        "serve.admission": 5, "serve.worker_hop": 40,
        "core.simulate": 40}


# -- end to end --------------------------------------------------------

def test_tampered_expectation_fails_the_run(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    path = tmp_path / "perfbench" / "expected.json"
    doc = json.loads(path.read_text())
    doc["jobs"]["ml/pool0:redsoc"]["cycles"] += 1
    path.write_text(json.dumps(doc))
    result = _result(_run(tmp_path, "--workload", "campaign-cold",
                          "--seed", "1", "--seconds", "1",
                          "--trace", "0"))
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 45


def test_serve_warm_bypasses_the_lru_and_never_simulates():
    result = _result(_run(ROOT, "--workload", "serve-warm",
                          "--seed", "3", "--seconds", "3",
                          "--trace", "1", timeout=600))
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["serve.requests"] > 100
    assert metrics["serve.lru_hit_ratio"] == 0
    assert metrics["core.calls"] == 0 and metrics["pipeline.calls"] == 0
    assert metrics["serve.cache_hit_ratio"] == 1
    assert metrics["trace.coverage"] >= 0.95
