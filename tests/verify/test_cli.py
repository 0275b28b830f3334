"""CLI tests via subprocess: fuzz, replay, shrink, report.

Mirrors ``tests/campaign/test_cli.py``: every verb is exercised through
``python -m repro.verify`` in a temp directory, asserting exit codes and
the on-disk artifact layout under ``.redsoc-verify/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _verify(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.verify"] + args,
        cwd=str(cwd), env=env, capture_output=True, text=True,
        timeout=600)


def test_fuzz_clean_session_is_deterministic(tmp_path):
    args = ["fuzz", "--budget", "20", "--seed", "0", "--quiet"]
    proc = _verify(args, tmp_path)
    assert proc.returncode == 0, proc.stderr

    session_path = tmp_path / ".redsoc-verify" / "session.json"
    assert session_path.is_file()
    first = session_path.read_bytes()
    session = json.loads(first)
    assert session["programs_run"] == 20
    assert session["findings"] == []
    assert session["coverage"]["programs"] == 20
    assert session["coverage"]["dynamic_instructions"] > 0

    # byte-identical on re-run: no timestamps, no ambient randomness
    proc = _verify(args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert session_path.read_bytes() == first


def test_fuzz_reports_coverage_table(tmp_path):
    proc = _verify(["fuzz", "--budget", "5", "--seed", "1"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "opcode coverage" in proc.stdout
    assert "no divergence" in proc.stdout


def test_self_check_catches_and_shrinks_injected_defect(tmp_path):
    proc = _verify(["fuzz", "--budget", "40", "--seed", "0",
                    "--self-check", "--max-failures", "2",
                    "--out", ".sc", "--quiet"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "self-check ok" in proc.stdout

    failures = sorted((tmp_path / ".sc" / "failures").iterdir())
    assert failures
    for directory in failures:
        assert (directory / "spec.json").is_file()
        assert (directory / "shrunk.json").is_file()
        assert (directory / "program.json").is_file()
        assert (directory / "report.json").is_file()
        assert (directory / "events.jsonl").stat().st_size > 0
        report = json.loads((directory / "report.json").read_text())
        assert report["defect"] == "eor-lsb"
        assert report["shrunk"]["instructions"] <= 10
        assert not report["verdict"]["ok"]

    session = json.loads(
        (tmp_path / ".sc" / "session.json").read_text())
    assert session["defect"] == "eor-lsb"
    assert session["findings"]

    # the shrunk artifact replays: diverges with the defect, clean
    # without it
    name = failures[0].name
    proc = _verify(["replay", name, "--out", ".sc",
                    "--defect", "eor-lsb"], tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "arch." in proc.stdout

    proc = _verify(["replay", name, "--out", ".sc"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "no divergence" in proc.stdout

    # replay also accepts an explicit spec file path
    spec_file = failures[0] / "shrunk.json"
    proc = _verify(["replay", str(spec_file), "--defect", "eor-lsb"],
                   tmp_path)
    assert proc.returncode == 1, proc.stderr

    # shrink verb re-minimises a stored failure
    proc = _verify(["shrink", name, "--out", ".sc",
                    "--defect", "eor-lsb"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "shrunk to" in proc.stdout

    # ... and refuses when the program doesn't fail
    proc = _verify(["shrink", name, "--out", ".sc"], tmp_path)
    assert proc.returncode == 2
    assert "does not fail" in proc.stderr

    # report summarises the stored session
    proc = _verify(["report", "--out", ".sc"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "injected defect 'eor-lsb'" in proc.stdout
    assert name in proc.stdout


def test_self_check_fails_when_defect_not_caught(tmp_path):
    # store-drop can't trigger in one store-free program: the self-check
    # must then report failure (exit 1), proving it isn't a rubber stamp
    proc = _verify(["fuzz", "--budget", "1", "--seed", "0",
                    "--self-check", "store-drop", "--quiet"], tmp_path)
    if proc.returncode == 0:  # seed 0 program 0 happens to store
        assert "self-check ok" in proc.stdout
    else:
        assert proc.returncode == 1
        assert "self-check FAILED" in proc.stderr


def test_report_without_session_is_usage_error(tmp_path):
    proc = _verify(["report"], tmp_path)
    assert proc.returncode == 2
    assert "no session" in proc.stderr


def test_replay_unknown_target_is_usage_error(tmp_path):
    proc = _verify(["replay", "no-such-failure"], tmp_path)
    assert proc.returncode == 2


def test_bad_subcommand_is_usage_error(tmp_path):
    proc = _verify(["frobnicate"], tmp_path)
    assert proc.returncode == 2


def test_fuzz_rejects_removed_engines(tmp_path):
    proc = _verify(["fuzz", "--budget", "1", "--engines", "reference",
                    "vector"], tmp_path)
    assert proc.returncode == 2
    assert "invalid choice: 'vector'" in proc.stderr
    assert "'reference'" in proc.stderr and "'compiled'" in proc.stderr


def test_fuzz_with_campaign_cache(tmp_path):
    proc = _verify(["fuzz", "--budget", "5", "--seed", "2",
                    "--cache-dir", ".cache", "--quiet"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert list((tmp_path / ".cache").glob("*.json"))
