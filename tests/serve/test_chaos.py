"""Chaos: worker SIGKILL mid-request, SIGTERM drain under load.

Two failure modes the daemon must absorb without dropping a single
in-flight request:

* a **worker process dies** while executing a request — the supervisor
  respawns the pool and retries; the client sees a 200, slightly late;
* the **daemon gets SIGTERM** while requests are in flight — everything
  already admitted completes (200), the process exits 0 within the
  drain budget, and nobody observes a torn connection.
"""

import concurrent.futures
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.serve import ServeClient, ServeConfig, ServeDaemon

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)

#: ~1 s of cold simulation on a 2-vCPU host — long enough to be
#: mid-flight when the worker is killed 0.6 s in
SLOW_SPIN = "mov r1, #60000\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"


class TestWorkerKillMidRequest:
    def test_request_survives_worker_sigkill(self, tmp_path):
        config = ServeConfig(port=0, workers=1, cache_dir=tmp_path,
                             debug=True)
        daemon = ServeDaemon(config)
        port = daemon.start_background()
        try:
            with ServeClient(port=port, timeout_s=120,
                             max_retries=0) as probe:
                victim = probe.status()["workers"]["pids"][0]

            outcome = {}

            def slow_request():
                with ServeClient(port=port, timeout_s=120,
                                 max_retries=0) as c:
                    outcome["reply"] = c.simulate(
                        asm=SLOW_SPIN, core="small", mode="baseline")

            thread = threading.Thread(target=slow_request)
            thread.start()
            time.sleep(0.6)     # the spin is now on the victim worker

            with ServeClient(port=port, max_retries=0) as c:
                killed = c.request("POST", "/v1/chaos/kill-worker")
            assert killed["killed"] == victim

            thread.join(timeout=120)
            assert not thread.is_alive()
            reply = outcome["reply"]    # 200 despite the dead worker
            assert reply["result"]["cycles"] > 0

            with ServeClient(port=port, max_retries=0) as c:
                status = c.status()
                metrics = c.metrics_text()
            assert victim not in status["workers"]["pids"]
            assert "redsoc_serve_worker_respawns 1" in metrics
        finally:
            daemon.stop_background()


class TestSigtermDrainUnderLoad:
    def _spawn(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "start",
             "--port", "0", "--workers", "2",
             "--cache-dir", str(tmp_path / "cache")],
            env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        assert proc.stdout is not None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if line.startswith("serving on http://"):
                address = line.split("http://", 1)[1].split()[0]
                return proc, int(address.rsplit(":", 1)[1])
        proc.kill()
        pytest.fail("daemon never announced its port")

    def test_zero_dropped_inflight_requests(self, tmp_path):
        proc, port = self._spawn(tmp_path)
        lanes = 6

        def one_request(lane):
            # distinct iteration counts -> distinct work, no dedup,
            # each ~0.1-0.3 s: plenty still in flight at SIGTERM
            asm = SLOW_SPIN.replace("#60000", f"#{6000 + lane * 1200}")
            with ServeClient(port=port, timeout_s=60,
                             max_retries=0) as c:
                return c.simulate(asm=asm, core="small",
                                  mode="baseline")

        try:
            with concurrent.futures.ThreadPoolExecutor(lanes) as pool:
                futures = [pool.submit(one_request, lane)
                           for lane in range(lanes)]
                time.sleep(0.4)     # all admitted, most still running
                proc.send_signal(signal.SIGTERM)
                replies = [f.result(timeout=60) for f in futures]

            # zero dropped: every admitted request got a real answer
            assert len(replies) == lanes
            for reply in replies:
                assert reply["result"]["cycles"] > 0

            proc.wait(timeout=15)   # drain budget from the issue
            assert proc.returncode == 0
            output = proc.stdout.read()
            assert "draining" in output and "bye" in output
        finally:
            if proc.poll() is None:
                proc.kill()

    def test_post_sigterm_requests_get_clean_503(self, tmp_path):
        proc, port = self._spawn(tmp_path)
        try:
            proc.send_signal(signal.SIGTERM)
            time.sleep(0.2)
            # the daemon may already be gone (nothing was in flight);
            # acceptable outcomes are a typed 503 or a refused
            # connection -- never a hung socket or a torn response
            from repro.serve import ServeError
            with ServeClient(port=port, timeout_s=5,
                             max_retries=0) as c:
                try:
                    c.simulate(suite="ml", bench="pool0",
                               core="small", mode="baseline", scale=3)
                except ServeError as exc:
                    assert exc.status in (0, 503)
            proc.wait(timeout=15)
            assert proc.returncode == 0
        finally:
            if proc.poll() is None:
                proc.kill()
