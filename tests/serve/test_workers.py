"""Worker execution + crash supervision.

``execute_payload`` runs in-process here (it is a plain function); the
:class:`WorkerPool` tests exercise the real ``ProcessPoolExecutor``
including a SIGKILL mid-request, which is the unit-level half of the
chaos story (tests/serve/test_chaos.py drives the same path over HTTP).
"""

import asyncio
import os
import signal

import pytest

import repro.campaign.jobs as jobs_module
from repro.campaign.cache import inline_trace_index_key
from repro.isa.serialize import program_to_dict
from repro.isa.textasm import assemble_text
from repro.serve.workers import WorkerCrash, WorkerPool, execute_payload

SPIN = "mov r1, #5\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"


def inline_payload(mode="baseline", iters=5):
    src = SPIN.replace("#5", f"#{iters}")
    program = assemble_text(src, name="spin")
    return {"program": program_to_dict(program),
            "core": "small", "mode": mode}


def run(coro):
    return asyncio.run(coro)


class TestExecutePayload:
    def test_named_simulate(self, tmp_path):
        result = execute_payload("simulate",
                                 {"suite": "ml", "bench": "pool0",
                                  "core": "small", "mode": "baseline",
                                  "scale": 3},
                                 str(tmp_path))
        assert result["cycles"] > 0
        assert result["workload"] == "ml/pool0"
        assert result["cache_hit"] is False

    def test_trace_memo_stays_bounded_over_many_scales(self, tmp_path):
        # a long-lived worker is asked for whatever scale a request
        # names; it must not keep every trace it has ever made
        jobs_module._trace.cache_clear()
        for scale in range(1, 7):
            execute_payload("simulate",
                            {"suite": "ml", "bench": "pool0",
                             "core": "small", "mode": "baseline",
                             "scale": scale},
                            str(tmp_path))
            info = jobs_module._trace.cache_info()
            assert info.currsize == jobs_module._TRACE_MEMO_SIZE
        assert info.misses == 6

    def test_inline_simulate_warms_the_cache(self, tmp_path):
        cold = execute_payload("simulate", inline_payload(),
                               str(tmp_path))
        warm = execute_payload("simulate", inline_payload(),
                               str(tmp_path))
        assert cold["cache_hit"] is False
        assert warm["cache_hit"] is True
        assert warm["cycles"] == cold["cycles"]
        assert warm["workload"] == "spin"

    def test_inline_modes_cached_separately(self, tmp_path):
        base = execute_payload("simulate", inline_payload("baseline"),
                               str(tmp_path))
        red = execute_payload("simulate", inline_payload("redsoc"),
                              str(tmp_path))
        assert base["key"] != red["key"]

    def test_simulate_and_estimate_share_the_index_entry(self, tmp_path):
        # one inline program, one trace-index key: whichever path runs
        # first spares the other its trace generation
        def index(root):
            return {path.name: path.read_text()
                    for path in (root / "traces").glob("*.json")}

        execute_payload("simulate", inline_payload(), str(tmp_path / "s"))
        execute_payload("estimate", inline_payload(), str(tmp_path / "e"))
        tkey = inline_trace_index_key(inline_payload()["program"])
        assert list(index(tmp_path / "s")) == [f"{tkey}.json"]
        assert index(tmp_path / "s") == index(tmp_path / "e")

    def test_verify_batch(self, tmp_path):
        result = execute_payload("verify",
                                 {"seed": 3, "budget": 3,
                                  "metamorphic": False},
                                 str(tmp_path))
        assert result["ok"] is True
        assert result["programs_run"] == 3

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown work kind"):
            execute_payload("transmogrify", {}, str(tmp_path))


class TestWorkerPool:
    def test_runs_work_and_reports_pids(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path))
            try:
                pids = await pool.warm_up()
                assert len(pids) == 1
                result = await pool.run("simulate", inline_payload())
                assert result["cycles"] > 0
            finally:
                pool.shutdown()
        run(main())

    def test_deadline_enforced(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path))
            try:
                await pool.warm_up()
                with pytest.raises(asyncio.TimeoutError):
                    await pool.run("sleep", {"seconds": 5.0},
                                   deadline_s=0.1)
            finally:
                pool.shutdown()
        run(main())

    def test_sigkill_mid_request_respawns_and_retries(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path), backoff_base_s=0.01)
            try:
                await pool.warm_up()
                victim = pool.worker_pids()[0]
                task = asyncio.ensure_future(
                    pool.run("sleep", {"seconds": 1.5}))
                await asyncio.sleep(0.2)     # in flight on the victim
                os.kill(victim, signal.SIGKILL)
                result = await asyncio.wait_for(task, timeout=30)
                # retried on a fresh worker, not the dead one
                assert result["worker"] != f"pid-{victim}"
                assert pool.metrics.counter(
                    "serve.worker_crashes").value >= 1
                assert pool.metrics.counter(
                    "serve.worker_respawns").value >= 1
                assert pool.worker_pids() and \
                    victim not in pool.worker_pids()
            finally:
                pool.shutdown()
        run(main())

    def test_retry_budget_exhausts_to_worker_crash(self, tmp_path):
        async def main():
            pool = WorkerPool(1, str(tmp_path), max_retries=0,
                              backoff_base_s=0.01)
            try:
                await pool.warm_up()
                victim = pool.worker_pids()[0]
                task = asyncio.ensure_future(
                    pool.run("sleep", {"seconds": 3.0}))
                await asyncio.sleep(0.2)
                os.kill(victim, signal.SIGKILL)
                with pytest.raises(WorkerCrash):
                    await asyncio.wait_for(task, timeout=30)
            finally:
                pool.shutdown()
        run(main())
