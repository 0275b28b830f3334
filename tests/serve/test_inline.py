"""Warm requests answered on the event loop (``served: "inline"``).

The daemons here keep no response LRU (``lru_size=0``), so a repeated
request reaches the result-cache probe.  When every job of a
``simulate``, ``sweep`` or ``estimate`` hits, the daemon answers with
the workers' own code in its probe-only form: no ticket, no pool round
trip.  Any miss sends the whole request to the worker pool.
"""

import asyncio
import os

import pytest

from repro.campaign.jobs import CampaignJob, job_config, job_trace
from repro.core.cpu import simulate
from repro.obs.trace import (
    read_spans_jsonl,
    span_trees,
    trace_coverage,
    validate_spans,
)
from repro.serve import ServeClient, ServeConfig, ServeDaemon, ServeError
from repro.serve.protocol import parse_request
from repro.serve.workers import execute_payload

SPIN = "mov r1, #70\nloop:\nsubs r1, r1, #1\nbne loop\nhalt"
NAMED = {"api": 1, "suite": "ml", "bench": "pool0", "scale": 3,
         "core": "small", "mode": "redsoc"}
#: the fields an inline answer may differ in from the worker's
VOLATILE = ("worker", "wall_time_s", "spans")


def _stable(result):
    return {k: v for k, v in result.items() if k not in VOLATILE}


def _worker_results(kind, body, cache_dir):
    """What the pool's entry point answers for each job of *body*,
    run in this process against the same cache."""
    spec = parse_request(kind, dict(body))
    work = "estimate" if kind == "estimate" else "simulate"
    return [execute_payload(work, payload, str(cache_dir))
            for payload in spec.worker_payloads()]


def _counter(client, name):
    for line in client.metrics_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == f"redsoc_{name}":
            return float(parts[1])
    return 0.0


def _start(tmp_path, **overrides):
    config = ServeConfig(port=0, workers=1, lru_size=0,
                         cache_dir=tmp_path / "cache", **overrides)
    daemon = ServeDaemon(config)
    return daemon, daemon.start_background()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    daemon, port = _start(tmp_path_factory.mktemp("inline"))
    yield port, daemon.config.cache_dir
    daemon.stop_background()


@pytest.fixture()
def client(served):
    with ServeClient(port=served[0], timeout_s=60) as c:
        yield c


@pytest.fixture()
def cache_dir(served):
    return served[1]


class TestInlineAnswers:
    @pytest.mark.parametrize("body", [
        NAMED,
        {"api": 1, "asm": SPIN, "name": "spin", "core": "small",
         "mode": "mos"},
    ], ids=["named", "inline-asm"])
    def test_warm_simulate_equals_worker_answer(self, client, cache_dir,
                                                body):
        cold = client.request("POST", "/v1/simulate", body)
        assert cold["served"] == "worker"
        assert cold["result"]["cache_hit"] is False
        warm = client.request("POST", "/v1/simulate", body)
        assert warm["served"] == "inline"
        [worker] = _worker_results("simulate", body, cache_dir)
        assert worker["cache_hit"] is True
        assert _stable(warm["result"]) == _stable(worker)
        assert warm["result"]["cycles"] == cold["result"]["cycles"]
        # the daemon (a thread of this process) answered, probing only
        assert warm["result"]["worker"] == f"pid-{os.getpid()}"
        assert set(warm["result"]["spans"]) == {"cache_probe"}

    def test_warm_sweep_keeps_speedups(self, client, cache_dir):
        body = {"api": 1, "suite": "ml", "bench": "act", "scale": 2,
                "cores": ["small"], "modes": ["baseline", "redsoc"]}
        cold = client.request("POST", "/v1/sweep", body)
        assert cold["served"] == "worker"
        warm = client.request("POST", "/v1/sweep", body)
        assert warm["served"] == "inline"
        jobs = warm["result"]["jobs"]
        assert (warm["result"]["cores"], warm["result"]["modes"]) == \
            (["small"], ["baseline", "redsoc"])
        for job, worker in zip(jobs, _worker_results("sweep", body,
                                                     cache_dir)):
            assert _stable(dict(job, speedup=None)) == _stable(worker)
        base, redsoc = jobs
        assert base["speedup"] is None
        assert redsoc["speedup"] == base["cycles"] / redsoc["cycles"] - 1
        assert redsoc["speedup"] == cold["result"]["jobs"][1]["speedup"]

    def test_warm_estimate_answers_inline(self, client, cache_dir):
        body = dict(NAMED, mode="mos", confidence=0.7)
        assert client.request("POST", "/v1/estimate",
                              body)["served"] in ("worker", "inline")
        warm = client.request("POST", "/v1/estimate", body)
        assert warm["served"] == "inline"
        [worker] = _worker_results("estimate", body, cache_dir)
        drop = VOLATILE + ("predict_latency_us",)
        assert {k: v for k, v in warm["result"].items()
                if k not in drop} == \
            {k: v for k, v in worker.items() if k not in drop}

    def test_inline_hit_counts_hits_not_misses(self, client):
        client.request("POST", "/v1/simulate", dict(NAMED, mode="mos"))
        misses = _counter(client, "serve_cache_misses")
        hits = _counter(client, "serve_cache_hits")
        reply = client.request("POST", "/v1/simulate",
                               dict(NAMED, mode="mos"))
        assert reply["served"] == "inline"
        assert _counter(client, "serve_cache_misses") == misses
        assert _counter(client, "serve_cache_hits") == hits + 1

    def test_sweep_with_one_cold_job_goes_to_worker_whole(
            self, client, cache_dir):
        warm = dict(NAMED, bench="pool1", scale=2, mode="baseline")
        client.request("POST", "/v1/simulate", warm)
        body = {"api": 1, "suite": "ml", "bench": "pool1", "scale": 2,
                "cores": ["small"], "modes": ["baseline", "mos"]}
        hits = _counter(client, "serve_cache_hits")
        misses = _counter(client, "serve_cache_misses")
        reply = client.request("POST", "/v1/sweep", body)
        assert reply["served"] == "worker"
        jobs = reply["result"]["jobs"]
        assert [job["cache_hit"] for job in jobs] == [True, False]
        assert all(job["worker"] != f"pid-{os.getpid()}" for job in jobs)
        # the worker counted both jobs; the missed probe counted none
        assert _counter(client, "serve_cache_hits") == hits + 1
        assert _counter(client, "serve_cache_misses") == misses + 1
        for job in jobs:
            run = CampaignJob("ml", "pool1", "small", job["mode"],
                              scale=2)
            want = simulate(job_trace(run), job_config(run))
            assert (job["cycles"], job["committed"]) == \
                (want.cycles, want.stats.committed)
        again = client.request("POST", "/v1/sweep", body)
        assert again["served"] == "inline"
        assert [j["cycles"] for j in again["result"]["jobs"]] == \
            [j["cycles"] for j in jobs]

    def test_verify_never_answers_inline(self, client):
        body = {"api": 1, "seed": 5, "budget": 1, "metamorphic": False}
        for _ in range(2):
            assert client.request("POST", "/v1/verify",
                                  body)["served"] == "worker"


def test_traced_inline_hit_has_admission_and_probe(tmp_path):
    daemon, port = _start(tmp_path, trace_dir=tmp_path / "traces")
    trace_ids = []
    try:
        with ServeClient(port=port, timeout_s=60, trace=True,
                         trace_seed=3) as client:
            for _ in range(2):
                client.request("POST", "/v1/simulate", NAMED)
                trace_ids.append(client.last_trace["trace_id"])
    finally:
        daemon.stop_background()
    spans = read_spans_jsonl(tmp_path / "traces" / "spans.jsonl")
    assert validate_spans([s.to_json_obj() for s in spans]) == []
    trees = span_trees(spans)
    (cold,) = trees[trace_ids[0]]
    assert cold.span.attrs["served"] == "worker"
    # a miss keeps the worker path's tree: one admission span that
    # also covers the missed probe
    assert sorted(c.span.name for c in cold.children) == \
        ["admission", "queue.wait", "respond", "worker.attempt"]
    (warm,) = trees[trace_ids[1]]
    assert warm.span.attrs["served"] == "inline"
    children = sorted(warm.children, key=lambda c: c.span.start_us)
    assert [c.span.name for c in children] == ["admission", "cache.probe"]
    admission, probe = (c.span for c in children)
    assert admission.start_us == warm.span.start_us
    assert admission.end_us == probe.start_us
    assert trace_coverage(warm) >= 0.9


def test_warm_answers_survive_the_start_of_a_drain(tmp_path):
    daemon, port = _start(tmp_path)
    estimate = dict(NAMED, confidence=0.6)
    try:
        with ServeClient(port=port, timeout_s=60, max_retries=0) as c:
            c.request("POST", "/v1/simulate", NAMED)
            c.request("POST", "/v1/estimate", estimate)

            async def begin_drain():
                daemon.app.queue.begin_drain()
            asyncio.run_coroutine_threadsafe(
                begin_drain(), daemon._loop).result(10)

            # warm work needs no worker, so it is still answered
            assert c.request("POST", "/v1/simulate",
                             NAMED)["served"] == "inline"
            assert c.request("POST", "/v1/estimate",
                             estimate)["served"] == "inline"
            with pytest.raises(ServeError) as err:
                c.request("POST", "/v1/simulate",
                          dict(NAMED, mode="baseline"))
            assert (err.value.status, err.value.code) == (503, "draining")
    finally:
        daemon.stop_background()


def test_corrupt_entry_is_counted_and_recomputed(tmp_path):
    daemon, port = _start(tmp_path)
    try:
        with ServeClient(port=port, timeout_s=60) as c:
            first = c.request("POST", "/v1/simulate", NAMED)["result"]
            entry = tmp_path / "cache" / f"{first['key']}.json"
            entry.write_text("{torn")
            reply = c.request("POST", "/v1/simulate", NAMED)
            assert reply["served"] == "worker"
            assert reply["result"]["cycles"] == first["cycles"]
            assert reply["result"]["cache_hit"] is False
            assert "redsoc_cache_corrupt_entries 1" in \
                c.metrics_text().splitlines()
    finally:
        daemon.stop_background()
