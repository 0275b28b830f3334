"""Runner: job enumeration, parallel == serial, warm-cache behaviour."""

import pytest

import repro.campaign.jobs as jobs_module
from repro.campaign.jobs import (
    CampaignJob,
    SMOKE_BENCHMARKS,
    enumerate_jobs,
    job_config,
    smoke_jobs,
)
from repro.campaign.runner import _trace_chunks, run_campaign
from repro.core import CORES, RecycleMode
from repro.pipeline.trace import generate_trace
from repro.workloads.suites import SUITES

#: two benchmarks x one core x two modes at tiny scale: fast enough
#: for tier-1, wide enough to exercise speedup joins and sharding
TINY_JOBS = [
    CampaignJob(suite, bench, "small", mode, scale=3)
    for suite, bench in (("ml", "pool0"), ("mibench", "bitcnt"))
    for mode in ("baseline", "redsoc")
]


def _comparable(records):
    return [(r.suite, r.bench, r.core, r.mode, r.key, r.cycles,
             r.committed, r.ipc, r.speedup) for r in records]


class TestEnumeration:
    def test_full_grid_size(self):
        total_benches = sum(len(table) for table in SUITES.values())
        jobs = enumerate_jobs()
        assert len(jobs) == total_benches * len(CORES) * len(RecycleMode)

    def test_filters_compose(self):
        jobs = enumerate_jobs(suites=["ml"], benchmarks=["pool0"],
                              cores=["small"], modes=["redsoc"])
        assert jobs == [CampaignJob("ml", "pool0", "small", "redsoc")]

    def test_unknown_names_fail_loudly(self):
        with pytest.raises(ValueError):
            enumerate_jobs(suites=["specint"])
        with pytest.raises(ValueError):
            enumerate_jobs(modes=["turbo"])
        with pytest.raises(ValueError):
            enumerate_jobs(suites=["ml"], benchmarks=["bitcnt"])

    def test_smoke_is_one_bench_per_suite_on_small(self):
        jobs = smoke_jobs()
        assert {j.suite for j in jobs} == set(SMOKE_BENCHMARKS)
        assert all(j.core == "small" for j in jobs)
        assert all(j.bench == SMOKE_BENCHMARKS[j.suite] for j in jobs)
        assert len(jobs) == len(SMOKE_BENCHMARKS) * len(RecycleMode)

    def test_job_config_applies_mode(self):
        config = job_config(CampaignJob("ml", "pool0", "big", "mos"))
        assert config.name == "big"
        assert config.mode is RecycleMode.MOS


class TestRunCampaign:
    def test_parallel_matches_serial(self, tmp_path):
        serial = run_campaign(TINY_JOBS, workers=1,
                              cache_dir=tmp_path / "serial")
        parallel = run_campaign(TINY_JOBS, workers=2,
                                cache_dir=tmp_path / "parallel")
        assert serial.workers == 1 and parallel.workers == 2
        assert _comparable(serial.records) == \
            _comparable(parallel.records)
        assert serial.misses == len(TINY_JOBS)
        assert parallel.misses == len(TINY_JOBS)

    def test_second_run_is_all_hits(self, tmp_path):
        cold = run_campaign(TINY_JOBS, workers=1, cache_dir=tmp_path)
        warm = run_campaign(TINY_JOBS, workers=1, cache_dir=tmp_path)
        assert cold.hit_rate == 0.0
        assert warm.hit_rate == 1.0
        assert _comparable(cold.records) == _comparable(warm.records)

    def test_force_resimulates(self, tmp_path):
        run_campaign(TINY_JOBS[:2], workers=1, cache_dir=tmp_path)
        forced = run_campaign(TINY_JOBS[:2], workers=1,
                              cache_dir=tmp_path, force=True)
        assert forced.hit_rate == 0.0

    def test_speedup_joined_against_baseline(self, tmp_path):
        result = run_campaign(TINY_JOBS, workers=1, cache_dir=tmp_path)
        by_mode = {(r.suite, r.bench, r.mode): r for r in result.records}
        for (suite, bench, mode), rec in by_mode.items():
            if mode == "baseline":
                assert rec.speedup is None
            else:
                base = by_mode[(suite, bench, "baseline")]
                assert rec.speedup == pytest.approx(
                    base.cycles / rec.cycles - 1.0)

    def test_no_baseline_no_speedup(self, tmp_path):
        jobs = [CampaignJob("ml", "pool0", "small", "redsoc", scale=3)]
        result = run_campaign(jobs, workers=1, cache_dir=tmp_path)
        assert result.records[0].speedup is None

    def test_payload_shape(self, tmp_path):
        result = run_campaign(TINY_JOBS[:2], workers=1,
                              cache_dir=tmp_path)
        payload = result.to_payload()
        assert payload["jobs"] == 2
        assert payload["cache"] == {"hits": 0, "misses": 2,
                                    "hit_rate": 0.0}
        assert {r["suite"] for r in payload["results"]} == {"ml"}
        assert "model_version" in payload


class TestTraceMemo:
    def test_serial_campaign_makes_each_trace_once(self, tmp_path,
                                                   monkeypatch):
        # a one-trace memo is enough only because jobs arrive grouped
        # by trace: pin that grouping
        made = []

        def counting(program, **kwargs):
            made.append(program.name)
            return generate_trace(program, **kwargs)

        jobs_module._trace.cache_clear()
        monkeypatch.setattr(jobs_module, "generate_trace", counting)
        jobs = smoke_jobs(scale=3)
        result = run_campaign(jobs, workers=1, cache_dir=tmp_path)
        assert len(result.records) == len(jobs)
        assert len(made) == len(set(made)) == len(SMOKE_BENCHMARKS)


class TestTraceChunks:
    """How run_campaign shards jobs over a process pool."""

    def test_one_chunk_per_trace_when_traces_cover_workers(self):
        jobs = smoke_jobs()
        chunks = _trace_chunks(jobs, workers=3)
        assert [len(c) for c in chunks] == [3, 3, 3]
        assert all(len({(j.suite, j.bench) for j in c}) == 1
                   for c in chunks)

    def test_one_trace_is_split_over_every_worker(self):
        jobs = enumerate_jobs(suites=["ml"], benchmarks=["pool0"],
                              cores=["small", "medium", "big"])
        assert len(jobs) == 9
        chunks = _trace_chunks(jobs, workers=3)
        assert [len(c) for c in chunks] == [3, 3, 3]

    def test_at_least_one_chunk_per_worker(self):
        for workers in range(2, 8):
            chunks = _trace_chunks(TINY_JOBS, workers)
            assert len(chunks) >= min(len(TINY_JOBS), workers)

    def test_order_preserved(self):
        jobs = smoke_jobs()
        for workers in (2, 4, 16):
            flat = [j for c in _trace_chunks(jobs, workers) for j in c]
            assert flat == jobs
