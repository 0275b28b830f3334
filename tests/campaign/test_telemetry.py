"""In-process tests for campaign telemetry: spans, workers, profiles."""

import pstats

from repro.campaign.cli import parse_jobspec
from repro.campaign.jobs import CampaignJob
from repro.campaign.runner import job_slug, run_campaign

import pytest

JOBS = [
    CampaignJob("ml", "pool0", "small", "baseline", scale=3),
    CampaignJob("ml", "pool0", "small", "redsoc", scale=3),
]


class TestJobSpans:
    def test_cold_jobs_record_all_spans(self, tmp_path):
        result = run_campaign(JOBS, cache_dir=tmp_path / "cache")
        for record in result.records:
            assert not record.cache_hit
            assert set(record.spans) == {"cache_probe", "trace_gen",
                                         "simulate", "cache_put"}
            assert all(s >= 0.0 for s in record.spans.values())
            assert record.spans["simulate"] <= record.wall_time_s
            assert record.worker.startswith("pid-")
        # in-process jobs run one after another: each record's wall
        # time is its own work, so they add up to at most the campaign
        assert sum(r.wall_time_s for r in result.records) <= \
            result.wall_time_s

    def test_warm_jobs_skip_simulate_span(self, tmp_path):
        cache = tmp_path / "cache"
        run_campaign(JOBS, cache_dir=cache)
        rerun = run_campaign(JOBS, cache_dir=cache)
        for record in rerun.records:
            assert record.cache_hit
            assert "simulate" not in record.spans
            assert "cache_probe" in record.spans

    def test_sim_throughput_on_misses_only(self, tmp_path):
        cache = tmp_path / "cache"
        cold = run_campaign(JOBS, cache_dir=cache)
        for record in cold.records:
            assert record.sim_cycles_per_sec is not None
            assert record.sim_cycles_per_sec == pytest.approx(
                record.cycles / record.spans["simulate"], rel=1e-2)
        warm = run_campaign(JOBS, cache_dir=cache)
        for record in warm.records:
            assert record.sim_cycles_per_sec is None

    def test_span_totals_aggregate(self, tmp_path):
        result = run_campaign(JOBS, cache_dir=tmp_path / "cache")
        totals = result.span_totals()
        assert totals["simulate"] == pytest.approx(
            sum(r.spans["simulate"] for r in result.records), abs=1e-3)
        payload = result.to_payload()
        assert payload["schema"] == 4
        assert payload["telemetry"]["span_totals_s"] == totals
        assert payload["telemetry"]["workers_used"] == \
            sorted({r.worker for r in result.records})


class TestProfileHook:
    def test_profile_dir_gets_one_pstats_per_miss(self, tmp_path):
        profile_dir = tmp_path / "profiles"
        result = run_campaign(JOBS, cache_dir=tmp_path / "cache",
                              profile_dir=profile_dir)
        for record in result.records:
            path = profile_dir / f"{job_slug(record.label)}.pstats"
            assert path.is_file()
            assert pstats.Stats(str(path)).total_calls > 0

    def test_cache_hits_are_not_profiled(self, tmp_path):
        cache = tmp_path / "cache"
        run_campaign(JOBS, cache_dir=cache)
        profile_dir = tmp_path / "profiles"
        rerun = run_campaign(JOBS, cache_dir=cache,
                             profile_dir=profile_dir)
        assert all(r.cache_hit for r in rerun.records)
        assert not profile_dir.exists()


class TestJobspec:
    def test_round_trips_record_labels(self):
        for job in JOBS:
            parsed = parse_jobspec(job.label, scale=3)
            assert parsed == job

    def test_rejects_malformed_spec(self):
        for bad in ("pool0", "ml/pool0", "ml/pool0@small",
                    "ml pool0@small:redsoc"):
            with pytest.raises(ValueError, match="bad job spec"):
                parse_jobspec(bad)

    def test_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown"):
            parse_jobspec("ml/pool0@small:warp9")
        with pytest.raises(ValueError, match="unknown"):
            parse_jobspec("nope/pool0@small:redsoc")

    def test_bench_from_wrong_suite_fails(self):
        with pytest.raises(ValueError):
            parse_jobspec("spec/pool0@small:redsoc")
