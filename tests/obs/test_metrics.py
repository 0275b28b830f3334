"""Metrics registry tests + a run's registry built by ``run_metrics``."""

from repro.core import CORES, CoreSimulator
from repro.obs import MetricsRegistry, Recorder, run_metrics
from repro.obs.export import COUNTER_FIELDS, GAUGE_FIELDS
from repro.pipeline.trace import generate_trace
from repro.workloads.microbench import MICROBENCHES


class TestPrimitives:
    def test_counter(self):
        m = MetricsRegistry()
        counter = m.counter("a")
        counter.inc()
        counter.inc(3)
        assert m.counter("a").value == 4
        assert m.counter("a") is counter

    def test_gauge(self):
        m = MetricsRegistry()
        m.gauge("g").set(0.5)
        assert m.gauge("g").value == 0.5

    def test_histogram_stats(self):
        m = MetricsRegistry()
        h = m.histogram("h")
        for v in (1, 1, 2, 5):
            h.observe(v)
        assert h.total == 4
        assert h.sum == 9
        assert h.mean == 2.25
        assert h.min == 1 and h.max == 5
        assert h.percentile(0.5) == 1
        assert h.percentile(1.0) == 5
        assert h.items() == [(1, 2), (2, 1), (5, 1)]

    def test_empty_histogram(self):
        h = MetricsRegistry().histogram("h")
        assert h.mean == 0.0
        assert h.min is None and h.max is None
        assert h.percentile(0.5) is None

    def test_snapshot_shape(self):
        m = MetricsRegistry()
        m.counter("c").inc(2)
        m.gauge("g").set(1.5)
        m.histogram("h").observe(3)
        snap = m.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 1.5}
        assert snap["histograms"]["h"]["counts"] == {"3": 1}
        assert snap["histograms"]["h"]["mean"] == 3.0

    def test_jsonl_objs_cover_every_metric(self):
        m = MetricsRegistry()
        m.counter("c").inc()
        m.gauge("g").set(2.0)
        m.histogram("h").observe(1)
        objs = list(m.iter_jsonl_objs())
        assert {o["metric"] for o in objs} == {"c", "g", "h"}
        assert {o["type"] for o in objs} == \
            {"counter", "gauge", "histogram"}


class TestSimStatsThroughRegistry:
    def _run(self):
        trace = generate_trace(MICROBENCHES["logic"].build(40))
        recorder = Recorder()
        sim = CoreSimulator(trace, CORES["big"], obs=recorder)
        result = sim.run()
        return sim, result, run_metrics(result.stats, recorder.events)

    def test_gauges_populate_stats_fields(self):
        _, result, metrics = self._run()
        for gauge_name, field_name in GAUGE_FIELDS.items():
            assert gauge_name in metrics.gauges
            assert getattr(result.stats, field_name) == \
                metrics.gauges[gauge_name].value

    def test_counters_mirror_stats_fields(self):
        _, result, metrics = self._run()
        for counter_name, field_name in COUNTER_FIELDS.items():
            assert metrics.counters[counter_name].value == \
                getattr(result.stats, field_name)
        for op_class, count in result.stats.distribution.counts.items():
            assert metrics.counters[f"dist.{op_class}"].value == count

    def test_snapshot_is_simstats_compatible(self):
        """Every SimStats field is recoverable from the snapshot."""
        _, result, metrics = self._run()
        snap = metrics.snapshot()
        merged = dict(snap["counters"])
        merged.update(snap["gauges"])
        for gauge_name, field_name in GAUGE_FIELDS.items():
            assert merged[gauge_name] == getattr(result.stats, field_name)
        for counter_name, field_name in COUNTER_FIELDS.items():
            assert merged[counter_name] == \
                getattr(result.stats, field_name)
        assert merged["core.ipc"] == result.stats.ipc

    def test_histograms_recorded_on_traced_runs(self):
        sim, result, metrics = self._run()
        hist = metrics.histograms["slack.per_op"]
        assert hist.total > 0
        tpc = sim.base.ticks_per_cycle
        assert 0 <= hist.min <= hist.max < tpc
        lat = metrics.histograms["lat.issue_to_execute"]
        assert lat.total > 0
        assert lat.min >= 0
        if result.stats.recycled_ops:
            offsets = metrics.histograms["recycle.start_offset"]
            assert offsets.total == result.stats.recycled_ops
            assert all(0 < v < tpc for v, _ in offsets.items())

    def test_untraced_run_records_no_histograms(self):
        trace = generate_trace(MICROBENCHES["logic"].build(40))
        result = CoreSimulator(trace, CORES["big"]).run()
        metrics = run_metrics(result.stats, [])
        assert not metrics.histograms
        assert metrics.counters["core.cycles"].value == result.stats.cycles
