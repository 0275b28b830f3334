"""Cache keys: stability, invalidation, result round-trips."""

from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.campaign.cache import (
    ResultCache,
    cached_simulate,
    config_fingerprint,
    payload_to_result,
    result_key,
    result_to_payload,
    trace_fingerprint,
    trace_index_key,
)
from repro.core import CORES, CoreConfig, RecycleMode, simulate
from repro.pipeline.trace import generate_trace
from repro.workloads.suites import SUITES


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(SUITES["ml"]["pool0"](scale=3))


@pytest.fixture(scope="module")
def config():
    return CORES["small"].with_mode(RecycleMode.REDSOC)


class TestKeyStability:
    def test_same_inputs_same_key(self, tiny_trace, config):
        assert result_key(tiny_trace, config) == \
            result_key(tiny_trace, config)

    def test_regenerated_trace_same_key(self, tiny_trace, config):
        other = generate_trace(SUITES["ml"]["pool0"](scale=3))
        assert result_key(other, config) == \
            result_key(tiny_trace, config)

    def test_fingerprint_memoised_on_trace(self, tiny_trace):
        assert trace_fingerprint(tiny_trace) is \
            trace_fingerprint(tiny_trace)


class TestKeyInvalidation:
    def test_mode_changes_key(self, tiny_trace, config):
        other = config.with_mode(RecycleMode.BASELINE)
        assert result_key(tiny_trace, other) != \
            result_key(tiny_trace, config)

    def test_ablation_knob_changes_key(self, tiny_trace, config):
        other = config.variant(slack_threshold=3)
        assert result_key(tiny_trace, other) != \
            result_key(tiny_trace, config)

    def test_core_changes_key(self, tiny_trace, config):
        other = CORES["big"].with_mode(RecycleMode.REDSOC)
        assert result_key(tiny_trace, other) != \
            result_key(tiny_trace, config)

    def test_workload_changes_key(self, tiny_trace, config):
        other = generate_trace(SUITES["ml"]["pool0"](scale=4))
        assert result_key(other, config) != \
            result_key(tiny_trace, config)

    def test_model_salt_changes_key(self, tiny_trace, config):
        assert result_key(tiny_trace, config, salt="vNext") != \
            result_key(tiny_trace, config)

    def test_config_fingerprint_covers_nested_dataclasses(self, config):
        slow_mem = config.variant(
            memory=config.memory.__class__(l1_latency=9))
        assert config_fingerprint(slow_mem) != config_fingerprint(config)

    def test_trace_index_key_dimensions(self):
        base = trace_index_key("ml", "pool0")
        assert trace_index_key("ml", "pool0") == base
        assert trace_index_key("ml", "pool1") != base
        assert trace_index_key("ml", "pool0", scale=7) != base
        assert trace_index_key("ml", "pool0", salt="vNext") != base


class TestRoundTrip:
    def test_payload_round_trip(self, tiny_trace, config):
        result = simulate(tiny_trace, config)
        restored = payload_to_result(result_to_payload(result), config)
        assert restored.name == result.name
        assert restored.cycles == result.cycles
        assert asdict(restored.stats) == asdict(result.stats)

    def test_cached_simulate_hits_second_time(self, tiny_trace, config,
                                              tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = cached_simulate(tiny_trace, config, cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert len(cache) == 1
        second = cached_simulate(tiny_trace, config, cache)
        assert (cache.hits, cache.misses) == (1, 1)
        assert asdict(second.stats) == asdict(first.stats)

    def test_force_reruns_but_rewrites(self, tiny_trace, config,
                                       tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        forced = cached_simulate(tiny_trace, config, cache, force=True)
        assert cache.hits == 0 and cache.misses == 2
        assert len(cache) == 1
        assert forced.cycles > 0

    def test_corrupt_entry_is_a_miss(self, tiny_trace, config,
                                     tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        key = result_key(tiny_trace, config)
        cache.path(key).write_text("not json{")
        result = cached_simulate(tiny_trace, config, cache)
        assert result.cycles > 0
        assert cache.misses == 2  # corrupt read counted as miss


class TestCorruptionTolerance:
    """Torn/garbage entries: miss + count + unlink, never a crash."""

    def _warm(self, tiny_trace, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        return cache, result_key(tiny_trace, config)

    @pytest.mark.parametrize("garbage", [
        b"not json{",                 # torn mid-write
        b'{"schema": 1, "name": ',    # truncated JSON
        b"\x00\xff\xfe binary",       # not even text
        b"[1, 2, 3]",                 # valid JSON, wrong shape
    ])
    def test_garbage_entry_is_counted_and_removed(
            self, tiny_trace, config, tmp_path, garbage):
        cache, key = self._warm(tiny_trace, config, tmp_path)
        cache.path(key).write_bytes(garbage)
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not cache.path(key).exists()   # unlinked for rewrite
        # and the next simulate round-trips a fresh entry
        result = cached_simulate(tiny_trace, config, cache)
        assert result.cycles > 0
        assert cache.get(key) is not None

    def test_schema_mismatch_is_a_plain_miss(self, tiny_trace, config,
                                             tmp_path):
        cache, key = self._warm(tiny_trace, config, tmp_path)
        cache.path(key).write_text('{"schema": 999}')
        assert cache.get(key) is None
        # an old-but-well-formed entry is not corruption
        assert cache.corrupt == 0
        assert cache.path(key).exists()

    def test_missing_entry_is_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("0" * 32) is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    def test_corrupt_trace_index_entry(self, tiny_trace, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tkey = trace_index_key("ml", "pool0", 3)
        cache.put_trace_fingerprint(tkey, trace_fingerprint(tiny_trace))
        cache.trace_index_path(tkey).write_text("{torn")
        assert cache.get_trace_fingerprint(tkey) is None
        assert cache.corrupt == 1
        assert not cache.trace_index_path(tkey).exists()
        # index entry with the wrong shape is also corrupt
        cache.trace_index_path(tkey).parent.mkdir(exist_ok=True)
        cache.trace_index_path(tkey).write_text('{"fingerprint": 42}')
        assert cache.get_trace_fingerprint(tkey) is None
        assert cache.corrupt == 2

    def test_corruption_logged_via_obs_metrics(self, tiny_trace, config,
                                               tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path / "cache", metrics=metrics)
        cached_simulate(tiny_trace, config, cache)
        key = result_key(tiny_trace, config)
        cache.path(key).write_text("}{")
        assert cache.get(key) is None
        assert metrics.counter("cache.corrupt_entries").value == 1

    def test_clear(self, tiny_trace, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cached_simulate(tiny_trace, config, cache)
        cache.put_trace_fingerprint(trace_index_key("ml", "pool0"),
                                    trace_fingerprint(tiny_trace))
        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.get_trace_fingerprint(
            trace_index_key("ml", "pool0")) is None


class TestEngineInvalidation:
    """Switching ``engine=`` can never serve a stale cached result."""

    def test_engine_changes_key(self, tiny_trace, config):
        compiled = replace(config, engine="compiled")
        reference = replace(config, engine="reference")
        keys = {result_key(tiny_trace, c) for c in (compiled, reference)}
        assert len(keys) == 2
        # the default engine is reference: same config, same key
        assert result_key(tiny_trace, replace(config, engine=CoreConfig(
        ).engine)) == result_key(tiny_trace, reference)

    def test_model_version_covers_engine_sources(self, monkeypatch):
        # editing an engine source must change every result key: the
        # model version hashes each file of the model packages
        import repro.campaign.cache as cache_mod

        before = cache_mod.model_version()
        original = Path.read_bytes
        for rel in ("core/compiled.py", "core/lower.py",
                    "pipeline/codegen.py"):
            def edited(path, rel=rel):
                data = original(path)
                return data + b"#" if path.as_posix().endswith(rel) \
                    else data
            monkeypatch.setattr(cache_mod, "_digest_memo", {})
            monkeypatch.setattr(Path, "read_bytes", edited)
            assert cache_mod.model_version() != before, rel

    def test_no_cross_engine_serving(self, tiny_trace, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        reference = cached_simulate(
            tiny_trace, replace(config, engine="reference"), cache)
        compiled = cached_simulate(tiny_trace,
                                   replace(config, engine="compiled"),
                                   cache)
        # the second engine must be a miss, not a stale hit ...
        assert (cache.hits, cache.misses) == (0, 2)
        assert len(cache) == 2
        # ... and (being bit-identical backends) agree on the physics
        assert asdict(compiled.stats) == asdict(reference.stats)
