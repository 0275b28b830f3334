"""Unit tests for the two-level cache hierarchy timing model."""

from repro.memory.hierarchy import MemoryConfig, MemoryHierarchy
from repro.obs import EventKind, Recorder


def make(**kw):
    return MemoryHierarchy(MemoryConfig(**kw))


def total_latency(config=MemoryConfig()):
    return config.l1_latency + config.l2_latency + config.dram_latency


class TestLoadLatencies:
    def test_cold_load_goes_to_dram(self):
        mem = make()
        assert mem.load_latency(0x1000) == total_latency()

    def test_second_load_same_line_hits_l1(self):
        mem = make()
        mem.load_latency(0x1000)
        assert mem.load_latency(0x1020) == mem.config.l1_latency

    def test_next_line_prefetch_turns_miss_into_l2_hit(self):
        mem = make()
        mem.load_latency(0)  # misses everywhere; next-line fills L2
        assert (mem.load_latency(64)
                == mem.config.l1_latency + mem.config.l2_latency)

    def test_prefetch_disabled_pays_full_dram(self):
        mem = make(prefetch=False)
        mem.load_latency(0)
        assert mem.load_latency(64) == total_latency()

    def test_stride_prefetch_hides_latency(self):
        mem = make()
        latencies = [mem.load_latency(k * 256, pc=12) for k in range(8)]
        # after two confirmations (access 3) the stride prefetcher runs
        # 4 steps ahead into L1: the tail of the stream hits L1
        assert latencies[0] == total_latency()
        assert all(lat == mem.config.l1_latency for lat in latencies[4:])

    def test_stride_prefetch_steps_whole_configured_lines(self):
        # an 8-byte stride is clamped to one line per step, and the line
        # is the hierarchy's own: with 128-byte lines the first prefetch
        # must land past the line being fetched (not at 24 + 64 = 88)
        mem = make(line_bytes=128)
        for addr in (0, 8, 16, 24):
            mem.load_latency(addr, pc=12)
        assert [mem.is_l1_hit(k * 128) for k in range(1, 5)] == \
            [True] * 4

    def test_custom_latency_parameters_respected(self):
        config = MemoryConfig(l1_latency=3, l2_latency=20,
                              dram_latency=200, prefetch=False)
        mem = MemoryHierarchy(config)
        assert mem.load_latency(0) == 223
        assert mem.load_latency(0) == 3


class TestStoresAndCounters:
    def test_store_write_allocates(self):
        mem = make(prefetch=False)
        assert mem.store_latency(0x2000) == total_latency()
        assert mem.store_latency(0x2004) == mem.config.l1_latency

    def test_counters(self):
        mem = make(prefetch=False)
        mem.load_latency(0)
        mem.load_latency(0)
        mem.load_latency(64)
        mem.store_latency(0)
        assert mem.loads == 3
        assert mem.stores == 1
        assert mem.l1_load_misses == 2

    def test_is_l1_hit_probe_is_non_destructive(self):
        mem = make(prefetch=False)
        assert not mem.is_l1_hit(0x3000)
        # probing must not allocate
        assert mem.load_latency(0x3000) == total_latency()
        assert mem.is_l1_hit(0x3000)

    def test_stats_surface_hits_and_misses(self):
        mem = make(prefetch=False)
        mem.load_latency(0)
        mem.load_latency(0)
        assert mem.l1_stats.misses == 1
        assert mem.l1_stats.hits == 1


class TestObservability:
    def test_load_emits_mem_access_event(self):
        mem = make(prefetch=False)
        recorder = Recorder()
        mem.obs = recorder
        mem.now = 7
        mem.load_latency(0x40, pc=3)
        [event] = recorder.of_kind(EventKind.MEM_ACCESS)
        assert event.cycle == 7
        assert event.data["access"] == "load"
        assert event.data["addr"] == 0x40
        assert event.data["pc"] == 3
        assert event.data["level"] == "dram"
        assert event.data["latency"] == total_latency()

    def test_event_levels_track_hit_level(self):
        mem = make(prefetch=False)
        recorder = Recorder()
        mem.obs = recorder
        mem.now = 0
        mem.load_latency(0x40)
        mem.load_latency(0x40)
        mem.store_latency(0x40)
        levels = [e.data["level"]
                  for e in recorder.of_kind(EventKind.MEM_ACCESS)]
        assert levels == ["dram", "l1", "l1"]

    def test_untraced_hierarchy_emits_nothing(self):
        mem = make()
        mem.load_latency(0)  # obs is None: must simply not raise
        assert mem.obs is None
