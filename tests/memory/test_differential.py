"""Differential tests: the cache and the stride prefetcher against small
reference models written here, plus an allocation guard on building
the hierarchy."""

import gc
from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import Cache, MemoryConfig, MemoryHierarchy
from repro.memory.cache import CacheStats
from repro.memory.prefetch import StridePrefetcher


class RefCache:
    """Per set, an OrderedDict of line -> [dirty, prefetched], LRU first."""

    def __init__(self, num_sets, assoc, line_bytes):
        self.num_sets, self.assoc, self.line = num_sets, assoc, line_bytes
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.stats = CacheStats()

    def _ways(self, addr):
        line = addr // self.line
        return line, self.sets[line % self.num_sets]

    def probe(self, addr):
        line, ways = self._ways(addr)
        return line in ways

    def access(self, addr, is_write):
        line, ways = self._ways(addr)
        if line in ways:
            self.stats.hits += 1
            flags = ways[line]
            if flags[1]:
                self.stats.prefetch_hits += 1
                flags[1] = False
            flags[0] = flags[0] or is_write
            ways.move_to_end(line)
            return True, None
        self.stats.misses += 1
        return False, self._fill(line, ways, [is_write, False])

    def fill_prefetch(self, addr):
        line, ways = self._ways(addr)
        if line not in ways:
            self.stats.prefetch_fills += 1
            self._fill(line, ways, [False, True])

    def _fill(self, line, ways, flags):
        writeback = None
        if len(ways) >= self.assoc:
            victim, (dirty, _) = ways.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
                writeback = victim * self.line
        ways[line] = flags
        return writeback


#: addresses over 16 lines: 4 sets x 2 ways keeps evicting
ADDR = st.integers(min_value=0, max_value=16 * 64 - 1)
CACHE_OPS = st.lists(st.one_of(
    st.tuples(st.just("access"), ADDR, st.booleans()),
    st.tuples(st.just("fill_prefetch"), ADDR, st.just(False)),
    st.tuples(st.just("probe"), ADDR, st.just(False)),
), max_size=200)


@given(CACHE_OPS)
@settings(max_examples=200, deadline=None)
def test_cache_matches_reference_model(ops):
    cache = Cache("D", size_bytes=4 * 2 * 64, assoc=2, line_bytes=64)
    ref = RefCache(4, 2, 64)
    for op, addr, is_write in ops:
        if op == "access":
            got = cache.access(addr, is_write=is_write)
            want = ref.access(addr, is_write)
        elif op == "fill_prefetch":
            got = cache.fill_prefetch(addr)
            want = ref.fill_prefetch(addr)
        else:
            got = cache.probe(addr)
            want = ref.probe(addr)
        assert got == want, (op, addr)
        assert cache.stats == ref.stats
    cache.invariant_check()
    assert cache.resident_lines() == sum(len(w) for w in ref.sets)


def test_prefetch_fill_of_resident_line_changes_nothing():
    cache = Cache("D", size_bytes=4 * 2 * 64, assoc=2, line_bytes=64)
    set_stride = 4 * 64
    cache.access(0)
    cache.access(set_stride)            # set 0 now: line 0 LRU, line 4
    cache.fill_prefetch(0)              # resident: no MRU move, no stats
    assert cache.stats.prefetch_fills == 0
    cache.access(2 * set_stride)        # evicts line 0, still LRU
    assert not cache.probe(0)
    assert cache.probe(set_stride)


def test_writeback_address_is_the_victim_line_address():
    cache = Cache("D", size_bytes=4 * 1 * 64, assoc=1, line_bytes=64)
    cache.access(0x1C4, is_write=True)  # line 7, set 3
    hit, writeback = cache.access(0x3C0)  # line 15, set 3
    assert not hit and writeback == 0x1C0


class RefStride:
    """The stride table as a dict of entries, keyed by ``pc % entries``."""

    def __init__(self, entries, degree, threshold, line_bytes):
        self.entries, self.degree = entries, degree
        self.threshold, self.line = threshold, line_bytes
        self.table = {}
        self.issued = 0

    def observe(self, pc, addr):
        entry = self.table.setdefault(
            pc % self.entries, {"last": -1, "stride": 0, "conf": 0})
        if entry["last"] >= 0:
            stride = addr - entry["last"]
            if stride != 0 and stride == entry["stride"]:
                entry["conf"] = min(entry["conf"] + 1, 3)
            else:
                entry["stride"], entry["conf"] = stride, 0
        entry["last"] = addr
        if entry["conf"] < self.threshold or entry["stride"] == 0:
            return []
        step = entry["stride"]
        if abs(step) < self.line:
            step = self.line if step > 0 else -self.line
        out = [addr + k * step for k in range(1, self.degree + 1)]
        self.issued += len(out)
        return out


#: few pcs over a small table (aliasing), strides of either sign that
#: repeat long enough to reach the confidence cap
STRIDE_OPS = st.lists(st.tuples(
    st.integers(min_value=0, max_value=11),
    st.sampled_from([-256, -64, -8, 0, 4, 16, 64, 4096]),
    st.integers(min_value=1, max_value=6)), max_size=40)


@given(STRIDE_OPS, st.integers(min_value=0, max_value=4))
@settings(max_examples=200, deadline=None)
def test_stride_prefetcher_matches_reference_model(runs, threshold):
    pf = StridePrefetcher(entries=4, degree=3, threshold=threshold)
    ref = RefStride(4, 3, threshold, 64)
    addrs = {}
    for pc, stride, repeat in runs:
        for _ in range(repeat):
            addr = addrs.get(pc, 1 << 20) + stride
            addrs[pc] = addr
            assert pf.observe(pc, addr) == ref.observe(pc, addr)
            assert pf.issued == ref.issued


def test_confidence_caps_at_three():
    # a threshold above the cap is never reached, however long the
    # stream; at the cap itself the stream issues
    capped = StridePrefetcher(threshold=4, degree=1)
    assert all(capped.observe(0, 64 * k) == [] for k in range(20))
    at_cap = StridePrefetcher(threshold=3, degree=1)
    outs = [at_cap.observe(0, 64 * k) for k in range(6)]
    assert outs[3] == [] and outs[4] == [64 * 5]


def test_building_the_hierarchy_allocates_per_touch_only():
    gc.collect()
    before = len(gc.get_objects())
    mem = MemoryHierarchy(MemoryConfig())
    added = len(gc.get_objects()) - before
    assert added < 64, added
    mem.load_latency(0x1000)             # the first touch still works
    assert mem.l1.resident_lines() == 1
