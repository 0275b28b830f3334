"""Cache keys: stability, invalidation, result round-trips."""

from dataclasses import asdict, fields, replace
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
from repro.core import CORES, ENGINES, CoreConfig, RecycleMode, simulate
from repro.isa.opcodes import Cond, Opcode, ShiftOp, SimdType
from repro.isa.registers import r
from repro.pipeline.trace import Trace, generate_trace
from repro.workloads.suites import SUITES
from tests.config_variants import FIELD_VARIANTS


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


def _other_reg(reg):
    return r(1) if reg != r(1) else r(2)


#: every instruction field the trace fingerprint covers, with a change
INSTR_CHANGES = {
    "op": lambda v: Opcode.SUB if v is not Opcode.SUB else Opcode.ADD,
    "rd": _other_reg, "rn": _other_reg, "rm": _other_reg,
    "ra": _other_reg, "rs": _other_reg,
    "imm": lambda v: (v or 0) + 1,
    "shift": lambda v: ShiftOp.LSL if v is not ShiftOp.LSL
    else ShiftOp.ASR,
    "shift_amt": lambda v: v + 1,
    "set_flags": lambda v: not v,
    "cond": lambda v: Cond.EQ if v is not Cond.EQ else Cond.NE,
    "target": lambda v: 999 if v != 999 else 998,
    "dtype": lambda v: SimdType.I8 if v is not SimdType.I8
    else SimdType.I16,
    "scale": lambda v: v + 1,
}

#: every dynamic-entry field the trace fingerprint covers, with a change
#: (the new pc is one the program does not have)
ENTRY_CHANGES = {
    "pc": lambda v: v + 1_000_000,
    "next_pc": lambda v: v + 1,
    "taken": lambda v: not v,
    "op_width": lambda v: v + 1,
    "mem_addr": lambda v: v + 4,
    "mem_size": lambda v: v + 1,
    "is_store": lambda v: not v,
}


def _retraced(trace, entries, name=None):
    return Trace(name=trace.name if name is None else name,
                 entries=entries, final_regs=trace.final_regs,
                 final_mem=trace.final_mem)


class TestFingerprintCoverage:
    """One changed field in one entry changes the digest.

    A trace runs one instruction per pc, so changing an instruction
    field changes it in every entry that runs that instruction.
    """

    @pytest.fixture
    def probe(self, tiny_trace):
        """Index of a memory entry whose pc the trace runs repeatedly."""
        pcs = [e.pc for e in tiny_trace.entries]
        return next(i for i, e in enumerate(tiny_trace.entries)
                    if e.mem_addr is not None and pcs.count(e.pc) > 1)

    @pytest.mark.parametrize("field", sorted(INSTR_CHANGES))
    def test_instruction_field(self, tiny_trace, probe, field):
        old = tiny_trace.entries[probe].instr
        new = replace(old, **{field: INSTR_CHANGES[field](
            getattr(old, field))})
        entries = [replace(e, instr=new) if e.instr is old else e
                   for e in tiny_trace.entries]
        assert trace_fingerprint(_retraced(tiny_trace, entries)) != \
            trace_fingerprint(tiny_trace)

    @pytest.mark.parametrize("field", sorted(ENTRY_CHANGES))
    def test_entry_field(self, tiny_trace, probe, field):
        entries = list(tiny_trace.entries)
        entry = entries[probe]
        entries[probe] = replace(entry, **{field: ENTRY_CHANGES[field](
            getattr(entry, field))})
        assert trace_fingerprint(_retraced(tiny_trace, entries)) != \
            trace_fingerprint(tiny_trace)

    def test_trace_name(self, tiny_trace):
        renamed = _retraced(tiny_trace, tiny_trace.entries, name="pool9")
        assert trace_fingerprint(renamed) != trace_fingerprint(tiny_trace)

    def test_no_memory_access_differs_from_address_zero(self, tiny_trace):
        entries = list(tiny_trace.entries)
        i = next(i for i, e in enumerate(entries) if e.mem_addr is None)
        entries[i] = replace(entries[i], mem_addr=0)
        assert trace_fingerprint(_retraced(tiny_trace, entries)) != \
            trace_fingerprint(tiny_trace)

    def test_two_instructions_at_one_pc_are_refused(self, tiny_trace,
                                                    probe):
        entries = list(tiny_trace.entries)
        entry = entries[probe]
        entries[probe] = replace(entry, instr=replace(
            entry.instr, imm=(entry.instr.imm or 0) + 1))
        with pytest.raises(ValueError, match="more than one instruction"):
            trace_fingerprint(_retraced(tiny_trace, entries))

    def test_reads_entries_not_the_lowering(self):
        fresh = generate_trace(SUITES["ml"]["pool0"](scale=3))
        trace_fingerprint(fresh)
        assert not hasattr(fresh, "_lowered")


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

    @pytest.mark.parametrize("name", [f.name for f in fields(CoreConfig)
                                      if f.name != "engine"])
    def test_config_fingerprint_covers_every_field(self, config, name):
        # nested dataclasses (memory, tech) included: the feature cache
        # keys on this digest too, so a field it misses would serve
        # features extracted under another config
        other = replace(config, **{name: FIELD_VARIANTS[name]})
        assert getattr(other, name) != getattr(config, name)
        assert config_fingerprint(other) != config_fingerprint(config)

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
        Path(cache.path(key)).write_text("not json{")
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
        Path(cache.path(key)).write_bytes(garbage)
        assert cache.get(key) is None
        assert cache.corrupt == 1
        assert not Path(cache.path(key)).exists()   # unlinked for rewrite
        # and the next simulate round-trips a fresh entry
        result = cached_simulate(tiny_trace, config, cache)
        assert result.cycles > 0
        assert cache.get(key) is not None

    def test_schema_mismatch_is_a_plain_miss(self, tiny_trace, config,
                                             tmp_path):
        cache, key = self._warm(tiny_trace, config, tmp_path)
        Path(cache.path(key)).write_text('{"schema": 999}')
        assert cache.get(key) is None
        # an old-but-well-formed entry is not corruption
        assert cache.corrupt == 0
        assert Path(cache.path(key)).exists()

    def test_missing_entry_is_not_corruption(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get("0" * 32) is None
        assert (cache.misses, cache.corrupt) == (1, 0)

    def test_corrupt_trace_index_entry(self, tiny_trace, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        tkey = trace_index_key("ml", "pool0", 3)
        cache.put_trace_fingerprint(tkey, trace_fingerprint(tiny_trace))
        entry = Path(cache.trace_index_path(tkey))
        entry.write_text("{torn")
        assert cache.get_trace_fingerprint(tkey) is None
        assert cache.corrupt == 1
        assert not entry.exists()
        # index entry with the wrong shape is also corrupt
        entry.parent.mkdir(exist_ok=True)
        entry.write_text('{"fingerprint": 42}')
        assert cache.get_trace_fingerprint(tkey) is None
        assert cache.corrupt == 2

    def test_corruption_logged_via_obs_metrics(self, tiny_trace, config,
                                               tmp_path):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        cache = ResultCache(tmp_path / "cache", metrics=metrics)
        cached_simulate(tiny_trace, config, cache)
        key = result_key(tiny_trace, config)
        Path(cache.path(key)).write_text("}{")
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
    """Keys carry semantics only: one cached result serves every engine,
    while engine *source* edits still invalidate everything."""

    def test_engines_share_one_key(self, tiny_trace, config):
        keys = {result_key(tiny_trace, replace(config, engine=engine))
                for engine in ENGINES.names()}
        assert len(keys) == 1
        fingerprints = {config_fingerprint(replace(config, engine=engine))
                        for engine in ENGINES.names()}
        assert len(fingerprints) == 1

    def test_model_version_covers_engine_sources(self, monkeypatch):
        # editing an engine source must change every result key: the
        # model version hashes each file of the model packages
        import repro.campaign.cache as cache_mod

        before = cache_mod.model_version()
        original = Path.read_bytes
        for rel in ("core/compiled.py", "core/lower.py",
                    "pipeline/trace.py"):
            def edited(path, rel=rel):
                data = original(path)
                return data + b"#" if path.as_posix().endswith(rel) \
                    else data
            monkeypatch.setattr(cache_mod, "_digest_memo", {})
            monkeypatch.setattr(Path, "read_bytes", edited)
            assert cache_mod.model_version() != before, rel

    def test_second_engine_is_a_hit(self, tiny_trace, config, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        reference = cached_simulate(
            tiny_trace, replace(config, engine="reference"), cache)
        compiled = cached_simulate(tiny_trace,
                                   replace(config, engine="compiled"),
                                   cache)
        # the second engine is answered from the first one's entry ...
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1
        assert compiled.config.engine == "compiled"
        # ... which is exactly what it would have computed itself
        fresh = simulate(tiny_trace, replace(config, engine="compiled"))
        assert asdict(compiled.stats) == asdict(reference.stats) \
            == asdict(fresh.stats)
