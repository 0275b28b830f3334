"""Engine registry: selection, equivalence, fallback, registration."""

from dataclasses import replace

import pytest

from repro.core import CORES, ENGINES, EngineRegistry, RecycleMode, simulate
from repro.core.compiled import CompiledSimulator
from repro.core.config import CoreConfig
from repro.core.cpu import CoreSimulator
from repro.obs import Recorder
from repro.pipeline.trace import generate_trace
from repro.verify.generator import ProgramGenerator
from repro.workloads.suites import SUITES
from tests.config_variants import FIELD_VARIANTS


@pytest.fixture(scope="module")
def tiny_trace():
    return generate_trace(SUITES["ml"]["pool0"](scale=3))


@pytest.fixture(scope="module")
def config():
    return CORES["small"].with_mode(RecycleMode.REDSOC)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert ENGINES.names() == ("reference", "compiled")
        for name in ("reference", "compiled"):
            assert name in ENGINES

    def test_unknown_engine_is_loud(self, tiny_trace, config):
        with pytest.raises(ValueError, match="unknown engine"):
            ENGINES.create("warp", tiny_trace, config)

    def test_unknown_engine_lists_registered_names(self, tiny_trace,
                                                   config):
        # the error must enumerate what IS registered
        with pytest.raises(ValueError) as err:
            ENGINES.create("warp", tiny_trace, config)
        message = str(err.value)
        for name in ("reference", "compiled"):
            assert name in message

    @pytest.mark.parametrize("name", ["fast", "vector"])
    def test_removed_engines_are_rejected(self, tiny_trace, config, name):
        with pytest.raises(ValueError) as err:
            ENGINES.create(name, tiny_trace, config)
        message = str(err.value)
        assert "unknown engine" in message
        assert "'reference'" in message and "'compiled'" in message

    def test_batch_probe(self):
        # every job is one simulate call: no built-in batch entry
        assert ENGINES.batch("compiled") is None
        assert ENGINES.batch("reference") is None
        with pytest.raises(ValueError, match="unknown engine"):
            ENGINES.batch("warp")

    def test_reregistration_drops_stale_batch(self):
        registry = EngineRegistry()
        registry.register("x", lambda *a, **k: None,
                          batch=lambda items: [])
        assert registry.batch("x") is not None
        registry.register("x", lambda *a, **k: None)
        assert registry.batch("x") is None

    def test_unknown_engine_via_config(self, tiny_trace, config):
        with pytest.raises(ValueError, match="unknown engine"):
            simulate(tiny_trace, replace(config, engine="warp"))

    def test_register_rejects_bad_names(self):
        registry = EngineRegistry()
        with pytest.raises(ValueError):
            registry.register("", lambda *a, **k: None)
        with pytest.raises(ValueError):
            registry.register(None, lambda *a, **k: None)

    def test_registration_order_preserved(self):
        registry = EngineRegistry()
        registry.register("b", lambda *a, **k: None)
        registry.register("a", lambda *a, **k: None)
        assert registry.names() == ("b", "a")

    def test_default_engine_is_compiled(self, config):
        assert CoreConfig().engine == "compiled"
        assert config.engine == "compiled"


class TestBackendSelection:
    def test_reference_pins_step_loop(self, tiny_trace, config):
        runner = ENGINES.create("reference", tiny_trace, config)
        assert isinstance(runner, CoreSimulator)

    def test_compiled_backend(self, tiny_trace, config):
        runner = ENGINES.create("compiled", tiny_trace, config)
        assert isinstance(runner, CompiledSimulator)

    def test_compiled_falls_back_under_observation(self, tiny_trace,
                                                   config):
        # the compiled loop has no probe points: observed runs must
        # route to the reference simulator so traces stay complete
        runner = ENGINES.create("compiled", tiny_trace, config,
                                obs=Recorder())
        assert isinstance(runner, CoreSimulator)


class TestBackendEquivalence:
    @pytest.mark.parametrize("mode", list(RecycleMode))
    def test_engines_bit_identical(self, tiny_trace, mode):
        config = CORES["small"].with_mode(mode)
        stats = [simulate(tiny_trace, replace(config, engine=e)).stats
                 for e in ("reference", "compiled")]
        assert stats[0] == stats[1]

    def test_shared_trace_across_configs_matches_reference(
            self, tiny_trace):
        # one trace replayed under a cores x modes grid reuses its
        # memoized columns; no run may leak state into the next
        for core in ("small", "big"):
            for mode in RecycleMode:
                cfg = CORES[core].with_mode(mode)
                assert simulate(tiny_trace, replace(
                    cfg, engine="compiled")).stats == simulate(
                    tiny_trace, replace(cfg, engine="reference")).stats

    def test_observed_run_matches_unobserved(self, tiny_trace, config):
        plain = simulate(tiny_trace, replace(config, engine="compiled"))
        observed = simulate(tiny_trace,
                            replace(config, engine="compiled"),
                            obs=Recorder())
        assert observed.stats == plain.stats


@pytest.fixture(scope="module")
def fuzz_trace():
    # program 54 of seed 0: 274 entries with stores and multiplies that
    # make eager (GP) issues on the small core in both recycling modes;
    # ml/pool0 at scale 3 makes none
    return generate_trace(ProgramGenerator(0).program(54))


class TestConfigVariantEquivalence:
    """Both engines off the presets: every ``CoreConfig`` field moved to
    a non-preset value, one at a time on the small core, in every mode
    (``mode`` itself is the mode axis).  The compiled replay bakes
    scheduler, eager-issue, adaptive-threshold, tick, PVT, memory and
    unit-count settings into its loop, so each must agree with the
    reference engine on its own."""

    @pytest.mark.parametrize("name", sorted(set(FIELD_VARIANTS) - {"mode"}))
    def test_engines_bit_identical(self, tiny_trace, fuzz_trace, name):
        for trace in (tiny_trace, fuzz_trace):
            for mode in RecycleMode:
                cfg = replace(CORES["small"].with_mode(mode),
                              **{name: FIELD_VARIANTS[name]})
                assert simulate(trace, replace(
                    cfg, engine="compiled")).stats == simulate(
                    trace, replace(cfg, engine="reference")).stats, \
                    (trace.name, mode)
