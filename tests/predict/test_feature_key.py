"""Feature-cache keys: one entry per core, whatever its mode or engine."""

from dataclasses import fields, replace

import pytest

from repro.core import CORES, ENGINES, CoreConfig, RecycleMode
from repro.predict.service import feature_key
from tests.config_variants import FIELD_VARIANTS

FINGERPRINT = "0" * 64


def test_modes_and_engines_share_one_key():
    # one extraction answers every mode of a core on every engine
    for base in CORES.values():
        keys = {feature_key(FINGERPRINT,
                            replace(base, mode=mode, engine=engine))
                for mode in RecycleMode for engine in ENGINES.names()}
        assert keys == {feature_key(FINGERPRINT, base)}


@pytest.mark.parametrize("name", [f.name for f in fields(CoreConfig)
                                  if f.name not in ("mode", "engine")])
def test_every_other_field_changes_key(name):
    # features depend on the config; a field left out of the key would
    # serve features extracted under another value of it
    base = CORES["small"]
    other = replace(base, **{name: FIELD_VARIANTS[name]})
    assert getattr(other, name) != getattr(base, name)
    assert feature_key(FINGERPRINT, other) != \
        feature_key(FINGERPRINT, base)
