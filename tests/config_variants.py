"""One non-preset value per ``CoreConfig`` field, for key-coverage tests.

Every field but ``engine`` (a performance choice, never a semantics
one) has a variant.  Cache-key tests parametrize over
``dataclasses.fields(CoreConfig)`` and look each field up here, so a
new config field fails them with a ``KeyError`` until it is given one.
"""

from dataclasses import replace

from repro.core import RecycleMode, SchedulerDesign
from repro.memory.hierarchy import MemoryConfig
from repro.timing.gates import DEFAULT_TECH

FIELD_VARIANTS = {
    "name": "custom",
    "front_width": 2,
    "rob_size": 24,
    "lsq_size": 8,
    "rse_size": 12,
    "alu_units": 1,
    "simd_units": 1,
    "fp_units": 1,
    "mem_ports": 1,
    "branch_units": 3,
    "complex_units": 3,
    "mode": RecycleMode.BASELINE,
    "scheduler": SchedulerDesign.ILLUSTRATIVE,
    "eager_issue": False,
    "slack_threshold": 2,
    "adaptive_threshold": False,
    "pvt_scale": 0.9,
    "ticks_per_cycle": 16,
    "tech": replace(DEFAULT_TECH, base_ps=80.0),
    "memory": MemoryConfig(l1_latency=9),
}
