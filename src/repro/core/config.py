"""Core configuration: Table I presets + ReDSOC mode switches.

The paper evaluates three cores (Table I):

========  =====  ======  ====
param     Small  Medium  Big
========  =====  ======  ====
width       3      4      8
ROB        40     80     160
LSQ        16     32      64
RSE        32     64     128
ALU         3      4      6
SIMD        2      3      4
FP          2      3      4
========  =====  ======  ====

all at 2 GHz with 64 kB L1 / 2 MB L2 and prefetching.

``CoreConfig`` also carries every ReDSOC/ablation switch: recycling
on/off, Illustrative vs Operational RSE, the slack threshold, CI
precision, and MOS fusion mode (the Sec. VI-D comparator).  Select
arbitration has no switch: both engines grant parent-woken requests
before grandparent-woken ones (Sec. IV-D), by construction.

Timing parameters that no evaluation varies are module constants of
the modelled machine, not per-run inputs: the fixed latencies of the
true-synchronous op classes (``MUL_LATENCY``, ``DIV_LATENCY``,
``FP_LATENCY``, ``FDIV_LATENCY``, ``SIMD_MULTICYCLE_LATENCY``), the
front end's ``MISPREDICT_PENALTY`` and ``TAKEN_BRANCHES_PER_CYCLE``,
the width-mispredict ``REPLAY_PENALTY``, the adaptive threshold
controller's ``THRESHOLD_WINDOW`` and the GP phase's
``EAGER_SPARE_UNITS``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from repro.memory.hierarchy import MemoryConfig
from repro.timing.gates import DEFAULT_TECH, TechParams

from .ticks import DEFAULT_TICKS_PER_CYCLE


#: fixed latencies (cycles) for true-synchronous op classes
MUL_LATENCY = 3
DIV_LATENCY = 12
FP_LATENCY = 4
FDIV_LATENCY = 12
SIMD_MULTICYCLE_LATENCY = 3
#: redirect + refill cycles after a mispredicted branch resolves
MISPREDICT_PENALTY = 8
#: selective-reissue bubble (cycles) after a width mispredict
REPLAY_PENALTY = 2
#: predicted-taken branches the front end can follow per cycle
TAKEN_BRANCHES_PER_CYCLE = 1
#: adaptive slack-threshold window in cycles
THRESHOLD_WINDOW = 128
#: functional units an eager (GP-phase) issue must leave free for
#: conventional requests; 0 relies on the adaptive threshold alone
EAGER_SPARE_UNITS = 0


class SchedulerDesign(enum.Enum):
    """Slack-aware RSE flavour (Sec. IV-C)."""

    ILLUSTRATIVE = "illustrative"  # full 2P + 4GP tags, no predictions
    OPERATIONAL = "operational"    # predicted last parent/grandparent


class RecycleMode(enum.Enum):
    """Execution-timing mode of the core."""

    BASELINE = "baseline"     # conventional synchronous OOO
    REDSOC = "redsoc"         # transparent slack recycling
    MOS = "mos"               # fuse ops that fit in a single cycle


@dataclass(frozen=True)
class CoreConfig:
    """Full parameterisation of one simulated core."""

    name: str = "medium"
    front_width: int = 4
    rob_size: int = 80
    lsq_size: int = 32
    rse_size: int = 64
    alu_units: int = 4
    simd_units: int = 3
    fp_units: int = 3
    mem_ports: int = 2
    branch_units: int = 2     # dedicated branch-resolution pipes
    complex_units: int = 2    # integer multiply/divide pipes

    mode: RecycleMode = RecycleMode.REDSOC
    scheduler: SchedulerDesign = SchedulerDesign.OPERATIONAL
    #: simulation backend (timing-irrelevant: every registered engine is
    #: cycle-identical, enforced by the CI backend-equivalence matrix).
    #: ``compiled`` lowers the trace and replays memoized per-trace
    #: columns, about twice as fast; ``reference`` is the per-cycle step
    #: loop (the oracle, and the only path with observability probes:
    #: observed runs use it whatever this says)
    engine: str = "compiled"
    #: run the Eager-Grandparent (GP) select phase at all; False keeps
    #: transparent execution but never co-issues children with their
    #: parents — the "EGPW off" ablation the verification layer's
    #: metamorphic properties compare against
    eager_issue: bool = True
    #: eager (same-cycle-as-parent) issue allowed when the parent's CI is
    #: at or below this many ticks into its completion cycle; 7 admits
    #: any parent with at least one tick of slack (tuned per suite in
    #: the Sec. VI-C sweep)
    slack_threshold: int = 7
    #: adapt the slack threshold at run time from observed FU-stall
    #: rates (the "simple but intelligent dynamic mechanism" of
    #: Sec. IV-C); when False the static slack_threshold is used as-is
    adaptive_threshold: bool = True
    #: PVT corner for the slack LUT (1.0 = worst-case design corner, the
    #: paper's measurement point; < 1.0 models CPM-harvested PVT slack,
    #: > 1.0 a slow corner the LUT must cover) — see repro.core.pvt
    pvt_scale: float = 1.0
    ticks_per_cycle: int = DEFAULT_TICKS_PER_CYCLE
    tech: TechParams = DEFAULT_TECH
    memory: MemoryConfig = field(default_factory=MemoryConfig)

    def with_mode(self, mode: RecycleMode) -> "CoreConfig":
        """This config in *mode*, one shared instance per mode.

        Every config reached through ``with_mode`` shares one
        mode → instance table with the config it came from, so
        ``CORES[core].with_mode(mode)`` is the same object on every
        call and a memo kept on the instance (the campaign cache's
        :func:`~repro.campaign.cache.config_fingerprint`) is computed
        once per preset and mode.  The table is keyed by the mode
        alone: each family shares every other field, value and type.
        Threads racing here at worst build an equal spare instance.
        """
        family = self.__dict__.get("_modes")
        if family is None:
            family = {self.mode: self}
            object.__setattr__(self, "_modes", family)
        config = family.get(mode)
        if config is None:
            config = family[mode] = replace(self, mode=mode)
            object.__setattr__(config, "_modes", family)
        return config

    def variant(self, **kwargs) -> "CoreConfig":
        """A modified copy (ablation helper)."""
        return replace(self, **kwargs)

    def __getstate__(self) -> dict:
        # pickles and copies carry the fields alone, never the
        # per-instance memos (``_modes``, the cache's ``_fingerprint``)
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: Table I presets.
SMALL = CoreConfig(name="small", front_width=3, rob_size=40, lsq_size=16,
                   rse_size=32, alu_units=3, simd_units=2, fp_units=2,
                   complex_units=1, branch_units=1)
MEDIUM = CoreConfig(name="medium")
BIG = CoreConfig(name="big", front_width=8, rob_size=160, lsq_size=64,
                 rse_size=128, alu_units=6, simd_units=4, fp_units=4)

CORES = {"small": SMALL, "medium": MEDIUM, "big": BIG}
