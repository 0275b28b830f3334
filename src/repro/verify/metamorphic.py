"""Metamorphic timing properties of the ReDSOC core.

Differential arch-state checks can't judge *timing*; for that we lean on
relations that must hold between runs of the *same trace* under related
configs.  The tolerance is the bound the integration suite has always
documented (``tests/integration/test_random_programs.py``): scheduling
heuristics (eager grants and their 2-cycle holds, adaptive thresholds)
may cost a few cycles on adversarial programs, so "never slower" is
asserted as

    ``cycles_a <= cycles_b * CYCLE_TOLERANCE + CYCLE_SLOP``

Checked relations, per Sec. IV/VI of the paper:

* **recycling** — ReDSOC (and MOS) never slow a program down relative to
  the synchronous baseline beyond the bound;
* **egpw** — disabling the Eager-Grandparent select phase
  (``eager_issue=False``) never *speeds up* execution: the full design
  must stay within the bound of the ablated one;
* **precision** — a finer completion-indicator precision
  (``ticks_per_cycle``) never loses to a coarser one beyond the bound
  (more precision ⇒ more recognisable slack).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.core.config import CoreConfig, RecycleMode
from repro.core.cpu import simulate
from repro.pipeline.trace import Trace

#: documented slack on "never slower" timing relations (multiplicative
#: and additive), matching the integration-suite tolerance
CYCLE_TOLERANCE = 1.05
CYCLE_SLOP = 10

#: labels the relation runs add to a verdict's ``cycles`` dict
EGPW_OFF_LABEL = "redsoc-noegpw"
COARSE_CI_LABEL = "redsoc-coarse-ci"


def within_bound(lhs: int, rhs: int) -> bool:
    """True when *lhs* is no slower than *rhs* modulo the tolerance."""
    return lhs <= rhs * CYCLE_TOLERANCE + CYCLE_SLOP


def check_timing_relations(
        trace: Trace, config: CoreConfig, cycles: Dict[str, int], *,
        simulate_fn: Callable[[Trace, CoreConfig], Any] = simulate,
) -> List["Divergence"]:
    """Check the metamorphic relations for *trace* on *config*.

    *cycles* must already hold per-:class:`RecycleMode` cycle counts
    keyed by mode value (the oracle's audit pass provides them); any
    extra variant runs this performs are added to it, so the caller's
    report sees every data point.  Returns divergences, empty if all
    relations hold.
    """
    from .oracle import Divergence  # circular-at-import, fine at runtime

    out: List[Divergence] = []
    redsoc = config.with_mode(RecycleMode.REDSOC)

    def run(cfg: CoreConfig, label: str) -> int:
        if label not in cycles:
            cycles[label] = simulate_fn(trace, cfg).stats.cycles
        return cycles[label]

    base = run(config.with_mode(RecycleMode.BASELINE),
               RecycleMode.BASELINE.value)
    full = run(redsoc, RecycleMode.REDSOC.value)

    # 1. recycling never slows execution (beyond the documented bound)
    for label in (RecycleMode.REDSOC.value, RecycleMode.MOS.value):
        if label not in cycles:
            continue
        if not within_bound(cycles[label], base):
            out.append(Divergence(
                "meta.recycling", label,
                f"{label} took {cycles[label]} cycles vs baseline {base} "
                f"(bound {CYCLE_TOLERANCE}x + {CYCLE_SLOP})"))

    # 2. disabling EGPW never speeds execution
    no_egpw = run(redsoc.variant(eager_issue=False), EGPW_OFF_LABEL)
    if not within_bound(full, no_egpw):
        out.append(Divergence(
            "meta.egpw", RecycleMode.REDSOC.value,
            f"full design took {full} cycles but the eager_issue=False "
            f"ablation took {no_egpw} — disabling EGPW sped execution "
            f"up beyond the bound"))

    # 3. coarser CI precision never beats finer precision
    coarse_ticks = max(2, config.ticks_per_cycle // 2)
    if coarse_ticks < config.ticks_per_cycle:
        coarse = run(redsoc.variant(ticks_per_cycle=coarse_ticks),
                     COARSE_CI_LABEL)
        if not within_bound(full, coarse):
            out.append(Divergence(
                "meta.precision", RecycleMode.REDSOC.value,
                f"{config.ticks_per_cycle}-tick CI took {full} cycles "
                f"but {coarse_ticks}-tick CI took {coarse} — coarser "
                f"precision beat finer beyond the bound"))
    return out


__all__ = [
    "CYCLE_SLOP", "CYCLE_TOLERANCE", "COARSE_CI_LABEL", "EGPW_OFF_LABEL",
    "check_timing_relations", "within_bound",
]
