"""The analytic throughput model: features → predicted cycles.

``feature_vector`` reduces :class:`~repro.predict.chains.TraceFeatures`
plus a :class:`~repro.core.config.CoreConfig` to a small named vector —
the classic bound-and-penalty decomposition:

* ``crit``  — the per-mode critical-path length through the dependence
  graph (the latency bound);
* ``fu`` / ``front`` / ``taken`` — throughput bounds: the most
  contended functional-unit pool, the front-end/commit width, and the
  one-taken-branch-per-cycle fetch limit;
* ``base``  — the max of all bounds (the roofline the machine cannot
  beat);
* ``bmiss`` / ``mem`` — additive penalties for branch mispredictions
  and loads that miss the L1.

``predict`` dots that vector with a fitted non-negative calibration and
floors the result at the commit-width bound.  Non-negative coefficients
make the metamorphic guarantees structural: every feature is monotone
non-decreasing under a coarser tick base and non-increasing under a
wider machine, so predictions inherit both monotonicities; redsoc/mos
predictions are additionally clamped to the baseline prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Union

from repro.core.config import (
    CoreConfig,
    MISPREDICT_PENALTY,
    RecycleMode,
    TAKEN_BRANCHES_PER_CYCLE,
)
from repro.pipeline.trace import Trace

from .chains import TraceFeatures, extract_features

#: the model's feature basis, in canonical order
FEATURE_NAMES = ("base", "crit", "fu", "front", "taken", "bmiss", "mem",
                 "memc")

#: the unit count bounding each operation class's throughput; classes
#: that name the same count add their demand (so loads and stores share
#: ``mem_ports``, MUL and DIV ``complex_units``), unlike the engines'
#: pools (repro.pipeline.resources.ExecutionResources: one per class)
_POOL_ATTR = {
    "alu": "alu_units",
    "simd": "simd_units",
    "fp": "fp_units",
    "load": "mem_ports",
    "store": "mem_ports",
    "mul": "complex_units",
    "div": "complex_units",
    "branch": "branch_units",
}


def _mode_name(mode: Union[RecycleMode, str, None],
               config: CoreConfig) -> str:
    if mode is None:
        mode = config.mode
    if isinstance(mode, RecycleMode):
        return mode.value
    name = str(mode)
    RecycleMode(name)  # raises ValueError on unknown mode
    return name


def feature_vector(features: TraceFeatures, config: CoreConfig,
                   mode: Union[RecycleMode, str, None] = None,
                   ) -> Dict[str, float]:
    """The named feature vector for one (trace, core, mode) triple."""
    name = _mode_name(mode, config)
    crit = features.crit_cycles.get(name, 0.0)

    fu = 0.0
    pressure: Dict[str, float] = {}
    for cls_name, count in features.op_counts.items():
        attr = _POOL_ATTR.get(cls_name)
        if attr is None:
            continue
        pressure[attr] = pressure.get(attr, 0.0) + count
    for attr, count in pressure.items():
        units = max(1, getattr(config, attr))
        demand = count / units
        if demand > fu:
            fu = demand

    front = features.n / max(1, config.front_width)
    # a fetch group ends at the (limit+1)-th taken branch, so up to
    # limit+1 taken branches share a cycle
    taken = features.taken_branches / (TAKEN_BRANCHES_PER_CYCLE + 1)
    # +2 covers resolve latency the redirect penalty does not include
    bmiss = features.mispredicts * (MISPREDICT_PENALTY + 2)
    # independent (streaming) miss latency stalls the window; chained
    # (pointer-chase) miss latency is already serialised inside crit
    indep = features.load_extra_cycles - features.mem_chain_cycles
    mem = indep / max(1, config.mem_ports)
    memc = features.mem_chain_cycles / max(1, config.mem_ports)
    base = max(crit, fu, front, taken)
    return {
        "base": base,
        "crit": crit,
        "fu": fu,
        "front": front,
        "taken": taken,
        "bmiss": bmiss,
        "mem": mem,
        "memc": memc,
    }


@dataclass
class Prediction:
    """A zero-simulation throughput estimate with its error bound."""

    mode: str
    cycles: float
    ipc: float
    #: predicted gain over the predicted baseline (0.0 for baseline)
    speedup: float
    interval_lo: float
    interval_hi: float
    confidence: float
    calibration_key: str
    n: int
    features: Dict[str, float]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "predicted": True,
            "mode": self.mode,
            "cycles": round(self.cycles, 3),
            "ipc": round(self.ipc, 6),
            "speedup": round(self.speedup, 6),
            "interval": {
                "lo": round(self.interval_lo, 3),
                "hi": round(self.interval_hi, 3),
                "confidence": self.confidence,
            },
            "calibration": self.calibration_key,
            "instructions": self.n,
            "features": {k: round(v, 4) for k, v in self.features.items()},
        }


def _raw_cycles(vec: Dict[str, float], fit, floor: float) -> float:
    cycles = fit.intercept
    for name in FEATURE_NAMES:
        cycles += fit.coef.get(name, 0.0) * vec[name]
    return max(floor, cycles)


def predict(trace: Union[Trace, TraceFeatures], config: CoreConfig,
            mode: Union[RecycleMode, str, None] = None, *,
            calibration=None, confidence: float = 0.9) -> Prediction:
    """Predict cycles / IPC / speedup for *trace* on *config*.

    *trace* may be a :class:`~repro.pipeline.trace.Trace` (features are
    extracted on the fly) or a pre-extracted
    :class:`~repro.predict.chains.TraceFeatures` (the cached fast
    path).  The interval is the fitted error-quantile band at
    *confidence* around the point estimate.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    name = _mode_name(mode, config)
    if isinstance(trace, Trace):
        features = extract_features(trace, config)
    else:
        features = trace

    if calibration is None:
        from .calibrate import default_calibration
        calibration = default_calibration()

    floor = max(1.0, features.n / max(1, config.front_width))
    base_fit, base_key = calibration.fit_for(config.name, "baseline")
    base_vec = feature_vector(features, config, "baseline")
    base_cycles = _raw_cycles(base_vec, base_fit, floor)

    if name == "baseline":
        fit, key = base_fit, base_key
        vec = base_vec
        cycles = base_cycles
    else:
        fit, key = calibration.fit_for(config.name, name)
        vec = feature_vector(features, config, name)
        # recycling never slows the machine down: the simulator's
        # transparent start rule degenerates to the synchronous one, so
        # the prediction must not cross the baseline prediction either
        cycles = min(base_cycles, _raw_cycles(vec, fit, floor))

    n = max(1, features.n)
    quantile = fit.error_at(confidence)
    lo = max(1.0, cycles / (1.0 + quantile))
    hi = cycles * (1.0 + quantile)
    return Prediction(
        mode=name,
        cycles=cycles,
        ipc=n / cycles,
        speedup=(base_cycles / cycles) - 1.0,
        interval_lo=lo,
        interval_hi=hi,
        confidence=confidence,
        calibration_key=key,
        n=features.n,
        features=vec,
    )
