"""Fuzz leg: the predictor against both simulation engines.

Seeded random programs run through every registered engine backend
(``reference`` and ``compiled``);
the engines must agree exactly (that is the repo's backend-equivalence
contract), and the analytic predictor is then cross-checked against
that single agreed ground truth:

* predictions are finite, positive, and respect the mode ordering
  (recycling never predicted slower);
* the point estimate stays within a factor-2 sanity band of the exact
  result.  Random loops sit far outside the calibration set, so this
  is deliberately loose — the tight 15%/8% gates live in
  ``test_accuracy.py`` where the calibration is actually applicable.
"""

import math
import random

import pytest

from dataclasses import replace

from repro.core import CORES, ENGINES, RecycleMode, simulate
from repro.isa import Asm, Cond, ShiftOp, SimdType, r, v
from repro.pipeline.trace import generate_trace
from repro.predict.model import predict

SEEDS = range(6)
ITERS = 40      # enough dynamic instructions that the intercept terms
                # do not dominate (n ~ 400-1000)


def _program(seed: int):
    rng = random.Random(seed)
    a = Asm(f"fuzz-{seed}")
    a.data_words(0x1000, range(64))
    for i in range(1, 8):
        a.mov(r(i), rng.randrange(0xFFFF))
    a.mov(r(9), 0x1000)
    a.mov(r(8), ITERS)
    a.vdup(v(0), r(1), SimdType.I16)
    a.label("loop")
    for _ in range(rng.randrange(8, 24)):
        choice = rng.randrange(8)
        dst, src1, src2 = (r(rng.randrange(1, 8)) for _ in range(3))
        if choice == 0:
            a.add(dst, src1, src2)
        elif choice == 1:
            a.eor(dst, src1, src2)
        elif choice == 2:
            a.mul(dst, src1, src2)
        elif choice == 3:
            a.ldr(dst, r(9), rng.randrange(32) * 4)
        elif choice == 4:
            a.str_(src1, r(9), rng.randrange(32) * 4)
        elif choice == 5:
            a.adc(dst, src1, src2, s=True)
        elif choice == 6:
            a.vadd(v(0), v(0), v(0), SimdType.I16)
        else:
            a.add(dst, src1, src2, shift=ShiftOp.ROR, shift_amt=3)
    a.subs(r(8), r(8), 1)
    a.b("loop", cond=Cond.NE)
    a.halt()
    return a.finish()


@pytest.mark.parametrize("seed", SEEDS)
def test_predictor_crosschecks_every_engine(seed):
    trace = generate_trace(_program(seed))
    for core in ("small", "big"):
        predicted = {}
        base_config = CORES[core]
        for mode in ("baseline", "redsoc", "mos"):
            config = base_config.with_mode(RecycleMode(mode))

            by_engine = {name: simulate(
                trace, replace(config, engine=name)).cycles
                for name in ENGINES.names()}
            assert len(set(by_engine.values())) == 1, \
                f"engines disagree for {core}:{mode}: {by_engine}"
            actual = next(iter(by_engine.values()))

            p = predict(trace, config, mode)
            assert math.isfinite(p.cycles) and p.cycles >= 1.0
            assert p.ipc > 0
            predicted[mode] = p.cycles
            assert actual / 2 <= p.cycles <= actual * 2, \
                f"{core}:{mode} predicted {p.cycles:.1f} vs {actual}"

        assert predicted["redsoc"] <= predicted["baseline"] + 1e-9
        assert predicted["mos"] <= predicted["baseline"] + 1e-9
