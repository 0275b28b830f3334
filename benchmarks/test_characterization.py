"""Characterisation — per-slack-class chain acceleration factors.

Measures the recycling speedup of a pure dependence chain in every
slack bucket and compares against the closed-form prediction
``ticks_per_cycle / EX-TIME - 1`` (Sec. III's accumulation argument).
This pins the timing model and the scheduler together: a regression in
either moves a measured factor off its prediction.
"""

from repro.analysis.report import print_table
from repro.core import BIG, RecycleMode
from repro.pipeline.trace import generate_trace
from repro.workloads.microbench import MICROBENCHES


def generate_characterization(evaluation):
    rows = []
    for name, micro in MICROBENCHES.items():
        trace = generate_trace(micro.build(500))
        base = evaluation.simulate(
            trace, BIG.with_mode(RecycleMode.BASELINE))
        red = evaluation.simulate(
            trace, BIG.with_mode(RecycleMode.REDSOC))
        measured = base.cycles / red.cycles - 1
        predicted = micro.predicted_speedup()
        rows.append((name, micro.chain_ticks,
                     f"{100 * predicted:.0f}%",
                     f"{100 * measured:.1f}%"))
    return rows


def test_slack_class_characterization(evaluation, bench_once):
    rows = bench_once(generate_characterization, evaluation)
    print_table("Per-slack-class chain speedup (BIG): predicted vs "
                "measured", ["class", "EX-TIME", "predicted", "measured"],
                rows)
    table = {name: (ticks, float(p.rstrip("%")), float(m.rstrip("%")))
             for name, ticks, p, m in rows}

    # zero-slack controls do not accelerate
    for control in ("flex-arith", "simd-i64"):
        assert table[control][2] < 3.0, control
    # every sub-cycle class accelerates, ordered by its slack
    assert table["logic"][2] > table["shift"][2] > table["wide-arith"][2]
    # measured factors sit near (within half of) the chain prediction;
    # FU holds and loop overhead absorb the rest
    for name, (ticks, predicted, measured) in table.items():
        if ticks < 8:
            assert measured > 0.5 * predicted, name
            assert measured < predicted + 8.0, name
    # the headline cases: logic chains approach 2x, wide arithmetic 8/7
    assert table["logic"][2] > 55.0
    assert 5.0 < table["wide-arith"][2] < 18.0
