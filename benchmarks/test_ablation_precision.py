"""Sec. V ablation — slack-tracking precision in the RSE.

The paper quantised slack at 1-8 bits and found performance saturates
at 3 bits (1/8 of a cycle).  This bench sweeps the CI precision on
representative benchmarks (MEDIUM core).
"""

from repro.analysis.report import print_table
from repro.core import CORES, RecycleMode

REPRESENTATIVE = {"spec": "bzip2", "mibench": "crc", "ml": "conv"}
PRECISIONS = (1, 2, 3, 4)  # bits -> 2,4,8,16 ticks/cycle


def generate_sweep(evaluation):
    rows = []
    for suite, bench in REPRESENTATIVE.items():
        trace = evaluation.trace(suite, bench)
        base = evaluation.run(suite, bench, "medium",
                              RecycleMode.BASELINE)
        cells = []
        for bits in PRECISIONS:
            ticks = 1 << bits
            cfg = CORES["medium"].variant(
                ticks_per_cycle=ticks, slack_threshold=ticks - 1)
            red = evaluation.simulate(trace, cfg)
            cells.append(round(100 * (base.cycles / red.cycles - 1), 1))
        rows.append((f"{suite}:{bench}",) + tuple(cells))
    return rows


def test_ablation_slack_precision(evaluation, bench_once):
    rows = bench_once(generate_sweep, evaluation)
    print_table("Ablation: CI precision sweep (MEDIUM, speedup %)",
                ["benchmark"] + [f"{b}-bit" for b in PRECISIONS], rows)

    for row in rows:
        label, cells = row[0], list(row[1:])
        by_bits = dict(zip(PRECISIONS, cells))
        # 3 bits captures (nearly) all of the benefit: 4 bits adds
        # less than 2 percentage points (the paper's saturation)
        assert by_bits[4] - by_bits[3] < 2.0, label
        # coarse 1-bit tracking forfeits benefit vs 3-bit
        assert by_bits[1] <= by_bits[3] + 0.5, label
