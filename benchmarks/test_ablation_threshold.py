"""Sec. IV-C ablation — slack-threshold design sweep.

The threshold balances recycling aggressiveness against 2-cycle-hold FU
pressure; the paper tunes it per application set.  This bench sweeps the
static threshold on one representative benchmark per suite (MEDIUM
core, adaptation off) and also shows the dynamic controller's result.
"""


from repro.analysis.report import print_table
from repro.core import CORES, RecycleMode

REPRESENTATIVE = {"spec": "bzip2", "mibench": "crc", "ml": "conv"}
THRESHOLDS = (0, 2, 4, 6, 7)


def generate_sweep(evaluation):
    rows = []
    core = CORES["medium"]
    for suite, bench in REPRESENTATIVE.items():
        trace = evaluation.trace(suite, bench)
        base = evaluation.run(suite, bench, "medium",
                              RecycleMode.BASELINE)
        cells = []
        for threshold in THRESHOLDS:
            cfg = core.variant(slack_threshold=threshold,
                               adaptive_threshold=False)
            red = evaluation.simulate(trace, cfg)
            cells.append(round(100 * (base.cycles / red.cycles - 1), 1))
        adaptive = evaluation.run(suite, bench, "medium",
                                  RecycleMode.REDSOC)
        cells.append(round(100 * (base.cycles / adaptive.cycles - 1), 1))
        rows.append((f"{suite}:{bench}",) + tuple(cells))
    return rows


def test_ablation_slack_threshold(evaluation, bench_once):
    rows = bench_once(generate_sweep, evaluation)
    print_table("Ablation: slack-threshold sweep (MEDIUM, speedup %)",
                ["benchmark"] + [f"t={t}" for t in THRESHOLDS]
                + ["dynamic"], rows)

    for row in rows:
        label, cells = row[0], row[1:]
        static, dynamic = cells[:-1], cells[-1]
        # threshold 0 disables eager issue: no recycling speedup
        assert abs(static[0]) < 1.0, label
        # some positive threshold beats threshold 0
        assert max(static) >= static[0], label
        # the dynamic controller lands near the best static setting
        # (within the probe overhead of the sweep phases)
        assert dynamic >= max(static) - 3.5, label
