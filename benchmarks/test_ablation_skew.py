"""Sec. IV-D ablation — skewed vs plain select arbitration.

Skewing prioritises conventional requests over speculative GP requests:
it prevents GP-mispeculation entirely (global arbitration) and avoids
wasting units on unusable speculative grants.  The ablation removes the
skew and measures both effects.
"""

from repro.analysis.report import print_table
from repro.core import CORES, RecycleMode

REPRESENTATIVE = {"spec": "bzip2", "mibench": "crc", "ml": "conv"}


def generate_comparison(evaluation):
    rows = []
    for suite, bench in REPRESENTATIVE.items():
        trace = evaluation.trace(suite, bench)
        base = evaluation.run(suite, bench, "medium",
                              RecycleMode.BASELINE)
        skewed = evaluation.run(suite, bench, "medium",
                                RecycleMode.REDSOC)
        unskewed = evaluation.simulate(trace, CORES["medium"].variant(
            skewed_select=False))
        rows.append((
            f"{suite}:{bench}",
            round(100 * (base.cycles / skewed.cycles - 1), 1),
            round(100 * (base.cycles / unskewed.cycles - 1), 1),
            skewed.stats.gp_mispeculations,
            unskewed.stats.gp_mispeculations,
        ))
    return rows


def test_ablation_skewed_selection(evaluation, bench_once):
    rows = bench_once(generate_comparison, evaluation)
    print_table("Ablation: skewed vs plain selection (MEDIUM)",
                ["benchmark", "skewed %", "plain %",
                 "GP-misp (skewed)", "GP-misp (plain)"], rows)

    for label, skewed, plain, misp_skewed, _misp_plain in rows:
        # skewed selection with global arbitration never mispeculates
        assert misp_skewed == 0, label
        # removing the skew never helps
        assert skewed >= plain - 1.0, label
