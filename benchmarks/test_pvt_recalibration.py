"""Sec. V — PVT variation, CPM sensing and on-the-fly recalibration.

The paper isolates data slack at the worst-case corner but notes that
nominal conditions add PVT slack, harvested safely via localised CPMs
re-calibrating the slack LUT at Tribeca's 10 000-cycle granularity.
This bench exercises the drift scenarios and verifies the control loop
is safe (never over-promises slack) while retaining most of it, and
shows the corner sensitivity of end-to-end recycling.
"""

from repro.analysis.report import print_table
from repro.core import BIG, RecycleMode
from repro.core.pvt import SCENARIOS, recalibration_report
from repro.pipeline.trace import generate_trace
from repro.workloads import bitcount


def generate_pvt():
    rows = []
    for name, scenario in SCENARIOS.items():
        report = recalibration_report(scenario, cycles=200_000)
        rows.append((name, report["windows"],
                     report["recalibrations"],
                     report["unsafe_windows"],
                     f"{100 * report['retained_slack']:.1f}%"))
    return rows


def test_pvt_recalibration(bench_once):
    rows = bench_once(generate_pvt)
    print_table("PVT recalibration: safety & retained slack "
                "(10k-cycle windows)",
                ["scenario", "windows", "recals", "unsafe",
                 "retained slack"], rows)
    for name, windows, recals, unsafe, retained in rows:
        assert recals == windows, name
        # the CPM guard band keeps calibration safe except when a droop
        # strikes mid-window before the next recalibration (the known
        # limitation Tribeca's local recovery addresses)
        budget = windows // 3 if SCENARIOS[name].droop_period else 0
        assert unsafe <= budget, name
        assert float(retained.rstrip("%")) > 60.0, name


def test_corner_sensitivity(evaluation, bench_once):
    def run():
        trace = generate_trace(bitcount(60))
        rows = []
        base = evaluation.simulate(
            trace, BIG.with_mode(RecycleMode.BASELINE))
        for label, scale in (("fast (0.8x)", 0.8), ("nominal", 1.0),
                             ("slow (1.2x)", 1.2)):
            red = evaluation.simulate(trace,
                                      BIG.variant(pvt_scale=scale))
            rows.append((label,
                         f"{100 * (base.cycles / red.cycles - 1):.1f}%"))
        return rows

    rows = bench_once(run)
    print_table("ReDSOC speedup vs PVT corner (bitcnt, BIG)",
                ["corner", "speedup"], rows)
    values = [float(s.rstrip("%")) for _, s in rows]
    # faster silicon -> more recyclable slack -> larger gains (ties are
    # possible when bucket quantisation absorbs the corner delta)
    assert values[0] >= values[1] - 2.0
    assert values[1] >= values[2]
    assert values[1] > 5.0
