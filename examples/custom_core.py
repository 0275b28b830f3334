#!/usr/bin/env python3
"""Configure a custom core and explore the ReDSOC design space.

Shows the configuration surface a microarchitect would sweep: structure
sizes, the slack threshold (static vs the dynamic controller), the
Illustrative vs Operational RSE, and MOS fusion — all on one workload
(MiBench bitcount).

Run:  python examples/custom_core.py
"""

from repro import CoreConfig, RecycleMode, generate_trace, simulate
from repro.analysis.report import print_table
from repro.core import SchedulerDesign
from repro.workloads import bitcount


def main():
    trace = generate_trace(bitcount(80))

    # A custom 6-wide core between MEDIUM and BIG
    core = CoreConfig(name="custom", front_width=6, rob_size=128,
                      lsq_size=48, rse_size=96, alu_units=5,
                      simd_units=3, fp_units=3)

    baseline = simulate(trace, core.with_mode(RecycleMode.BASELINE))

    variants = {
        "ReDSOC (dynamic threshold)": core,
        "ReDSOC (static t=7)": core.variant(adaptive_threshold=False,
                                            slack_threshold=7),
        "ReDSOC (static t=3)": core.variant(adaptive_threshold=False,
                                            slack_threshold=3),
        "Illustrative RSE": core.variant(
            scheduler=SchedulerDesign.ILLUSTRATIVE),
        "MOS fusion": core.with_mode(RecycleMode.MOS),
    }

    rows = [("baseline", baseline.cycles, f"{baseline.ipc:.2f}", "-")]
    for label, config in variants.items():
        result = simulate(trace, config)
        speedup = baseline.cycles / result.cycles - 1
        rows.append((label, result.cycles, f"{result.ipc:.2f}",
                     f"{speedup:+.1%}"))
    print_table("bitcount on a custom 6-wide core",
                ["configuration", "cycles", "IPC", "speedup"], rows)


if __name__ == "__main__":
    main()
