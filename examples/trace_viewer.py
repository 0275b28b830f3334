#!/usr/bin/env python3
"""Trace a microbenchmark end-to-end through the observability layer.

Runs one kernel under the traced simulator, writes the three artefacts
the campaign ``trace`` subcommand produces (Perfetto/Chrome trace JSON,
raw events JSONL, metrics JSONL), replays the timing audit *from the
recorded stream* — no second simulation — and prints the ten uops that
carried the most recyclable slack, straight from the event dump.

Run:  python examples/trace_viewer.py [out_dir]
"""

import sys
from pathlib import Path

from repro.core import BIG
from repro.core.audit import audit_from_events
from repro.core.cpu import CoreSimulator
from repro.obs import (
    EventKind,
    Recorder,
    run_metrics,
    write_chrome_trace,
    write_events_jsonl,
    write_metrics_jsonl,
)
from repro.pipeline.trace import generate_trace
from repro.workloads.microbench import MICROBENCHES


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("traces")
    trace = generate_trace(MICROBENCHES["flex-arith"].build(60))

    recorder = Recorder()
    sim = CoreSimulator(trace, BIG, obs=recorder)
    result = sim.run()
    tpc = sim.base.ticks_per_cycle
    print(f"{trace.name}: {result.cycles} cycles, "
          f"ipc={result.ipc:.3f}, {len(recorder)} events recorded")

    trace_path = write_chrome_trace(recorder.events,
                                    out_dir / "flex-arith.trace.json")
    events_path = write_events_jsonl(recorder.events,
                                     out_dir / "flex-arith.events.jsonl")
    metrics = run_metrics(result.stats, recorder.events)
    metrics_path = write_metrics_jsonl(metrics,
                                       out_dir / "flex-arith.metrics.jsonl")
    print(f"wrote {trace_path} (open at https://ui.perfetto.dev)")
    print(f"wrote {events_path}")
    print(f"wrote {metrics_path}")

    # the JSONL dump is a sufficient artefact: re-audit without rerunning
    replay = audit_from_events(recorder.events)
    verdict = "OK" if replay.ok else f"{len(replay.violations)} violations"
    print(f"\nreplayed audit from events: {replay.audited_uops} uops, "
          f"{verdict}")

    # top-10 highest-slack uops, straight from the recorded windows
    windows = recorder.of_kind(EventKind.EXEC_WINDOW)
    slack = [(tpc - e.data["ex_actual"], e) for e in windows
             if not e.data["mem"] and e.data["lat"] == 1]
    slack.sort(key=lambda pair: (-pair[0], pair[1].seq))
    print(f"\ntop 10 highest-slack uops (of {len(slack)}; "
          f"{tpc} ticks/cycle):")
    print(f"{'seq':>5} {'op':<8} {'fu':<6} {'slack':>5}  "
          f"{'exec window':<14} recycled")
    for slack_ticks, event in slack[:10]:
        d = event.data
        window = f"[{d['start']}, {d['end']})"
        print(f"{event.seq:>5} {d['op'].lower():<8} {d['fu']:<6} "
              f"{slack_ticks:>4}t  {window:<14} "
              f"{'yes' if d['recycled'] else 'no'}")

    hist = metrics.histograms["slack.per_op"]
    print(f"\nslack/op over the whole run: mean {hist.mean:.2f} ticks, "
          f"p50 {hist.percentile(0.5)}, max {hist.max} "
          f"(of {tpc}/cycle)")


if __name__ == "__main__":
    main()
