"""Engine validation: the timing-invariant auditor across the matrix.

Runs the instrumented simulator over real kernels, every mode and every
core, and requires zero invariant violations — the strongest check that
slack recycling stays timing non-speculative and resource-legal.
"""

import pytest

from repro.core import CORES, RecycleMode, SchedulerDesign
from repro.core.audit import audit_from_events, audit_run
from repro.obs import EventKind, Recorder
from repro.pipeline.trace import generate_trace
from repro.workloads import MICROBENCHES, bitcount, crc32, make_spec
from repro.workloads.mlkernels import conv3x3


@pytest.fixture(scope="module")
def traces():
    return {
        "bitcnt": generate_trace(bitcount(20)),
        "crc": generate_trace(crc32(120)),
        "spec": generate_trace(make_spec("bzip2", iterations=8)),
        "conv": generate_trace(conv3x3(6)),
    }


@pytest.mark.parametrize("mode", list(RecycleMode))
@pytest.mark.parametrize("core", ["small", "big"])
def test_no_violations_across_modes(traces, mode, core):
    for name, trace in traces.items():
        audit = audit_run(trace, CORES[core].with_mode(mode))
        assert audit.ok, (name, [str(v) for v in audit.violations][:5])
        assert audit.audited_uops > 0


def test_audit_covers_microbenches(traces):
    for name, micro in MICROBENCHES.items():
        trace = generate_trace(micro.build(60))
        audit = audit_run(trace, CORES["medium"])
        assert audit.ok, (name, [str(v) for v in audit.violations][:5])


def test_audit_illustrative_design(traces):
    cfg = CORES["medium"].variant(scheduler=SchedulerDesign.ILLUSTRATIVE)
    audit = audit_run(traces["crc"], cfg)
    assert audit.ok, [str(v) for v in audit.violations][:5]


def test_audit_coarse_precision(traces):
    cfg = CORES["medium"].variant(ticks_per_cycle=4, slack_threshold=3)
    audit = audit_run(traces["crc"], cfg)
    assert audit.ok, [str(v) for v in audit.violations][:5]


def test_auditor_catches_planted_violation(traces):
    """Sanity: the auditor is not vacuously green.

    Plants a start-before-operand window in a recorded stream and
    requires the audit to flag it as a dataflow violation."""
    recorder = Recorder()
    audit = audit_run(traces["bitcnt"], CORES["medium"], obs=recorder)
    assert audit.ok
    assert audit_from_events(recorder.events).ok
    events = list(recorder.events)
    index, victim = next(
        (i, e) for i, e in enumerate(events)
        if e.kind is EventKind.EXEC_WINDOW and not e.data["mem"]
        and any(avail for _, avail in e.data["srcs"]))
    events[index] = victim._replace(data={**victim.data, "start": 0})
    replay = audit_from_events(events)
    assert any(v.rule == "dataflow" and v.seq == victim.seq
               for v in replay.violations), \
        [str(v) for v in replay.violations]
