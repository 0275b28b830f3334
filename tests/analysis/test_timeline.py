"""Unit tests for the ASCII execution-timeline renderer."""

from repro.analysis.timeline import (
    Window,
    render_exec_windows,
    render_windows,
)
from repro.core import CORES
from repro.core.audit import _RecordingSimulator
from repro.pipeline.trace import generate_trace
from repro.workloads.microbench import MICROBENCHES


class TestRenderWindows:
    def test_empty(self):
        assert render_windows([]) == "(no windows)"

    def test_single_window_marks_right_ticks(self):
        text = render_windows([Window("x1", 11, 14)])
        ruler, row = text.splitlines()
        # the row marks exactly 3 ticks
        assert row.count("#") == 3
        # ticks 11..13 fall in cycle 1 (the only rendered cycle)
        cycle1 = row.split("|")[1]
        assert cycle1 == "   ###  "

    def test_edges_are_cycle_aligned(self):
        text = render_windows([Window("a", 0, 8), Window("b", 8, 16)])
        rows = text.splitlines()[1:]
        a_cells = rows[0].split("|")[1:-1]
        b_cells = rows[1].split("|")[1:-1]
        assert a_cells[0] == "########" and a_cells[1] == "        "
        assert b_cells[0] == "        " and b_cells[1] == "########"

    def test_note_appended(self):
        text = render_windows([Window("x", 3, 12, note="holds")])
        assert "(holds)" in text

    def test_cycle_range_clipping(self):
        text = render_windows([Window("x", 0, 80)], from_cycle=2,
                              to_cycle=4)
        ruler = text.splitlines()[0]
        assert "|2" in ruler and "|3" in ruler and "|5" not in ruler

    def test_range_excluding_all_windows_renders_empty_axis(self):
        """Regression: a zoom past every window used to be unhelpful —
        it must render the requested ruler with an all-blank row."""
        text = render_windows([Window("x", 0, 8)], from_cycle=5,
                              to_cycle=7)
        ruler, row = text.splitlines()
        assert "|5" in ruler and "|6" in ruler
        assert "#" not in row
        assert row.count("|") == 3  # both cycles framed

    def test_explicit_range_with_no_windows_renders_axis(self):
        text = render_windows([], from_cycle=2, to_cycle=4)
        assert text != "(no windows)"
        assert "|2" in text and "|3" in text
        assert text.splitlines() == [text]  # ruler only, no rows

    def test_empty_cycle_range_is_accepted(self):
        text = render_windows([Window("x", 0, 8)], from_cycle=3,
                              to_cycle=3)
        ruler, row = text.splitlines()
        assert "#" not in row
        assert ruler.endswith("|") and row.endswith("|")


class TestRenderUops:
    def test_renders_recorded_chain(self):
        trace = generate_trace(MICROBENCHES["wide-arith"].build(10))
        sim = _RecordingSimulator(trace, CORES["big"])
        sim.run()
        text = render_exec_windows(sim.windows[4:12], limit=8)
        lines = text.splitlines()
        assert len(lines) == 9  # ruler + 8 rows
        assert any("#" in line for line in lines[1:])
        assert any("add" in line for line in lines[1:])

    def test_eager_issue_annotated(self):
        trace = generate_trace(MICROBENCHES["logic"].build(30))
        sim = _RecordingSimulator(trace, CORES["big"])
        sim.run()
        text = render_exec_windows(sim.windows, limit=30)
        assert "eager issue" in text
