"""ASCII timeline rendering of transparent execution (Fig. 4 / Fig. 5).

Turns a list of execution windows into the kind of tick-level diagram
the paper uses to explain slack recycling::

    cycle        |0.......|1.......|2.......|
    x1  eor      |        |###     |        |
    x2  add      |        |   #####|##      | (holds FU 2 cycles)
    x3  ror      |        |        |  ####  |

Each ``#`` is one tick of real computation; the vertical bars are clock
edges.  Used by the examples and handy when debugging scheduler changes:
``render_exec_windows`` draws the EXEC_WINDOW events of a traced run, of
a loaded ``events.jsonl`` or of the auditor's recorded windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.core.ticks import DEFAULT_TICK_BASE, TickBase


@dataclass(frozen=True)
class Window:
    """One operation's execution window, in absolute ticks."""

    label: str
    start_tick: int
    end_tick: int
    note: str = ""


def render_windows(windows: Sequence[Window], *,
                   base: TickBase = DEFAULT_TICK_BASE,
                   from_cycle: Optional[int] = None,
                   to_cycle: Optional[int] = None) -> str:
    """Render *windows* as an aligned tick diagram.

    An explicit ``from_cycle``/``to_cycle`` range always renders the
    ruler for that range, even when it excludes every window (or there
    are none): zoomed views compose cleanly instead of collapsing to a
    sentinel string.  Only a call with no windows *and* no range falls
    back to ``"(no windows)"``.
    """
    if not windows and from_cycle is None and to_cycle is None:
        return "(no windows)"
    tpc = base.ticks_per_cycle
    lo = (from_cycle if from_cycle is not None
          else min((w.start_tick for w in windows), default=0) // tpc)
    hi = (to_cycle if to_cycle is not None
          else (max((w.end_tick for w in windows), default=0)
                + tpc - 1) // tpc)
    span = range(lo, max(lo, hi))
    label_width = max((len(w.label) for w in windows), default=0) + 2

    def ruler() -> str:
        cells = []
        for cycle in span:
            digits = str(cycle)[:tpc]
            cells.append("|" + digits + "." * (tpc - len(digits)))
        return " " * label_width + "".join(cells) + "|"

    lines = [ruler()]
    for window in windows:
        row = []
        for cycle in span:
            row.append("|")
            for tick in range(cycle * tpc, (cycle + 1) * tpc):
                row.append("#" if window.start_tick <= tick < window.end_tick
                           else " ")
        line = window.label.ljust(label_width) + "".join(row) + "|"
        if window.note:
            line += f" ({window.note})"
        lines.append(line)
    return "\n".join(lines)


def render_exec_windows(windows: Iterable, *,
                        base: TickBase = DEFAULT_TICK_BASE,
                        limit: int = 24, from_cycle: Optional[int] = None,
                        to_cycle: Optional[int] = None) -> str:
    """Render EXEC_WINDOW events (the audit simulator's ``windows``, or
    those of a recorded or loaded event stream)."""
    rows: List[Window] = []
    for event in windows:
        if len(rows) >= limit:
            break
        d = event.data
        note = []
        if d["hold"]:
            note.append("holds FU 2 cycles")
        if d["eager"]:
            note.append("eager issue")
        rows.append(Window(
            label=f"#{event.seq} {d['op'].lower()}",
            start_tick=d["start"], end_tick=d["end"],
            note=", ".join(note)))
    return render_windows(rows, base=base, from_cycle=from_cycle,
                          to_cycle=to_cycle)
