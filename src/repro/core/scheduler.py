"""Slack-aware wakeup machinery (Sec. IV).

This module holds the scheduler-side building blocks the core simulator
drives each cycle:

* :func:`consumer_avail_tick` / :func:`wake_cycle` — when a producer's
  tag broadcast wakes a consumer, and when the consumer's operand is
  actually usable (transparent CI vs synchronous latching edge);
* :class:`ReadyQueues` — wakeup bookkeeping: consumers become
  select-eligible when their *watched* tags have broadcast (all sources
  in the Illustrative design / baseline; only the predicted-last parent
  in the Operational design), then wait in per-class age-ordered lanes;
* :func:`unissued_sources` / :func:`last_source_avail` — the issue-time
  operand checks: a source that has not issued forces a replay, and
  the latest availability tick (the MAX logic) bounds the start;
* :func:`eager_issue_allowed` / :func:`other_sources_ready` — the
  Eager Grandparent Wakeup grant checks: whether a child may issue *in
  the same cycle as its parent* to catch its slack (Sec. IV-B), subject
  to the slack-threshold condition (Sec. IV-C step 10) and, under MOS,
  the single-cycle fit condition.  The simulator collects the
  candidates (``CoreSimulator._gp_candidates``).

Selection itself (oldest-first P grants, then GP grants on the units
left) is the select stage of each engine (``CoreSimulator._schedule``
and ``_gp_phase``); :mod:`repro.core.select` models the Fig. 9 arbiter
circuit on its own.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.isa.opcodes import OpClass
from repro.obs.events import Event, EventKind
from repro.pipeline.uop import OPCLASS_INDEX, Uop, UopState

from .config import RecycleMode
from .ticks import TickBase


def consumer_avail_tick(producer: Uop, consumer: Uop) -> int:
    """The tick at which *consumer* can use *producer*'s value.

    Transparent producer → transparent consumer rides the open-FF bypass
    and sees the value at the producer's completion instant; any
    synchronous endpoint waits for the next clock edge, where the FF
    turns opaque and latches (Sec. III).
    """
    if producer.transparent and consumer.transparent:
        return producer.avail_tick
    return producer.sync_avail


def wake_cycle(producer: Uop, consumer: Uop, base: TickBase) -> int:
    """Earliest cycle *consumer* may issue once *producer* has issued.

    Tag broadcast happens in the producer's issue cycle, so the consumer
    can issue no earlier than ``issue + 1``; producers with longer
    latencies broadcast later so the consumer arrives at its execution
    stage just as the value becomes usable.  The consumer needs the
    operand ``latency_cycles`` after issue (1 for ALU ops; the
    accumulate stage of a VMLA comes ``SIMD_MULTICYCLE_LATENCY`` later,
    which is what makes back-to-back accumulate chains run at one per
    cycle — the late-forwarding behaviour of Sec. V).
    """
    avail = consumer_avail_tick(producer, consumer)
    return max(producer.issue_cycle + 1,
               base.cycle_of(avail) - consumer.latency_cycles)


class ReadyQueues:
    """Wakeup + pending-request state for the select stage.

    Consumers whose watched tags have all broadcast are *scheduled* to
    wake at their computed wake cycle; each simulated cycle the core
    drains that cycle's wakeups into one ready lane per FU class, kept
    in age (sequence-number) order for oldest-first selection.

    * wake buckets live in a ``cycle -> [uops]`` map with a min-heap of
      bucket cycles, so :meth:`advance_to` is an O(1) peek on idle
      cycles and touches only due buckets;
    * each lane (``lanes[uop.cls_idx]``) is a heap of ``(seq, uop)``
      with lazy deletion: a uop is live while ``uop.in_ready`` is set,
      :meth:`remove` only clears it, and select pops stale heads along
      with every head it issues or replays.  A removed-then-re-woken
      uop may sit in its lane twice; the copies are adjacent and the
      first one select handles clears the flag, so the other pops as
      stale and the uop is offered at most once per scan.
    """

    __slots__ = ("_wake_at", "_wake_heap", "lanes", "obs")

    def __init__(self) -> None:
        self._wake_at: Dict[int, List[Uop]] = {}
        self._wake_heap: List[int] = []
        self.lanes: List[List[Tuple[int, Uop]]] = [
            [] for _ in range(len(OPCLASS_INDEX))]
        #: event sink (attached by the simulator on traced runs)
        self.obs = None

    def schedule_wake(self, uop: Uop, cycle: int) -> None:
        bucket = self._wake_at.get(cycle)
        if bucket is None:
            self._wake_at[cycle] = [uop]
            heappush(self._wake_heap, cycle)
        else:
            bucket.append(uop)

    def advance_to(self, cycle: int) -> None:
        """Drain wakeups due at or before *cycle* into the lanes."""
        heap = self._wake_heap
        if not heap or heap[0] > cycle:
            return
        obs = self.obs
        wake_at = self._wake_at
        lanes = self.lanes
        while heap and heap[0] <= cycle:
            for uop in wake_at.pop(heappop(heap)):
                if uop.state is not UopState.DISPATCHED or uop.in_ready:
                    continue
                if obs is not None:
                    obs.emit(Event(EventKind.WAKEUP, cycle, uop.seq,
                                   {"fu": uop.fu_class.value}))
                heappush(lanes[uop.cls_idx], (uop.seq, uop))
                uop.in_ready = True

    def remove(self, uop: Uop) -> None:
        uop.in_ready = False

    def pending(self, op_class: OpClass) -> List[Uop]:
        """Live pending requests of *op_class*, oldest first."""
        lane = self.lanes[OPCLASS_INDEX[op_class]]
        return [uop for _, uop in sorted(set(lane))
                if uop.in_ready and uop.state is UopState.DISPATCHED]


def eager_issue_allowed(parent: Uop, child: Uop, *, mode: RecycleMode,
                        threshold: int, base: TickBase) -> bool:
    """May *child* issue in *parent*'s issue cycle (EGPW grant check)?

    Checks the paper's step-10 conditions against the parent timing
    resolved earlier this cycle:

    a. recycling is enabled (REDSOC or MOS fusion),
    b. the parent completes inside its arrival cycle (no extra-cycle
       hold — otherwise a conventional next-cycle wakeup already catches
       the slack) with a completion instant within the slack threshold,
    c. (MOS only) the child's execution must also fit before the same
       clock edge — MOS has no transparent boundary crossing.

    The FU-availability and other-source checks are the caller's job.
    """
    if mode is RecycleMode.BASELINE:
        return False
    if not (parent.transparent and child.transparent):
        return False
    arrival_end = base.cycle_start(base.cycle_of(parent.start_tick) + 1)
    if parent.end_tick >= arrival_end:
        # the parent either crosses the edge (a conventional next-cycle
        # wakeup already catches its CI) or ends exactly on it (no slack)
        return False
    ci = parent.end_tick % base.ticks_per_cycle
    if mode is RecycleMode.MOS:
        return parent.end_tick + child.ex_ticks <= arrival_end
    return ci <= threshold


def other_sources_ready(child: Uop, *, arrival_cycle: int,
                        base: TickBase) -> bool:
    """All of *child*'s sources issued & usable within its arrival cycle.

    Used to validate a speculative (GP-woken) issue before granting —
    with skewed global arbitration this check is what keeps
    GP-mispeculation at zero (Sec. IV-D).
    """
    deadline = base.cycle_start(arrival_cycle + 1)
    for src in child.sources:
        if src is None or src.state is UopState.COMMITTED:
            continue
        if src.issue_cycle is None:
            return False
        if consumer_avail_tick(src, child) >= deadline:
            return False
    return True


def last_source_avail(child: Uop, base: TickBase) -> int:
    """Max availability tick over all live sources (the MAX logic)."""
    avail = 0
    for src in child.sources:
        if src is None or src.state is UopState.COMMITTED:
            continue
        avail = max(avail, consumer_avail_tick(src, child))
    return avail


def unissued_sources(child: Uop) -> List[Uop]:
    return [src for src in child.sources
            if src is not None and src.state is not UopState.COMMITTED
            and src.issue_cycle is None]


def constraining_parent(child: Uop, start_tick: int) -> Optional[Uop]:
    """The transparent source whose CI equals the child's start tick.

    This identifies the producer whose slack the child recycled — used
    for transparent-sequence chaining (Fig. 11).
    """
    for src in child.sources:
        if (src is not None and src.transparent and child.transparent
                and src.avail_tick == start_tick):
            return src
    return None
