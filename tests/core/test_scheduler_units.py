"""Unit tests for the wakeup/eager-issue machinery in core.scheduler."""

from heapq import heappop

from repro.core.config import RecycleMode
from repro.core.scheduler import (
    ReadyQueues,
    consumer_avail_tick,
    eager_issue_allowed,
    last_source_avail,
    other_sources_ready,
    unissued_sources,
    wake_cycle,
)
from repro.core.ticks import DEFAULT_TICK_BASE as BASE
from repro.isa import Instruction, Opcode, r
from repro.isa.opcodes import OpClass
from repro.pipeline.trace import TraceEntry
from repro.pipeline.uop import OPCLASS_INDEX, Uop, UopState


def make_uop(seq=0, op=Opcode.ADD, transparent=True):
    entry = TraceEntry(
        instr=Instruction(op=op, rd=r(0), rn=r(1), rm=r(2)), pc=seq,
        next_pc=seq + 1, taken=False, op_width=8, mem_addr=None,
        mem_size=0, is_store=False)
    uop = Uop(seq, entry)
    uop.transparent = transparent
    return uop


def drain(queues, op_class=OpClass.ALU):
    """Issue every live request of one lane the way
    ``CoreSimulator._schedule`` does: a stale head pops, and a live head
    issues (its flag clears) and pops."""
    lane = queues.lanes[OPCLASS_INDEX[op_class]]
    issued = []
    while lane:
        uop = heappop(lane)[1]
        if uop.in_ready:
            queues.remove(uop)
            issued.append(uop)
    return issued


def issue(uop, cycle, start, ex):
    uop.state = UopState.ISSUED
    uop.issue_cycle = cycle
    uop.start_tick = start
    uop.end_tick = start + ex
    uop.avail_tick = uop.end_tick
    uop.sync_avail = BASE.next_edge(uop.end_tick)
    return uop


class TestConsumerAvail:
    def test_transparent_pair_sees_ci(self):
        producer = issue(make_uop(0), 0, 8, 3)
        consumer = make_uop(1)
        assert consumer_avail_tick(producer, consumer) == 11

    def test_sync_consumer_waits_for_edge(self):
        producer = issue(make_uop(0), 0, 8, 3)
        consumer = make_uop(1, transparent=False)
        assert consumer_avail_tick(producer, consumer) == 16

    def test_sync_producer_latches_first(self):
        producer = issue(make_uop(0, transparent=False), 0, 8, 3)
        consumer = make_uop(1)
        assert consumer_avail_tick(producer, consumer) == 16


class TestWakeCycle:
    def test_single_cycle_back_to_back(self):
        producer = issue(make_uop(0), 3, 32, 3)
        consumer = make_uop(1)
        assert wake_cycle(producer, consumer, BASE) == 4

    def test_held_producer_still_wakes_next_cycle(self):
        # producer crosses the edge: end mid next cycle
        producer = issue(make_uop(0), 3, 38, 7)  # ends at 45 (cycle 5)
        consumer = make_uop(1)
        # transparent consumer arrives at cycle_of(45)=5 -> issue at 4
        assert wake_cycle(producer, consumer, BASE) == 4

    def test_sync_consumer_of_held_producer(self):
        producer = issue(make_uop(0), 3, 38, 7)   # sync_avail = 48
        consumer = make_uop(1, transparent=False)
        assert wake_cycle(producer, consumer, BASE) == 5


class TestReadyQueues:
    def test_wake_and_drain(self):
        queues = ReadyQueues()
        uop = make_uop(5)
        queues.schedule_wake(uop, 3)
        queues.advance_to(2)
        assert queues.pending(OpClass.ALU) == []
        queues.advance_to(3)
        assert queues.pending(OpClass.ALU) == [uop]

    def test_pending_is_age_ordered(self):
        queues = ReadyQueues()
        young, old = make_uop(9), make_uop(2)
        queues.schedule_wake(young, 1)
        queues.schedule_wake(old, 1)
        queues.advance_to(1)
        assert [u.seq for u in queues.pending(OpClass.ALU)] == [2, 9]

    def test_issued_uops_pruned_lazily(self):
        queues = ReadyQueues()
        uop = make_uop(1)
        queues.schedule_wake(uop, 1)
        queues.advance_to(1)
        uop.state = UopState.ISSUED
        assert queues.pending(OpClass.ALU) == []

    def test_remove(self):
        queues = ReadyQueues()
        a, b = make_uop(1), make_uop(2)
        queues.schedule_wake(a, 1)
        queues.schedule_wake(b, 1)
        queues.advance_to(1)
        queues.remove(a)
        assert queues.pending(OpClass.ALU) == [b]

    def test_duplicate_wake_of_live_uop_not_requeued(self):
        queues = ReadyQueues()
        uop = make_uop(1)
        queues.schedule_wake(uop, 1)
        queues.schedule_wake(uop, 1)
        queues.advance_to(1)
        assert queues.pending(OpClass.ALU) == [uop]

    def test_stale_wake_of_issued_uop_ignored(self):
        queues = ReadyQueues()
        uop = make_uop(1)
        uop.state = UopState.ISSUED
        queues.schedule_wake(uop, 1)
        queues.advance_to(1)
        assert queues.pending(OpClass.ALU) == []

    def test_rewoken_uop_issues_exactly_once(self):
        # replayed while its entry sat behind the head (the GP phase
        # issues or replays off-head), then woken twice: the stale and
        # the fresh entry are both in the lane, and select issues once
        queues = ReadyQueues()
        head, uop = make_uop(0), make_uop(1)
        queues.schedule_wake(head, 1)
        queues.schedule_wake(uop, 1)
        queues.advance_to(1)
        queues.remove(uop)
        queues.schedule_wake(uop, 2)
        queues.schedule_wake(uop, 3)
        queues.advance_to(3)
        assert len(queues.lanes[uop.cls_idx]) == 3
        assert drain(queues) == [head, uop]
        assert queues.lanes[uop.cls_idx] == []

    def test_stale_entry_never_issues(self):
        queues = ReadyQueues()
        a, b, c = make_uop(1), make_uop(2), make_uop(3)
        for uop in (a, b, c):
            queues.schedule_wake(uop, 1)
        queues.advance_to(1)
        queues.remove(a)
        queues.remove(c)
        assert drain(queues) == [b]

    def test_lane_drains_in_age_order(self):
        queues = ReadyQueues()
        for seq, cycle in ((9, 1), (2, 2), (5, 1), (7, 3)):
            queues.schedule_wake(make_uop(seq), cycle)
        queues.advance_to(2)
        first = queues.pending(OpClass.ALU)[0]
        queues.remove(first)
        heappop(queues.lanes[first.cls_idx])
        queues.advance_to(3)
        assert [first.seq] + [u.seq for u in drain(queues)] == [2, 5, 7, 9]


class TestEagerIssueAllowed:
    def _parent(self, start, ex, cycle=0):
        return issue(make_uop(0), cycle, start, ex)

    def test_allows_within_threshold(self):
        parent = self._parent(8, 3)   # CI = 3
        child = make_uop(1)
        assert eager_issue_allowed(parent, child,
                                   mode=RecycleMode.REDSOC,
                                   threshold=7, base=BASE)

    def test_blocks_beyond_threshold(self):
        parent = self._parent(8, 7)   # CI = 7
        child = make_uop(1)
        assert not eager_issue_allowed(parent, child,
                                       mode=RecycleMode.REDSOC,
                                       threshold=6, base=BASE)

    def test_blocks_when_parent_crosses(self):
        parent = self._parent(13, 7)  # ends at 20, crosses edge 16
        child = make_uop(1)
        assert not eager_issue_allowed(parent, child,
                                       mode=RecycleMode.REDSOC,
                                       threshold=8, base=BASE)

    def test_blocks_in_baseline_mode(self):
        parent = self._parent(8, 3)
        child = make_uop(1)
        assert not eager_issue_allowed(parent, child,
                                       mode=RecycleMode.BASELINE,
                                       threshold=7, base=BASE)

    def test_blocks_non_transparent_child(self):
        parent = self._parent(8, 3)
        child = make_uop(1, transparent=False)
        assert not eager_issue_allowed(parent, child,
                                       mode=RecycleMode.REDSOC,
                                       threshold=7, base=BASE)

    def test_mos_requires_single_cycle_fit(self):
        parent = self._parent(8, 3)
        small_child = make_uop(1)
        small_child.ex_ticks = 4      # 3 + 4 <= 8: fits
        big_child = make_uop(2)
        big_child.ex_ticks = 7        # 3 + 7 > 8: no fusion
        assert eager_issue_allowed(parent, small_child,
                                   mode=RecycleMode.MOS,
                                   threshold=0, base=BASE)
        assert not eager_issue_allowed(parent, big_child,
                                       mode=RecycleMode.MOS,
                                       threshold=0, base=BASE)

    def test_full_cycle_parent_never_recycles(self):
        parent = self._parent(8, 8)   # CI wraps to the edge: no slack
        child = make_uop(1)
        assert not eager_issue_allowed(parent, child,
                                       mode=RecycleMode.REDSOC,
                                       threshold=8, base=BASE)


class TestSourceHelpers:
    def test_unissued_sources(self):
        producer = make_uop(0)
        done = issue(make_uop(1), 0, 8, 3)
        consumer = make_uop(2)
        consumer.sources = [producer, done]
        assert unissued_sources(consumer) == [producer]

    def test_last_source_avail_takes_max(self):
        early = issue(make_uop(0), 0, 8, 3)     # avail 11
        late = issue(make_uop(1), 0, 8, 6)      # avail 14
        consumer = make_uop(2)
        consumer.sources = [early, late]
        assert last_source_avail(consumer, BASE) == 14

    def test_other_sources_ready_checks_deadline(self):
        ontime = issue(make_uop(0), 0, 8, 3)
        consumer = make_uop(2)
        consumer.sources = [ontime]
        assert other_sources_ready(consumer, arrival_cycle=1, base=BASE)
        # a source landing in cycle 3 misses a cycle-1 arrival
        tardy = issue(make_uop(1), 1, 24, 3)
        consumer.sources = [ontime, tardy]
        assert not other_sources_ready(consumer, arrival_cycle=1,
                                       base=BASE)

    def test_unissued_source_blocks_readiness(self):
        consumer = make_uop(2)
        consumer.sources = [make_uop(0)]
        assert not other_sources_ready(consumer, arrival_cycle=5,
                                       base=BASE)

    def test_committed_sources_are_transparent_to_checks(self):
        committed = issue(make_uop(0), 0, 8, 3)
        committed.state = UopState.COMMITTED
        consumer = make_uop(1)
        consumer.sources = [committed]
        assert unissued_sources(consumer) == []
        assert other_sources_ready(consumer, arrival_cycle=0, base=BASE)
