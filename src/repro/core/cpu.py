"""Cycle-level out-of-order core with ReDSOC slack recycling.

:class:`CoreSimulator` replays a dynamic :class:`~repro.pipeline.trace.Trace`
through the Table-I pipeline structures at cycle + 1/8-cycle resolution.
Per simulated cycle it performs, in order:

1. **commit** — in-order retirement from the ROB head (stores drain to
   the cache hierarchy here);
2. **schedule** — wakeup/select: a conventional oldest-first pass per FU
   class (phase P), then the Eager-Grandparent pass (phase GP) that
   issues children *in the same cycle as their parents* to recycle slack
   (skewed selection: GP grants only consume units left over by
   conventional requests — Sec. IV-D);
3. **dispatch** — rename (RAT), ROB/RS/LSQ allocation, slack-LUT read and
   width prediction (decode-side work is folded in here);
4. **fetch** — trace-ordered fetch with gshare prediction; mispredicted
   conditional branches block fetch until they resolve plus the redirect
   penalty.

The same engine runs all three modes (BASELINE / REDSOC / MOS) and all
ablations (illustrative vs operational RSE, skewed vs plain selection,
slack threshold, CI precision), so comparisons differ *only* in the
mechanism under test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.analysis.stats import HIGH_SLACK_FRACTION, SimStats
from repro.obs.events import Event, EventKind
from repro.obs.metrics import MetricsRegistry
from repro.isa.opcodes import (
    ARITH_OPS,
    Cond,
    OpClass,
    Opcode,
    SIMD_ACCUMULATE_OPS,
    SIMD_SINGLE_CYCLE_OPS,
)
from repro.isa.program import Program
from repro.isa.semantics import width_bucket
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.branch import GsharePredictor
from repro.pipeline.resources import ExecutionResources
from repro.pipeline.trace import Trace, TraceEntry, generate_trace
from repro.pipeline.uop import OPCLASS_INDEX, Uop, UopState

from .config import CoreConfig, RecycleMode, SchedulerDesign
from .engine import ENGINES
from .last_arrival import LastArrivalPredictor
from .scheduler import (
    ReadyQueues,
    constraining_parent,
    consumer_avail_tick,
    eager_issue_allowed,
    last_source_avail,
    other_sources_ready,
    unissued_sources,
    wake_cycle,
)
from .slack_lut import SlackLUT
from .ticks import TickBase
from .transparent import ExecTiming, SequenceTracker, resolve_execution
from .width_predictor import WidthPredictor


@dataclass
class SimResult:
    """Outcome of one timing simulation."""

    name: str
    config: CoreConfig
    stats: SimStats

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class CoreSimulator:
    """One core simulating one trace (single-use object)."""

    def __init__(self, trace: Trace, config: CoreConfig, *,
                 obs=None) -> None:
        self.trace = trace
        self.config = config
        #: event sink (None = tracing off; every emission site below is
        #: guarded by a single `is None` check so the untraced hot loop
        #: does the same work as an uninstrumented simulator)
        self.obs = obs
        self.metrics = MetricsRegistry()
        self.base = TickBase(config.ticks_per_cycle, config.tech)
        self.lut = SlackLUT(self.base, pvt_scale=config.pvt_scale)
        self.width_pred = WidthPredictor()
        self.la_pred = LastArrivalPredictor()
        self.branch_pred = GsharePredictor()
        self.mem = MemoryHierarchy(config.memory)
        self.res = ExecutionResources(
            alu=config.alu_units, simd=config.simd_units,
            fp=config.fp_units, mem_ports=config.mem_ports,
            branch_units=config.branch_units,
            complex_units=config.complex_units)
        self.ready = ReadyQueues()
        self.sequences = SequenceTracker()
        self.stats = SimStats()

        self._fetch_idx = 0
        self._fetch_queue: deque = deque()
        self._fetch_resume = 0
        self._blocked_on_seq: Optional[int] = None
        self._rob: deque = deque()
        self._rat: Dict = {}
        #: stores dispatched but not yet committed (LSQ store half)
        self._inflight_stores: List[Uop] = []
        self._live_stores: List[Uop] = []
        self._rs_used = 0
        self._lsq_used = 0
        self._committed = 0
        self.cycle = 0

        # dynamic slack-threshold controller (Sec. IV-C): hill-climbs
        # the threshold by probing neighbouring settings for a window
        # each and keeping whichever committed the most instructions
        self._threshold = config.slack_threshold
        self._probe_plan: List[int] = []
        self._probe_results: List = []
        self._window_start_committed = 0
        self._exploit_left = 0

        # -- hot-path acceleration state (behaviour-neutral) -----------
        # decode memoization: an instruction's static timing never
        # changes after assembly, so decode work runs once per static
        # instruction (keyed by identity — the trace keeps them alive)
        self._static_memo: Dict[int, tuple] = {}
        self._ex_memo: Dict[tuple, int] = {}
        # prebuilt select lanes + class-indexed pool table so the
        # schedule loop never hashes OpClass members per cycle
        self._lanes = tuple(
            (op_class, pool, OPCLASS_INDEX[op_class])
            for op_class, pool in self.res.pools.items())
        self._pool_by_idx: List = [None] * len(OPCLASS_INDEX)
        for op_class, pool in self.res.pools.items():
            self._pool_by_idx[OPCLASS_INDEX[op_class]] = pool
        self._do_gp = (config.mode is not RecycleMode.BASELINE
                       and config.eager_issue)
        self._adaptive = (config.adaptive_threshold
                          and config.mode is RecycleMode.REDSOC)
        #: True when the RSE watches every source tag (Sec. IV-C):
        #: baseline mode or the Illustrative scheduler design
        self._watch_all = (config.mode is RecycleMode.BASELINE
                           or config.scheduler is SchedulerDesign.ILLUSTRATIVE)
        # per-class issue tally as a plain list (folded into the
        # enum-keyed FUStats dict once at the end of run())
        self._issue_counts: List[int] = [0] * len(OPCLASS_INDEX)

        if obs is not None:
            # propagate the sink into the sub-models that publish their
            # own events (wakeup array, cache hierarchy)
            self.ready.obs = obs
            self.mem.obs = obs
            obs.emit(Event(EventKind.META, -1, -1, {
                "trace": trace.name,
                "instructions": len(trace.entries),
                "core": config.name,
                "mode": config.mode.value,
                "scheduler": config.scheduler.value,
                "ticks_per_cycle": config.ticks_per_cycle,
                "pools": {cls.value: pool.count
                          for cls, pool in self.res.pools.items()},
            }))

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(self) -> SimResult:
        total = len(self.trace.entries)
        limit = 200 * total + 100_000
        while self._committed < total:
            self._step()
            if self.cycle > limit:
                raise RuntimeError(
                    f"simulation wedged: {self._committed}/{total} "
                    f"committed after {self.cycle} cycles "
                    f"(trace {self.trace.name!r})")
        issues = self.res.stats.issues
        for op_class, idx in OPCLASS_INDEX.items():
            if self._issue_counts[idx]:
                issues[op_class] += self._issue_counts[idx]
        self._issue_counts = [0] * len(OPCLASS_INDEX)
        self._finalize()
        return SimResult(name=self.trace.name, config=self.config,
                         stats=self.stats)

    def _step(self) -> None:
        cycle = self.cycle
        if self.obs is not None:
            self.mem.now = cycle
        self.ready.advance_to(cycle)
        self._commit(cycle)
        self._schedule(cycle)
        self._dispatch(cycle)
        self._fetch(cycle)
        self.stats.cycles += 1
        if cycle and cycle % 4096 == 0:
            self.res.release_past(cycle)
        if (self._adaptive
                and cycle and cycle % self.config.threshold_window == 0):
            self._adapt_threshold()
        self.cycle += 1

    #: how many exploit windows follow one probe sweep
    _EXPLOIT_WINDOWS = 20

    def _adapt_threshold(self) -> None:
        """One step of the dynamic threshold controller.

        Sweeps a coarse grid of thresholds (one window each), adopts the
        setting that retired the most instructions, exploits it for
        several windows, then re-probes — the run-time realisation of
        the paper's per-application-set threshold tuning (Sec. IV-C).
        """
        done = self._committed - self._window_start_committed
        self._window_start_committed = self._committed
        self._probe_results.append((done, self._threshold))
        if self._probe_plan:
            self._threshold = self._probe_plan.pop(0)
            return
        if len(self._probe_results) > 1:
            # a sweep just finished: keep the best-performing setting
            self._threshold = max(self._probe_results)[1]
            self._probe_results = []
            self._exploit_left = self._EXPLOIT_WINDOWS
            return
        self._probe_results = []
        self._exploit_left -= 1
        if self._exploit_left <= 0:
            full = self.base.ticks_per_cycle
            grid = sorted({0, full // 4, full // 2, 3 * full // 4,
                           full - 1})
            self._probe_plan = [t for t in grid if t != self._threshold]
            self._probe_results = [(done, self._threshold)]
            self._threshold = self._probe_plan.pop(0)

    def _finalize(self) -> None:
        """Publish end-of-run results through the metrics registry.

        The registry is the single source of truth: gauges below flow
        into :class:`SimStats` via its declared mapping, the hot-loop
        counters flow back out, and exporters snapshot the registry.
        """
        m = self.metrics
        wstats = self.width_pred.stats
        m.gauge("predict.width.aggressive_rate").set(
            wstats.aggressive_rate)
        m.gauge("predict.width.accuracy").set(wstats.accuracy)
        lstats = self.la_pred.stats
        m.gauge("predict.la.misprediction_rate").set(
            lstats.misprediction_rate)
        m.gauge("predict.la.predictions").set(lstats.predictions)
        m.gauge("predict.la.mispredictions").set(lstats.mispredictions)
        m.gauge("seq.expected_length").set(
            self.sequences.expected_length())
        m.gauge("seq.mean_length").set(self.sequences.mean_length())
        m.gauge("seq.count").set(self.sequences.num_sequences)
        bstats = self.branch_pred.stats
        m.gauge("front.branches").set(bstats.predictions)
        m.gauge("front.branch_mispredicts").set(bstats.mispredictions)
        self.stats.populate_from(m)
        self.stats.export_counters(m)
        m.gauge("core.ipc").set(self.stats.ipc)

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def _commit(self, cycle: int) -> None:
        rob = self._rob
        stats = self.stats
        width = self.config.front_width
        issued = UopState.ISSUED
        committed = 0
        while rob and committed < width:
            uop = rob[0]
            if (uop.state is not issued
                    or uop.done_cycle is None or uop.done_cycle > cycle):
                break
            entry = uop.entry
            if entry.is_store:
                latency = self.mem.store_latency(entry.mem_addr, entry.pc)
                uop.mem_hl = latency > self.mem.config.l1_latency
                if uop in self._live_stores:
                    self._live_stores.remove(uop)
                if uop in self._inflight_stores:
                    self._inflight_stores.remove(uop)
            fu = uop.fu_class
            if fu is OpClass.LOAD or fu is OpClass.STORE:
                self._lsq_used -= 1
            self._classify(uop)
            uop.state = UopState.COMMITTED
            rob.popleft()
            self._committed += 1
            stats.committed += 1
            committed += 1
            if self.obs is not None:
                self.obs.emit(Event(EventKind.COMMIT, cycle, uop.seq, {
                    "op": entry.instr.op.name,
                    "issue": uop.issue_cycle,
                    "done": uop.done_cycle,
                }))

    def _classify(self, uop: Uop) -> None:
        cls = uop.fu_class
        dist = self.stats.distribution
        if cls in (OpClass.LOAD, OpClass.STORE):
            dist.add("MEM-HL" if uop.mem_hl else "MEM-LL")
        elif cls is OpClass.SIMD:
            dist.add("SIMD")
        elif cls in (OpClass.MUL, OpClass.DIV, OpClass.FP):
            dist.add("OtherMulti")
        elif cls is OpClass.ALU:
            slack = 1.0 - uop.actual_ex_ticks / self.base.ticks_per_cycle
            dist.add("ALU-HS" if slack > HIGH_SLACK_FRACTION else "ALU-LS")
        # branches / NOPs are control overhead, not a Fig. 10 class

    # ------------------------------------------------------------------
    # schedule (wakeup / select / execute-timing)
    # ------------------------------------------------------------------

    def _schedule(self, cycle: int) -> None:
        issued_now: List[Uop] = []
        stalled = False
        obs = self.obs
        ready = self.ready
        queues = ready._queues
        dead = ready._dead
        # iterate the live lane lists in place: _try_issue only ever
        # tombstones the uop under consideration (wakes are scheduled
        # for future cycles), so no structural mutation happens here
        for op_class, pool, idx in self._lanes:
            if dead[idx] > 8:
                ready._compact(idx)
            queue = queues[idx]
            if not queue:
                continue
            busy = pool._busy
            count = pool.count
            for uop in queue:
                if not uop.in_ready:
                    continue
                if count <= busy.get(cycle + uop.latency_cycles, 0):
                    stalled = True
                    break
                outcome = self._try_issue(uop, cycle)
                if outcome == "issued":
                    issued_now.append(uop)
                    if obs is not None:
                        obs.emit(Event(
                            EventKind.SELECT, cycle, uop.seq,
                            {"phase": "P", "fu": op_class.value}))
                elif outcome == "stall":
                    stalled = True
                    break
                # "replayed" → removed from pending, rescheduled later
        if self._do_gp and issued_now:
            if self.config.skewed_select:
                self._gp_phase(cycle, issued_now)
            else:
                self._gp_phase_unskewed(cycle, issued_now)
        if stalled:
            self.stats.fu_stall_cycles += 1
            if obs is not None:
                obs.emit(Event(
                    EventKind.FU_STALL, cycle, -1,
                    {"tick": self.base.cycle_start(cycle)}))

    def _try_issue(self, uop: Uop, cycle: int, *,
                   eager: bool = False) -> str:
        """Attempt to issue *uop*; returns 'issued' | 'stall' | 'replayed'."""
        base = self.base
        arrival = cycle + uop.latency_cycles
        fu = uop.fu_class
        pool = self._pool_by_idx[uop.cls_idx]
        sources = uop.sources

        unissued = [s for s in sources
                    if s.state is not UopState.COMMITTED
                    and s.issue_cycle is None]
        if fu is OpClass.LOAD:
            older = self._unissued_older_store(uop)
            if older is not None:
                unissued.append(older)
        if unissued:
            # issued off the wrong (predicted-last) tag: selective reissue
            self._replay_on_sources(uop, unissued, cycle)
            pool.try_reserve(arrival)  # the wasted grant still burnt a slot
            return "replayed"

        if fu is OpClass.LOAD:
            return self._issue_load(uop, cycle)
        if fu is OpClass.STORE:
            return self._issue_store(uop, cycle)

        # inlined last_source_avail() + resolve_execution(): this is the
        # per-issue critical path of the whole simulator
        transparent = uop.transparent
        source_avail = 0
        for src in sources:
            if src.state is UopState.COMMITTED:
                continue
            a = (src.avail_tick if transparent and src.transparent
                 else src.sync_avail)
            if a > source_avail:
                source_avail = a
        tpc = base.ticks_per_cycle
        cycle_start = arrival * tpc
        if transparent:
            start = source_avail if source_avail > cycle_start else cycle_start
        else:
            edge = ((source_avail + tpc - 1) // tpc) * tpc
            start = edge if edge > cycle_start else cycle_start
        end = start + uop.ex_ticks
        timing = ExecTiming(
            start_tick=start, end_tick=end, avail_tick=end,
            sync_avail_tick=((end + tpc - 1) // tpc) * tpc,
            extra_cycle_hold=end > (start // tpc + 1) * tpc,
            recycled=start % tpc != 0)
        if (self.config.mode is RecycleMode.MOS and timing.recycled
                and timing.extra_cycle_hold):
            # MOS cannot cross a clock edge: fall back to a normal start
            timing = resolve_execution(
                arrival_cycle=arrival, source_avail=source_avail,
                ex_ticks=uop.ex_ticks, transparent=False, base=base)

        if timing.start_tick >= base.cycle_start(arrival + 1):
            # an (unwatched but issued) operand lands after our window
            self._replay_late(uop, cycle)
            pool.try_reserve(arrival)
            return "replayed"

        aggressive = False
        if uop.width_applied:
            aggressive = (width_bucket(uop.entry.op_width)
                          > uop.predicted_width)
        if aggressive:
            # correctness hazard: conservative re-execution from a later
            # clock edge with the true (wider) EX-TIME
            timing = resolve_execution(
                arrival_cycle=arrival + self.config.replay_penalty,
                source_avail=source_avail,
                ex_ticks=uop.actual_ex_ticks, transparent=False, base=base)
            self.stats.width_replays += 1
            if self.obs is not None:
                self.obs.emit(Event(
                    EventKind.WIDTH_MISPREDICT, cycle, uop.seq, {
                        "predicted": uop.predicted_width,
                        "actual": uop.entry.op_width,
                        "tick": timing.start_tick,
                    }))

        occupy = base.cycle_of(timing.start_tick)
        if (timing.extra_cycle_hold
                and not pool.can_reserve(occupy, extra_cycle=True)):
            # the 2-cycle hold cannot be afforded: fall back to an
            # opaque (edge-aligned) start — the FF simply stays closed,
            # costing only the unrecycled slack (never worse than MOS)
            fallback = resolve_execution(
                arrival_cycle=arrival, source_avail=source_avail,
                ex_ticks=uop.ex_ticks, transparent=False, base=base)
            fb_cycle = base.cycle_of(fallback.start_tick)
            if not pool.try_reserve(fb_cycle,
                                    extra_cycle=fallback.extra_cycle_hold):
                return "stall"
            timing = fallback
            occupy = fb_cycle
        elif not pool.try_reserve(occupy,
                                  extra_cycle=timing.extra_cycle_hold):
            return "stall"

        self._train_predictors(uop)
        self._finalize_issue(uop, cycle, timing, eager=eager)
        return "issued"

    def _train_predictors(self, uop: Uop) -> None:
        if uop.width_applied:
            self.width_pred.record_outcome(uop.predicted_width,
                                           uop.entry.op_width)
            self.width_pred.update(uop.entry.pc, uop.entry.op_width)
        if uop.la_applied and len(uop.sources) >= 2:
            first, second = uop.sources[0], uop.sources[1]
            c1 = first.issue_cycle if first.issue_cycle is not None else -1
            c2 = second.issue_cycle if second.issue_cycle is not None else -1
            if c1 == c2:
                # simultaneous broadcast: either tag wakes correctly, so
                # the prediction is right by construction and the table
                # is left alone (no flip-flop noise)
                self.la_pred.record_outcome(uop.second_predicted_last,
                                            uop.second_predicted_last)
            else:
                second_last = c2 > c1
                self.la_pred.record_outcome(uop.second_predicted_last,
                                            second_last)
                self.la_pred.update(uop.entry.pc, second_last)

    def _finalize_issue(self, uop: Uop, cycle: int, timing, *,
                        eager: bool) -> None:
        base = self.base
        uop.state = UopState.ISSUED
        uop.issue_cycle = cycle
        uop.start_tick = timing.start_tick
        uop.end_tick = timing.end_tick
        uop.avail_tick = timing.avail_tick
        uop.sync_avail = timing.sync_avail_tick
        uop.extra_cycle_hold = timing.extra_cycle_hold
        uop.done_cycle = base.cycle_of(timing.sync_avail_tick)
        self._issue_counts[uop.cls_idx] += 1
        if timing.extra_cycle_hold:
            self.stats.two_cycle_holds += 1
        if eager:
            uop.gp_issued = True
            self.stats.eager_issues += 1
        if uop.transparent:
            if timing.recycled:
                self.stats.recycled_ops += 1
                parent = constraining_parent(uop, timing.start_tick)
                uop.chain_id = self.sequences.extend_chain(
                    parent.chain_id if parent else None)
            else:
                uop.chain_id = self.sequences.start_chain()
        if self.obs is not None:
            self._emit_issue(uop, cycle, timing, eager=eager)
        self._rs_used -= 1
        self.ready.remove(uop)
        if uop.seq == self._blocked_on_seq:
            self._fetch_resume = (cycle + uop.latency_cycles
                                  + self.config.mispredict_penalty)
            self._blocked_on_seq = None
        self._notify_dependents(uop, cycle)

    def _emit_issue(self, uop: Uop, cycle: int, timing, *,
                    eager: bool) -> None:
        """Publish the resolved execution window (traced runs only).

        The EXEC_WINDOW payload is deliberately complete: it carries
        everything :func:`repro.core.audit.audit_from_events` needs to
        re-derive the full timing audit from a recorded stream, and
        everything the Perfetto exporter renders per slice.
        """
        obs = self.obs
        base = self.base
        instr = uop.entry.instr
        is_mem = instr.cls in (OpClass.LOAD, OpClass.STORE)
        srcs = []
        for src in uop.sources:
            if src.issue_cycle is None:
                srcs.append([src.seq, None])
            else:
                srcs.append([src.seq, consumer_avail_tick(src, uop)])
        obs.emit(Event(EventKind.EXEC_WINDOW, cycle, uop.seq, {
            "op": instr.op.name,
            "fu": uop.fu_class.value,
            "issue": cycle,
            "lat": uop.latency_cycles,
            "start": timing.start_tick,
            "end": timing.end_tick,
            "avail": timing.avail_tick,
            "sync": timing.sync_avail_tick,
            "ex": uop.ex_ticks,
            "ex_actual": uop.actual_ex_ticks,
            "transparent": uop.transparent,
            "recycled": timing.recycled,
            "hold": timing.extra_cycle_hold,
            "eager": eager,
            "mem": is_mem,
            "srcs": srcs,
        }))
        if eager:
            obs.emit(Event(EventKind.GP_GRANT, cycle, uop.seq,
                           {"tick": timing.start_tick}))
        if timing.extra_cycle_hold:
            obs.emit(Event(EventKind.HOLD, cycle, uop.seq, {
                "tick": timing.start_tick,
                "fu": uop.fu_class.value,
            }))
        obs.emit(Event(EventKind.WRITEBACK, uop.done_cycle, uop.seq,
                       {"tick": timing.sync_avail_tick}))
        # tick-resolution latency/slack distributions (traced runs)
        m = self.metrics
        m.histogram("lat.issue_to_execute").observe(
            timing.start_tick - base.cycle_start(cycle))
        if not is_mem and uop.latency_cycles == 1:
            m.histogram("slack.per_op").observe(
                max(0, base.ticks_per_cycle - uop.actual_ex_ticks))
        if timing.recycled:
            m.histogram("recycle.start_offset").observe(
                base.tick_in_cycle(timing.start_tick))

    def _issue_load(self, uop: Uop, cycle: int) -> str:
        base = self.base
        arrival = cycle + 1
        pool = self._pool_by_idx[uop.cls_idx]
        if not pool.try_reserve(arrival):
            return "stall"
        addr_avail = last_source_avail(uop, base)
        addr_cycle = max(arrival, base.cycle_of(base.next_edge(addr_avail)))
        entry = uop.entry
        latency = self.mem.load_latency(entry.mem_addr, entry.pc)
        uop.mem_hl = latency > self.mem.config.l1_latency
        fwd = self._forwarding_store(uop)
        if fwd is not None:
            data_cycle = max(addr_cycle + 1, (fwd.done_cycle or 0) + 1)
        else:
            data_cycle = addr_cycle + latency
        timing = _LoadTiming(base, addr_cycle, data_cycle)
        self._finalize_issue(uop, cycle, timing, eager=False)
        return "issued"

    def _issue_store(self, uop: Uop, cycle: int) -> str:
        base = self.base
        arrival = cycle + 1
        pool = self._pool_by_idx[uop.cls_idx]
        if not pool.try_reserve(arrival):
            return "stall"
        timing = _StoreTiming(base, arrival)
        self._finalize_issue(uop, cycle, timing, eager=False)
        self._live_stores.append(uop)
        return "issued"

    def _forwarding_store(self, load: Uop) -> Optional[Uop]:
        lo = load.entry.mem_addr
        hi = lo + load.entry.mem_size
        for store in reversed(self._live_stores):
            if store.seq > load.seq:
                continue
            s_lo = store.entry.mem_addr
            s_hi = s_lo + store.entry.mem_size
            if s_lo < hi and lo < s_hi:
                return store
        return None

    def _unissued_older_store(self, load: Uop) -> Optional[Uop]:
        dep = load.order_dep
        if dep is None or dep.issue_cycle is not None:
            return None
        return dep

    def _replay_on_sources(self, uop: Uop, unissued: List[Uop],
                           cycle: int) -> None:
        uop.replayed = True
        if uop.la_applied:
            self.stats.la_replays += 1
        if self.obs is not None:
            self.obs.emit(Event(EventKind.LA_REPLAY, cycle, uop.seq, {
                "la_applied": uop.la_applied,
                "waiting_on": sorted(u.seq for u in unissued),
            }))
        uop.waiting_on = set(unissued)
        uop.eligible_cycle = cycle + 1
        self.ready.remove(uop)

    def _replay_late(self, uop: Uop, cycle: int) -> None:
        uop.replayed = True
        if uop.la_applied:
            self.stats.la_replays += 1
        if self.obs is not None:
            self.obs.emit(Event(EventKind.LA_REPLAY, cycle, uop.seq, {
                "la_applied": uop.la_applied,
                "late_operand": True,
            }))
        base = self.base
        avail = last_source_avail(uop, base)
        self.ready.remove(uop)
        self.ready.schedule_wake(
            uop, max(cycle + 1, base.cycle_of(avail) - 1))

    def _notify_dependents(self, uop: Uop, cycle: int) -> None:
        # inlined wake_cycle()/consumer_avail_tick(): this runs once per
        # dependent of every issued uop, the hottest edge in the model
        base = self.base
        cycle_of = base.cycle_of
        schedule_wake = self.ready.schedule_wake
        p_trans = uop.transparent
        avail_t = uop.avail_tick
        sync_t = uop.sync_avail
        floor = uop.issue_cycle + 1
        next_cycle = cycle + 1
        for dep in uop.dependents:
            waiting = dep.waiting_on
            if uop not in waiting:
                continue
            waiting.discard(uop)
            avail = avail_t if p_trans and dep.transparent else sync_t
            wake = cycle_of(avail) - dep.latency_cycles
            if wake < floor:
                wake = floor
            if dep.eligible_cycle is None or wake > dep.eligible_cycle:
                dep.eligible_cycle = wake
            if not waiting:
                schedule_wake(dep, max(dep.eligible_cycle, next_cycle))

    # -- eager grandparent phase ---------------------------------------

    def _gp_candidates(self, cycle: int,
                       issued_now: List[Uop]) -> List[Uop]:
        seen: Set[int] = set()
        candidates: List[Uop] = []
        for parent in issued_now:
            if not parent.transparent or parent.replayed:
                continue
            for child in parent.dependents:
                if (child.seq in seen
                        or child.state is not UopState.DISPATCHED
                        or child.issue_cycle is not None
                        or not child.transparent):
                    continue
                # eager co-issue only lines the child's execution stage
                # up with the parent's when their latencies match (ALU
                # with ALU, VMLA accumulate with VMLA accumulate)
                if child.latency_cycles != parent.latency_cycles:
                    continue
                if not eager_issue_allowed(
                        parent, child, mode=self.config.mode,
                        threshold=self._threshold, base=self.base):
                    continue
                if not other_sources_ready(
                        child, arrival_cycle=cycle + child.latency_cycles,
                        base=self.base):
                    continue
                seen.add(child.seq)
                candidates.append(child)
        candidates.sort(key=lambda u: u.seq)
        return candidates

    def _gp_phase(self, cycle: int, issued_now: List[Uop]) -> None:
        """Skewed selection: GP grants use only leftover FU capacity.

        The spare-units guard keeps speculative issues (and their
        possible 2-cycle holds) from starving next cycle's conventional
        requests when the machine is throughput-bound — the simple
        dynamic mechanism Sec. IV-C sketches around the slack threshold.
        """
        spare = self.config.eager_spare_units
        for child in self._gp_candidates(cycle, issued_now):
            pool = self._pool_by_idx[child.cls_idx]
            if (pool.free_at(cycle + 1) <= spare
                    or pool.free_at(cycle + 2) <= spare):
                continue
            result = self._try_issue(child, cycle, eager=True)
            if result == "issued" and self.obs is not None:
                self.obs.emit(Event(
                    EventKind.SELECT, cycle, child.seq,
                    {"phase": "GP", "fu": child.fu_class.value}))

    def _gp_phase_unskewed(self, cycle: int,
                           issued_now: List[Uop]) -> None:
        """Ablation: GP requests compete with conventional ones by age.

        Conventional selection already ran; here GP candidates whose age
        would have beaten a *denied* conventional request model the
        paper's two failure cases: a wasted grant (no slack to recycle)
        and GP-mispeculation (child granted without its parent).  We
        approximate by letting GP candidates take slots but charging a
        mispeculation whenever a still-pending conventional request is
        older than the granted child.
        """
        spare = self.config.eager_spare_units
        for child in self._gp_candidates(cycle, issued_now):
            pool = self._pool_by_idx[child.cls_idx]
            if (pool.free_at(cycle + 1) <= spare
                    or pool.free_at(cycle + 2) <= spare):
                continue
            pending = self.ready.pending(child.fu_class)
            older_pending = any(u.seq < child.seq for u in pending)
            result = self._try_issue(child, cycle, eager=True)
            if result == "issued" and self.obs is not None:
                self.obs.emit(Event(
                    EventKind.SELECT, cycle, child.seq,
                    {"phase": "GP", "fu": child.fu_class.value}))
            if result == "issued" and older_pending:
                self.stats.gp_mispeculations += 1
                self.stats.wasted_gp_grants += 1

    # ------------------------------------------------------------------
    # dispatch (decode + rename + allocate)
    # ------------------------------------------------------------------

    def _dispatch(self, cycle: int) -> None:
        config = self.config
        fetch_queue = self._fetch_queue
        rob = self._rob
        rob_size = config.rob_size
        rse_size = config.rse_size
        lsq_size = config.lsq_size
        count = 0
        stalled = False
        while fetch_queue and count < config.front_width:
            seq, entry = fetch_queue[0]
            if len(rob) >= rob_size:
                stalled = True
                break
            cls = entry.cls
            if (cls is not OpClass.NOP and cls is not OpClass.HALT
                    and self._rs_used >= rse_size):
                stalled = True
                break
            if ((cls is OpClass.LOAD or cls is OpClass.STORE)
                    and self._lsq_used >= lsq_size):
                stalled = True
                break
            fetch_queue.popleft()
            self._dispatch_one(seq, entry, cycle)
            count += 1
        if stalled:
            self.stats.dispatch_stall_cycles += 1
            if self.obs is not None:
                self.obs.emit(Event(EventKind.DISPATCH_STALL, cycle, -1,
                                    {"tick":
                                     self.base.cycle_start(cycle)}))

    def _dispatch_one(self, seq: int, entry: TraceEntry,
                      cycle: int) -> None:
        uop = Uop(seq, entry)
        instr = entry.instr

        # decode + rename tables: an instruction's static timing and
        # architectural source/dest register sets never change after
        # assembly, so both are derived once per static instruction
        memo = self._static_memo.get(id(instr))
        if memo is None:
            memo = self._static_memo[id(instr)] = (
                self._decode_static(instr)
                + (tuple(instr.sources()), tuple(instr.dests())))
        transparent, latency, ex_static, arith, src_regs, dst_regs = memo
        uop.transparent = transparent
        uop.latency_cycles = latency
        if arith:
            # arithmetic ALU ops resolve EX-TIME from dynamic per-PC
            # width-predictor state
            predicted = self.width_pred.predict(entry.pc)
            uop.width_applied = True
            uop.predicted_width = predicted
            uop.ex_ticks = self._ex_time(instr, predicted)
            uop.actual_ex_ticks = self._ex_time(instr, entry.op_width)
        else:
            uop.ex_ticks = uop.actual_ex_ticks = ex_static

        # rename: resolve register sources through the RAT
        rat = self._rat
        sources: List[Uop] = []
        for reg in src_regs:
            producer = rat.get(reg)
            if (producer is not None
                    and producer.state is not UopState.COMMITTED
                    and producer not in sources):
                sources.append(producer)
        uop.sources = sources

        # memory disambiguation: a load waits (for issue) only on the
        # youngest older store whose address range overlaps — oracle
        # disambiguation, the limit behaviour of a store-set predictor
        fu = uop.fu_class
        order_dep: Optional[Uop] = None
        if fu is OpClass.LOAD or fu is OpClass.STORE:
            self._lsq_used += 1
            if fu is OpClass.STORE:
                self._inflight_stores.append(uop)
            else:
                lo = entry.mem_addr
                hi = lo + entry.mem_size
                for store in reversed(self._inflight_stores):
                    s_lo = store.entry.mem_addr
                    if s_lo < hi and lo < s_lo + store.entry.mem_size:
                        order_dep = store
                        break
        uop.order_dep = order_dep

        # watched tags (Sec. IV-C): baseline / Illustrative watch every
        # source; the Operational design watches only the predicted
        # last-arriving parent of two-source transparent ops
        if self._watch_all or not transparent or len(sources) != 2:
            watched = sources
        else:
            second = self.la_pred.predict_second_last(entry.pc)
            uop.la_applied = True
            uop.second_predicted_last = second
            watched = [sources[1] if second else sources[0]]
        waiting = {s for s in watched if s.issue_cycle is None}
        uop.waiting_on = waiting
        if order_dep is not None and order_dep.issue_cycle is None:
            waiting.add(order_dep)

        for producer in sources:
            producer.dependents.append(uop)
        if order_dep is not None and order_dep not in sources:
            order_dep.dependents.append(uop)

        for reg in dst_regs:
            rat[reg] = uop

        if self.obs is not None:
            self.obs.emit(Event(EventKind.DISPATCH, cycle, seq, {
                "op": instr.op.name,
                "fu": uop.fu_class.value,
                "srcs": [s.seq for s in sources],
                "order_dep": (order_dep.seq
                              if order_dep is not None else None),
            }))
        self._rob.append(uop)
        if fu is OpClass.NOP or fu is OpClass.HALT:
            uop.state = UopState.ISSUED
            uop.issue_cycle = cycle
            uop.done_cycle = cycle
            return
        self._rs_used += 1

        wake = cycle + 1
        for src in watched:
            if src.issue_cycle is not None:
                wake = max(wake, wake_cycle(src, uop, self.base))
        if order_dep is not None and order_dep.issue_cycle is not None:
            wake = max(wake, wake_cycle(order_dep, uop, self.base))
        uop.eligible_cycle = wake
        if not uop.waiting_on:
            self.ready.schedule_wake(uop, wake)

    def _ex_time(self, instr, width: int) -> int:
        """Memoized slack-LUT read for (static instruction, width)."""
        key = (id(instr), width)
        ticks = self._ex_memo.get(key)
        if ticks is None:
            ticks = self._ex_memo[key] = self.lut.ex_time(instr, width)
        return ticks

    def _decode_static(self, instr) -> tuple:
        """(transparent, latency, static EX-TIME, width-dynamic?) of a
        static instruction.

        The EX-TIME slot is authoritative for every class whose LUT
        bucket ignores data width (logic/shift ALU ops, SIMD by lane
        type, full-cycle multi-cycle classes); arithmetic ALU ops
        return a ``True`` last field and resolve EX-TIME per dynamic
        instance from the predicted/observed widths instead.
        """
        op = instr.op
        cls = instr.cls
        config = self.config
        transparent = config.mode is not RecycleMode.BASELINE
        full = self.base.ticks_per_cycle
        if cls is OpClass.ALU:
            if op in ARITH_OPS:
                return (transparent, 1, 0, True)
            return (transparent, 1, self.lut.ex_time(instr), False)
        if cls is OpClass.SIMD:
            if op in SIMD_SINGLE_CYCLE_OPS:
                return (transparent, 1, self.lut.ex_time(instr), False)
            if op in SIMD_ACCUMULATE_OPS:
                return (transparent, config.simd_multicycle_latency,
                        self.lut.ex_time(instr), False)
            return (False, config.simd_multicycle_latency, full, False)
        if cls is OpClass.MUL:
            return (False, config.mul_latency, full, False)
        if cls is OpClass.DIV:
            return (False, config.div_latency, full, False)
        if cls is OpClass.FP:
            return (False, config.fdiv_latency if op is Opcode.FDIV
                    else config.fp_latency, full, False)
        # BRANCH / LOAD / STORE / NOP / HALT
        return (False, 1, full, False)

    # ------------------------------------------------------------------
    # fetch
    # ------------------------------------------------------------------

    def _fetch(self, cycle: int) -> None:
        if cycle < self._fetch_resume or self._blocked_on_seq is not None:
            return
        config = self.config
        entries = self.trace.entries
        entries_total = len(entries)
        fetch_queue = self._fetch_queue
        front_width = config.front_width
        queue_cap = 2 * front_width
        fetched = 0
        taken_seen = 0
        while (self._fetch_idx < entries_total
               and fetched < front_width
               and len(fetch_queue) < queue_cap):
            idx = self._fetch_idx
            entry = entries[idx]
            fetch_queue.append((idx, entry))
            self._fetch_idx += 1
            fetched += 1
            instr = entry.instr
            if self.obs is not None:
                self.obs.emit(Event(EventKind.FETCH, cycle, idx, {
                    "pc": entry.pc, "op": instr.op.name,
                }))
            if entry.cls is OpClass.BRANCH:
                if instr.op is Opcode.B and instr.cond is not Cond.AL:
                    mispredicted = self.branch_pred.update(
                        entry.pc, entry.taken)
                    if mispredicted:
                        if self.obs is not None:
                            self.obs.emit(Event(
                                EventKind.BRANCH_MISPREDICT, cycle, idx,
                                {"pc": entry.pc, "taken": entry.taken}))
                        self._blocked_on_seq = idx
                        break
                if entry.taken:
                    # the front end follows one predicted-taken branch
                    # per cycle (BTB redirect); a second ends the group
                    taken_seen += 1
                    if taken_seen > config.taken_branches_per_cycle:
                        break


class _LoadTiming:
    """Execution-window shim for loads (duck-typed like ExecTiming)."""

    def __init__(self, base: TickBase, addr_cycle: int,
                 data_cycle: int) -> None:
        self.start_tick = base.cycle_start(addr_cycle)
        self.end_tick = base.cycle_start(data_cycle)
        self.avail_tick = self.end_tick
        self.sync_avail_tick = self.end_tick
        self.extra_cycle_hold = False
        self.recycled = False


class _StoreTiming:
    """Execution-window shim for stores."""

    def __init__(self, base: TickBase, arrival_cycle: int) -> None:
        edge = base.cycle_start(arrival_cycle)
        self.start_tick = edge
        self.end_tick = base.cycle_start(arrival_cycle + 1)
        self.avail_tick = edge
        self.sync_avail_tick = edge
        self.extra_cycle_hold = False
        self.recycled = False


def simulate(workload, config: CoreConfig, *,
             max_instructions: int = 5_000_000, obs=None) -> SimResult:
    """Simulate *workload* (a Program or a pre-generated Trace).

    Pass an event sink (e.g. :class:`repro.obs.Recorder`) as *obs* to
    trace the run; the default ``None`` keeps tracing compiled out.
    The backend is picked by ``config.engine`` through the
    :data:`~repro.core.engine.ENGINES` registry; every backend returns
    bit-identical cycle counts (CI backend-equivalence matrix).
    """
    if isinstance(workload, Program):
        trace = generate_trace(workload, max_instructions=max_instructions)
    elif isinstance(workload, Trace):
        trace = workload
    else:
        raise TypeError(f"expected Program or Trace, got {type(workload)}")
    return ENGINES.create(config.engine, trace, config, obs=obs).run()


# -- engine registration -----------------------------------------------
# "reference" is this module's per-cycle loop; "compiled" lowers the
# trace and replays precomputed columns (falling back to the reference
# loop whenever an observer is attached — the compiled loop carries no
# probe points).

def _compiled_engine(trace: Trace, config: CoreConfig, *, obs=None):
    if obs is not None:
        # observability requires the per-cycle probe points; identical
        # results either way, the compiled path is purely a speedup
        return CoreSimulator(trace, config, obs=obs)
    from .compiled import CompiledSimulator   # lazy: breaks the cycle
    return CompiledSimulator(trace, config)


ENGINES.register("reference", CoreSimulator)
ENGINES.register("compiled", _compiled_engine)
