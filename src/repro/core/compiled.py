"""Compiled timing backend: columnar replay of a lowered trace.

:class:`CompiledSimulator` replays a :class:`~repro.core.lower.LoweredTrace`
through the same pipeline semantics as
:class:`~repro.core.cpu.CoreSimulator` — same commit / schedule /
dispatch / fetch order, same wakeup and FU-reservation rules, same
predictors, same adaptive-threshold controller — but with every per-uop
object replaced by flat parallel lists indexed by sequence number and
every helper call inlined into one closure nest whose state lives in
fast locals/cells.  The ROB and fetch queue collapse to three integer
pointers (``commit <= dispatch <= fetch``) over the trace order, so an
entry has committed exactly when its seq is below the commit pointer;
rename, memory disambiguation and static decode were already done once
by the lowering pass.

Each FU class's ready lane is a seq-keyed heap with lazy deletion:
wakeup pushes, and select pops stale heads (entries that issued or
replayed since they were pushed) and every head it issues or replays,
so the select stage only ever examines live requests.

Everything that does not depend on the replay state is computed ahead
of time as plain-list columns:

* **entry columns** — predictor hash columns (``pc % 4096`` for the
  width predictor, ``pc % 1024`` for the last-arrival predictor), a
  **branch-resolution column** (fetch trains the gshare predictor
  strictly in trace order, whatever the timing does, so every
  conditional branch's mispredict bit is a pure function of the trace
  and the replay's fetch stage never touches a predictor table) and a
  **fetch-stop column** (the next branch at or after each entry that
  fetch must look at: a taken or mispredicted one); they read no
  config, so they are memoized on the lowered trace;
* **decode columns** — transparency, latency, static EX-TIME, width
  buckets, the width-resolved actual EX-TIME and the Fig. 10
  operation-distribution bucket per entry, built once per run from the
  static decode table (:func:`~repro.core.slack_lut.decode_static`,
  one row per static instruction) and gathered per entry; since every
  entry commits exactly once, the run's distribution is that column's
  histogram, with the memory ops that missed L1 moved from MEM-LL to
  MEM-HL;
* **slack LUT / tick base** — read-only after construction and shared
  process-wide per (ticks, tech, PVT) instead of rebuilt per run
  (:func:`~repro.core.slack_lut.shared_lut`).

What remains per run is the serializing replay of the machine itself —
wakeup/select, FU reservation, ROB/RS/LSQ occupancy, the width/
last-arrival predictors and the adaptive threshold controller, whose
table state is timing-dependent.

The engine is **cycle-identical** to the reference model by
construction and by CI: the backend-equivalence matrix runs
``--exact-cycles`` per engine, the lowering and engine unit tests
compare full ``SimStats`` records (also over one-field config
variants), and ``repro.verify`` cross-fuzzes the engines nightly.
Anything observability-related is absent on purpose — the engine
registry routes traced runs to the reference backend.

Correctness-critical deviations from a naive transcription (each proven
equivalent in :mod:`repro.core.lower`'s notes and pinned by tests):

* static producer lists are filtered for commit-liveness *at dispatch
  time* (before the watched-tag arity decision, which counts live
  sources only);
* static ``dependents`` lists include not-yet-dispatched consumers, so
  the GP-candidate walk stops at the dispatch pointer; wakeup walks
  per-tag watcher lists instead, which dispatch (and a replay) append
  an entry to for every tag it awaits, with a per-entry count of the
  tags still awaited — the order of a wake bucket is immaterial, since
  ready lanes are heaps keyed on seq;
* a load's static ``order_dep`` may already have committed where the
  dynamic model would have found no in-flight store — every use of a
  committed (hence issued) store is a no-op;
* an opaque uop's avail tick is recorded as its sync tick: the model
  reads a producer's un-quantised avail tick only when both it and its
  consumer are transparent, so a consumer need not test the producer.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import compress
from typing import List, Optional

from repro.analysis.stats import HIGH_SLACK_FRACTION, SimStats
from repro.isa.opcodes import OpClass
from repro.isa.semantics import width_bucket
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.trace import Trace
from repro.pipeline.uop import OPCLASS_INDEX

from .config import (
    CoreConfig,
    EAGER_SPARE_UNITS,
    MISPREDICT_PENALTY,
    RecycleMode,
    REPLAY_PENALTY,
    SchedulerDesign,
    TAKEN_BRANCHES_PER_CYCLE,
    THRESHOLD_WINDOW,
)
from .lower import LoweredTrace, lower_trace
from .slack_lut import SlackLUT, decode_static, shared_lut

_I_ALU = OPCLASS_INDEX[OpClass.ALU]
_I_SIMD = OPCLASS_INDEX[OpClass.SIMD]
_I_MUL = OPCLASS_INDEX[OpClass.MUL]
_I_DIV = OPCLASS_INDEX[OpClass.DIV]
_I_FP = OPCLASS_INDEX[OpClass.FP]
_I_LOAD = OPCLASS_INDEX[OpClass.LOAD]
_I_STORE = OPCLASS_INDEX[OpClass.STORE]
_I_BRANCH = OPCLASS_INDEX[OpClass.BRANCH]
_I_NOP = OPCLASS_INDEX[OpClass.NOP]
_I_HALT = OPCLASS_INDEX[OpClass.HALT]

#: select-lane order — the ExecutionResources pools insertion order
_LANE_ORDER = (_I_ALU, _I_SIMD, _I_FP, _I_LOAD, _I_STORE, _I_MUL,
               _I_DIV, _I_BRANCH)

_WIDTH_CLASSES = (8, 16, 24, 32)

#: operation-distribution buckets (Fig. 10 classes, in ``_BUCKET_NAMES``
#: order); every memory op sits in MEM-LL, and the replay moves one to
#: MEM-HL when the hierarchy reports it missed L1
_B_NONE, _B_MEM_LL, _B_MEM_HL, _B_SIMD, _B_MULTI, _B_ALU_LS, _B_ALU_HS = \
    range(7)
_BUCKET_NAMES = (None, "MEM-LL", "MEM-HL", "SIMD", "OtherMulti", "ALU-LS",
                 "ALU-HS")
_CLASS_BUCKET = {_I_LOAD: _B_MEM_LL, _I_STORE: _B_MEM_LL,
                 _I_SIMD: _B_SIMD, _I_MUL: _B_MULTI, _I_DIV: _B_MULTI,
                 _I_FP: _B_MULTI}


# ---------------------------------------------------------------------
# per-trace columnar precompute
# ---------------------------------------------------------------------


class _EntryColumns:
    """Config-independent columns derived from one lowered trace."""

    __slots__ = ("phash", "lhash", "misp", "stops", "classes", "br_n",
                 "br_wrong")

    def __init__(self, low: LoweredTrace) -> None:
        pcs = low.pc
        self.phash = [pc % 4096 for pc in pcs]
        self.lhash = [pc % 1024 for pc in pcs]
        # gshare resolution column: fetch trains the branch predictor
        # strictly in trace order (its state never depends on timing),
        # so every conditional branch's mispredict bit is a pure
        # function of the trace and resolves ahead of the replay
        misp = [0] * low.n
        counters = [2] * 4096
        hist = 0
        wrong = 0
        takens = low.taken
        sites = [i for i, b in enumerate(low.is_cond_branch) if b]
        for i in sites:
            t = takens[i]
            g = (pcs[i] ^ hist) % 4096
            c = counters[g]
            if t:
                if c < 3:
                    counters[g] = c + 1
            elif c > 0:
                counters[g] = c - 1
            hist = ((hist << 1) | t) & 4095
            if (c >= 2) != bool(t):
                misp[i] = 1
                wrong += 1
        self.misp = misp
        self.br_n = len(sites)
        self.br_wrong = wrong
        # fetch-stop column: the first entry at or after each seq that
        # ends a fetch group or counts against the taken-branch budget
        # (a taken or mispredicted branch); n past the last one
        n = low.n
        stops = [n] * n
        lo = 0
        for j in compress(range(n), map(_I_BRANCH.__eq__, low.cls_idx)):
            if misp[j] or takens[j]:
                stops[lo:j + 1] = [j] * (j + 1 - lo)
                lo = j + 1
        self.stops = stops
        self.classes = frozenset(low.cls_idx)


class _DecodeColumns:
    """Per-run decode columns of one lowered trace under one config;
    ``ex`` is mutated in place by the run's width prediction."""

    __slots__ = ("transp", "lat", "ex", "arith", "wb", "actual_ex",
                 "s_exwc", "bucket")

    def __init__(self, low: LoweredTrace, config: CoreConfig,
                 lut: SlackLUT, tpc: int) -> None:
        # per-static-instruction tables (the small dimension) ...
        transparent = config.mode is not RecycleMode.BASELINE
        table = [decode_static(instr, transparent, lut, tpc)
                 for instr in low.instrs]
        self.s_exwc: List[Optional[tuple]] = [
            tuple(lut.ex_time(instr, w) for w in _WIDTH_CLASSES)
            if row[3] else None
            for instr, row in zip(low.instrs, table)]
        s_bucket = [_alu_bucket(row[2], tpc)
                    if instr.cls is OpClass.ALU
                    else _CLASS_BUCKET.get(OPCLASS_INDEX[instr.cls],
                                           _B_NONE)
                    for instr, row in zip(low.instrs, table)]
        # ... gathered into per-entry columns
        sidx = low.static_idx
        self.transp = _gather([row[0] for row in table], sidx)
        self.lat = _gather([row[1] for row in table], sidx)
        ex = self.ex = _gather([row[2] for row in table], sidx)
        arith = self.arith = _gather([row[3] for row in table], sidx)
        bucket = self.bucket = _gather(s_bucket, sidx)
        wb = self.wb = [0] * low.n
        actual_ex = self.actual_ex = ex[:]
        widths = low.op_width
        s_exwc = self.s_exwc
        for i in compress(range(low.n), arith):
            b = width_bucket(widths[i])
            wb[i] = b
            x = actual_ex[i] = s_exwc[sidx[i]][(b >> 3) - 1]
            bucket[i] = _alu_bucket(x, tpc)


def _gather(values: list, sidx: List[int]) -> list:
    """``[values[s] for s in sidx]``, without a bytecode per entry."""
    return list(map(values.__getitem__, sidx))


def _alu_bucket(ex_time: int, tpc: int) -> int:
    """ALU-HS when the op leaves more than the high-slack fraction of a
    cycle unused, else ALU-LS."""
    return (_B_ALU_HS if 1.0 - ex_time / tpc > HIGH_SLACK_FRACTION
            else _B_ALU_LS)


def _entry_columns(low: LoweredTrace) -> _EntryColumns:
    cols = getattr(low, "_columns", None)
    if cols is None:
        cols = low._columns = _EntryColumns(low)
    return cols


# ---------------------------------------------------------------------
# the replay engine
# ---------------------------------------------------------------------


class CompiledSimulator:
    """One compiled-backend run over one trace (single-use object)."""

    def __init__(self, trace: Trace, config: CoreConfig) -> None:
        self.trace = trace
        self.config = config

    # The whole replay is one closure nest on purpose: every piece of
    # mutable state is a closure cell, every constant a local, and the
    # per-issue critical path runs without a single attribute lookup.
    def run(self):                                      # noqa: C901
        from .cpu import SimResult

        trace = self.trace
        config = self.config
        low: LoweredTrace = lower_trace(trace)
        n = low.n

        base, lut = shared_lut(config)
        mem = MemoryHierarchy(config.memory)
        load_latency = mem.load_latency
        store_latency = mem.store_latency

        # -- baked constants (config and machine) ----------------------
        TPC = base.ticks_per_cycle
        FRONT = config.front_width
        QUEUE_CAP = 2 * FRONT
        ROB_SIZE = config.rob_size
        RSE_SIZE = config.rse_size
        LSQ_SIZE = config.lsq_size
        MISPRED_PEN = MISPREDICT_PENALTY
        REPLAY_PEN = REPLAY_PENALTY
        TAKEN_PER_CYCLE = TAKEN_BRANCHES_PER_CYCLE
        L1_LAT = config.memory.l1_latency
        IS_MOS = config.mode is RecycleMode.MOS
        DO_GP = (config.mode is not RecycleMode.BASELINE
                 and config.eager_issue)
        SPARE = EAGER_SPARE_UNITS
        ADAPTIVE = (config.adaptive_threshold
                    and config.mode is RecycleMode.REDSOC)
        WINDOW = THRESHOLD_WINDOW
        WATCH_ALL = (config.mode is RecycleMode.BASELINE
                     or config.scheduler is SchedulerDesign.ILLUSTRATIVE)

        # -- columnar precompute ---------------------------------------
        cols = _entry_columns(low)
        decode = _DecodeColumns(low, config, lut, TPC)

        sidx = low.static_idx
        pcs = low.pc
        addrs = low.mem_addr
        sizes = low.mem_size
        clsi = low.cls_idx
        stores_f = low.is_store
        odeps = low.order_dep
        misp = cols.misp
        stops = cols.stops
        phash = cols.phash
        lhash = cols.lhash
        producers = low.producers
        dependents = low.dependents

        s_exwc = decode.s_exwc
        transp = decode.transp
        lat = decode.lat
        arith = decode.arith
        wb = decode.wb
        actual_ex = decode.actual_ex
        bucket = decode.bucket
        ex = decode.ex            # mutated by width prediction

        # -- per-seq dynamic state -------------------------------------
        # an entry has issued once issue_c >= 0 and committed once its
        # seq is below C; avail_t holds sync_t for opaque uops
        in_ready = bytearray(n)
        replayed = bytearray(n)
        la_app = bytearray(n)
        sec_pred = bytearray(n)
        issue_c = [-1] * n
        done_c = [-1] * n
        eligible = [-1] * n
        start_t = [0] * n
        avail_t = [0] * n
        sync_t = [0] * n
        pred_w = [32] * n
        chain = [-1] * n
        srcs = [()] * n               # live producers, set at dispatch
        watchers = [None] * n         # per tag: the entries awaiting it
        pending = bytearray(n)        # per entry: tags still awaited

        # -- machine state ---------------------------------------------
        C = 0                         # ROB head (next to commit)
        D = 0                         # next to dispatch (ROB tail + 1)
        F = 0                         # next to fetch
        rs_used = 0
        lsq_used = 0
        fetch_resume = 0
        blocked = -1                  # seq fetch is blocked on (-1 none)
        live_stores = []              # issued, uncommitted store seqs

        # ready lanes: one seq-keyed heap per class, lazily deleted (an
        # entry is live while in_ready; stale copies pop at the head)
        queues = [[] for _ in range(len(OPCLASS_INDEX))]
        live_total = 0
        wake_at = {}
        wake_heap = []

        # FU pools: per-class busy dicts with baked unit counts
        counts = [0] * len(OPCLASS_INDEX)
        counts[_I_ALU] = config.alu_units
        counts[_I_SIMD] = config.simd_units
        counts[_I_FP] = config.fp_units
        counts[_I_LOAD] = config.mem_ports
        counts[_I_STORE] = config.mem_ports
        counts[_I_MUL] = config.complex_units
        counts[_I_DIV] = config.complex_units
        counts[_I_BRANCH] = config.branch_units
        busies = [{} for _ in range(len(OPCLASS_INDEX))]
        # a class the trace never holds can never have a ready entry
        lanes = tuple((counts[idx], busies[idx], queues[idx])
                      for idx in _LANE_ORDER if idx in cols.classes)

        # width / last-arrival predictors as plain tables (the gshare
        # front end is gone: `misp` resolved it per entry already)
        w_class = [32] * 4096
        w_conf = [0] * 4096
        w_lookups = w_exact = w_aggr = 0
        la_tab = [True] * 1024
        la_n = la_wrong = 0

        # transparent-sequence chains
        chain_len = []

        # adaptive-threshold controller
        threshold = config.slack_threshold
        probe_plan = []
        probe_results = []
        window_start_committed = 0
        exploit_left = 0

        # stats counters
        st_fu_stall = 0
        st_dispatch_stall = 0
        st_recycled = 0
        st_eager = 0
        st_holds = 0
        st_la_replays = 0
        st_width_replays = 0
        st_mem_hl = 0                 # memory ops that missed L1

        # ---------------------------------------------------------------
        # wakeup plumbing
        # ---------------------------------------------------------------

        def schedule_wake(s, c):
            b = wake_at.get(c)
            if b is None:
                wake_at[c] = [s]
                heappush(wake_heap, c)
            else:
                b.append(s)

        def advance_to(cycle):
            nonlocal live_total
            while wake_heap and wake_heap[0] <= cycle:
                for s in wake_at.pop(heappop(wake_heap)):
                    if in_ready[s] or issue_c[s] >= 0:
                        continue
                    heappush(queues[clsi[s]], s)
                    in_ready[s] = 1
                    live_total += 1

        def remove_ready(s):
            nonlocal live_total
            if in_ready[s]:
                in_ready[s] = 0
                live_total -= 1

        # ---------------------------------------------------------------
        # issue
        # ---------------------------------------------------------------

        def try_issue(s, cycle, eager):
            """0 = issued, 1 = stall, 2 = replayed."""
            nonlocal st_la_replays, st_width_replays, st_mem_hl, w_lookups, \
                w_exact, w_aggr, la_n, la_wrong, rs_used, fetch_resume, \
                blocked, st_holds, st_eager, st_recycled, live_total
            arrival = cycle + lat[s]
            ci = clsi[s]
            busy = busies[ci]
            cnt = counts[ci]
            t = transp[s]

            # one pass over the sources: the unissued producers, and the
            # latest avail tick of the issued, uncommitted ones (a
            # committed producer has issued, so issue_c alone decides)
            unissued = None
            source_avail = 0
            for p in srcs[s]:
                if issue_c[p] < 0:
                    if unissued is None:
                        unissued = [p]
                    else:
                        unissued.append(p)
                elif p >= C:
                    a = avail_t[p] if t else sync_t[p]
                    if a > source_avail:
                        source_avail = a
            if ci == _I_LOAD:
                od = odeps[s]
                if od >= 0 and issue_c[od] < 0:
                    if unissued is None:
                        unissued = [od]
                    else:
                        unissued.append(od)
            if unissued is not None:
                # woke off the wrong (predicted-last) tag: reissue later
                replayed[s] = 1
                if la_app[s]:
                    st_la_replays += 1
                for p in unissued:
                    wl = watchers[p]
                    if wl is None:
                        watchers[p] = [s]
                    else:
                        wl.append(s)
                pending[s] = len(unissued)
                eligible[s] = cycle + 1
                remove_ready(s)
                nb = busy.get(arrival, 0)       # the grant burnt a slot
                if nb < cnt:
                    busy[arrival] = nb + 1
                return 2

            if ci == _I_LOAD:
                nb = busy.get(arrival, 0)
                if nb >= cnt:
                    return 1
                busy[arrival] = nb + 1
                # a load is never transparent: source_avail is the
                # latest sync tick of its address operands
                addr_cycle = (source_avail + TPC - 1) // TPC
                if addr_cycle < arrival:
                    addr_cycle = arrival
                latency_m = load_latency(addrs[s], pcs[s])
                if latency_m > L1_LAT:
                    st_mem_hl += 1
                lo = addrs[s]
                hi = lo + sizes[s]
                fwd = -1
                for f in reversed(live_stores):
                    if f > s:
                        continue
                    s_lo = addrs[f]
                    if s_lo < hi and lo < s_lo + sizes[f]:
                        fwd = f
                        break
                if fwd >= 0:
                    dc = done_c[fwd]
                    data_cycle = (dc if dc > 0 else 0) + 1
                    if data_cycle < addr_cycle + 1:
                        data_cycle = addr_cycle + 1
                else:
                    data_cycle = addr_cycle + latency_m
                start = addr_cycle * TPC
                avail = sync = data_cycle * TPC
                extra = recycled = False
            elif ci == _I_STORE:
                nb = busy.get(arrival, 0)
                if nb >= cnt:
                    return 1
                busy[arrival] = nb + 1
                start = avail = sync = arrival * TPC
                extra = recycled = False
                live_stores.append(s)
            else:
                # generic FU path (ALU / SIMD / MUL / DIV / FP / BRANCH)
                cycle_start = arrival * TPC
                if t:
                    start = (source_avail if source_avail > cycle_start
                             else cycle_start)
                else:
                    edge = ((source_avail + TPC - 1) // TPC) * TPC
                    start = edge if edge > cycle_start else cycle_start
                ext = ex[s]
                end = start + ext
                occupy = start // TPC
                sync = ((end + TPC - 1) // TPC) * TPC
                extra = end > (occupy + 1) * TPC
                recycled = start % TPC != 0
                if IS_MOS and recycled and extra:
                    # MOS cannot cross a clock edge: normal edge start
                    edge = ((source_avail + TPC - 1) // TPC) * TPC
                    start = edge if edge > cycle_start else cycle_start
                    end = start + ext
                    occupy = start // TPC
                    sync = ((end + TPC - 1) // TPC) * TPC
                    extra = end > (occupy + 1) * TPC
                    recycled = start % TPC != 0

                if start >= cycle_start + TPC:
                    # an unwatched, issued operand lands after our window
                    replayed[s] = 1
                    if la_app[s]:
                        st_la_replays += 1
                    remove_ready(s)
                    wk = source_avail // TPC - 1
                    nxt = cycle + 1
                    schedule_wake(s, wk if wk > nxt else nxt)
                    nb = busy.get(arrival, 0)
                    if nb < cnt:
                        busy[arrival] = nb + 1
                    return 2

                if wb[s] > pred_w[s]:
                    # aggressive width mispredict (wb is 0 for a uop without
                    # width prediction): conservative re-execution
                    arr2 = arrival + REPLAY_PEN
                    cs2 = arr2 * TPC
                    edge = ((source_avail + TPC - 1) // TPC) * TPC
                    start = edge if edge > cs2 else cs2
                    end = start + actual_ex[s]
                    occupy = start // TPC
                    sync = ((end + TPC - 1) // TPC) * TPC
                    extra = end > (occupy + 1) * TPC
                    recycled = start % TPC != 0
                    st_width_replays += 1

                if extra and (busy.get(occupy, 0) >= cnt
                              or busy.get(occupy + 1, 0) >= cnt):
                    # 2-cycle hold unaffordable: opaque edge-aligned start
                    cs2 = arrival * TPC
                    edge = ((source_avail + TPC - 1) // TPC) * TPC
                    start = edge if edge > cs2 else cs2
                    end = start + ext
                    occupy = start // TPC
                    sync = ((end + TPC - 1) // TPC) * TPC
                    extra = end > (occupy + 1) * TPC
                    recycled = start % TPC != 0
                nb = busy.get(occupy, 0)
                if nb >= cnt:
                    return 1
                if extra:
                    mb = busy.get(occupy + 1, 0)
                    if mb >= cnt:
                        return 1
                    busy[occupy + 1] = mb + 1
                busy[occupy] = nb + 1

                # train the width and last-arrival predictors
                if arith[s]:
                    w_lookups += 1
                    actual = wb[s]
                    predicted = pred_w[s]
                    if predicted == actual:
                        w_exact += 1
                    elif predicted < actual:
                        w_aggr += 1
                    e = phash[s]
                    if w_class[e] == actual:
                        c = w_conf[e] + 1
                        w_conf[e] = c if c < 3 else 3
                    else:
                        w_class[e] = actual
                        w_conf[e] = 0
                if la_app[s]:
                    ss = srcs[s]        # two live sources, see dispatch
                    la_n += 1
                    c1 = issue_c[ss[0]]
                    c2 = issue_c[ss[1]]
                    if c1 != c2:
                        second_last = c2 > c1
                        if bool(sec_pred[s]) != second_last:
                            la_wrong += 1
                        la_tab[lhash[s]] = second_last
                avail = end if t else sync

            # the uop issues: record its window, extend its transparent
            # chain, free its RS entry and wake the entries awaiting it
            issue_c[s] = cycle
            start_t[s] = start
            avail_t[s] = avail
            sync_t[s] = sync
            done_c[s] = sync // TPC
            if extra:
                st_holds += 1
            if eager:
                st_eager += 1
            if t:
                if recycled:
                    st_recycled += 1
                    pid = -1
                    for p in srcs[s]:
                        if transp[p] and avail_t[p] == start:
                            pid = chain[p]
                            break
                    if pid >= 0:
                        chain_len[pid] += 1
                        chain[s] = pid
                    else:
                        chain_len.append(1)
                        chain[s] = len(chain_len) - 1
                else:
                    chain_len.append(1)
                    chain[s] = len(chain_len) - 1
            rs_used -= 1
            if in_ready[s]:
                in_ready[s] = 0
                live_total -= 1
            if s == blocked:
                fetch_resume = cycle + lat[s] + MISPRED_PEN
                blocked = -1
            # wake the entries awaiting this tag (eligible is set for
            # every dispatched entry, and a wake is never before floor)
            wl = watchers[s]
            if wl is None:
                return 0
            floor = cycle + 1
            for d in wl:
                a = avail if transp[d] else sync
                wk = a // TPC - lat[d]
                if wk < floor:
                    wk = floor
                e = eligible[d]
                if wk > e:
                    eligible[d] = e = wk
                left = pending[d] - 1
                pending[d] = left
                if not left:
                    b = wake_at.get(e)
                    if b is None:
                        wake_at[e] = [d]
                        heappush(wake_heap, e)
                    else:
                        b.append(d)
            return 0

        # ---------------------------------------------------------------
        # schedule (select lanes + eager-grandparent phase)
        # ---------------------------------------------------------------

        def gp_candidates(cycle, issued_now):
            seen = set()
            candidates = []
            for parent in issued_now:
                if not transp[parent] or replayed[parent]:
                    continue
                p_end = avail_t[parent]     # a transparent uop's end tick
                arrival_end = (start_t[parent] // TPC + 1) * TPC
                if p_end >= arrival_end:
                    continue
                ci_ticks = p_end % TPC
                p_lat = lat[parent]
                for child in dependents[parent]:
                    if child >= D:
                        break
                    if (child in seen or issue_c[child] >= 0
                            or not transp[child] or lat[child] != p_lat):
                        continue
                    if IS_MOS:
                        if p_end + ex[child] > arrival_end:
                            continue
                    elif ci_ticks > threshold:
                        continue
                    deadline = (cycle + lat[child] + 1) * TPC
                    ok = True
                    for p in srcs[child]:
                        if p < C:
                            continue
                        if issue_c[p] < 0 or avail_t[p] >= deadline:
                            ok = False
                            break
                    if not ok:
                        continue
                    seen.add(child)
                    candidates.append(child)
            candidates.sort()
            return candidates

        def schedule(cycle):
            nonlocal st_fu_stall
            issued_now = []
            stalled = False
            for cnt, busy, q in lanes:
                while q:
                    s = q[0]
                    if not in_ready[s]:
                        heappop(q)          # issued or replayed since
                        continue
                    if cnt <= busy.get(cycle + lat[s], 0):
                        stalled = True
                        break
                    r = try_issue(s, cycle, False)
                    if r == 1:
                        stalled = True
                        break
                    heappop(q)
                    if not r:
                        issued_now.append(s)
            if DO_GP and issued_now:
                for child in gp_candidates(cycle, issued_now):
                    idx = clsi[child]
                    busy = busies[idx]
                    cnt = counts[idx]
                    if (cnt - busy.get(cycle + 1, 0) <= SPARE
                            or cnt - busy.get(cycle + 2, 0) <= SPARE):
                        continue
                    try_issue(child, cycle, True)
            if stalled:
                st_fu_stall += 1

        # ---------------------------------------------------------------
        # dispatch (rename/allocate — decode was hoisted into lowering)
        # ---------------------------------------------------------------

        def dispatch(cycle):
            nonlocal D, rs_used, lsq_used, st_dispatch_stall
            # up to FRONT fetched entries, in order, from D
            i = D
            end = i + FRONT
            if end > F:
                end = F
            rob_end = C + ROB_SIZE
            stalled = False
            nxt = cycle + 1
            while i < end:
                if i >= rob_end:
                    stalled = True
                    break
                ci = clsi[i]
                if ci == _I_NOP or ci == _I_HALT:
                    issue_c[i] = cycle      # no sources: done at once
                    done_c[i] = cycle
                    i += 1
                    continue
                if rs_used >= RSE_SIZE:
                    stalled = True
                    break
                if (ci == _I_LOAD or ci == _I_STORE) \
                        and lsq_used >= LSQ_SIZE:
                    stalled = True
                    break
                rs_used += 1

                if arith[i]:
                    e = phash[i]
                    p_w = w_class[e] if w_conf[e] >= 3 else 32
                    pred_w[i] = p_w
                    ex[i] = s_exwc[sidx[i]][(p_w >> 3) - 1]

                live = producers[i]
                for p in live:
                    if p < C:               # drop the committed ones
                        live = [q for q in live if q >= C]
                        break
                srcs[i] = live

                if ci == _I_LOAD or ci == _I_STORE:
                    lsq_used += 1

                t = transp[i]
                if WATCH_ALL or not t or len(live) != 2:
                    watched = live
                else:
                    sp = la_tab[lhash[i]]
                    la_app[i] = 1
                    sec_pred[i] = 1 if sp else 0
                    watched = (live[1],) if sp else (live[0],)

                # one pass over the watched tags: the unissued ones are
                # awaited, the issued ones bound the wake cycle
                awaited = 0
                wake = nxt
                li = lat[i]
                for p in watched:
                    pi = issue_c[p]
                    if pi < 0:
                        wl = watchers[p]
                        if wl is None:
                            watchers[p] = [i]
                        else:
                            wl.append(i)
                        awaited += 1
                    else:
                        a = avail_t[p] if t else sync_t[p]
                        w2 = a // TPC - li
                        if w2 <= pi:
                            w2 = pi + 1
                        if w2 > wake:
                            wake = w2
                od = odeps[i]
                if od >= 0:
                    pi = issue_c[od]
                    if pi < 0:
                        wl = watchers[od]
                        if wl is None:
                            watchers[od] = [i]
                        else:
                            wl.append(i)
                        awaited += 1
                    else:
                        w2 = sync_t[od] // TPC - li
                        if w2 <= pi:
                            w2 = pi + 1
                        if w2 > wake:
                            wake = w2
                eligible[i] = wake
                if awaited:
                    pending[i] = awaited
                else:
                    b = wake_at.get(wake)
                    if b is None:
                        wake_at[wake] = [i]
                        heappush(wake_heap, wake)
                    else:
                        b.append(i)
                i += 1
            D = i
            if stalled:
                st_dispatch_stall += 1

        # ---------------------------------------------------------------
        # fetch — gshare already resolved into the `misp` column
        # ---------------------------------------------------------------

        def fetch(cycle):
            nonlocal F, blocked
            end = F + FRONT
            if end > n:
                end = n
            if end > D + QUEUE_CAP:
                end = D + QUEUE_CAP
            taken_seen = 0
            while F < end:
                j = stops[F]                # next taken/mispredicted branch
                if j >= end:
                    F = end
                    return
                F = j + 1
                if misp[j]:
                    blocked = j
                    return
                taken_seen += 1
                if taken_seen > TAKEN_PER_CYCLE:
                    return

        # ---------------------------------------------------------------
        # commit
        # ---------------------------------------------------------------

        def commit(cycle):
            nonlocal C, lsq_used, st_mem_hl
            # between C and D an entry has issued exactly when done_c is
            # set, so done_c alone says whether the head may retire
            c = C
            end = c + FRONT
            if end > D:
                end = D
            while c < end:
                dc = done_c[c]
                if dc < 0 or dc > cycle:
                    break
                if bucket[c] == _B_MEM_LL:      # a load or a store
                    lsq_used -= 1
                    if stores_f[c]:
                        live_stores.remove(c)
                        if store_latency(addrs[c], pcs[c]) > L1_LAT:
                            st_mem_hl += 1
                c += 1
            C = c

        # ---------------------------------------------------------------
        # adaptive-threshold controller
        # ---------------------------------------------------------------

        def adapt_threshold():
            nonlocal threshold, window_start_committed, exploit_left, \
                probe_plan, probe_results
            done = C - window_start_committed
            window_start_committed = C
            probe_results.append((done, threshold))
            if probe_plan:
                threshold = probe_plan.pop(0)
                return
            if len(probe_results) > 1:
                threshold = max(probe_results)[1]
                probe_results = []
                exploit_left = 20
                return
            probe_results = []
            exploit_left -= 1
            if exploit_left <= 0:
                grid = sorted({0, TPC // 4, TPC // 2, 3 * TPC // 4,
                               TPC - 1})
                probe_plan = [t for t in grid if t != threshold]
                probe_results = [(done, threshold)]
                threshold = probe_plan.pop(0)

        # ---------------------------------------------------------------
        # main event-driven loop
        # ---------------------------------------------------------------

        limit = 200 * n + 100_000
        cycle = 0
        while C < n:
            if wake_heap and wake_heap[0] <= cycle:
                advance_to(cycle)
            if C < D:
                commit(cycle)
            if live_total:
                schedule(cycle)
            if F > D:
                dispatch(cycle)
            if (blocked < 0 and cycle >= fetch_resume and F < n
                    and F - D < QUEUE_CAP):
                fetch(cycle)
            if cycle and not cycle & 4095:
                for busy in busies:
                    for c in [c for c in busy if c < cycle]:
                        del busy[c]
            if ADAPTIVE and cycle and not cycle % WINDOW:
                adapt_threshold()
            cycle += 1
            if cycle > limit:
                raise RuntimeError(
                    f"simulation wedged: {C}/{n} committed "
                    f"after {cycle} cycles (trace {trace.name!r})")
            if C >= n:
                break

            # -- skip-ahead: is the machine provably idle at `cycle`? --
            if live_total:
                continue
            head_done = None
            if C < D:
                hd = done_c[C]
                if hd >= 0:
                    if hd <= cycle:
                        continue
                    head_done = hd
            can_fetch = (blocked < 0 and F < n and F - D < QUEUE_CAP)
            if can_fetch and fetch_resume <= cycle:
                continue
            if F > D:
                ci = clsi[D]
                if not (D - C >= ROB_SIZE
                        or (ci != _I_NOP and ci != _I_HALT
                            and rs_used >= RSE_SIZE)
                        or ((ci == _I_LOAD or ci == _I_STORE)
                            and lsq_used >= LSQ_SIZE)):
                    continue
            target = wake_heap[0] if wake_heap else None
            if head_done is not None and (target is None
                                          or head_done < target):
                target = head_done
            if can_fetch and (target is None or fetch_resume < target):
                target = fetch_resume
            if target is None or target <= cycle:
                continue
            if ADAPTIVE:
                rem = cycle % WINDOW
                boundary = cycle - rem + (WINDOW if rem or not cycle
                                          else 0)
                if boundary < target:
                    target = boundary
            rem = cycle & 4095
            boundary = cycle - rem + (4096 if rem or not cycle else 0)
            if boundary < target:
                target = boundary
            if target > cycle:
                if F > D:
                    st_dispatch_stall += target - cycle
                cycle = target

        # ---------------------------------------------------------------
        # finalize (mirrors CoreSimulator._finalize)
        # ---------------------------------------------------------------

        stats = SimStats()
        stats.cycles = cycle          # every cycle stepped or skipped
        stats.committed = C
        stats.recycled_ops = st_recycled
        stats.eager_issues = st_eager
        stats.two_cycle_holds = st_holds
        stats.fu_stall_cycles = st_fu_stall
        stats.dispatch_stall_cycles = st_dispatch_stall
        stats.la_replays = st_la_replays
        stats.width_replays = st_width_replays
        # every entry commits exactly once: the Fig. 10 distribution is
        # the bucket column's histogram, memory ops split by L1 outcome
        dist_n = list(map(bucket.count, range(len(_BUCKET_NAMES))))
        dist_n[_B_MEM_LL] -= st_mem_hl
        dist_n[_B_MEM_HL] = st_mem_hl
        stats.distribution.counts.update(zip(_BUCKET_NAMES[1:],
                                             dist_n[1:]))

        stats.width_aggressive_rate = (w_aggr / w_lookups if w_lookups
                                       else 0.0)
        stats.width_accuracy = w_exact / w_lookups if w_lookups else 0.0
        stats.la_misprediction_rate = la_wrong / la_n if la_n else 0.0
        stats.la_predictions = la_n
        stats.la_mispredictions = la_wrong
        total_len = sum(chain_len)
        stats.seq_expected_length = (
            sum(x * x for x in chain_len) / total_len if total_len
            else 0.0)
        stats.seq_mean_length = (total_len / len(chain_len) if chain_len
                                 else 0.0)
        stats.num_sequences = len(chain_len)
        stats.branches = cols.br_n
        stats.branch_mispredicts = cols.br_wrong
        return SimResult(name=trace.name, config=config, stats=stats)


__all__ = ["CompiledSimulator"]
