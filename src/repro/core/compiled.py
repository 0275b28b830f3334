"""Compiled timing backend: columnar replay of a lowered trace.

:class:`CompiledSimulator` replays a :class:`~repro.core.lower.LoweredTrace`
through the same pipeline semantics as
:class:`~repro.core.cpu.CoreSimulator` — same commit / schedule /
dispatch / fetch order, same wakeup and FU-reservation rules, same
predictors, same adaptive-threshold controller — but with every per-uop
object replaced by flat parallel lists indexed by sequence number and
every helper call inlined into one closure nest whose state lives in
fast locals/cells.  The ROB and fetch queue collapse to three integer
pointers (``commit <= dispatch <= fetch``) over the trace order; rename,
memory disambiguation and static decode were already done once by the
lowering pass.

Everything that does not depend on the replay state is computed ahead
of time as plain-list columns and memoized on the lowered trace:

* **entry columns** — predictor hash columns (``pc % 4096`` for the
  width predictor, ``pc % 1024`` for the last-arrival predictor) and a
  **branch-resolution column**: fetch trains the gshare predictor
  strictly in trace order, whatever the timing does, so every
  conditional branch's mispredict bit is a pure function of the trace
  and the replay's fetch stage never touches a predictor table;
* **decode columns** — transparency, latency, static EX-TIME, width
  buckets and the width-resolved actual EX-TIME per entry, keyed by the
  slice of the config decode reads (:func:`_decode_key`), so a
  cores × modes sweep shares them wherever they are provably identical
  (REDSOC and MOS decode the same columns; only BASELINE differs);
* **slack LUT / tick base** — read-only after construction and shared
  process-wide per (ticks, tech, PVT) instead of rebuilt per run.

What remains per run is the serializing replay of the machine itself —
wakeup/select, FU reservation, ROB/RS/LSQ occupancy, the width/
last-arrival predictors and the adaptive threshold controller, whose
table state is timing-dependent.

The engine is **cycle-identical** to the reference model by
construction and by CI: the backend-equivalence matrix runs
``--exact-cycles`` per engine, the lowering and engine unit tests
compare full ``SimStats`` records, and ``repro.verify`` cross-fuzzes
the engines nightly.  Anything observability-related is absent on
purpose — the engine registry routes traced runs to the reference
backend.

Correctness-critical deviations from a naive transcription (each proven
equivalent in :mod:`repro.core.lower`'s notes and pinned by tests):

* static producer lists are filtered for commit-liveness *at dispatch
  time* (before the watched-tag arity decision, which counts live
  sources only);
* static ``dependents`` lists include not-yet-dispatched consumers, so
  the notify and GP-candidate walks stop at the dispatch pointer;
* a load's static ``order_dep`` may already have committed where the
  dynamic model would have found no in-flight store — every use of a
  committed (hence issued) store is a no-op.
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

from repro.analysis.stats import HIGH_SLACK_FRACTION, SimStats
from repro.isa.opcodes import (
    ARITH_OPS,
    OpClass,
    Opcode,
    SIMD_ACCUMULATE_OPS,
    SIMD_SINGLE_CYCLE_OPS,
)
from repro.isa.semantics import width_bucket
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.metrics import MetricsRegistry
from repro.pipeline.trace import Trace
from repro.pipeline.uop import OPCLASS_INDEX

from .config import CoreConfig, RecycleMode, SchedulerDesign
from .lower import LoweredTrace, lower_trace
from .slack_lut import SlackLUT
from .ticks import TickBase

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


def _decode_static(instr, config: CoreConfig, lut: SlackLUT,
                   tpc: int) -> tuple:
    """(transparent, latency, static EX-TIME, width-dynamic?) — the
    exact :meth:`CoreSimulator._decode_static` table."""
    op = instr.op
    cls = instr.cls
    transparent = config.mode is not RecycleMode.BASELINE
    if cls is OpClass.ALU:
        if op in ARITH_OPS:
            return (transparent, 1, 0, True)
        return (transparent, 1, lut.ex_time(instr), False)
    if cls is OpClass.SIMD:
        if op in SIMD_SINGLE_CYCLE_OPS:
            return (transparent, 1, lut.ex_time(instr), False)
        if op in SIMD_ACCUMULATE_OPS:
            return (transparent, config.simd_multicycle_latency,
                    lut.ex_time(instr), False)
        return (False, config.simd_multicycle_latency, tpc, False)
    if cls is OpClass.MUL:
        return (False, config.mul_latency, tpc, False)
    if cls is OpClass.DIV:
        return (False, config.div_latency, tpc, False)
    if cls is OpClass.FP:
        return (False, config.fdiv_latency if op is Opcode.FDIV
                else config.fp_latency, tpc, False)
    return (False, 1, tpc, False)


#: process-wide read-only SlackLUT / TickBase per timing corner — the
#: LUT is pure design-time analysis, identical for every run that
#: shares (ticks_per_cycle, tech, pvt_scale)
_lut_memo: Dict[tuple, Tuple[TickBase, SlackLUT]] = {}


def _shared_lut(config: CoreConfig) -> Tuple[TickBase, SlackLUT]:
    key = (config.ticks_per_cycle, config.tech, config.pvt_scale)
    pair = _lut_memo.get(key)
    if pair is None:
        base = TickBase(config.ticks_per_cycle, config.tech)
        lut = SlackLUT(base, pvt_scale=config.pvt_scale)
        pair = _lut_memo[key] = (base, lut)
    return pair


# ---------------------------------------------------------------------
# per-trace columnar precompute
# ---------------------------------------------------------------------


class _EntryColumns:
    """Config-independent columns derived from one lowered trace, plus
    the per-decode-key cache of its :class:`_DecodeColumns`."""

    __slots__ = ("phash", "lhash", "misp", "br_n", "br_wrong", "decode")

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
        self.decode: Dict[tuple, _DecodeColumns] = {}


class _DecodeColumns:
    """Config-dependent per-entry decode columns."""

    __slots__ = ("transp", "lat", "ex", "arith", "wb", "actual_ex",
                 "s_exwc")

    def __init__(self, low: LoweredTrace, config: CoreConfig,
                 lut: SlackLUT, tpc: int) -> None:
        # per-static-instruction tables (the small dimension) ...
        table = [_decode_static(instr, config, lut, tpc)
                 for instr in low.instrs]
        self.s_exwc: List[Optional[tuple]] = [
            tuple(lut.ex_time(instr, w) for w in _WIDTH_CLASSES)
            if row[3] else None
            for instr, row in zip(low.instrs, table)]
        # ... gathered into per-entry columns
        sidx = low.static_idx
        self.transp = [table[s][0] for s in sidx]
        self.lat = [table[s][1] for s in sidx]
        ex = self.ex = [table[s][2] for s in sidx]
        arith = self.arith = [table[s][3] for s in sidx]
        wb = self.wb = [0] * low.n
        actual_ex = self.actual_ex = ex[:]
        widths = low.op_width
        s_exwc = self.s_exwc
        for i, a in enumerate(arith):
            if a:
                b = width_bucket(widths[i])
                wb[i] = b
                actual_ex[i] = s_exwc[sidx[i]][(b >> 3) - 1]


def _decode_key(config: CoreConfig) -> tuple:
    """The slice of the config the decode columns depend on.

    ``_decode_static`` reads only recycling-on/off (not which recycling
    flavour), the tick base, the PVT corner and the fixed latencies —
    REDSOC and MOS therefore share one decode, BASELINE gets its own.
    """
    return (config.mode is RecycleMode.BASELINE,
            config.ticks_per_cycle, config.tech, config.pvt_scale,
            config.mul_latency, config.div_latency, config.fp_latency,
            config.fdiv_latency, config.simd_multicycle_latency)


def _entry_columns(low: LoweredTrace) -> _EntryColumns:
    cols = getattr(low, "_columns", None)
    if cols is None:
        cols = low._columns = _EntryColumns(low)
    return cols


def _decode_columns(low: LoweredTrace, config: CoreConfig,
                    lut: SlackLUT, tpc: int) -> _DecodeColumns:
    cache = _entry_columns(low).decode
    key = _decode_key(config)
    decode = cache.get(key)
    if decode is None:
        decode = cache[key] = _DecodeColumns(low, config, lut, tpc)
    return decode


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

        base, lut = _shared_lut(config)
        mem = MemoryHierarchy(config.memory)
        load_latency = mem.load_latency
        store_latency = mem.store_latency

        # -- baked config constants ------------------------------------
        TPC = base.ticks_per_cycle
        FRONT = config.front_width
        QUEUE_CAP = 2 * FRONT
        ROB_SIZE = config.rob_size
        RSE_SIZE = config.rse_size
        LSQ_SIZE = config.lsq_size
        MISPRED_PEN = config.mispredict_penalty
        REPLAY_PEN = config.replay_penalty
        TAKEN_PER_CYCLE = config.taken_branches_per_cycle
        L1_LAT = config.memory.l1_latency
        IS_MOS = config.mode is RecycleMode.MOS
        DO_GP = (config.mode is not RecycleMode.BASELINE
                 and config.eager_issue)
        SKEWED = config.skewed_select
        SPARE = config.eager_spare_units
        ADAPTIVE = (config.adaptive_threshold
                    and config.mode is RecycleMode.REDSOC)
        WINDOW = config.threshold_window
        WATCH_ALL = (config.mode is RecycleMode.BASELINE
                     or config.scheduler is SchedulerDesign.ILLUSTRATIVE)

        # -- memoized columnar precompute ------------------------------
        cols = _entry_columns(low)
        decode = _decode_columns(low, config, lut, TPC)

        sidx = low.static_idx
        pcs = low.pc
        addrs = low.mem_addr
        sizes = low.mem_size
        clsi = low.cls_idx
        takens = low.taken
        stores_f = low.is_store
        odeps = low.order_dep
        misp = cols.misp
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
        ex = decode.ex[:]         # mutated by width prediction per run

        # -- per-seq dynamic state -------------------------------------
        state = bytearray(n)          # 0 DISPATCHED / 1 ISSUED / 2 COMMITTED
        in_ready = bytearray(n)
        replayed = bytearray(n)
        la_app = bytearray(n)
        width_app = bytearray(n)
        sec_pred = bytearray(n)
        mem_hl = bytearray(n)
        issue_c = [-1] * n
        done_c = [-1] * n
        eligible = [-1] * n
        start_t = [0] * n
        end_t = [0] * n
        avail_t = [0] * n
        sync_t = [0] * n
        pred_w = [32] * n
        chain = [-1] * n
        srcs = [()] * n               # live producers, set at dispatch
        waiting = [None] * n          # set[int], set at dispatch

        # -- machine state ---------------------------------------------
        C = 0                         # ROB head (next to commit)
        D = 0                         # next to dispatch (ROB tail + 1)
        F = 0                         # next to fetch
        rs_used = 0
        lsq_used = 0
        committed = 0
        fetch_resume = 0
        blocked = -1                  # seq fetch is blocked on (-1 none)
        live_stores = []              # issued, uncommitted store seqs

        # ready queues (seq-sorted per class, lazy tombstones)
        queues = [[] for _ in range(len(OPCLASS_INDEX))]
        dead = [0] * len(OPCLASS_INDEX)
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
        lanes = tuple((idx, counts[idx], busies[idx], queues[idx])
                      for idx in _LANE_ORDER)

        # width / last-arrival predictors as plain tables (the gshare
        # front end is gone: `misp` resolved it per entry already)
        w_class = [32] * 4096
        w_conf = [0] * 4096
        w_lookups = w_exact = w_cons = w_aggr = 0
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
        st_cycles = 0
        st_fu_stall = 0
        st_dispatch_stall = 0
        st_recycled = 0
        st_eager = 0
        st_holds = 0
        st_la_replays = 0
        st_width_replays = 0
        st_gp_mispec = 0
        st_wasted_gp = 0
        d_memhl = d_memll = d_simd = d_multi = d_aluls = d_aluhs = 0

        HSF = HIGH_SLACK_FRACTION

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
                    if state[s] or in_ready[s]:
                        continue
                    idx = clsi[s]
                    q = queues[idx]
                    pos = bisect_left(q, s)
                    if pos < len(q) and q[pos] == s:
                        dead[idx] -= 1
                    else:
                        q.insert(pos, s)
                    in_ready[s] = 1
                    live_total += 1

        def compact(idx):
            q = queues[idx]
            q[:] = [s for s in q if in_ready[s] and not state[s]]
            dead[idx] = 0

        def remove_ready(s):
            nonlocal live_total
            if in_ready[s]:
                in_ready[s] = 0
                dead[clsi[s]] += 1
                live_total -= 1

        # ---------------------------------------------------------------
        # issue
        # ---------------------------------------------------------------

        def notify_dependents(s, cycle, p_avail, p_sync):
            p_trans = transp[s]
            floor = cycle + 1
            for d in dependents[s]:
                if d >= D:
                    break               # not yet dispatched (lists ascend)
                w = waiting[d]
                if w is None or s not in w:
                    continue
                w.discard(s)
                a = p_avail if p_trans and transp[d] else p_sync
                wk = a // TPC - lat[d]
                if wk < floor:
                    wk = floor
                e = eligible[d]
                if e < 0 or wk > e:
                    eligible[d] = e = wk
                if not w:
                    schedule_wake(d, e if e > floor else floor)

        def finish(s, cycle, start, end, avail, sync, extra, recycled,
                   eager):
            nonlocal rs_used, fetch_resume, blocked, st_holds, st_eager, \
                st_recycled
            state[s] = 1
            issue_c[s] = cycle
            start_t[s] = start
            end_t[s] = end
            avail_t[s] = avail
            sync_t[s] = sync
            done_c[s] = sync // TPC
            if extra:
                st_holds += 1
            if eager:
                st_eager += 1
            if transp[s]:
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
            remove_ready(s)
            if s == blocked:
                fetch_resume = cycle + lat[s] + MISPRED_PEN
                blocked = -1
            notify_dependents(s, cycle, avail, sync)

        def train_predictors(s):
            nonlocal w_lookups, w_exact, w_cons, w_aggr, la_n, la_wrong
            if width_app[s]:
                w_lookups += 1
                actual = wb[s]
                predicted = pred_w[s]
                if predicted == actual:
                    w_exact += 1
                elif predicted > actual:
                    w_cons += 1
                else:
                    w_aggr += 1
                e = phash[s]
                if w_class[e] == actual:
                    c = w_conf[e] + 1
                    w_conf[e] = c if c < 3 else 3
                else:
                    w_class[e] = actual
                    w_conf[e] = 0
            if la_app[s]:
                ss = srcs[s]
                if len(ss) >= 2:
                    la_n += 1
                    c1 = issue_c[ss[0]]
                    c2 = issue_c[ss[1]]
                    if c1 != c2:
                        second_last = c2 > c1
                        if bool(sec_pred[s]) != second_last:
                            la_wrong += 1
                        la_tab[lhash[s]] = second_last

        def try_issue(s, cycle, eager):
            """0 = issued, 1 = stall, 2 = replayed."""
            nonlocal st_la_replays, st_width_replays
            latency = lat[s]
            arrival = cycle + latency
            ci = clsi[s]
            busy = busies[ci]
            cnt = counts[ci]
            ss = srcs[s]

            unissued = [p for p in ss
                        if state[p] != 2 and issue_c[p] < 0]
            if ci == _I_LOAD:
                od = odeps[s]
                if od >= 0 and issue_c[od] < 0:
                    unissued.append(od)
            if unissued:
                # woke off the wrong (predicted-last) tag: reissue later
                replayed[s] = 1
                if la_app[s]:
                    st_la_replays += 1
                waiting[s] = set(unissued)
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
                addr_avail = 0
                for p in ss:
                    if state[p] != 2:
                        a = sync_t[p]           # a load is synchronous
                        if a > addr_avail:
                            addr_avail = a
                addr_cycle = (addr_avail + TPC - 1) // TPC
                if addr_cycle < arrival:
                    addr_cycle = arrival
                latency_m = load_latency(addrs[s], pcs[s])
                mem_hl[s] = 1 if latency_m > L1_LAT else 0
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
                edge = data_cycle * TPC
                finish(s, cycle, addr_cycle * TPC, edge, edge, edge,
                       False, False, False)
                return 0

            if ci == _I_STORE:
                nb = busy.get(arrival, 0)
                if nb >= cnt:
                    return 1
                busy[arrival] = nb + 1
                edge = arrival * TPC
                finish(s, cycle, edge, edge + TPC, edge, edge,
                       False, False, False)
                live_stores.append(s)
                return 0

            # generic FU path (ALU / SIMD / MUL / DIV / FP / BRANCH)
            t = transp[s]
            source_avail = 0
            for p in ss:
                if state[p] != 2:
                    a = avail_t[p] if t and transp[p] else sync_t[p]
                    if a > source_avail:
                        source_avail = a
            cycle_start = arrival * TPC
            if t:
                start = (source_avail if source_avail > cycle_start
                         else cycle_start)
            else:
                edge = ((source_avail + TPC - 1) // TPC) * TPC
                start = edge if edge > cycle_start else cycle_start
            ext = ex[s]
            end = start + ext
            sync = ((end + TPC - 1) // TPC) * TPC
            extra = end > (start // TPC + 1) * TPC
            recycled = start % TPC != 0
            if IS_MOS and recycled and extra:
                # MOS cannot cross a clock edge: normal edge start
                edge = ((source_avail + TPC - 1) // TPC) * TPC
                start = edge if edge > cycle_start else cycle_start
                end = start + ext
                sync = ((end + TPC - 1) // TPC) * TPC
                extra = end > (start // TPC + 1) * TPC
                recycled = start % TPC != 0

            if start >= cycle_start + TPC:
                # an (unwatched but issued) operand lands after our window
                replayed[s] = 1
                if la_app[s]:
                    st_la_replays += 1
                la_avail = 0
                for p in ss:
                    if state[p] != 2:
                        a = avail_t[p] if t and transp[p] else sync_t[p]
                        if a > la_avail:
                            la_avail = a
                remove_ready(s)
                wk = la_avail // TPC - 1
                nxt = cycle + 1
                schedule_wake(s, wk if wk > nxt else nxt)
                nb = busy.get(arrival, 0)
                if nb < cnt:
                    busy[arrival] = nb + 1
                return 2

            if width_app[s] and wb[s] > pred_w[s]:
                # aggressive width mispredict: conservative re-execution
                arr2 = arrival + REPLAY_PEN
                cs2 = arr2 * TPC
                edge = ((source_avail + TPC - 1) // TPC) * TPC
                start = edge if edge > cs2 else cs2
                end = start + actual_ex[s]
                sync = ((end + TPC - 1) // TPC) * TPC
                extra = end > (start // TPC + 1) * TPC
                recycled = start % TPC != 0
                st_width_replays += 1

            occupy = start // TPC
            if extra and (busy.get(occupy, 0) >= cnt
                          or busy.get(occupy + 1, 0) >= cnt):
                # 2-cycle hold unaffordable: opaque edge-aligned start
                cs2 = arrival * TPC
                edge = ((source_avail + TPC - 1) // TPC) * TPC
                start = edge if edge > cs2 else cs2
                end = start + ext
                sync = ((end + TPC - 1) // TPC) * TPC
                extra = end > (start // TPC + 1) * TPC
                recycled = start % TPC != 0
                occupy = start // TPC
            nb = busy.get(occupy, 0)
            if nb >= cnt:
                return 1
            if extra:
                mb = busy.get(occupy + 1, 0)
                if mb >= cnt:
                    return 1
                busy[occupy + 1] = mb + 1
            busy[occupy] = nb + 1

            train_predictors(s)
            finish(s, cycle, start, end, end, sync, extra, recycled,
                   eager)
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
                p_end = end_t[parent]
                arrival_end = (start_t[parent] // TPC + 1) * TPC
                if p_end >= arrival_end:
                    continue
                ci_ticks = p_end % TPC
                p_lat = lat[parent]
                for child in dependents[parent]:
                    if child >= D:
                        break
                    if (child in seen or state[child]
                            or issue_c[child] >= 0 or not transp[child]
                            or lat[child] != p_lat):
                        continue
                    if IS_MOS:
                        if p_end + ex[child] > arrival_end:
                            continue
                    elif ci_ticks > threshold:
                        continue
                    deadline = (cycle + lat[child] + 1) * TPC
                    ok = True
                    for p in srcs[child]:
                        if state[p] == 2:
                            continue
                        if issue_c[p] < 0:
                            ok = False
                            break
                        a = (avail_t[p] if transp[p] and transp[child]
                             else sync_t[p])
                        if a >= deadline:
                            ok = False
                            break
                    if not ok:
                        continue
                    seen.add(child)
                    candidates.append(child)
            candidates.sort()
            return candidates

        def schedule(cycle):
            nonlocal st_fu_stall, st_gp_mispec, st_wasted_gp
            issued_now = []
            stalled = False
            for idx, cnt, busy, q in lanes:
                if dead[idx] > 8:
                    compact(idx)
                if not q:
                    continue
                for s in q:
                    if not in_ready[s]:
                        continue
                    if cnt <= busy.get(cycle + lat[s], 0):
                        stalled = True
                        break
                    r = try_issue(s, cycle, False)
                    if r == 0:
                        issued_now.append(s)
                    elif r == 1:
                        stalled = True
                        break
            if DO_GP and issued_now:
                for child in gp_candidates(cycle, issued_now):
                    idx = clsi[child]
                    busy = busies[idx]
                    cnt = counts[idx]
                    if (cnt - busy.get(cycle + 1, 0) <= SPARE
                            or cnt - busy.get(cycle + 2, 0) <= SPARE):
                        continue
                    if SKEWED:
                        try_issue(child, cycle, True)
                    else:
                        q = queues[idx]
                        for u in q:
                            if not (in_ready[u] and not state[u]):
                                compact(idx)
                                break
                        older_pending = any(u < child for u in q)
                        r = try_issue(child, cycle, True)
                        if r == 0 and older_pending:
                            st_gp_mispec += 1
                            st_wasted_gp += 1
            if stalled:
                st_fu_stall += 1

        # ---------------------------------------------------------------
        # dispatch (rename/allocate — decode was hoisted into lowering)
        # ---------------------------------------------------------------

        def dispatch(cycle):
            nonlocal D, rs_used, lsq_used, st_dispatch_stall
            count = 0
            stalled = False
            nxt = cycle + 1
            while F > D and count < FRONT:
                i = D
                if D - C >= ROB_SIZE:
                    stalled = True
                    break
                ci = clsi[i]
                if ci != _I_NOP and ci != _I_HALT and rs_used >= RSE_SIZE:
                    stalled = True
                    break
                if (ci == _I_LOAD or ci == _I_STORE) \
                        and lsq_used >= LSQ_SIZE:
                    stalled = True
                    break
                D += 1
                count += 1

                if arith[i]:
                    e = phash[i]
                    p_w = w_class[e] if w_conf[e] >= 3 else 32
                    width_app[i] = 1
                    pred_w[i] = p_w
                    ex[i] = s_exwc[sidx[i]][(p_w >> 3) - 1]

                live = [p for p in producers[i] if state[p] != 2]
                srcs[i] = live

                if ci == _I_LOAD or ci == _I_STORE:
                    lsq_used += 1

                if WATCH_ALL or not transp[i] or len(live) != 2:
                    watched = live
                else:
                    sp = la_tab[lhash[i]]
                    la_app[i] = 1
                    sec_pred[i] = 1 if sp else 0
                    watched = [live[1] if sp else live[0]]
                w = {p for p in watched if issue_c[p] < 0}
                waiting[i] = w
                od = odeps[i]
                if od >= 0 and issue_c[od] < 0:
                    w.add(od)

                if ci == _I_NOP or ci == _I_HALT:
                    state[i] = 1
                    issue_c[i] = cycle
                    done_c[i] = cycle
                    continue
                rs_used += 1

                wake = nxt
                li = lat[i]
                t = transp[i]
                for p in watched:
                    pi = issue_c[p]
                    if pi >= 0:
                        a = avail_t[p] if transp[p] and t else sync_t[p]
                        w2 = a // TPC - li
                        if w2 <= pi:
                            w2 = pi + 1
                        if w2 > wake:
                            wake = w2
                if od >= 0:
                    pi = issue_c[od]
                    if pi >= 0:
                        w2 = sync_t[od] // TPC - li
                        if w2 <= pi:
                            w2 = pi + 1
                        if w2 > wake:
                            wake = w2
                eligible[i] = wake
                if not w:
                    schedule_wake(i, wake)
            if stalled:
                st_dispatch_stall += 1

        # ---------------------------------------------------------------
        # fetch — gshare already resolved into the `misp` column
        # ---------------------------------------------------------------

        def fetch(cycle):
            nonlocal F, blocked
            fetched = 0
            taken_seen = 0
            while F < n and fetched < FRONT and F - D < QUEUE_CAP:
                i = F
                F += 1
                fetched += 1
                if clsi[i] == _I_BRANCH:
                    if misp[i]:
                            blocked = i
                            break
                    if takens[i]:
                        taken_seen += 1
                        if taken_seen > TAKEN_PER_CYCLE:
                            break

        # ---------------------------------------------------------------
        # commit
        # ---------------------------------------------------------------

        def commit(cycle):
            nonlocal C, committed, lsq_used, d_memhl, d_memll, d_simd, \
                d_multi, d_aluls, d_aluhs
            width = FRONT
            done = 0
            while C < D and done < width:
                s = C
                if state[s] != 1:
                    break
                dc = done_c[s]
                if dc < 0 or dc > cycle:
                    break
                ci = clsi[s]
                if stores_f[s]:
                    latency = store_latency(addrs[s], pcs[s])
                    mem_hl[s] = 1 if latency > L1_LAT else 0
                    if s in live_stores:
                        live_stores.remove(s)
                if ci == _I_LOAD or ci == _I_STORE:
                    lsq_used -= 1
                    if mem_hl[s]:
                        d_memhl += 1
                    else:
                        d_memll += 1
                elif ci == _I_SIMD:
                    d_simd += 1
                elif ci == _I_MUL or ci == _I_DIV or ci == _I_FP:
                    d_multi += 1
                elif ci == _I_ALU:
                    if 1.0 - actual_ex[s] / TPC > HSF:
                        d_aluhs += 1
                    else:
                        d_aluls += 1
                state[s] = 2
                C += 1
                committed += 1
                done += 1

        # ---------------------------------------------------------------
        # adaptive-threshold controller
        # ---------------------------------------------------------------

        def adapt_threshold():
            nonlocal threshold, window_start_committed, exploit_left, \
                probe_plan, probe_results
            done = committed - window_start_committed
            window_start_committed = committed
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
        while committed < n:
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
            st_cycles += 1
            if cycle and not cycle & 4095:
                for busy in busies:
                    for c in [c for c in busy if c < cycle]:
                        del busy[c]
            if ADAPTIVE and cycle and not cycle % WINDOW:
                adapt_threshold()
            cycle += 1
            if cycle > limit:
                raise RuntimeError(
                    f"simulation wedged: {committed}/{n} committed "
                    f"after {cycle} cycles (trace {trace.name!r})")
            if committed >= n:
                break

            # -- skip-ahead: is the machine provably idle at `cycle`? --
            if live_total:
                continue
            head_done = None
            if C < D and state[C] == 1:
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
                skipped = target - cycle
                st_cycles += skipped
                if F > D:
                    st_dispatch_stall += skipped
                cycle = target

        # ---------------------------------------------------------------
        # finalize (mirrors CoreSimulator._finalize)
        # ---------------------------------------------------------------

        stats = SimStats()
        stats.cycles = st_cycles
        stats.committed = committed
        stats.recycled_ops = st_recycled
        stats.eager_issues = st_eager
        stats.two_cycle_holds = st_holds
        stats.fu_stall_cycles = st_fu_stall
        stats.dispatch_stall_cycles = st_dispatch_stall
        stats.gp_mispeculations = st_gp_mispec
        stats.wasted_gp_grants = st_wasted_gp
        stats.la_replays = st_la_replays
        stats.width_replays = st_width_replays
        dist = stats.distribution.counts
        dist["MEM-HL"] = d_memhl
        dist["MEM-LL"] = d_memll
        dist["SIMD"] = d_simd
        dist["OtherMulti"] = d_multi
        dist["ALU-LS"] = d_aluls
        dist["ALU-HS"] = d_aluhs

        m = MetricsRegistry()
        m.gauge("predict.width.aggressive_rate").set(
            w_aggr / w_lookups if w_lookups else 0.0)
        m.gauge("predict.width.accuracy").set(
            w_exact / w_lookups if w_lookups else 0.0)
        m.gauge("predict.la.misprediction_rate").set(
            la_wrong / la_n if la_n else 0.0)
        m.gauge("predict.la.predictions").set(la_n)
        m.gauge("predict.la.mispredictions").set(la_wrong)
        total_len = sum(chain_len)
        m.gauge("seq.expected_length").set(
            sum(x * x for x in chain_len) / total_len if total_len
            else 0.0)
        m.gauge("seq.mean_length").set(
            total_len / len(chain_len) if chain_len else 0.0)
        m.gauge("seq.count").set(len(chain_len))
        m.gauge("front.branches").set(cols.br_n)
        m.gauge("front.branch_mispredicts").set(cols.br_wrong)
        stats.populate_from(m)
        stats.export_counters(m)
        m.gauge("core.ipc").set(stats.ipc)
        return SimResult(name=trace.name, config=config, stats=stats)


__all__ = ["CompiledSimulator"]
