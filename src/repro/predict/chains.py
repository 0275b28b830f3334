"""Single-pass dependence-chain feature extraction.

One O(N) walk over a dynamic trace produces everything the analytic
model needs: per-mode critical-path lengths (in ticks, using the same
slack-LUT EX-TIMEs and start rules as the simulator), the operation
mix, dependence-chain shape statistics, an exact gshare replay of the
conditional-branch stream, and a program-order replay of the cache
hierarchy for load latencies.

Four pieces of scheduler behaviour dominate accuracy and are modelled
explicitly:

* **Bypass-scheduled wakeup.**  A dependent wakes ``latency_cycles``
  before its last source syncs (``wake = cycle_of(avail) - latency``,
  floored at the producer's issue + 1), so a dependent multi-cycle op
  costs *one* cycle per link — the full latency is paid only at chain
  heads, where the op waits in the scheduler with ready sources.
* **Front-end bandwidth.**  Each instruction is assigned a fetch cycle
  by a per-mode front-end replay — ``front_width`` slots per cycle, a
  fetch group ending at the (limit+1)-th taken branch — and nothing
  issues before it is fetched.  This is what makes epoch *fill time*
  visible on narrow cores.
* **Redirect serialisation.**  A mispredicted conditional branch blocks
  fetch until the branch *issues*, which waits on the branch's own
  dependence chain.  The walk raises the per-mode fetch cycle past
  each mispredict's resolution plus the redirect penalty; epochs
  between mispredicts add instead of overlap.
* **Reorder-window occupancy.**  Instruction *i* cannot be fetched
  into the window before instruction ``i - rob_size`` commits, which
  is what serialises independent long-latency misses a small window
  cannot keep in flight (the memory-level-parallelism limit).

The walk still ignores *per-cycle* resource contention (FU counts,
issue-port conflicts, RS/LSQ occupancy): chains answer "how fast could
the data flow through this window", while the throughput bounds in
:mod:`repro.predict.model` answer "how fast can the machine move it".
The calibration layer blends the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.config import (
    CoreConfig,
    MISPREDICT_PENALTY,
    TAKEN_BRANCHES_PER_CYCLE,
)
from repro.core.slack_lut import SlackLUT, decode_static, shared_lut
from repro.isa.opcodes import ARITH_OPS, Cond, OpClass, Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.branch import GsharePredictor
from repro.pipeline.trace import Trace

#: bump when the feature definition changes (invalidates feature caches)
FEATURE_SCHEMA = 1

#: RecycleMode values the per-mode critical paths are computed for
_MODES = ("baseline", "redsoc", "mos")


@dataclass
class TraceFeatures:
    """Mode-independent summary of one (trace, core-config) pair.

    ``crit_cycles`` carries one critical-path length per recycle mode;
    everything else (operation mix, branch stream, memory behaviour,
    chain shape) is identical across modes by construction, so one
    extraction serves baseline, redsoc and mos predictions — and the
    baseline prediction every speedup needs comes for free.
    """

    n: int = 0
    op_counts: Dict[str, int] = field(default_factory=dict)
    crit_cycles: Dict[str, float] = field(default_factory=dict)
    chain_count: int = 0
    max_chain_len: int = 0
    mean_chain_len: float = 0.0
    taken_branches: int = 0
    cond_branches: int = 0
    mispredicts: int = 0
    loads: int = 0
    stores: int = 0
    hl_loads: int = 0
    #: total load cycles beyond the L1 hit latency (program-order replay)
    load_extra_cycles: int = 0
    #: the slice of ``load_extra_cycles`` on *chained* loads — loads
    #: whose address derives (transitively) from another load's data,
    #: i.e. pointer chasing.  Their latency already serialises inside
    #: ``crit_cycles``; the remainder (independent, streaming loads)
    #: overlaps freely and costs window-limited stall instead
    mem_chain_cycles: int = 0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "feature_schema": FEATURE_SCHEMA,
            "n": self.n,
            "op_counts": dict(self.op_counts),
            "crit_cycles": {k: round(v, 6)
                            for k, v in self.crit_cycles.items()},
            "chain_count": self.chain_count,
            "max_chain_len": self.max_chain_len,
            "mean_chain_len": round(self.mean_chain_len, 6),
            "taken_branches": self.taken_branches,
            "cond_branches": self.cond_branches,
            "mispredicts": self.mispredicts,
            "loads": self.loads,
            "stores": self.stores,
            "hl_loads": self.hl_loads,
            "load_extra_cycles": self.load_extra_cycles,
            "mem_chain_cycles": self.mem_chain_cycles,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TraceFeatures":
        if payload.get("feature_schema") != FEATURE_SCHEMA:
            raise ValueError(
                f"feature payload schema "
                f"{payload.get('feature_schema')!r} != {FEATURE_SCHEMA}")
        return cls(
            n=int(payload["n"]),
            op_counts={str(k): int(v)
                       for k, v in payload["op_counts"].items()},
            crit_cycles={str(k): float(v)
                         for k, v in payload["crit_cycles"].items()},
            chain_count=int(payload["chain_count"]),
            max_chain_len=int(payload["max_chain_len"]),
            mean_chain_len=float(payload["mean_chain_len"]),
            taken_branches=int(payload["taken_branches"]),
            cond_branches=int(payload["cond_branches"]),
            mispredicts=int(payload["mispredicts"]),
            loads=int(payload["loads"]),
            stores=int(payload["stores"]),
            hl_loads=int(payload["hl_loads"]),
            load_extra_cycles=int(payload["load_extra_cycles"]),
            mem_chain_cycles=int(payload["mem_chain_cycles"]),
        )


def _static_timing(instr, lut: SlackLUT, tpc: int,
                   op_width: int) -> Tuple[bool, int, int]:
    """(transparent-capable, latency_cycles, ex_ticks) of one dynamic
    instruction — the engines' static decode table with recycling on,
    with the observed width standing in for the width predictor
    (its mispredict replays are noise the calibration absorbs)."""
    transparent, latency, ex, width_dynamic = decode_static(
        instr, True, lut, tpc)
    if width_dynamic:
        ex = lut.ex_time(instr, op_width)
    return transparent, latency, ex


def extract_features(trace: Trace, config: CoreConfig, *,
                     window: Optional[int] = None) -> TraceFeatures:
    """Walk *trace* once under *config*'s timing parameters.

    The config inputs that matter are the timing base
    (``ticks_per_cycle``, ``tech``, ``pvt_scale``), the memory
    hierarchy, the front width and the reorder window; the multi-cycle
    latencies, redirect penalty and taken-branch limit are the
    :mod:`repro.core.config` constants.  The recycle mode is *not* an
    input: all three per-mode critical paths come out of the same
    walk.

    *window* (defaults to ``config.rob_size``) sets the reorder-buffer
    constraint; pass ``window=0`` to disable it and measure the pure
    dataflow limit.
    """
    if window is None:
        window = config.rob_size
    tpc = config.ticks_per_cycle
    _, lut = shared_lut(config)
    mem = MemoryHierarchy(config.memory)
    branch_pred = GsharePredictor()
    l1_latency = config.memory.l1_latency
    penalty = MISPREDICT_PENALTY

    features = TraceFeatures()
    op_counts: Dict[str, int] = {}
    entries = trace.entries
    features.n = len(entries)
    if not entries:
        features.crit_cycles = {mode: 0.0 for mode in _MODES}
        return features

    # per-register producer state, for each of baseline / redsoc / mos:
    # completion tick, transparent flag (redsoc/mos only), issue cycle —
    # plus the producing chain depth and a derives-from-load-data taint
    # bit: (b, ib, r, r_tr, ir, m, m_tr, im, depth, taint)
    reg_state: Dict[Any, tuple] = {}
    # store→load forwarding: 4-byte word → per-mode store completion
    # (the simulator disambiguates by byte overlap; word granularity
    # matches every aligned access and only false-shares sub-word
    # neighbours)
    store_words: Dict[int, Tuple[int, int, int]] = {}
    static_memo: Dict[Any, Tuple[bool, int, int]] = {}

    crit_b = crit_r = crit_m = 0
    depth_sum = 0
    max_depth = 0
    roots = 0
    # per-mode front-end state: current fetch cycle, slots used in it,
    # taken branches seen in the current fetch group, and the pending
    # post-mispredict resume cycle.  The fetch cycle advances when the
    # group fills (front_width), when one-too-many taken branches land
    # in it, past each mispredicted branch's resolution + penalty, and
    # on a full reorder window — so epoch *fill time* serialises with
    # the branch chains separating epochs, which matters most on
    # narrow cores
    front_width = max(1, config.front_width)
    taken_limit = TAKEN_BRANCHES_PER_CYCLE + 1
    fc_b = fc_r = fc_m = 0
    slots_b = slots_r = slots_m = 0
    tk_b = tk_r = tk_m = 0
    pend_b = pend_r = pend_m = 0
    # per-mode in-order commit ticks, indexed for the ROB window
    commits_b: list = []
    commits_r: list = []
    commits_m: list = []
    last_cb = last_cr = last_cm = 0

    for idx, entry in enumerate(entries):
        instr = entry.instr
        cls = entry.cls
        cls_name = cls.value
        op_counts[cls_name] = op_counts.get(cls_name, 0) + 1

        mispredicted = False
        taken = False
        if cls is OpClass.BRANCH:
            if entry.taken:
                features.taken_branches += 1
                taken = True
            if instr.op is Opcode.B and instr.cond is not Cond.AL:
                features.cond_branches += 1
                if branch_pred.update(entry.pc, entry.taken):
                    features.mispredicts += 1
                    mispredicted = True

        # front-end accounting: assign this instruction a fetch cycle
        if pend_b > fc_b:
            fc_b = pend_b
            slots_b = 0
            tk_b = 0
        if window and idx >= window:
            wc = commits_b[idx - window] // tpc
            if wc > fc_b:
                fc_b = wc
                slots_b = 0
                tk_b = 0
        if slots_b >= front_width:
            fc_b += 1
            slots_b = 0
            tk_b = 0
        slots_b += 1
        if pend_r > fc_r:
            fc_r = pend_r
            slots_r = 0
            tk_r = 0
        if window and idx >= window:
            wc = commits_r[idx - window] // tpc
            if wc > fc_r:
                fc_r = wc
                slots_r = 0
                tk_r = 0
        if slots_r >= front_width:
            fc_r += 1
            slots_r = 0
            tk_r = 0
        slots_r += 1
        if pend_m > fc_m:
            fc_m = pend_m
            slots_m = 0
            tk_m = 0
        if window and idx >= window:
            wc = commits_m[idx - window] // tpc
            if wc > fc_m:
                fc_m = wc
                slots_m = 0
                tk_m = 0
        if slots_m >= front_width:
            fc_m += 1
            slots_m = 0
            tk_m = 0
        slots_m += 1
        if taken:
            # a fetch group ends at the (limit+1)-th taken branch
            tk_b += 1
            if tk_b >= taken_limit:
                fc_b += 1
                slots_b = 0
                tk_b = 0
            tk_r += 1
            if tk_r >= taken_limit:
                fc_r += 1
                slots_r = 0
                tk_r = 0
            tk_m += 1
            if tk_m >= taken_limit:
                fc_m += 1
                slots_m = 0
                tk_m = 0

        if cls is OpClass.NOP or cls is OpClass.HALT:
            depth_sum += 1
            roots += 1
            if max_depth < 1:
                max_depth = 1
            # still occupies a ROB slot until (instantly) committed
            commits_b.append(last_cb)
            commits_r.append(last_cr)
            commits_m.append(last_cm)
            continue

        if cls is OpClass.ALU and instr.op in ARITH_OPS:
            key = (id(instr), entry.op_width)
            memo = static_memo.get(key)
            if memo is None:
                memo = static_memo[key] = _static_timing(
                    instr, lut, tpc, entry.op_width)
        else:
            memo = static_memo.get(id(instr))
            if memo is None:
                memo = static_memo[id(instr)] = _static_timing(
                    instr, lut, tpc, entry.op_width)
        transparent, latency, ex = memo

        # source availability per mode: transparent producers hand a
        # transparent consumer their raw completion tick; an opaque
        # consumer (or mode-fallback) reads the edge-aligned sync tick
        src_b = src_r = src_m = 0
        ro_r = ro_m = 0     # opaque (edge-aligned) views for fallbacks
        isrc_b = isrc_r = isrc_m = -1   # max producer issue cycle
        depth = 0
        has_src = False
        src_taint = False   # does any source derive from load data?
        for reg in instr.sources():
            rec = reg_state.get(reg)
            if rec is None:
                continue
            has_src = True
            b, ib, r, r_tr, ir, m, m_tr, im, d, taint = rec
            src_taint = src_taint or taint
            if b > src_b:
                src_b = b
            if ib > isrc_b:
                isrc_b = ib
            if ir > isrc_r:
                isrc_r = ir
            if im > isrc_m:
                isrc_m = im
            if r_tr:
                edge = ((r + tpc - 1) // tpc) * tpc
                if transparent:
                    if r > src_r:
                        src_r = r
                else:
                    if edge > src_r:
                        src_r = edge
                if edge > ro_r:
                    ro_r = edge
            else:
                if r > src_r:
                    src_r = r
                if r > ro_r:
                    ro_r = r
            if m_tr:
                edge = ((m + tpc - 1) // tpc) * tpc
                if transparent:
                    if m > src_m:
                        src_m = m
                else:
                    if edge > src_m:
                        src_m = edge
                if edge > ro_m:
                    ro_m = edge
            else:
                if m > src_m:
                    src_m = m
                if m > ro_m:
                    ro_m = m
            if d > depth:
                depth = d
        # scheduler-entry floors: nothing issues before its fetch cycle
        flb, flr, flm = fc_b, fc_r, fc_m
        fb = fc_b * tpc
        fr = fc_r * tpc
        fm = fc_m * tpc
        if fb > src_b:
            src_b = fb
        if fr > src_r:
            src_r = fr
        if fr > ro_r:
            ro_r = fr
        if fm > src_m:
            src_m = fm
        if fm > ro_m:
            ro_m = fm
        depth += 1
        depth_sum += depth
        if depth > max_depth:
            max_depth = depth
        if not has_src:
            roots += 1

        if cls is OpClass.LOAD or cls is OpClass.STORE:
            addr = entry.mem_addr
            size = entry.mem_size or 1
            first_w = addr >> 2
            last_w = (addr + size - 1) >> 2
            if cls is OpClass.LOAD:
                features.loads += 1
                # the hierarchy replay always sees the access (it warms
                # and evicts state) even when forwarding supplies the
                # data without paying the latency
                latency_mem = mem.load_latency(addr, entry.pc)
                fwd_b = fwd_r = fwd_m = -1
                for w in range(first_w, last_w + 1):
                    sdep = store_words.get(w)
                    if sdep is not None:
                        if sdep[0] > fwd_b:
                            fwd_b = sdep[0]
                        if sdep[1] > fwd_r:
                            fwd_r = sdep[1]
                        if sdep[2] > fwd_m:
                            fwd_m = sdep[2]
                if fwd_b >= 0:
                    # store-to-load forwarding: data one cycle after
                    # the overlapping store (or the address) resolves
                    eb = ((src_b + tpc - 1) // tpc) * tpc
                    er = ((ro_r + tpc - 1) // tpc) * tpc
                    em = ((ro_m + tpc - 1) // tpc) * tpc
                    end_b = (eb if eb > fwd_b else fwd_b) + tpc
                    end_r = (er if er > fwd_r else fwd_r) + tpc
                    end_m = (em if em > fwd_m else fwd_m) + tpc
                    ib_out = end_b // tpc - 1
                    ir_out = end_r // tpc - 1
                    im_out = end_m // tpc - 1
                else:
                    if latency_mem > l1_latency:
                        features.hl_loads += 1
                        extra = latency_mem - l1_latency
                        features.load_extra_cycles += extra
                        if src_taint:
                            # address fed by load data: pointer
                            # chasing, already serialised inside crit
                            features.mem_chain_cycles += extra
                    lat_ticks = latency_mem * tpc
                    end_b = src_b + lat_ticks
                    end_r = ((ro_r + tpc - 1) // tpc) * tpc + lat_ticks
                    end_m = ((ro_m + tpc - 1) // tpc) * tpc + lat_ticks
                    ib_out = (end_b - lat_ticks) // tpc
                    ir_out = (end_r - lat_ticks) // tpc
                    im_out = (end_m - lat_ticks) // tpc
                tr_r = tr_m = False
            else:
                features.stores += 1
                mem.store_latency(addr, entry.pc)
                end_b = src_b + tpc
                end_r = ((ro_r + tpc - 1) // tpc) * tpc + tpc
                end_m = ((ro_m + tpc - 1) // tpc) * tpc + tpc
                ib_out = end_b // tpc - 1
                ir_out = end_r // tpc - 1
                im_out = end_m // tpc - 1
                for w in range(first_w, last_w + 1):
                    store_words[w] = (end_b, end_r, end_m)
                tr_r = tr_m = False
        else:
            # baseline: every op is opaque.  Bypass-scheduled wakeup
            # (wake = cycle_of(sync) - latency, floored at producer
            # issue + 1 and at the fetch/window floor) means the full
            # latency is charged from the *scheduler-entry* point, not
            # per dependence link: dependent multi-cycle ops cost one
            # cycle each once a chain is rolling
            eb = ((src_b + tpc - 1) // tpc) * tpc
            wake_b = eb // tpc - latency
            if wake_b < isrc_b + 1:
                wake_b = isrc_b + 1
            if wake_b < flb:
                wake_b = flb
            cs = (wake_b + latency) * tpc
            end_b = (eb if eb > cs else cs) + tpc
            ib_out = wake_b
            if transparent:
                # redsoc: transparent start at the raw source tick
                end_r = src_r + ex
                tr_r = True
                ir_out = src_r // tpc
                # MOS recycles only when execution stays inside the
                # producer's cycle: crossing the edge falls back to an
                # edge-aligned (opaque) start
                off = src_m % tpc
                if off and off + ex > tpc:
                    em = ((ro_m + tpc - 1) // tpc) * tpc
                    wake_m = em // tpc - latency
                    if wake_m < isrc_m + 1:
                        wake_m = isrc_m + 1
                    if wake_m < flm:
                        wake_m = flm
                    cs = (wake_m + latency) * tpc
                    end_m = (em if em > cs else cs) + tpc
                    tr_m = False
                    im_out = wake_m
                else:
                    end_m = src_m + ex
                    tr_m = True
                    im_out = src_m // tpc
            else:
                er = ((ro_r + tpc - 1) // tpc) * tpc
                wake_r = er // tpc - latency
                if wake_r < isrc_r + 1:
                    wake_r = isrc_r + 1
                if wake_r < flr:
                    wake_r = flr
                cs = (wake_r + latency) * tpc
                end_r = (er if er > cs else cs) + tpc
                ir_out = wake_r
                em = ((ro_m + tpc - 1) // tpc) * tpc
                wake_m = em // tpc - latency
                if wake_m < isrc_m + 1:
                    wake_m = isrc_m + 1
                if wake_m < flm:
                    wake_m = flm
                cs = (wake_m + latency) * tpc
                end_m = (em if em > cs else cs) + tpc
                im_out = wake_m
                tr_r = tr_m = False

        taint_out = True if cls is OpClass.LOAD else src_taint
        for reg in instr.dests():
            reg_state[reg] = (end_b, ib_out, end_r, tr_r, ir_out,
                              end_m, tr_m, im_out, depth, taint_out)

        if mispredicted:
            # fetch blocks until the branch issues, then pays the
            # redirect penalty before the next epoch can even start
            # (the simulator's _fetch_resume = issue + latency + penalty)
            pend_b = ib_out + 1 + penalty
            pend_r = ir_out + 1 + penalty
            pend_m = im_out + 1 + penalty

        # in-order commit: monotone per-mode commit ticks feed the
        # ROB-window floor `window` instructions downstream
        cb = ((end_b + tpc - 1) // tpc) * tpc
        cr = ((end_r + tpc - 1) // tpc) * tpc
        cm = ((end_m + tpc - 1) // tpc) * tpc
        last_cb = cb if cb > last_cb else last_cb
        last_cr = cr if cr > last_cr else last_cr
        last_cm = cm if cm > last_cm else last_cm
        commits_b.append(last_cb)
        commits_r.append(last_cr)
        commits_m.append(last_cm)

        if end_b > crit_b:
            crit_b = end_b
        if end_r > crit_r:
            crit_r = end_r
        if end_m > crit_m:
            crit_m = end_m

    features.op_counts = op_counts
    # recycling degenerates to the synchronous start rule at worst, so
    # neither recycled path can exceed the baseline critical path; the
    # walk can overshoot there because it assumes every transparent
    # start materialises (the simulator only recycles on eager co-issue)
    if crit_r > crit_b:
        crit_r = crit_b
    if crit_m > crit_b:
        crit_m = crit_b
    features.crit_cycles = {
        "baseline": crit_b / tpc,
        "redsoc": crit_r / tpc,
        "mos": crit_m / tpc,
    }
    features.chain_count = roots
    features.max_chain_len = max_depth
    features.mean_chain_len = depth_sum / features.n
    return features
