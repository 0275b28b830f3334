"""Differential oracle: golden model vs trace executor vs timing cores.

One :func:`check_program` call runs a program through every layer that
claims to preserve architectural semantics and cross-checks them:

1. **golden vs trace executor** — the
   :class:`~repro.isa.interpreter.Interpreter` and
   :func:`~repro.pipeline.trace.generate_trace` are two independent
   drivers of the same instruction semantics; their final architectural
   states (``arch_state()``) and dynamic instruction counts must agree
   exactly.
2. **timing cores** — the trace is replayed through the cycle model in
   every requested :class:`~repro.core.config.RecycleMode` under the
   full :func:`~repro.core.audit.audit_run` (six timing invariants),
   and each run must commit exactly the dynamic instruction count.
   Slack recycling is timing-only: no mode may change *what* commits.
3. **metamorphic timing relations** — see :mod:`repro.verify.metamorphic`.

Everything is reported as a flat list of :class:`Divergence` records so
the fuzzer can decide what to shrink and the CLI what to print.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.audit import audit_run
from repro.core.config import CoreConfig, RecycleMode, SMALL
from repro.core.cpu import simulate
from repro.core.engine import ENGINES
from repro.isa.interpreter import run_program
from repro.isa.program import Program
from repro.pipeline.codegen import generate_trace_compiled
from repro.pipeline.trace import Trace, generate_trace

from .metamorphic import check_timing_relations


@dataclass
class Divergence:
    """One broken equivalence/invariant, with enough detail to debug."""

    check: str           # e.g. "arch.regs", "audit.dataflow", "meta.egpw"
    mode: Optional[str]  # RecycleMode value, or None for mode-free checks
    detail: str

    def __str__(self) -> str:
        where = f" [{self.mode}]" if self.mode else ""
        return f"{self.check}{where}: {self.detail}"

    def to_payload(self) -> Dict[str, Any]:
        return {"check": self.check, "mode": self.mode,
                "detail": self.detail}


@dataclass
class ProgramVerdict:
    """Outcome of the full differential check of one program."""

    name: str
    instructions: int = 0
    divergences: List[Divergence] = field(default_factory=list)
    #: cycle counts per mode/variant label (feeds coverage + reports)
    cycles: Dict[str, int] = field(default_factory=dict)
    trace: Optional[Trace] = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def to_payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "instructions": self.instructions,
            "ok": self.ok,
            "divergences": [d.to_payload() for d in self.divergences],
            "cycles": dict(self.cycles),
        }


def _diff_regs(golden: Dict, other: Dict) -> str:
    """First few differing registers between two reg snapshots."""
    diffs = []
    for space in ("int", "vec"):
        for i, (a, b) in enumerate(zip(golden[space], other[space])):
            if a != b:
                diffs.append(f"{space[0]}{i}: golden={a:#x} got={b:#x}")
    if golden["flags"] != other["flags"]:
        diffs.append(f"flags: golden={golden['flags']:#x} "
                     f"got={other['flags']:#x}")
    return "; ".join(diffs[:4]) + ("..." if len(diffs) > 4 else "")


def _diff_mem(golden: Dict, other: Dict) -> str:
    """First few differing bytes between two memory snapshots."""
    addrs = sorted(set(golden) | set(other))
    diffs = [f"[{addr:#x}]: golden={golden.get(addr, 0):#04x} "
             f"got={other.get(addr, 0):#04x}"
             for addr in addrs
             if golden.get(addr, 0) != other.get(addr, 0)]
    return "; ".join(diffs[:4]) + ("..." if len(diffs) > 4 else "")


#: simulate-compatible callable the metamorphic layer uses for its
#: config variants; the CLI substitutes a campaign-cache-backed one
SimulateFn = Callable[[Trace, CoreConfig], Any]


def _diff_traces(base: Trace, other: Trace) -> str:
    """Empty string when identical, else the first entry-level diff."""
    if len(base.entries) != len(other.entries):
        return (f"length: interpreted={len(base.entries)} "
                f"compiled={len(other.entries)}")
    for i, (a, b) in enumerate(zip(base.entries, other.entries)):
        ta = (a.instr, a.pc, a.next_pc, bool(a.taken), a.op_width,
              a.mem_addr, a.mem_size, bool(a.is_store))
        tb = (b.instr, b.pc, b.next_pc, bool(b.taken), b.op_width,
              b.mem_addr, b.mem_size, bool(b.is_store))
        if ta != tb:
            return f"entry #{i}: interpreted={ta} compiled={tb}"
    if base.arch_state() != other.arch_state():
        return "final architectural state differs"
    return ""


def _diff_stats(base, other) -> str:
    """First few differing SimStats fields between two engines."""
    diffs = []
    for f in fields(base):
        a, b = getattr(base, f.name), getattr(other, f.name)
        if a != b:
            diffs.append(f"{f.name}: audit={a!r} got={b!r}")
    return "; ".join(diffs[:4]) + ("..." if len(diffs) > 4 else "")


def check_program(program: Program, *,
                  config: CoreConfig = SMALL,
                  modes: Optional[Sequence[RecycleMode]] = None,
                  metamorphic: bool = True,
                  engines: Optional[Sequence[str]] = None,
                  simulate_fn: SimulateFn = simulate) -> ProgramVerdict:
    """Run the full differential check; returns a :class:`ProgramVerdict`.

    *simulate_fn* is used for the metamorphic variant runs and must be
    call-compatible with :func:`repro.core.cpu.simulate` (pass
    a :func:`repro.campaign.cached_simulate` closure to read variant
    runs through the campaign result cache).

    *engines* names simulation backends to cross-check (``reference``
    and/or ``compiled``): each one re-simulates every mode and its
    **full SimStats record** must match the audited run bit for bit
    (engines are performance choices, never semantics choices).  Any
    drift flags an ``engine.stats`` divergence.  Naming ``compiled``
    also diffs the codegen trace generator against the interpreter.
    """
    modes = list(modes) if modes is not None else list(RecycleMode)
    verdict = ProgramVerdict(name=program.name)
    flag = verdict.divergences.append

    # 1. golden model vs trace executor
    golden = run_program(program)
    trace = generate_trace(program)
    verdict.instructions = len(trace.entries)
    verdict.trace = trace
    golden_state = golden.arch_state()
    trace_state = trace.arch_state()
    if golden_state["regs"] != trace_state["regs"]:
        flag(Divergence("arch.regs", None,
                        _diff_regs(golden_state["regs"],
                                   trace_state["regs"])))
    if golden_state["mem"] != trace_state["mem"]:
        flag(Divergence("arch.mem", None,
                        _diff_mem(golden_state["mem"],
                                  trace_state["mem"])))
    if golden.instructions != len(trace.entries):
        flag(Divergence(
            "arch.count", None,
            f"golden retired {golden.instructions}, trace recorded "
            f"{len(trace.entries)}"))
    if not golden.halted:
        flag(Divergence("arch.halt", None,
                        "golden model hit the instruction cap"))

    # 1b. compiled trace generator vs the interpreted one: the codegen
    # path must reproduce the exact same dynamic trace, entry by entry
    if engines and "compiled" in engines:
        compiled_trace = generate_trace_compiled(program)
        mismatch = _diff_traces(trace, compiled_trace)
        if mismatch:
            flag(Divergence("engine.trace", None, mismatch))

    # 2. every timing mode: audit invariants + commit-count equality
    audits = {}
    for mode in modes:
        audit = audit_run(trace, config.with_mode(mode))
        audits[mode] = audit
        verdict.cycles[mode.value] = audit.result.stats.cycles
        committed = audit.result.stats.committed
        if committed != len(trace.entries):
            flag(Divergence(
                "commit.count", mode.value,
                f"committed {committed} of {len(trace.entries)}"))
        for violation in audit.violations:
            flag(Divergence(f"audit.{violation.rule}", mode.value,
                            f"uop#{violation.seq}: {violation.detail}"))

    # 2b. backend equivalence: each requested engine must reproduce the
    # audited run's SimStats exactly, mode by mode.  An engine with a
    # registered batch entry point replays all its mode legs in one
    # batch call — itself part of the contract under test.
    for engine in engines or ():
        configs = [replace(config.with_mode(mode), engine=engine)
                   for mode in modes]
        batch_fn = None
        if simulate_fn is simulate and len(modes) > 1 \
                and engine in ENGINES:
            batch_fn = ENGINES.batch(engine)
        if batch_fn is not None:
            runs = batch_fn([(trace, cfg) for cfg in configs])
        else:
            runs = [simulate_fn(trace, cfg) for cfg in configs]
        for mode, run in zip(modes, runs):
            verdict.cycles[f"{mode.value}:{engine}"] = run.stats.cycles
            if run.stats != audits[mode].result.stats:
                flag(Divergence(
                    "engine.stats", mode.value,
                    f"engine {engine!r} diverges from the audited run: "
                    f"{_diff_stats(audits[mode].result.stats, run.stats)}"))

    # 3. metamorphic timing relations
    if metamorphic:
        verdict.divergences.extend(check_timing_relations(
            trace, config, verdict.cycles, simulate_fn=simulate_fn))
    return verdict


__all__ = ["Divergence", "ProgramVerdict", "SimulateFn", "check_program"]
