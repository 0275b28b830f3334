"""Versioned JSON wire format and request validation.

Every request body is ``{"..."}`` JSON; the response envelope is::

    {"api": 1, "kind": "simulate", "result": {...}, "elapsed_ms": 3.1}

Validation happens *before* admission: a request that reaches the
worker pool is structurally sound, names only known suites / cores /
modes, and — for inline programs — has already been assembled once in
the server process, so text-asm parse errors map to clean 400s with a
machine-readable ``code`` instead of worker tracebacks.  Inline
programs travel to the workers as the :mod:`repro.isa.serialize` JSON
form, which round-trips every instruction field (the text assembler
cannot express resolved targets or index scales).

Specs are deterministic value objects: :func:`~SimulateSpec.fingerprint`
is a stable digest of the *work*, which is what single-flight
deduplication and the response LRU key on.
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core import CORES, ENGINES, RecycleMode
from repro.isa.decode import check_decodable
from repro.isa.program import Program
from repro.isa.serialize import program_from_dict, program_to_dict
from repro.isa.textasm import assemble_text
from repro.workloads.suites import SUITES

#: wire-format version; bump on incompatible request/response changes
API_VERSION = 1

#: hard caps that bound what one request can cost
MAX_ASM_BYTES = 64 * 1024
MAX_PROGRAM_INSTRUCTIONS = 20_000
MAX_SCALE = 20_000
MAX_VERIFY_BUDGET = 100
MAX_SWEEP_JOBS = 24
MAX_DEADLINE_MS = 300_000
DEFAULT_DEADLINE_MS = 30_000

_MODES = tuple(m.value for m in RecycleMode)


class Priority(enum.Enum):
    """Admission priority class; interactive preempts batch in-queue."""

    INTERACTIVE = "interactive"
    BATCH = "batch"


class RequestError(Exception):
    """A client error with an HTTP status and machine-readable code."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def to_payload(self) -> Dict[str, Any]:
        return {"api": API_VERSION, "error": self.code,
                "message": self.message}


def _bad(code: str, message: str) -> RequestError:
    return RequestError(400, code, message)


def _require(body: Dict[str, Any], key: str, types, code: str):
    value = body.get(key)
    if not isinstance(value, types):
        names = getattr(types, "__name__", None) or \
            "/".join(t.__name__ for t in types)
        raise _bad(code, f"field {key!r} must be {names}, "
                         f"got {type(value).__name__}")
    return value


def _check_choice(kind: str, value: str, known) -> str:
    if value not in known:
        raise _bad(f"unknown-{kind}",
                   f"unknown {kind} {value!r}; choose from {sorted(known)}")
    return value


def _parse_deadline(body: Dict[str, Any]) -> int:
    deadline = body.get("deadline_ms", DEFAULT_DEADLINE_MS)
    if not isinstance(deadline, int) or isinstance(deadline, bool) \
            or deadline <= 0:
        raise _bad("bad-deadline", "deadline_ms must be a positive integer")
    return min(deadline, MAX_DEADLINE_MS)


def _parse_priority(body: Dict[str, Any]) -> Priority:
    raw = body.get("priority", Priority.INTERACTIVE.value)
    try:
        return Priority(raw)
    except ValueError:
        raise _bad("bad-priority",
                   f"priority must be one of "
                   f"{[p.value for p in Priority]}, got {raw!r}") from None


def _parse_scale(body: Dict[str, Any]) -> Optional[int]:
    scale = body.get("scale")
    if scale is None:
        return None
    if not isinstance(scale, int) or isinstance(scale, bool) \
            or not 1 <= scale <= MAX_SCALE:
        raise _bad("bad-scale", f"scale must be an int in "
                                f"[1, {MAX_SCALE}], got {scale!r}")
    return scale


def _parse_workload(body: Dict[str, Any]) -> Dict[str, Any]:
    """Normalise the workload part of a simulate/sweep request.

    Returns either ``{"suite", "bench", "scale"}`` (named) or
    ``{"program": <serialised>}`` (inline, already assembled and
    re-serialised so the worker never parses text).
    """
    named = ("suite" in body) or ("bench" in body)
    inline = ("asm" in body) or ("program" in body)
    if named == inline:
        raise _bad("bad-workload",
                   "give either suite+bench (named workload) or "
                   "asm/program (inline), not both / neither")

    if named:
        suite = _check_choice(
            "suite", _require(body, "suite", str, "bad-suite"),
            tuple(SUITES))
        bench = _check_choice(
            "bench", _require(body, "bench", str, "bad-bench"),
            tuple(SUITES[suite]))
        return {"suite": suite, "bench": bench,
                "scale": _parse_scale(body)}

    if "asm" in body:
        source = _require(body, "asm", str, "bad-asm")
        if len(source.encode()) > MAX_ASM_BYTES:
            raise _bad("asm-too-large",
                       f"inline asm exceeds {MAX_ASM_BYTES} bytes")
        name = body.get("name", "inline")
        if not isinstance(name, str) or len(name) > 128:
            raise _bad("bad-name", "name must be a short string")
        try:
            program = assemble_text(source, name=name)
        except (ValueError, KeyError) as exc:
            # AssemblyError (line-precise) and undefined labels both
            # land here; the message carries the offending line
            raise _bad("bad-asm", f"assembly failed: {exc}") from exc
    else:
        raw = _require(body, "program", dict, "bad-program")
        try:
            program = program_from_dict(raw)
        except (ValueError, KeyError, TypeError) as exc:
            raise _bad("bad-program",
                       f"program deserialisation failed: {exc}") from exc
    if not isinstance(program, Program) or \
            len(program.instructions) > MAX_PROGRAM_INSTRUCTIONS:
        raise _bad("program-too-large",
                   f"inline programs are capped at "
                   f"{MAX_PROGRAM_INSTRUCTIONS} instructions")
    try:
        # an instruction missing an operand its opcode reads would
        # otherwise fail in the worker, once the run reaches it
        check_decodable(program.instructions)
    except ValueError as exc:
        raise _bad("bad-asm" if "asm" in body else "bad-program",
                   f"undecodable instruction: {exc}") from exc
    return {"program": program_to_dict(program)}


def _parse_core(body: Dict[str, Any], key: str = "core") -> str:
    return _check_choice(
        "core", _require(body, key, str, "bad-core"), tuple(CORES))


def _parse_mode(body: Dict[str, Any], key: str = "mode") -> str:
    return _check_choice(
        "mode", _require(body, key, str, "bad-mode"), _MODES)


def _parse_engine(body: Dict[str, Any]) -> Optional[str]:
    """Optional backend pin; ``None`` keeps the config default.

    A pinned engine joins the worker payload, so it participates in the
    spec fingerprint — an engine-pinned request never shares a
    single-flight slot or LRU entry with the default-engine form.
    """
    if "engine" not in body:
        return None
    return _check_choice(
        "engine", _require(body, "engine", str, "bad-engine"),
        tuple(ENGINES.names()))


@dataclass(frozen=True)
class BaseSpec:
    """Shared request attributes (priority + deadline)."""

    priority: Priority
    deadline_ms: int

    def worker_payloads(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    @property
    def kind(self) -> str:
        raise NotImplementedError

    @property
    def fingerprint(self) -> str:
        """Stable digest of the work (deadline/priority excluded)."""
        blob = json.dumps({"kind": self.kind,
                           "work": self.worker_payloads()},
                          sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:32]


@dataclass(frozen=True)
class SimulateSpec(BaseSpec):
    """One (workload, core, mode) simulation."""

    workload_json: str = "{}"
    core: str = "small"
    mode: str = "baseline"
    engine: Optional[str] = None

    @property
    def kind(self) -> str:
        return "simulate"

    def worker_payloads(self) -> List[Dict[str, Any]]:
        payload = json.loads(self.workload_json)
        payload.update({"core": self.core, "mode": self.mode})
        if self.engine is not None:
            payload["engine"] = self.engine
        return [payload]


@dataclass(frozen=True)
class SweepSpec(BaseSpec):
    """One workload swept over a cores × modes grid (a batch)."""

    workload_json: str = "{}"
    cores: Tuple[str, ...] = ()
    modes: Tuple[str, ...] = ()
    engine: Optional[str] = None

    @property
    def kind(self) -> str:
        return "sweep"

    def worker_payloads(self) -> List[Dict[str, Any]]:
        payloads = []
        for core in self.cores:
            for mode in self.modes:
                payload = json.loads(self.workload_json)
                payload.update({"core": core, "mode": mode})
                if self.engine is not None:
                    payload["engine"] = self.engine
                payloads.append(payload)
        return payloads


@dataclass(frozen=True)
class EstimateSpec(BaseSpec):
    """One (workload, core, mode) analytic prediction — no simulation.

    Engines are irrelevant to a prediction (the model answers for the
    machine, not a backend), but an ``engine`` field is still
    *validated* so a typo'd backend name fails loudly instead of being
    silently ignored.
    """

    workload_json: str = "{}"
    core: str = "small"
    mode: str = "baseline"
    confidence: float = 0.9

    @property
    def kind(self) -> str:
        return "estimate"

    def worker_payloads(self) -> List[Dict[str, Any]]:
        payload = json.loads(self.workload_json)
        payload.update({"core": self.core, "mode": self.mode,
                        "confidence": self.confidence})
        return [payload]


@dataclass(frozen=True)
class VerifySpec(BaseSpec):
    """A seeded differential-fuzz batch."""

    seed: int = 0
    budget: int = 10
    core: str = "small"
    metamorphic: bool = True
    engines: Tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return "verify"

    def worker_payloads(self) -> List[Dict[str, Any]]:
        payload = {"seed": self.seed, "budget": self.budget,
                   "core": self.core, "metamorphic": self.metamorphic}
        if self.engines:
            payload["engines"] = list(self.engines)
        return [payload]


def _freeze_workload(workload: Dict[str, Any]) -> str:
    """Canonical JSON of a normalised workload (specs are frozen and
    hashable, so the nested program dict travels as a string)."""
    return json.dumps(workload, sort_keys=True)


def parse_simulate(body: Dict[str, Any]) -> SimulateSpec:
    return SimulateSpec(
        priority=_parse_priority(body),
        deadline_ms=_parse_deadline(body),
        workload_json=_freeze_workload(_parse_workload(body)),
        core=_parse_core(body), mode=_parse_mode(body),
        engine=_parse_engine(body))


def parse_sweep(body: Dict[str, Any]) -> SweepSpec:
    cores = body.get("cores", list(CORES))
    modes = body.get("modes", list(_MODES))
    if not isinstance(cores, list) or not cores or \
            not isinstance(modes, list) or not modes:
        raise _bad("bad-grid", "cores and modes must be non-empty lists")
    cores = tuple(dict.fromkeys(
        _check_choice("core", c, tuple(CORES)) for c in cores))
    modes = tuple(dict.fromkeys(
        _check_choice("mode", m, _MODES) for m in modes))
    if len(cores) * len(modes) > MAX_SWEEP_JOBS:
        raise _bad("sweep-too-large",
                   f"sweep grid is capped at {MAX_SWEEP_JOBS} jobs")
    return SweepSpec(
        priority=_parse_priority(body),
        deadline_ms=_parse_deadline(body),
        workload_json=_freeze_workload(_parse_workload(body)),
        cores=cores, modes=modes, engine=_parse_engine(body))


def parse_estimate(body: Dict[str, Any]) -> EstimateSpec:
    confidence = body.get("confidence", 0.9)
    if isinstance(confidence, bool) or \
            not isinstance(confidence, (int, float)) or \
            not 0.0 < float(confidence) < 1.0:
        raise _bad("bad-confidence",
                   f"confidence must be a number in (0, 1) exclusive, "
                   f"got {confidence!r}")
    _parse_engine(body)     # validated, then ignored: see EstimateSpec
    return EstimateSpec(
        priority=_parse_priority(body),
        deadline_ms=_parse_deadline(body),
        workload_json=_freeze_workload(_parse_workload(body)),
        core=_parse_core(body), mode=_parse_mode(body),
        confidence=float(confidence))


def parse_verify(body: Dict[str, Any]) -> VerifySpec:
    budget = body.get("budget", 10)
    seed = body.get("seed", 0)
    if not isinstance(budget, int) or isinstance(budget, bool) or \
            not 1 <= budget <= MAX_VERIFY_BUDGET:
        raise _bad("bad-budget",
                   f"budget must be an int in [1, {MAX_VERIFY_BUDGET}]")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise _bad("bad-seed", "seed must be a non-negative integer")
    core = _parse_core(body) if "core" in body else "small"
    metamorphic = body.get("metamorphic", True)
    if not isinstance(metamorphic, bool):
        raise _bad("bad-metamorphic", "metamorphic must be a boolean")
    engines = body.get("engines", [])
    if not isinstance(engines, list):
        raise _bad("bad-engines", "engines must be a list of backend "
                                  "names")
    engines = tuple(dict.fromkeys(
        _check_choice("engine", e, tuple(ENGINES.names()))
        for e in engines))
    return VerifySpec(
        priority=_parse_priority(body),
        deadline_ms=_parse_deadline(body),
        seed=seed, budget=budget, core=core, metamorphic=metamorphic,
        engines=engines)


_PARSERS = {
    "simulate": parse_simulate,
    "sweep": parse_sweep,
    "estimate": parse_estimate,
    "verify": parse_verify,
}


def parse_request(kind: str, body: Any) -> BaseSpec:
    """Validate one request body into a typed, hashable spec.

    Raises :class:`RequestError` (→ HTTP 4xx) on *any* malformed input,
    including text-asm parse failures.
    """
    parser = _PARSERS.get(kind)
    if parser is None:
        raise RequestError(404, "unknown-endpoint",
                           f"no request kind {kind!r}; choose from "
                           f"{sorted(_PARSERS)}")
    if not isinstance(body, dict):
        raise _bad("bad-body", "request body must be a JSON object")
    api = body.get("api", API_VERSION)
    if api != API_VERSION:
        raise _bad("bad-api-version",
                   f"server speaks api={API_VERSION}, request says {api!r}")
    return parser(body)

