"""Persistent, content-addressed simulation-result cache.

Every cache entry is one JSON file under ``.redsoc-cache/`` named by a
stable SHA-256 key over three components:

1. the **trace fingerprint** — a digest of the static instructions
   (opcode, operands) and of every dynamic instruction's pc, branch
   outcome, width and memory access, so a workload or scale change
   produces a different key;
2. the **config fingerprint** — the canonicalised
   :class:`~repro.core.config.CoreConfig` including mode, scheduler
   flavour and every ablation knob, but *not* the engine: engines are
   cycle-identical by contract, so one cached result serves every
   engine (``campaign run --force`` makes each engine really run);
3. the **model version** — an explicit salt plus a digest of the
   timing-model source tree, so *any* simulator change invalidates the
   whole cache cleanly instead of serving stale cycle counts.

Writes are atomic (tmp file + ``os.replace``), so concurrent workers
racing on the same key are safe: last writer wins with identical
content (the model is deterministic).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from array import array
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Optional

from repro.analysis.stats import OpDistribution, SimStats
from repro.core.config import CoreConfig
from repro.core.cpu import SimResult, simulate
from repro.pipeline.trace import Trace

LOG = logging.getLogger(__name__)

#: bump to force a cold cache even when no source file changed
#: (e.g. after a semantics-preserving refactor you do not trust yet),
#: and whenever :func:`trace_fingerprint` changes format:
#: :func:`trace_version` does not hash this module, so only the salt
#: retires trace-index entries that hold old-format fingerprints
MODEL_SALT = "redsoc-campaign-2"

#: environment override for the cache location (used by CI and tests)
CACHE_DIR_ENV = "REDSOC_CACHE_DIR"

#: default cache directory, relative to the current working directory
DEFAULT_CACHE_DIRNAME = ".redsoc-cache"

#: JSON payload schema version
PAYLOAD_SCHEMA = 1

#: repro subpackages whose source participates in the model version;
#: workloads are deliberately absent — the trace fingerprint already
#: captures everything a workload change can affect
_MODEL_PACKAGES = ("analysis", "baselines", "core", "isa", "memory",
                   "pipeline", "timing")

#: subpackages that determine a dynamic trace's *content*; the trace
#: fingerprint index (which lets warm runs skip trace regeneration)
#: must be invalidated when any of these change
_TRACE_PACKAGES = ("isa", "pipeline", "workloads")

_digest_memo: Dict[tuple, str] = {}


def _source_digest(packages: tuple = _MODEL_PACKAGES) -> str:
    """Digest of the given subpackages' sources (memoised per process)."""
    memo = _digest_memo.get(packages)
    if memo is None:
        root = Path(__file__).resolve().parent.parent
        sha = hashlib.sha256()
        for package in packages:
            for path in sorted((root / package).rglob("*.py")):
                sha.update(path.relative_to(root).as_posix().encode())
                sha.update(path.read_bytes())
        memo = _digest_memo[packages] = sha.hexdigest()
    return memo


def model_version(salt: Optional[str] = None) -> str:
    """Combined salt + source digest that namespaces every cache key."""
    return f"{salt if salt is not None else MODEL_SALT}:{_source_digest()}"


def trace_version(salt: Optional[str] = None) -> str:
    """Version namespace of the trace-fingerprint index."""
    return (f"{salt if salt is not None else MODEL_SALT}:"
            f"{_source_digest(_TRACE_PACKAGES)}")


def _canonical(value: Any) -> Any:
    """Reduce a config value to JSON-stable primitives."""
    if isinstance(value, Enum):
        return value.value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def config_fingerprint(config: CoreConfig) -> str:
    """Stable digest of a core's semantics: every field, mode included,
    except ``engine`` — a performance choice, never a semantics one.

    Memoised on the config object, which is frozen, as
    :func:`trace_fingerprint` is on its trace; with
    :meth:`~repro.core.config.CoreConfig.with_mode`'s shared instances
    each preset and mode is digested once per process.  Never memoise
    on the config's *value*: ``pvt_scale=1`` and ``pvt_scale=1.0``
    compare and hash equal but dump, and so digest, differently.
    """
    memo = config.__dict__.get("_fingerprint")
    if memo is not None:
        return memo
    canonical = _canonical(config)
    del canonical["engine"]
    blob = json.dumps(canonical, sort_keys=True)
    digest = hashlib.sha256(blob.encode()).hexdigest()
    object.__setattr__(config, "_fingerprint", digest)
    return digest


def _instr_row(instr) -> str:
    """The 14 decoded fields of one static instruction, as text."""
    return repr((
        instr.op.name,
        instr.rd and repr(instr.rd), instr.rn and repr(instr.rn),
        instr.rm and repr(instr.rm), instr.ra and repr(instr.ra),
        instr.rs and repr(instr.rs),
        instr.imm, instr.shift.name, instr.shift_amt,
        instr.set_flags, instr.cond.name, instr.target,
        instr.dtype and instr.dtype.name, instr.scale))


def trace_fingerprint(trace: Trace) -> str:
    """Stable digest of a dynamic trace's timing-relevant content.

    Hashes the trace name, the static instruction table (each distinct
    pc with its instruction's decoded fields, in pc order) and seven
    int64 entry columns as flat bytes: ``pc``, ``next_pc``, ``taken``,
    ``op_width``, ``mem_addr`` (``-1`` for none), ``mem_size`` and
    ``is_store``.  The columns come straight from ``trace.entries``,
    so the cache does not depend on the compiled engine's lowering.

    The table keeps one instruction per pc, so every entry at a pc must
    run the same one, the program's (:func:`repro.core.lower.lower_trace`
    relies on this too); a trace that breaks this raises
    :class:`ValueError` instead of getting a digest that cannot tell
    its instructions apart.

    Memoised on the trace object: campaigns and bench sessions probe
    the cache once per (core, mode) for the same trace.
    """
    memo = getattr(trace, "_fingerprint", None)
    if memo is not None:
        return memo
    entries = trace.entries
    pcs = [e.pc for e in entries]
    instrs = [e.instr for e in entries]
    static = dict(zip(pcs, instrs))
    if list(map(static.__getitem__, pcs)) != instrs:
        raise ValueError(f"trace {trace.name!r} runs more than one "
                         f"instruction at the same pc")
    sha = hashlib.sha256()
    sha.update(repr((trace.name, len(static), len(entries))).encode())
    for pc in sorted(static):
        sha.update(f"{pc}:{_instr_row(static[pc])}".encode())
    for column in (
            pcs,
            [e.next_pc for e in entries],
            [e.taken for e in entries],
            [e.op_width for e in entries],
            [-1 if e.mem_addr is None else e.mem_addr for e in entries],
            [e.mem_size for e in entries],
            [e.is_store for e in entries]):
        sha.update(array("q", column).tobytes())
    digest = sha.hexdigest()
    trace._fingerprint = digest
    return digest


def result_key_from_fingerprint(fingerprint: str, config: CoreConfig, *,
                                salt: Optional[str] = None) -> str:
    """Cache key from a pre-computed trace fingerprint.

    Keys carry semantics only: the engine is left out, so a result
    cached by one engine answers every other.  Engine *source* changes
    are still covered by :func:`model_version`, which hashes every file
    under ``core/`` and ``pipeline/``.
    """
    sha = hashlib.sha256()
    sha.update(model_version(salt).encode())
    sha.update(fingerprint.encode())
    sha.update(config_fingerprint(config).encode())
    return sha.hexdigest()[:32]


def result_key(trace: Trace, config: CoreConfig, *,
               salt: Optional[str] = None) -> str:
    """Cache key for simulating *trace* on *config*."""
    return result_key_from_fingerprint(trace_fingerprint(trace), config,
                                       salt=salt)


def trace_index_key(suite: str, bench: str,
                    scale: Optional[int] = None, *,
                    salt: Optional[str] = None) -> str:
    """Index key mapping a (suite, bench, scale) job to its trace
    fingerprint, namespaced by the trace-generation source version."""
    blob = f"{trace_version(salt)}|{suite}|{bench}|{scale!r}"
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def inline_trace_index_key(program: Dict[str, Any]) -> str:
    """Index key of an inline (serialised) program, shared by serve's
    simulate and estimate paths."""
    digest = hashlib.sha256(json.dumps(
        program, sort_keys=True).encode()).hexdigest()
    return trace_index_key("serve-inline", digest)


def default_cache_dir() -> Path:
    """Cache root: ``$REDSOC_CACHE_DIR`` or ``./.redsoc-cache``."""
    override = os.environ.get(CACHE_DIR_ENV)
    return Path(override) if override else Path(DEFAULT_CACHE_DIRNAME)


def result_to_payload(result: SimResult) -> Dict[str, Any]:
    """Serialise a :class:`SimResult` to a JSON-safe dict."""
    stats = asdict(result.stats)
    return {
        "schema": PAYLOAD_SCHEMA,
        "name": result.name,
        "core": result.config.name,
        "mode": result.config.mode.value,
        "cycles": result.stats.cycles,
        "ipc": result.stats.ipc,
        "stats": stats,
    }


def payload_to_result(payload: Dict[str, Any],
                      config: CoreConfig) -> SimResult:
    """Rebuild a :class:`SimResult` from a cached payload."""
    raw = dict(payload["stats"])
    distribution = OpDistribution(counts=dict(raw.pop("distribution")["counts"]))
    stats = SimStats(distribution=distribution, **raw)
    return SimResult(name=payload["name"], config=config, stats=stats)


class ResultCache:
    """JSON-per-key result store with hit/miss/corruption accounting.

    The cache directory is shared between campaign runs and the serve
    daemon's worker processes, so reads must tolerate anything another
    writer (or a crash) can leave behind: a torn or truncated entry, a
    non-JSON blob, a payload of the wrong shape.  All of those are
    treated as misses, counted in ``corrupt``, surfaced through the
    optional *metrics* registry (``cache.corrupt_entries``) and the
    module logger, and the offending file is unlinked so the next
    write replaces it cleanly.
    """

    def __init__(self, root: Optional[Path] = None, *,
                 metrics=None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.metrics = metrics

    def path(self, key: str) -> str:
        # a plain string: pathlib ``sys.intern``s every component it
        # parses, so a long-lived daemon probing many distinct entry
        # names would churn the interpreter's interned-string table
        return os.path.join(self.root, f"{key}.json")

    def _note_corrupt(self, path: str, reason: str) -> None:
        self.corrupt += 1
        if self.metrics is not None:
            self.metrics.counter("cache.corrupt_entries").inc()
        LOG.warning("corrupt cache entry %s (%s); treating as a miss",
                    path, reason,
                    extra={"entry": path, "reason": reason,
                           "corrupt_total": self.corrupt})
        try:
            os.unlink(path)
        except OSError:
            pass    # another reader may have unlinked it already

    def _load(self, path: str) -> Optional[Dict[str, Any]]:
        """Read one JSON-object file; corrupt entries become ``None``."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) \
                as exc:
            self._note_corrupt(path, f"{type(exc).__name__}: {exc}")
            return None
        except OSError as exc:      # unreadable, not provably corrupt
            LOG.warning("unreadable cache entry %s (%s)", path, exc)
            return None
        if not isinstance(payload, dict):
            self._note_corrupt(
                path, f"expected a JSON object, got "
                      f"{type(payload).__name__}")
            return None
        return payload

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Load a payload, counting the probe as a hit or miss."""
        payload = self._load(self.path(key))
        if payload is None or payload.get("schema") != PAYLOAD_SCHEMA:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    @staticmethod
    def _write_atomic(path: str, payload: Dict[str, Any]) -> None:
        """Write-to-tempfile + an ``fsync`` + ``os.replace``: concurrent
        readers either see the old file or the complete new one, never
        a torn write — even across a crash."""
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist *payload* under *key*."""
        self._write_atomic(self.path(key), payload)

    # -- trace-fingerprint index -------------------------------------
    #
    # Workload builders are deterministic, so a (suite, bench, scale)
    # job always yields the same trace for a given source version.
    # Caching that mapping lets a fully-warm campaign answer every job
    # from disk without regenerating (or re-hashing) a single trace.

    def trace_index_path(self, tkey: str) -> str:
        return os.path.join(self.root, "traces", f"{tkey}.json")

    def get_trace_fingerprint(self, tkey: str) -> Optional[str]:
        path = self.trace_index_path(tkey)
        payload = self._load(path)
        if payload is None:
            return None
        fingerprint = payload.get("fingerprint")
        if not isinstance(fingerprint, str):
            self._note_corrupt(path, "index entry has no fingerprint")
            return None
        return fingerprint

    def put_trace_fingerprint(self, tkey: str, fingerprint: str) -> None:
        # not via put(): index writes are not result writes
        self._write_atomic(self.trace_index_path(tkey),
                           {"fingerprint": fingerprint})

    def clear(self) -> int:
        """Delete every cache entry; return how many results were
        removed (the trace index is dropped as well)."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                path.unlink()
                removed += 1
            for path in self.root.glob("traces/*.json"):
                path.unlink()
        return removed

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))


def cached_simulate(trace: Trace, config: CoreConfig,
                    cache: ResultCache, *,
                    force: bool = False) -> SimResult:
    """Simulate *trace* on *config*, reading/writing through *cache*.

    With ``force=True`` the probe is skipped (the entry is still
    rewritten), which is how ``campaign run --force`` refreshes a cache
    without clearing unrelated keys.
    """
    key = result_key(trace, config)
    if not force:
        payload = cache.get(key)
        if payload is not None:
            return payload_to_result(payload, config)
    else:
        cache.misses += 1
    result = simulate(trace, config)
    cache.put(key, result_to_payload(result))
    return result
