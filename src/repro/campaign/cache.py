"""Persistent, content-addressed simulation-result cache.

Every cache entry is one JSON file under ``.redsoc-cache/`` named by a
stable SHA-256 key over three components:

1. the **trace fingerprint** — a digest of every dynamic instruction
   (opcode, operands, widths, memory addresses, branch outcomes), so a
   workload or scale change produces a different key;
2. the **config fingerprint** — the canonicalised
   :class:`~repro.core.config.CoreConfig` including mode, scheduler
   flavour and every ablation knob;
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
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Dict, Optional

LOG = logging.getLogger(__name__)

from repro.analysis.stats import OpDistribution, SimStats
from repro.core.config import CoreConfig
from repro.core.cpu import SimResult, simulate
from repro.pipeline.trace import Trace

#: bump to force a cold cache even when no source file changed
#: (e.g. after a semantics-preserving refactor you do not trust yet)
MODEL_SALT = "redsoc-campaign-1"

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
    """Stable digest of a full core parameterisation (mode included)."""
    blob = json.dumps(_canonical(config), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def trace_fingerprint(trace: Trace) -> str:
    """Stable digest of a dynamic trace's timing-relevant content.

    Memoised on the trace object: campaigns and bench sessions probe
    the cache once per (core, mode) for the same trace.
    """
    memo = getattr(trace, "_fingerprint", None)
    if memo is not None:
        return memo
    sha = hashlib.sha256()
    sha.update(trace.name.encode())
    for entry in trace.entries:
        instr = entry.instr
        sha.update(repr((
            instr.op.name,
            instr.rd and repr(instr.rd), instr.rn and repr(instr.rn),
            instr.rm and repr(instr.rm), instr.ra and repr(instr.ra),
            instr.rs and repr(instr.rs),
            instr.imm, instr.shift.name, instr.shift_amt,
            instr.set_flags, instr.cond.name, instr.target,
            instr.dtype and instr.dtype.name, instr.scale,
            entry.pc, entry.next_pc, entry.taken, entry.op_width,
            entry.mem_addr, entry.mem_size, entry.is_store,
        )).encode())
    digest = sha.hexdigest()
    trace._fingerprint = digest
    return digest


def result_key_from_fingerprint(fingerprint: str, config: CoreConfig, *,
                                salt: Optional[str] = None) -> str:
    """Cache key from a pre-computed trace fingerprint.

    The engine identifier is folded in *explicitly* (it is also part of
    the config fingerprint): switching ``engine=`` must never serve a
    stale cached result, and this line is the one the invalidation test
    pins.  Engine *source* changes are covered by :func:`model_version`,
    which hashes every file under ``core/`` and ``pipeline/``.
    """
    sha = hashlib.sha256()
    sha.update(model_version(salt).encode())
    sha.update(fingerprint.encode())
    sha.update(config_fingerprint(config).encode())
    sha.update(f"engine:{config.engine}".encode())
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

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _note_corrupt(self, path: Path, reason: str) -> None:
        self.corrupt += 1
        if self.metrics is not None:
            self.metrics.counter("cache.corrupt_entries").inc()
        LOG.warning("corrupt cache entry %s (%s); treating as a miss",
                    path, reason,
                    extra={"entry": str(path), "reason": reason,
                           "corrupt_total": self.corrupt})
        try:
            path.unlink()
        except OSError:
            pass    # another reader may have unlinked it already

    def _load(self, path: Path) -> Optional[Dict[str, Any]]:
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

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist *payload* under *key*.

        Write-to-tempfile + ``os.replace`` + an ``fsync`` before the
        rename: concurrent readers either see the old entry or the
        complete new one, never a torn write — even across a crash.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- trace-fingerprint index -------------------------------------
    #
    # Workload builders are deterministic, so a (suite, bench, scale)
    # job always yields the same trace for a given source version.
    # Caching that mapping lets a fully-warm campaign answer every job
    # from disk without regenerating (or re-hashing) a single trace.

    def trace_index_path(self, tkey: str) -> Path:
        return self.root / "traces" / f"{tkey}.json"

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
        index_dir = self.root / "traces"
        index_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(index_dir), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump({"fingerprint": fingerprint}, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.trace_index_path(tkey))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

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
