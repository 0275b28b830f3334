"""Cached prediction service — the piece serve and campaign share.

Feature extraction is the only non-trivial cost in a prediction
(~10 ms/100k dynamic instructions), and features depend on the trace
content and the core config but *not* on the recycle mode.  So
features are cached in the same content-addressed
:class:`~repro.campaign.cache.ResultCache` directory the simulator
results live in, keyed by (predict+model source digest, trace
fingerprint, :func:`~repro.campaign.cache.config_fingerprint` of the
config with its mode set to BASELINE): one cached extraction answers
every mode variant of a workload on that core, on every engine, and a
warm ``estimate`` is two small file reads plus a dot product —
microseconds.  Keying on the whole config means no hand-kept field
list can go stale; a config that differs in any field but its mode
and engine extracts its own features.

``estimate_payload`` is the worker-side entry point and mirrors
:func:`repro.serve.workers._execute_inline`: it takes the
:class:`~repro.campaign.cache.ResultCache` to read through, and with
``allow_generate=False`` it is the probe-only form that
:func:`repro.serve.workers.cached_answer` calls on the daemon's event
loop — it returns ``None`` instead of generating a trace on a cold
cache, and the request falls through to the worker pool, as a
``simulate`` that misses does.
"""

from __future__ import annotations

import hashlib
import os
import time
from typing import Any, Dict, Optional

from repro.campaign.cache import (
    ResultCache,
    PAYLOAD_SCHEMA,
    _source_digest,
    config_fingerprint,
    inline_trace_index_key,
    model_version,
    trace_fingerprint,
    trace_index_key,
)
from repro.core import CORES, RecycleMode
from repro.core.config import CoreConfig

from .calibrate import Calibration, default_calibration
from .chains import TraceFeatures, extract_features
from .model import predict


def predict_version() -> str:
    """Cache namespace: the model sources plus this package."""
    return f"{model_version()}|predict:{_source_digest(('predict',))}"


def feature_key(fingerprint: str, config: CoreConfig) -> str:
    """Cache key of one trace's extracted features under *config*: the
    same for every mode and engine of one core."""
    sha = hashlib.sha256()
    sha.update(predict_version().encode())
    sha.update(b"|features|")
    sha.update(fingerprint.encode())
    sha.update(config_fingerprint(
        config.with_mode(RecycleMode.BASELINE)).encode())
    return sha.hexdigest()[:32]


def _load_features(cache: ResultCache, fingerprint: str,
                   config: CoreConfig) -> Optional[TraceFeatures]:
    entry = cache.get(feature_key(fingerprint, config))
    if entry is None:
        return None
    try:
        return TraceFeatures.from_payload(entry["features"])
    except (KeyError, TypeError, ValueError):
        return None


def _store_features(cache: ResultCache, fingerprint: str,
                    config: CoreConfig, features: TraceFeatures) -> None:
    cache.put(feature_key(fingerprint, config), {
        "schema": PAYLOAD_SCHEMA,
        "kind": "predict-features",
        "features": features.to_payload(),
    })


def cached_features(workload: Dict[str, Any], config: CoreConfig,
                    cache: ResultCache, *,
                    allow_generate: bool = True
                    ) -> Optional[Dict[str, Any]]:
    """Features for a normalised workload dict, through the cache.

    *workload* is either ``{"suite", "bench", "scale"}`` (named) or
    ``{"program": <serialised>}`` (inline).  Returns ``{"features",
    "cache_hit", "fingerprint"}``, or ``None`` when the cache is cold
    and *allow_generate* is False.
    """
    if "suite" in workload:
        tkey = trace_index_key(workload["suite"], workload["bench"],
                               workload.get("scale"))
    else:
        tkey = inline_trace_index_key(workload["program"])

    fingerprint = cache.get_trace_fingerprint(tkey)
    if fingerprint is not None:
        features = _load_features(cache, fingerprint, config)
        if features is not None:
            return {"features": features, "cache_hit": True,
                    "fingerprint": fingerprint}
    if not allow_generate:
        return None

    trace = _materialise_trace(workload)
    fingerprint = trace_fingerprint(trace)
    cache.put_trace_fingerprint(tkey, fingerprint)
    features = _load_features(cache, fingerprint, config)
    if features is None:
        features = extract_features(trace, config)
        _store_features(cache, fingerprint, config, features)
    return {"features": features, "cache_hit": False,
            "fingerprint": fingerprint}


def _materialise_trace(workload: Dict[str, Any]):
    if "suite" in workload:
        from repro.campaign.jobs import CampaignJob, job_trace
        return job_trace(CampaignJob(
            suite=workload["suite"], bench=workload["bench"],
            core="small", mode="baseline",
            scale=workload.get("scale")))
    from repro.isa.serialize import program_from_dict
    from repro.pipeline.trace import generate_trace
    return generate_trace(program_from_dict(workload["program"]))


def estimate_payload(payload: Dict[str, Any], cache: ResultCache, *,
                     allow_generate: bool = True,
                     calibration: Optional[Calibration] = None
                     ) -> Optional[Dict[str, Any]]:
    """Execute one ``estimate`` work unit; JSON-safe result dict.

    Payload shape matches a normalised simulate payload (named or
    inline workload plus ``core`` / ``mode``) with an optional
    ``confidence``.  With ``allow_generate=False`` this never touches
    the interpreter: a cold feature cache yields ``None`` and the
    caller (the daemon's fast path) defers to the worker pool.
    """
    start = time.perf_counter()
    core = payload["core"]
    mode = payload["mode"]
    confidence = float(payload.get("confidence", 0.9))
    config = CORES[core].with_mode(RecycleMode(mode))

    if "suite" in payload:
        suite, bench = payload["suite"], payload["bench"]
        name = f"{suite}/{bench}"
        workload: Dict[str, Any] = {
            "suite": suite, "bench": bench,
            "scale": payload.get("scale")}
    else:
        suite = "inline"
        bench = payload["program"].get("name", "inline")
        name = bench
        workload = {"program": payload["program"]}

    hit = cached_features(workload, config, cache,
                          allow_generate=allow_generate)
    if hit is None:
        return None

    calibration = calibration or default_calibration()
    prediction = predict(hit["features"], config, mode,
                         calibration=calibration, confidence=confidence)
    fit, _ = calibration.fit_for(core, mode)
    quantiles = fit.error_quantiles
    result = prediction.to_payload()
    result.update({
        "workload": name,
        "suite": suite, "bench": bench,
        "core": core, "mode": mode,
        "cache_hit": hit["cache_hit"],
        "error_bound": {
            "p50_pct": round(quantiles.get("p50", 0.0) * 100, 3),
            "p95_pct": round(quantiles.get("p95", 0.0) * 100, 3),
            "max_pct": round(quantiles.get("max", 0.0) * 100, 3),
            "samples": fit.samples,
        },
        "predict_latency_us": int((time.perf_counter() - start) * 1e6),
        "worker": f"pid-{os.getpid()}",
    })
    return result
