"""Calibration: fitting the analytic model against exact runs.

A :class:`Calibration` maps ``"core:mode"`` keys to :class:`ModeFit`
records — non-negative least-squares coefficients over the model's
feature basis plus the fit's observed relative-error quantiles (which
become the prediction intervals and the served error-bound metadata).

``fit_calibration`` consumes ``(features, actual-cycles)`` samples from
exact simulations, splits benchmarks into train/holdout by a stable
hash of the benchmark name (so refits are reproducible and the holdout
never leaks into the coefficients), and solves *relative-space*
weighted least squares (weights ``1/actual`` — the MAPE objective) on
the train split with a tiny relative ridge via Gaussian elimination —
in pure Python.  The feature subset is chosen per group by worst-case error
on data the coefficients never saw (leave-one-out refits plus the
holdout as a validation set).  Negative coefficients are eliminated by
iterative deletion (NNLS-by-deletion), and a negative intercept drops
to zero; both keep every term non-negative, which the metamorphic
monotonicity guarantees in :mod:`repro.predict.model` rely on.  Error
quantiles are then measured over *all* samples of the key, holdout
included.

The committed ``calibration.json`` next to this module is the default
calibration shipped with the repo; ``campaign predict
--fit-calibration`` regenerates it from a fresh exact matrix.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: bump when the fit file layout changes
CALIBRATION_SCHEMA = 1

_QUANTILE_KNOTS = ((0.5, "p50"), (0.9, "p90"), (0.95, "p95"), (0.995, "max"))


@dataclass
class ModeFit:
    """One fitted ``core:mode`` model with its error distribution."""

    coef: Dict[str, float]
    intercept: float = 0.0
    error_quantiles: Dict[str, float] = field(default_factory=dict)
    samples: int = 0

    def error_at(self, confidence: float) -> float:
        """Relative-error bound at *confidence*, interpolated between
        the fitted quantile knots (beyond the observed max the bound
        widens rather than pretending to more precision)."""
        q = self.error_quantiles
        pts = [(c, q.get(name, 0.0)) for c, name in _QUANTILE_KNOTS]
        if confidence <= pts[0][0]:
            return pts[0][1]
        if confidence > pts[-1][0]:
            return pts[-1][1] * 1.5 + 0.05
        for (c0, e0), (c1, e1) in zip(pts, pts[1:]):
            if confidence <= c1:
                if c1 == c0:
                    return max(e0, e1)
                frac = (confidence - c0) / (c1 - c0)
                return e0 + frac * (e1 - e0)
        return pts[-1][1]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "coef": {k: round(v, 8) for k, v in self.coef.items()},
            "intercept": round(self.intercept, 8),
            "error_quantiles": {k: round(v, 8)
                                for k, v in self.error_quantiles.items()},
            "samples": self.samples,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ModeFit":
        return cls(
            coef={str(k): float(v) for k, v in payload["coef"].items()},
            intercept=float(payload.get("intercept", 0.0)),
            error_quantiles={str(k): float(v) for k, v in
                             payload.get("error_quantiles", {}).items()},
            samples=int(payload.get("samples", 0)),
        )


#: last-resort fit when no calibration file is available: pure roofline
#: with the penalty terms at unit weight and a wide error band
_FALLBACK_FIT = ModeFit(
    coef={"base": 1.0, "bmiss": 1.0, "mem": 0.5},
    intercept=0.0,
    error_quantiles={"p50": 0.15, "p90": 0.35, "p95": 0.5, "max": 1.0},
    samples=0,
)


@dataclass
class Calibration:
    """A set of fitted models, looked up most-specific-first."""

    fits: Dict[str, ModeFit] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)

    def fit_for(self, core: str, mode: str) -> Tuple[ModeFit, str]:
        """Resolve ``core:mode`` → (fit, key actually used)."""
        for key in (f"{core}:{mode}", f"*:{mode}", "*"):
            fit = self.fits.get(key)
            if fit is not None:
                return fit, key
        return _FALLBACK_FIT, "fallback"

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema": CALIBRATION_SCHEMA,
            "meta": self.meta,
            "fits": {key: fit.to_payload()
                     for key, fit in sorted(self.fits.items())},
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "Calibration":
        if payload.get("schema") != CALIBRATION_SCHEMA:
            raise ValueError(
                f"calibration schema {payload.get('schema')!r} "
                f"!= {CALIBRATION_SCHEMA}")
        return cls(
            fits={str(k): ModeFit.from_payload(v)
                  for k, v in payload.get("fits", {}).items()},
            meta=dict(payload.get("meta", {})),
        )

    def save(self, path) -> None:
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True)
                       + "\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path) -> "Calibration":
        return cls.from_json(json.loads(Path(path).read_text()))


_DEFAULT_PATH = Path(__file__).resolve().parent / "calibration.json"
_default_cache: Optional[Calibration] = None


def default_calibration() -> Calibration:
    """The committed calibration shipped with the package (memoized);
    an empty-but-usable fallback when the file is absent."""
    global _default_cache
    if _default_cache is None:
        if _DEFAULT_PATH.exists():
            _default_cache = Calibration.load(_DEFAULT_PATH)
        else:
            _default_cache = Calibration(meta={"source": "fallback"})
    return _default_cache


# --------------------------------------------------------------------
# fitting


def _solve(matrix: List[List[float]], rhs: List[float]
           ) -> Optional[List[float]]:
    """Gaussian elimination with partial pivoting; None if singular."""
    k = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot = max(range(col, k), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot][col]) < 1e-12:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        for r in range(k):
            if r == col:
                continue
            factor = aug[r][col] / pv
            if factor == 0.0:
                continue
            for c in range(col, k + 1):
                aug[r][c] -= factor * aug[col][c]
    return [aug[i][k] / aug[i][i] for i in range(k)]


def _fit_nnls(rows: Sequence[Dict[str, float]], targets: Sequence[float],
              names: Sequence[str],
              weights: Optional[Sequence[float]] = None,
              ) -> Tuple[Dict[str, float], float]:
    """Weighted OLS with relative ridge, negatives removed by deletion.

    With ``weights = 1 / actual`` this is a relative-space fit: every
    sample contributes its *percentage* error to the loss, so small
    benchmarks are not drowned out by large ones — the right objective
    when the acceptance gate is MAPE.
    """
    if weights is None:
        weights = [1.0] * len(rows)
    active = [n for n in names
              if any(row.get(n, 0.0) != 0.0 for row in rows)]
    use_intercept = True
    while True:
        cols = list(active) + (["\0intercept"] if use_intercept else [])
        if not cols:
            break
        k = len(cols)
        xtx = [[0.0] * k for _ in range(k)]
        xty = [0.0] * k
        for row, y, w in zip(rows, targets, weights):
            vals = [w if c == "\0intercept" else w * row.get(c, 0.0)
                    for c in cols]
            wy = w * y
            for i in range(k):
                vi = vals[i]
                if vi == 0.0:
                    continue
                xty[i] += vi * wy
                for j in range(i, k):
                    xtx[i][j] += vi * vals[j]
        for i in range(k):
            for j in range(i):
                xtx[i][j] = xtx[j][i]
            xtx[i][i] *= 1.0 + 1e-8
            xtx[i][i] += 1e-9
        beta = _solve(xtx, xty)
        if beta is None:
            # degenerate design: drop the last active feature and retry
            if active:
                active.pop()
                continue
            break
        coef = dict(zip(cols, beta))
        intercept = coef.pop("\0intercept", 0.0)
        worst = min(active, key=lambda n: coef[n], default=None)
        if worst is not None and coef[worst] < -1e-9:
            active.remove(worst)
            continue
        if use_intercept and intercept < -1e-9:
            use_intercept = False
            continue
        return ({n: max(0.0, coef[n]) for n in active},
                max(0.0, intercept))
    # nothing fit: scale the roofline term to the mean observed ratio
    ratios = [y / row["base"] for row, y in zip(rows, targets)
              if row.get("base", 0.0) > 0]
    scale = sum(ratios) / len(ratios) if ratios else 1.0
    return {"base": scale}, 0.0


def _loo_error(rows: Sequence[Dict[str, float]],
               targets: Sequence[float],
               weights: Sequence[float],
               names: Sequence[str]) -> Tuple[float, float]:
    """Leave-one-out relative error of a feature subset.

    Returns ``(max, mean)`` over the held-out points — the max comes
    first because the acceptance gate is per-benchmark, so a subset
    that nails nine benchmarks and tanks the tenth must lose to one
    that is merely decent everywhere.
    """
    total = 0.0
    worst = 0.0
    n = len(rows)
    for i in range(n):
        r = rows[:i] + rows[i + 1:]
        t = targets[:i] + targets[i + 1:]
        w = weights[:i] + weights[i + 1:]
        coef, intercept = _fit_nnls(r, t, names, w)
        pred = intercept + sum(c * rows[i].get(k, 0.0)
                               for k, c in coef.items())
        err = abs(pred - targets[i]) / max(1.0, targets[i])
        total += err
        if err > worst:
            worst = err
    return worst, total / n


def _select_features(rows: Sequence[Dict[str, float]],
                     targets: Sequence[float],
                     weights: Sequence[float],
                     names: Sequence[str],
                     val_rows: Sequence[Dict[str, float]] = (),
                     val_targets: Sequence[float] = (),
                     ) -> Tuple[Dict[str, float], float]:
    """Pick the feature subset that generalises, then fit it.

    Rich bases overfit small train splits (one group has ~10 training
    benchmarks), so subsets are scored on data the coefficients never
    saw: the worst relative error across (a) leave-one-out refits of
    the train split and (b) the holdout validation samples, with the
    mean as tie-break.  Worst-case-first matches the acceptance gate
    (max error per benchmark): a subset that nails nine benchmarks and
    tanks the tenth must lose to one that is merely decent everywhere.
    ``base`` (the roofline) is always included; extras are capped at
    three; ties break toward fewer features.
    """
    extras = [n for n in names if n != "base"
              and any(row.get(n, 0.0) != 0.0 for row in rows)]
    best: Optional[Tuple[float, float, int, Tuple[str, ...]]] = None
    from itertools import combinations
    for size in range(0, min(4, len(extras)) + 1):
        for combo in combinations(extras, size):
            subset = ("base",) + combo
            worst, mean = _loo_error(rows, targets, weights, subset)
            if val_rows:
                coef, intercept = _fit_nnls(rows, targets, subset,
                                            weights)
                errs = []
                for vr, vt in zip(val_rows, val_targets):
                    pred = intercept + sum(
                        c * vr.get(k, 0.0) for k, c in coef.items())
                    errs.append(abs(pred - vt) / max(1.0, vt))
                worst = max([worst] + errs)
                mean = (mean * len(rows) + sum(errs)) \
                    / (len(rows) + len(errs))
            cand = (worst, mean, size, subset)
            if best is None or cand < best:
                best = cand
    subset = best[3] if best is not None else ("base",)
    return _fit_nnls(rows, targets, subset, weights)


def _quantile(sorted_errs: Sequence[float], q: float) -> float:
    if not sorted_errs:
        return 0.0
    idx = min(len(sorted_errs) - 1,
              max(0, int(q * len(sorted_errs) + 0.999999) - 1))
    return sorted_errs[idx]


def _in_holdout(bench: str, holdout_fraction: float) -> bool:
    digest = hashlib.sha256(bench.encode("utf-8")).hexdigest()
    return (int(digest, 16) % 1000) < int(holdout_fraction * 1000)


def fit_calibration(samples: Sequence[Dict[str, Any]], *,
                    holdout_fraction: float = 0.3,
                    min_train: int = 4) -> Calibration:
    """Fit a :class:`Calibration` from exact-run samples.

    Each sample is a dict with ``bench`` (grouping key for the holdout
    split), ``core``, ``mode``, ``features`` (the named feature vector
    from :func:`repro.predict.model.feature_vector`) and ``actual``
    (exact simulated cycles).  Per-``core:mode`` fits are produced when
    the train split has at least *min_train* samples; pooled
    ``*:mode`` and global ``*`` fits always exist as fallbacks.
    """
    from .model import FEATURE_NAMES

    groups: Dict[str, List[Dict[str, Any]]] = {}
    for sample in samples:
        key = f"{sample['core']}:{sample['mode']}"
        groups.setdefault(key, []).append(sample)
        groups.setdefault(f"*:{sample['mode']}", []).append(sample)
        groups.setdefault("*", []).append(sample)

    fits: Dict[str, ModeFit] = {}
    for key, group in groups.items():
        train = [s for s in group
                 if not _in_holdout(str(s["bench"]), holdout_fraction)]
        holdout = [s for s in group
                   if _in_holdout(str(s["bench"]), holdout_fraction)]
        if len(train) < min_train:
            train = list(group)
            holdout = []
        if len(train) < min_train and not key.startswith("*"):
            continue
        if not train:
            continue
        rows = [s["features"] for s in train]
        targets = [float(s["actual"]) for s in train]
        weights = [1.0 / max(1.0, y) for y in targets]
        coef, intercept = _select_features(
            rows, targets, weights, FEATURE_NAMES,
            val_rows=[s["features"] for s in holdout],
            val_targets=[float(s["actual"]) for s in holdout])
        fit = ModeFit(coef=coef, intercept=intercept, samples=len(group))
        errs = sorted(
            abs(_predict_raw(s["features"], fit) - float(s["actual"]))
            / max(1.0, float(s["actual"]))
            for s in group)
        fit.error_quantiles = {
            "p50": _quantile(errs, 0.5),
            "p90": _quantile(errs, 0.9),
            "p95": _quantile(errs, 0.95),
            "max": errs[-1] if errs else 0.0,
        }
        fits[key] = fit

    return Calibration(fits=fits, meta={
        "samples": len(list(samples)),
        "holdout_fraction": holdout_fraction,
        "keys": sorted(fits),
    })


def _predict_raw(features: Dict[str, float], fit: ModeFit) -> float:
    cycles = fit.intercept
    for name, weight in fit.coef.items():
        cycles += weight * features.get(name, 0.0)
    return max(1.0, cycles)
