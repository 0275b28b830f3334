"""Pluggable simulation-backend registry.

The cycle model has one semantics and two implementations:

* ``reference`` — the per-cycle :meth:`CoreSimulator._step` loop, one
  cycle at a time, observability-friendly.  The differential oracle
  the other backend is checked against.
* ``compiled`` — lowers the dynamic trace into flat parallel columns
  (:mod:`repro.core.lower`), precomputes decode, predictor-hash and
  branch-resolution columns once per trace, and replays them in one
  event-skipping closure (:mod:`repro.core.compiled`).  The default.
  Falls back to ``reference`` whenever an observer is attached (the
  compiled loop has no probe points).

Backends register a factory ``(trace, config, obs=None) -> runner``
where ``runner.run()`` returns a :class:`~repro.core.cpu.SimResult`;
every caller makes one such run per job.  The built-in engines
register no *batch* entry point: :meth:`EngineRegistry.batch` answers
``None`` for both and stays only because the repository benchmark's
traced campaign (``perfbench/layers.py``) still wraps it.

Every engine must be *cycle-identical*: the backend-equivalence CI
matrix runs ``check_regression.py --exact-cycles`` once per engine
and fails on any diff, and :mod:`repro.verify` fuzzes engines against
each other nightly.  An engine is a performance choice, never a
semantics choice — which is why ``CoreConfig.engine`` is a plain
string any config path (campaign, serve, verify CLI) can thread
through.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

#: factory signature: (trace, config, obs) -> object with .run()
EngineFactory = Callable[..., Any]

#: batch signature: (items: [(trace, config)]) -> [SimResult]
BatchFactory = Callable[..., Any]


class EngineRegistry:
    """Name → backend-factory table with helpful failure modes."""

    def __init__(self) -> None:
        self._factories: Dict[str, EngineFactory] = {}
        self._batch: Dict[str, BatchFactory] = {}

    def register(self, name: str, factory: EngineFactory, *,
                 batch: Optional[BatchFactory] = None) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"engine name must be a non-empty string, "
                             f"got {name!r}")
        self._factories[name] = factory
        if batch is not None:
            self._batch[name] = batch
        else:
            self._batch.pop(name, None)

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, registration order."""
        return tuple(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def _unknown(self, name: str) -> ValueError:
        return ValueError(
            f"unknown engine {name!r}; choose from "
            f"{sorted(self._factories)}")

    def create(self, name: str, trace, config, *, obs=None):
        """Instantiate the named backend for one simulation run."""
        factory = self._factories.get(name)
        if factory is None:
            raise self._unknown(name)
        return factory(trace, config, obs=obs)

    # no built-in engine registers a batch entry and nothing in the
    # package calls ``batch``; it is kept for perfbench's timer hook
    def batch(self, name: str) -> Optional[BatchFactory]:
        """The named backend's batch entry point, or ``None``.

        Returns a callable ``batch(items) -> [SimResult]`` over
        ``(trace, config)`` pairs when the backend supports batched
        replay; ``None`` means callers should loop single runs.
        Unknown names raise, same as :meth:`create`.
        """
        if name not in self._factories:
            raise self._unknown(name)
        return self._batch.get(name)


#: process-global registry; :mod:`repro.core.cpu` populates it on import
ENGINES = EngineRegistry()

__all__ = ["ENGINES", "BatchFactory", "EngineFactory", "EngineRegistry"]
