"""Lightweight replay instrumentation: named counters, timers and spans.

The replay stack is fast but was opaque: when a vector replay hands the
last flows to the scalar dwell tail, a worker pool breaks and retries
serially, or SAC renormalises mid-run, nothing recorded it.  This module
is the event plumbing the engines thread their hot paths through —
deliberately tiny, so it can sit inside loops that process millions of
packets.

Design
------
A :class:`Telemetry` object holds two flat dicts:

* **counters** — monotonically increasing named integers
  (``"batch.columns"``, ``"parallel.pool.broken_retries"``, ...);
* **timers** — named ``(seconds, count)`` accumulators, fed either by a
  scoped :meth:`~Telemetry.span` or an externally measured
  :meth:`~Telemetry.timing`.

Every mutator checks ``self.enabled`` first, so the **disabled path is
one attribute test and a branch** — cheap enough to leave the calls in
the hot layers permanently.  Hot loops never count per packet: the
engines aggregate (per column, per replay, per pool event) and the
kernels' event counts are harvested *after* the run from plain integer
attributes they maintain anyway.

Snapshots (:meth:`Telemetry.snapshot`) are plain JSON-able dicts; they
attach to :class:`~repro.harness.runner.RunResult` /
:class:`~repro.core.batchreplay.ReplicaReplayResult`, travel back from
worker processes, and :meth:`Telemetry.merge` folds them into a parent
session — which is how ``replay_parallel`` aggregates events across a
process pool.

Usage
-----
Per-session (explicit, preferred in library code)::

    from repro import Telemetry, replay
    tel = Telemetry()
    result = replay(scheme, trace, telemetry=tel)
    tel.snapshot()["counters"]["replay.engine.python"]   # -> 1

Process-global (ambient, for CLI runs and quick looks)::

    import repro.obs as obs
    obs.enable()
    ... any replays ...
    obs.get().snapshot()

The global registry starts disabled unless the ``REPRO_OBS`` environment
variable is set to ``1``/``true``/``yes``/``on``.  The catalogue of
event names the engines emit is documented in ``docs/telemetry.md`` —
including the ``faults.*`` / ``recovery.*`` events the fault-injection
layer (:mod:`repro.faults`) and the parallel driver's recovery paths
record, which exist precisely so failure handling is assertable through
this module rather than merely survivable.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional

__all__ = [
    "Telemetry",
    "get",
    "enable",
    "disable",
    "resolve",
    "NULL_TELEMETRY",
]


class _Span:
    """Context manager feeding one timer; created only when enabled."""

    __slots__ = ("_telemetry", "_name", "_start")

    def __init__(self, telemetry: "Telemetry", name: str) -> None:
        self._telemetry = telemetry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._telemetry.timing(self._name,
                               time.perf_counter() - self._start)


class _NullSpan:
    """The disabled path's span: enter/exit do nothing, one shared object."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Telemetry:
    """A named-event registry: counters plus duration accumulators.

    ``enabled=False`` freezes the instance into a no-op recorder — every
    mutator returns after one attribute check, so instrumented code pays
    nothing measurable when observation is off.
    """

    __slots__ = ("enabled", "counters", "timers")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        #: name -> cumulative integer count.
        self.counters: Dict[str, int] = {}
        #: name -> [cumulative seconds, number of samples].
        self.timers: Dict[str, list] = {}

    # -- recording ----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter (no-op when disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + int(n)

    def timing(self, name: str, seconds: float, samples: int = 1) -> None:
        """Fold an externally measured duration into the named timer."""
        if not self.enabled:
            return
        entry = self.timers.get(name)
        if entry is None:
            self.timers[name] = [float(seconds), int(samples)]
        else:
            entry[0] += float(seconds)
            entry[1] += int(samples)

    def span(self, name: str):
        """Scoped timer: ``with tel.span("batch.columnar_phase"): ...``.

        Returns a shared no-op object when disabled, so the ``with``
        block costs two trivial calls and no allocation.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name)

    # -- reading ------------------------------------------------------------

    def count_of(self, name: str) -> int:
        """The named counter's current value (0 when never counted).

        Convenience for invariant assertions — ``tel.count_of(
        "recovery.serial_retry")`` instead of reaching into the
        ``counters`` dict with a default.
        """
        return self.counters.get(name, 0)

    # -- aggregation --------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-able copy: ``{"counters": {...}, "timers": {...}}``.

        Timer entries serialise as ``{"seconds": float, "count": int}``.
        """
        return {
            "counters": dict(self.counters),
            "timers": {name: {"seconds": entry[0], "count": entry[1]}
                       for name, entry in self.timers.items()},
        }

    def merge(self, snapshot: Optional[Dict[str, dict]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this one.

        ``None`` (a run that recorded nothing) is accepted and ignored.
        No-op when disabled, mirroring the mutators.
        """
        if not self.enabled or not snapshot:
            return
        for name, n in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + int(n)
        for name, entry in snapshot.get("timers", {}).items():
            self.timing(name, entry["seconds"], entry["count"])

    def clear(self) -> None:
        """Drop every recorded counter and timer (keeps ``enabled``)."""
        self.counters.clear()
        self.timers.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (f"Telemetry({state}, {len(self.counters)} counters, "
                f"{len(self.timers)} timers)")


def _env_enabled() -> bool:
    return os.environ.get("REPRO_OBS", "").strip().lower() in (
        "1", "true", "yes", "on")


#: Always-disabled shared instance: the zero-cost sink instrumented code
#: uses when neither a session nor the global registry is recording.
NULL_TELEMETRY = Telemetry(enabled=False)

#: The ambient process-global registry (disabled unless ``REPRO_OBS`` set).
_GLOBAL = Telemetry(enabled=_env_enabled())


def get() -> Telemetry:
    """The process-global :class:`Telemetry` registry."""
    return _GLOBAL


def enable() -> Telemetry:
    """Switch the global registry on; returns it for chaining."""
    _GLOBAL.enabled = True
    return _GLOBAL


def disable() -> Telemetry:
    """Switch the global registry off (recorded events are kept)."""
    _GLOBAL.enabled = False
    return _GLOBAL


def resolve(telemetry: Optional[Telemetry]) -> Telemetry:
    """Map a ``telemetry=`` argument to the registry to record into.

    ``None`` means "the ambient global registry" — which is usually
    disabled, making the default path free; passing an explicit
    :class:`Telemetry` scopes recording to that session.
    """
    return _GLOBAL if telemetry is None else telemetry
