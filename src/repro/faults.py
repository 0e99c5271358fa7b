"""Deterministic fault injection for the parallel replay stack.

The parallel driver (:mod:`repro.harness.parallel`) recovers from a
small set of real-world failures — dead workers, broken pools, refused
shared memory — and each recovery path must preserve the replay
invariants: results bit-identical to serial execution, telemetry merged
exactly once, no leaked ``/dev/shm`` segments.  Those paths are nearly
impossible to hit on demand, so this module provides *seams*: named
call-sites inside the driver that an armed :class:`FaultPlan` can turn
into deterministic failures.

Sites
-----
``pool.create``
    Constructing the persistent ``ProcessPoolExecutor``.
``pool.submit``
    Submitting one unit to the pool (fired with the unit index).
``result.collect``
    Recording one unit's collected outcome (fired with the unit index,
    *after* the worker returned but *before* the outcome is stored — the
    "collected but lost" hazard that exercises exactly-once telemetry).
``shm.create``
    Creating a shared-memory segment for a published trace.
``shm.unlink``
    Unlinking a published segment.
``shm.attach``
    A worker mapping a published segment (worker process only).
``worker.run``
    A worker starting a unit (worker process only; the one site where
    ``action="kill"`` is allowed).
``shard.run``
    A stream session about to replay one shard's slice of a chunk
    (fired with the shard index — see :mod:`repro.streaming`).
``checkpoint.write``
    Between serialising a stream checkpoint and atomically publishing
    it (``os.replace``); an injected failure here leaves the previous
    checkpoint intact, which is exactly the crash the resume tests
    rehearse.
``serve.ingest``
    The serve daemon about to ingest one feed batch (fired with the
    batch index) — see :mod:`repro.serve`.
``serve.checkpoint``
    The serve daemon about to write a scheduled checkpoint; an injected
    failure here crashes the daemon *between* checkpoints, the scenario
    the ``serve --resume`` bit-identity tests rehearse.

Arming
------
Pass ``faults=`` to :func:`repro.harness.parallel.replay_parallel` or
``repro.stream(..., faults=)`` — a
:class:`FaultPlan`, or a string in the plan grammar::

    site[:action][:key=value]...[;site...]

    "worker.run:kill:unit=1"              kill the worker running unit 1
    "shm.attach:raise:exception=OSError"  fail every worker attach
    "result.collect:raise:exception=BrokenProcessPool:after=1:times=1"

or set the ``REPRO_FAULTS`` environment variable to a plan string to arm
every ``replay_parallel`` call (CI chaos mode).  Each injected fault is
recorded as a ``faults.injected.<site>`` telemetry event in the session
that observed it; recovery actions appear as ``recovery.*`` events (see
``docs/telemetry.md``).

Determinism
-----------
Parent-side specs count passages in the caller's process for the
duration of one armed run.  Worker-side specs (``worker.run``,
``shm.attach``) travel with each unit and are armed freshly inside the
worker process per unit, so their ``times``/``after`` counters are
*per unit* — target a specific unit with ``unit=`` for schedules that
must fire exactly once per run.  Armed parent state inherited by a
forked worker never fires there: the injector is pid-guarded.

When nothing is armed, :func:`fire` is a module-global load and a
``None`` check — the perf gate asserts the disarmed seams stay free.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro import obs
from repro.errors import ParameterError

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "SITES",
    "WORKER_SITES",
    "arm",
    "disarm",
    "active",
    "fire",
    "resolve_plan",
]

#: Every seam the parallel driver exposes.
SITES = frozenset({
    "pool.create",
    "pool.submit",
    "result.collect",
    "shm.create",
    "shm.unlink",
    "shm.attach",
    "worker.run",
    "shard.run",
    "checkpoint.write",
    "serve.ingest",
    "serve.checkpoint",
})

#: Seams that fire inside worker processes (shipped with each unit).
WORKER_SITES = frozenset({"worker.run", "shm.attach"})

#: Exceptions a ``raise`` spec may name — the set the driver's recovery
#: paths are written against.
_EXCEPTIONS = {
    "OSError": OSError,
    "PermissionError": PermissionError,
    "FileNotFoundError": FileNotFoundError,
    "RuntimeError": RuntimeError,
    "BrokenProcessPool": BrokenProcessPool,
}

_ACTIONS = ("raise", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: where, what, and when.

    ``action="raise"`` raises ``exception`` at the site;
    ``action="kill"`` hard-exits the process (``os._exit``) and is only
    valid at ``worker.run``.  The spec skips its first ``after``
    matching passages, then fires on the next ``times`` of them.
    ``unit`` restricts the spec to the unit with that index (sites fired
    without a unit index never match a unit-targeted spec).
    """

    site: str
    action: str = "raise"
    exception: str = "OSError"
    times: int = 1
    after: int = 0
    unit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ParameterError(
                f"unknown fault site {self.site!r}; choose from "
                f"{sorted(SITES)}")
        if self.action not in _ACTIONS:
            raise ParameterError(
                f"unknown fault action {self.action!r}; choose from "
                f"{list(_ACTIONS)}")
        if self.action == "kill" and self.site != "worker.run":
            raise ParameterError(
                f"action 'kill' is only valid at site 'worker.run', "
                f"got {self.site!r}")
        if self.exception not in _EXCEPTIONS:
            raise ParameterError(
                f"unknown fault exception {self.exception!r}; choose "
                f"from {sorted(_EXCEPTIONS)}")
        if self.times < 1:
            raise ParameterError(f"times must be >= 1, got {self.times!r}")
        if self.after < 0:
            raise ParameterError(f"after must be >= 0, got {self.after!r}")
        if self.unit is not None and self.unit < 0:
            raise ParameterError(f"unit must be >= 0, got {self.unit!r}")

    def trigger(self) -> None:
        """Perform the fault (never returns normally)."""
        if self.action == "kill":
            os._exit(1)
        raise _EXCEPTIONS[self.exception](
            f"injected fault at {self.site}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` to arm together."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``site[:action][:key=value]...`` grammar.

        Specs are separated by ``;``.  Keys: ``exception``, ``times``,
        ``after``, ``unit``.  Example::

            "worker.run:kill:unit=0;shm.attach:raise:times=2"
        """
        specs: List[FaultSpec] = []
        for token in text.split(";"):
            token = token.strip()
            if not token:
                continue
            parts = token.split(":")
            kwargs = {"site": parts[0].strip()}
            for part in parts[1:]:
                part = part.strip()
                if part in _ACTIONS:
                    kwargs["action"] = part
                    continue
                if "=" not in part:
                    raise ParameterError(
                        f"bad fault token {part!r} in {token!r}; expected "
                        f"an action ({'/'.join(_ACTIONS)}) or key=value")
                key, _, value = part.partition("=")
                key = key.strip()
                value = value.strip()
                if key == "exception":
                    kwargs["exception"] = value
                elif key in ("times", "after", "unit"):
                    try:
                        kwargs[key] = int(value)
                    except ValueError:
                        raise ParameterError(
                            f"fault key {key!r} needs an integer, got "
                            f"{value!r}") from None
                else:
                    raise ParameterError(
                        f"unknown fault key {key!r}; choose from "
                        f"['after', 'exception', 'times', 'unit']")
            specs.append(FaultSpec(**kwargs))
        if not specs:
            raise ParameterError(
                f"fault plan {text!r} contains no specs")
        return cls(tuple(specs))

    def worker_specs(self) -> "FaultPlan":
        """The sub-plan of worker-side specs (may be empty)."""
        return FaultPlan(tuple(s for s in self.specs
                               if s.site in WORKER_SITES))

    def __bool__(self) -> bool:
        return bool(self.specs)


class FaultInjector:
    """Armed plan state: per-spec passage counters plus a pid guard.

    ``fire(site, unit)`` walks the plan's specs for the site, counts the
    matching passage, and triggers the first spec whose ``after``/
    ``times`` window covers it.  Each injection is counted as a
    ``faults.injected.<site>`` event on the injector's telemetry
    session.  An injector only ever fires in the process that armed it
    — state inherited across ``fork`` is inert.
    """

    __slots__ = ("plan", "telemetry", "_pid", "_seen", "_fired")

    def __init__(self, plan: FaultPlan,
                 telemetry: Optional["obs.Telemetry"] = None) -> None:
        self.plan = plan
        self.telemetry = telemetry if telemetry is not None \
            else obs.NULL_TELEMETRY
        self._pid = os.getpid()
        self._seen = [0] * len(plan.specs)
        self._fired = [0] * len(plan.specs)

    @property
    def injected(self) -> int:
        """Total faults triggered by this injector so far."""
        return sum(self._fired)

    def fire(self, site: str, unit: Optional[int] = None) -> None:
        if os.getpid() != self._pid:
            return
        for i, spec in enumerate(self.plan.specs):
            if spec.site != site:
                continue
            if spec.unit is not None and spec.unit != unit:
                continue
            self._seen[i] += 1
            if self._seen[i] <= spec.after:
                continue
            if self._fired[i] >= spec.times:
                continue
            self._fired[i] += 1
            self.telemetry.count(f"faults.injected.{site}")
            spec.trigger()


#: The armed injector, if any.  Module-global so the driver's seams cost
#: one load + ``None`` check when disarmed.
_ACTIVE: Optional[FaultInjector] = None


def arm(plan: FaultPlan,
        telemetry: Optional["obs.Telemetry"] = None) -> FaultInjector:
    """Arm ``plan`` in this process; returns the live injector."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan, telemetry)
    return _ACTIVE


def disarm() -> None:
    """Disarm whatever plan is active (no-op when none is)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> Optional[FaultInjector]:
    """The armed injector, or ``None``."""
    return _ACTIVE


def fire(site: str, unit: Optional[int] = None) -> None:
    """The seam the driver calls; free when nothing is armed."""
    injector = _ACTIVE
    if injector is None:
        return
    injector.fire(site, unit)


def resolve_plan(
    faults: Union[None, str, FaultPlan],
) -> Optional[FaultPlan]:
    """Normalise a ``faults=`` argument to a plan (or ``None``).

    ``None`` consults the ``REPRO_FAULTS`` environment variable (a plan
    string; empty/unset means disarmed), a string is parsed, and a
    :class:`FaultPlan` passes through.
    """
    if faults is None:
        text = os.environ.get("REPRO_FAULTS", "").strip()
        return FaultPlan.parse(text) if text else None
    if isinstance(faults, str):
        return FaultPlan.parse(faults)
    if isinstance(faults, FaultPlan):
        return faults
    raise ParameterError(
        f"unsupported faults type {type(faults).__name__}; pass None, a "
        f"plan string or a FaultPlan")
