"""Parallel replay: run independent scheme/trace replays across processes.

Comparative experiments (Figures 5-7, Table II) replay the same trace
through several schemes; the replays are independent, so they
parallelise embarrassingly.  ``replay_parallel`` fans a list of jobs out
over a process pool and returns the usual
:class:`~repro.harness.runner.RunResult` objects in job order.

Jobs are specified as (factory, trace, kwargs) with a *callable factory*
rather than a live scheme so that each worker constructs its own scheme
(schemes hold ``random.Random`` state; building in-worker keeps the
parent's objects untouched and the pickling surface tiny).

Three mechanisms keep the fan-out cheap at full trace scale:

* **Persistent pool** — one module-level ``ProcessPoolExecutor`` is
  reused across ``replay_parallel`` calls (rebuilt only when the
  requested worker count changes), so repeated experiment sweeps pay the
  interpreter fork cost once, not per call.
* **Shared-memory traces** — a :class:`~repro.traces.compiled.CompiledTrace`
  above :data:`SHARE_THRESHOLD_BYTES` is published once into a
  ``multiprocessing.shared_memory`` segment; jobs then carry a tiny
  handle and every worker maps the same buffers instead of receiving a
  per-job pickle of the arrays.  Segments carry ``repro_<pid>_``-prefixed
  names, are unlinked automatically when the parent's compiled trace is
  garbage-collected (and eagerly when a pool breaks), and stale segments
  abandoned by dead processes are swept whenever a fresh pool starts.
* **Replica chunks** — a job with ``replicas=R`` is split into chunks of
  :data:`~repro.facade.REPLICA_CHUNK` replicas, each advanced as one
  columnar multi-replica pass
  (:func:`~repro.harness.runner.replay_replicas`), so R independent
  seeded replays of one (scheme, trace) pair spread across workers while
  each chunk still amortises one trace sweep.  Chunk streams come from
  :func:`repro.facade.replica_chunks` — the *same* schedule the serial
  path uses — so for any :func:`repro.seed_streams` rng convention,
  pooled and serial R-replica results are bit-identical.

Degradation is always graceful: environments without working process
pools (no ``fork``/``spawn``, sandboxed ``/dev/shm``) and pools that die
mid-run (``BrokenProcessPool``) fall back to in-process execution of
whatever work is unfinished.  Every recovery is recorded as a
``recovery.*`` telemetry event, and every failure path can be exercised
deterministically through :mod:`repro.faults` — pass ``faults=`` (or set
``REPRO_FAULTS``) to inject worker kills, shm failures and broken pools
at the seams and assert the invariants the recovery preserves.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import re
import secrets
import weakref
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro import faults as _faults
from repro import obs
from repro.errors import ParameterError
from repro.facade import REPLICA_CHUNK, replay, replica_chunks
from repro.faults import FaultPlan
from repro.harness.runner import RunResult, replay_replicas
from repro.traces.compiled import CompiledTrace
from repro.traces.trace import Trace

__all__ = ["ReplayJob", "replay_parallel", "shutdown_pool",
           "SHARE_THRESHOLD_BYTES", "REPLICA_CHUNK"]

#: CompiledTrace array footprint above which the trace is shipped through
#: a shared-memory segment instead of pickled per job.  Below it the
#: pickle is cheaper than a segment create + attach round-trip.
SHARE_THRESHOLD_BYTES = 1 << 18


@dataclass(frozen=True)
class ReplayJob:
    """One replay to run: a scheme factory, a trace, and replay options.

    ``replicas > 1`` requests R independent seeded replays of the same
    (scheme, trace) pair via the columnar replica axis; the scheme must
    expose a kernel (``engine`` ``"auto"``/``"vector"``) and the job
    yields R results instead of one.  ``rng`` then seeds the replica
    streams (``order`` is ignored — the vector path is order-free).

    ``scheme_factory`` must survive pickling to reach a worker; prefer
    :func:`repro.scheme_factory` (a frozen registry name + params spec)
    over ad-hoc closures, which only work for module-level functions.
    """

    scheme_factory: Callable[[], object]
    trace: Union[Trace, CompiledTrace]
    order: str = "shuffled"
    rng: Optional[int] = None
    engine: str = "auto"
    replicas: int = 1


# ---------------------------------------------------------------------------
# shared-memory trace shipping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SharedTraceRef:
    """Pickle-sized handle to a published CompiledTrace segment."""

    shm_name: str
    num_flows: int
    num_packets: int
    blob_size: int


class _SharedTraceHandle:
    """Parent-side record keeping a published segment alive."""

    __slots__ = ("shm", "ref")

    def __init__(self, shm: shared_memory.SharedMemory,
                 ref: _SharedTraceRef) -> None:
        self.shm = shm
        self.ref = ref


#: Parent-side publications, one per live CompiledTrace object.
_PUBLISHED: "weakref.WeakKeyDictionary[CompiledTrace, _SharedTraceHandle]" = \
    weakref.WeakKeyDictionary()

#: Names already handed to :func:`_unlink_segment` — makes unlinking
#: idempotent no matter how many paths race to clean the same segment
#: (``weakref.finalize``, broken-pool recovery, interpreter teardown).
_UNLINKED: Set[str] = set()

_SEGMENT_COUNTER = itertools.count()

#: Segment names are ``repro_<pid>_<n>_<token>`` so the startup sweep
#: can tell which segments belong to processes that are no longer alive.
_SEGMENT_NAME_RE = re.compile(r"^repro_(\d+)_\d+_[0-9a-f]+$")


def _segment_name() -> str:
    return (f"repro_{os.getpid()}_{next(_SEGMENT_COUNTER)}_"
            f"{secrets.token_hex(4)}")


def _unlink_segment(shm: shared_memory.SharedMemory) -> None:
    if shm.name in _UNLINKED:
        return
    _UNLINKED.add(shm.name)
    try:
        _faults.fire("shm.unlink")
        shm.close()
        shm.unlink()
    except Exception:
        pass  # already gone (interpreter teardown, double finalize)


def _unlink_published(session: "obs.Telemetry") -> None:
    """Eagerly unlink every published segment (broken-pool recovery).

    A broken pool's workers died with their attachments; dropping the
    parent-side publications here guarantees no segment outlives the
    failure, instead of waiting for the compiled traces to be
    garbage-collected.  Traces republish on the next pooled call.
    """
    count = 0
    for compiled in list(_PUBLISHED):
        handle = _PUBLISHED.pop(compiled, None)
        if handle is not None:
            _unlink_segment(handle.shm)
            count += 1
    if count:
        session.count("recovery.shm.unlinked", count)


def _sweep_stale_segments(session: "obs.Telemetry") -> None:
    """Remove ``repro``-prefixed segments abandoned by dead processes.

    A worker (or a whole parent) killed before its finalizers run leaves
    its segments behind in ``/dev/shm``; sweeping at pool startup keeps
    the leak bounded to one crashed run.  Only segments whose embedded
    pid is no longer alive are touched.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        return
    try:
        names = os.listdir(shm_dir)
    except OSError:
        return
    count = 0
    for name in names:
        match = _SEGMENT_NAME_RE.match(name)
        if match is None:
            continue
        pid = int(match.group(1))
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
            continue  # owner still alive
        except ProcessLookupError:
            pass
        except OSError:
            continue  # exists but not ours to probe
        try:
            os.unlink(os.path.join(shm_dir, name))
            count += 1
        except OSError:
            pass
    if count:
        session.count("recovery.shm.swept", count)


def _publish(compiled: CompiledTrace) -> Optional[_SharedTraceRef]:
    """Publish the trace's arrays into shared memory (once per object).

    Returns ``None`` when the platform refuses shared memory — callers
    then fall back to pickling the trace per job.
    """
    handle = _PUBLISHED.get(compiled)
    if handle is not None:
        return handle.ref
    blob = pickle.dumps((compiled.name, compiled.keys),
                        protocol=pickle.HIGHEST_PROTOCOL)
    arrays = [np.ascontiguousarray(a) for a in
              (compiled.lengths, compiled.offsets, compiled.sizes,
               compiled.volumes)]
    total = sum(a.nbytes for a in arrays) + len(blob)
    shm = None
    try:
        _faults.fire("shm.create")
        for _ in range(3):  # name collisions are ~impossible; be safe
            try:
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, total), name=_segment_name())
                break
            except FileExistsError:
                continue
        if shm is None:
            return None
    except (OSError, PermissionError):
        return None
    offset = 0
    for a in arrays:
        np.frombuffer(shm.buf, dtype=a.dtype, count=a.size,
                      offset=offset)[:] = a
        offset += a.nbytes
    shm.buf[offset:offset + len(blob)] = blob
    ref = _SharedTraceRef(shm_name=shm.name, num_flows=compiled.num_flows,
                          num_packets=compiled.num_packets,
                          blob_size=len(blob))
    _PUBLISHED[compiled] = _SharedTraceHandle(shm, ref)
    # Unlink when the parent's compiled trace dies (also runs at exit).
    weakref.finalize(compiled, _unlink_segment, shm)
    return ref


#: Worker-side attachments: segment name -> (segment, rebuilt trace).
#: Lives for the worker process lifetime, so each worker maps a given
#: trace exactly once no matter how many units replay it.
_ATTACHED: Dict[str, Tuple[shared_memory.SharedMemory, CompiledTrace]] = {}


def _attach(ref: _SharedTraceRef) -> CompiledTrace:
    entry = _ATTACHED.get(ref.shm_name)
    if entry is None:
        _faults.fire("shm.attach")
        # Attaching re-registers the name with the resource tracker, but
        # the tracker is shared with the parent (inherited fd) and its
        # cache is a set, so the extra register is a no-op and the
        # parent's unlink performs the single unregister.  Workers must
        # NOT unregister themselves — that would race the parent into a
        # double-unregister.
        shm = shared_memory.SharedMemory(name=ref.shm_name)
        offset = 0
        lengths = np.frombuffer(shm.buf, dtype=np.float64,
                                count=ref.num_packets, offset=offset)
        offset += lengths.nbytes
        offsets = np.frombuffer(shm.buf, dtype=np.int64,
                                count=ref.num_flows + 1, offset=offset)
        offset += offsets.nbytes
        sizes = np.frombuffer(shm.buf, dtype=np.int64, count=ref.num_flows,
                              offset=offset)
        offset += sizes.nbytes
        volumes = np.frombuffer(shm.buf, dtype=np.int64, count=ref.num_flows,
                                offset=offset)
        offset += volumes.nbytes
        name, keys = pickle.loads(bytes(shm.buf[offset:offset
                                                + ref.blob_size]))
        compiled = CompiledTrace(name=name, keys=keys, lengths=lengths,
                                 offsets=offsets, sizes=sizes,
                                 volumes=volumes)
        entry = (shm, compiled)
        _ATTACHED[ref.shm_name] = entry
    return entry[1]


# ---------------------------------------------------------------------------
# persistent pool
# ---------------------------------------------------------------------------

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS: Optional[int] = None


def _get_pool(max_workers: Optional[int],
              session: "obs.Telemetry" = obs.NULL_TELEMETRY,
              ) -> ProcessPoolExecutor:
    global _POOL, _POOL_WORKERS
    if _POOL is not None and _POOL_WORKERS != max_workers:
        shutdown_pool()
    if _POOL is None:
        _faults.fire("pool.create")
        _sweep_stale_segments(session)
        _POOL = ProcessPoolExecutor(max_workers=max_workers)
        _POOL_WORKERS = max_workers
    return _POOL


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (no-op when none is live)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        try:
            _POOL.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        _POOL = None
        _POOL_WORKERS = None


atexit.register(shutdown_pool)


# ---------------------------------------------------------------------------
# units: (job x replica-chunk) work items
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Unit:
    """One worker-sized slice of a job: a full replay or a replica chunk."""

    job_index: int
    scheme_factory: Callable[[], object]
    trace: Union[Trace, CompiledTrace, _SharedTraceRef]
    order: str
    rng: object
    engine: str
    replicas: int
    #: Record telemetry in the (possibly remote) process running this
    #: unit; the snapshot travels back with the results.
    telemetry: bool = False
    #: This unit's position in the expanded unit list (fault targeting).
    index: int = 0
    #: Fault plan shipped to the worker; armed only inside worker
    #: processes, so serial (in-parent) retries of the same unit run
    #: clean — exactly the recovery the injected fault is probing.
    faults: Optional[FaultPlan] = None


_UnitOutcome = Tuple[List[RunResult], Optional[dict]]


def _run_unit(unit: _Unit) -> _UnitOutcome:
    # A fresh session per unit: workers can't share the parent's registry,
    # so events are captured locally and merged from the snapshot.
    tel = obs.Telemetry() if unit.telemetry else None
    in_worker = multiprocessing.parent_process() is not None
    if in_worker:
        # (Re-)arm this unit's plan in the worker; a unit without one
        # disarms whatever a previous unit left behind in this process.
        if unit.faults:
            _faults.arm(unit.faults, telemetry=tel)
            _faults.fire("worker.run", unit=unit.index)
        else:
            _faults.disarm()
    trace = unit.trace
    if isinstance(trace, _SharedTraceRef):
        trace = _attach(trace)
    scheme = unit.scheme_factory()
    if unit.replicas > 1:
        # rng is a pre-derived chunk stream (see _expand): run it as one
        # pass rather than re-chunking.
        results = replay_replicas(scheme, trace, replicas=unit.replicas,
                                  rng=unit.rng, telemetry=tel,
                                  chunked=False)
    else:
        results = [replay(scheme, trace, order=unit.order, rng=unit.rng,
                          engine=unit.engine, telemetry=tel)]
    return results, (tel.snapshot() if tel is not None else None)


def _expand(jobs: Sequence[ReplayJob], telemetry: bool = False,
            faults: Optional[FaultPlan] = None) -> List[_Unit]:
    """Split jobs into units: replica jobs become seeded chunks.

    Chunk streams come from :func:`repro.facade.replica_chunks` — the
    same schedule serial :func:`~repro.harness.runner.replay_replicas`
    consumes — so the same job produces the same replica results
    regardless of worker count, scheduling, or rng convention
    (``int``/``random.Random``/``Generator``/``SeedSequence``).  An
    unseeded replica job draws a fresh entropy root, keeping its chunks
    independent but unreproducible, as documented.
    """
    units: List[_Unit] = []
    for index, job in enumerate(jobs):
        if job.replicas == 1:
            units.append(_Unit(index, job.scheme_factory, job.trace,
                               job.order, job.rng, job.engine, 1, telemetry,
                               len(units), faults))
            continue
        rng = job.rng if job.rng is not None else np.random.SeedSequence()
        for size, chunk_rng in replica_chunks(job.replicas, rng):
            units.append(_Unit(index, job.scheme_factory, job.trace,
                               job.order, chunk_rng, job.engine, size,
                               telemetry, len(units), faults))
    return units


def replay_parallel(
    jobs: Sequence[ReplayJob],
    max_workers: Optional[int] = None,
    telemetry: Optional["obs.Telemetry"] = None,
    faults: Union[None, str, FaultPlan] = None,
) -> List[RunResult]:
    """Run the jobs across a process pool; results in job order.

    A job with ``replicas=R`` contributes R consecutive results (replica
    order), other jobs one each.  With ``max_workers=1`` (or a single
    work unit) everything runs in-process — no pool, no pickling — which
    is also the fallback path for environments without working process
    pools; a pool that breaks mid-run (``BrokenProcessPool``) likewise
    degrades by retrying the unfinished units serially.

    ``telemetry`` scopes event recording to a :class:`repro.obs.Telemetry`
    session (``None`` = the ambient global registry, disabled by
    default).  When recording, workers capture events locally and ship a
    snapshot back with each unit's results; the session sees each unit's
    events merged exactly once — a unit retried serially contributes
    only its retry's snapshot — plus pool-lifecycle events
    (``parallel.*`` / ``recovery.*``, see ``docs/telemetry.md``).

    ``faults`` arms a :class:`repro.faults.FaultPlan` (or plan string)
    for the duration of this call; ``None`` defers to the
    ``REPRO_FAULTS`` environment variable.  See :mod:`repro.faults`.
    """
    if not jobs:
        raise ParameterError("at least one job is required")
    if max_workers is not None and max_workers < 1:
        raise ParameterError(f"max_workers must be >= 1, got {max_workers!r}")
    for job in jobs:
        if job.replicas < 1:
            raise ParameterError(
                f"replicas must be >= 1, got {job.replicas!r}")
        if job.replicas > 1 and job.engine not in ("auto", "vector"):
            raise ParameterError(
                f"replica jobs run on the vector path; engine must be "
                f"'auto' or 'vector', got {job.engine!r}"
            )

    plan = _faults.resolve_plan(faults)
    session = obs.resolve(telemetry)
    units = _expand(jobs, telemetry=session.enabled, faults=plan)
    session.count("parallel.jobs", len(jobs))
    session.count("parallel.units", len(units))
    chunks = sum(1 for unit in units if unit.replicas > 1)
    if chunks:
        session.count("parallel.replica_chunks", chunks)
    if plan is not None:
        _faults.arm(plan, telemetry=session)
    try:
        if len(units) == 1 or max_workers == 1:
            unit_results = [_run_unit(unit) for unit in units]
        else:
            unit_results = _run_units_pooled(units, max_workers, session)
    finally:
        if plan is not None:
            _faults.disarm()

    results: List[RunResult] = []
    for unit, (out, snap) in zip(units, unit_results):
        session.merge(snap)
        results.extend(out)
    return results


def _run_units_pooled(
    units: List[_Unit],
    max_workers: Optional[int],
    session: "obs.Telemetry" = obs.NULL_TELEMETRY,
) -> List[_UnitOutcome]:
    """Submit units to the persistent pool, shared-shipping big traces.

    Units whose future dies with the pool are retried serially with the
    original (unshared) trace, so a broken pool or a torn-down segment
    never loses work.  Outcomes are recorded only once per unit: a
    collected outcome that faults before being stored is discarded, and
    the serial retry's outcome is the one that reaches the caller (and
    therefore the telemetry merge).
    """
    shipped = []
    for unit in units:
        trace = unit.trace
        if (isinstance(trace, CompiledTrace)
                and trace.nbytes() >= SHARE_THRESHOLD_BYTES):
            fresh = trace not in _PUBLISHED
            ref = _publish(trace)
            if ref is not None:
                if fresh:
                    session.count("parallel.shm.published")
                    session.count("parallel.shm.published_bytes",
                                  trace.nbytes())
                unit = replace(unit, trace=ref)
            else:
                session.count("recovery.pickle_fallback")
        shipped.append(unit)

    try:
        reusing = _POOL is not None and _POOL_WORKERS == max_workers
        pool = _get_pool(max_workers, session)
        futures = []
        for unit in shipped:
            _faults.fire("pool.submit", unit=unit.index)
            futures.append(pool.submit(_run_unit, unit))
        session.count("parallel.pool.reused" if reusing
                      else "parallel.pool.created")
    except (OSError, PermissionError, BrokenProcessPool):
        # Restricted environments (no fork/spawn): degrade gracefully.
        shutdown_pool()
        _unlink_published(session)
        session.count("parallel.serial_fallbacks")
        session.count("recovery.serial_fallback")
        return [_run_unit(unit) for unit in units]

    results: List[Optional[_UnitOutcome]] = [None] * len(units)
    retry: List[int] = []
    broken = False
    for i, future in enumerate(futures):
        try:
            outcome = future.result()
            # The "collected but lost" seam: a fault here discards the
            # outcome (worker snapshot included), and the serial retry
            # below produces the only outcome that gets merged.
            _faults.fire("result.collect", unit=i)
            results[i] = outcome
        except BrokenProcessPool:
            # A worker died mid-map; the whole pool is poisoned.  Drop
            # it and finish this unit (and any others that follow) in
            # process.
            broken = True
            shutdown_pool()
            retry.append(i)
        except (CancelledError, OSError, PermissionError):
            # Cancelled: a mid-collect shutdown dropped this future
            # before it ran; it lost no work the retry can't redo.
            retry.append(i)
    if broken:
        # Dead workers can't unlink their attachments; drop the parent's
        # publications so nothing survives in /dev/shm.  Traces
        # republish on the next pooled call.
        _unlink_published(session)
        session.count("recovery.pool_rebuilds")
    for i in retry:
        session.count("parallel.pool.broken_retries")
        session.count("recovery.serial_retry")
        results[i] = _run_unit(units[i])
    return results
