"""The unified replay entrypoint: one call, every engine, one rng story.

Historically three APIs replayed a trace: ``harness.runner.replay`` (the
scalar loops), ``core.batchreplay.replay_kernel`` (the columnar driver)
and ``replay_batch`` (its DISCO-only ancestor) — each with its own
seeding convention.  :func:`repro.replay` is the single entrypoint; the
legacy wrappers have been removed (see ``docs/api.md`` for the one-line
migrations).

This module also owns the *shared eager validation* for every
measurement entrypoint: :func:`_validate` holds the ``ParameterError``
checks that :func:`replay`, :func:`stream`,
:class:`~repro.streaming.StreamSession` and the :mod:`repro.serve`
daemon all apply, so a bad ``shards=`` or an incompatible
``store``/``engine`` pair is rejected with the identical message no
matter which door the configuration came through.

Seeding
-------
One ``rng`` argument seeds *everything* a replay randomises, via
:func:`seed_streams`: the arrival shuffle (scalar engines) and the NumPy
update stream (vector engine) are both derived from it, so the same seed
gives the same estimates on every engine *for that engine* — the fix for
the old split where ``replay(rng=...)`` seeded only the shuffle and the
vector engine silently used the scheme's own generator.  ``rng=None``
preserves the historical defaults (unseeded shuffle; vector stream from
the scheme's generator).

Telemetry
---------
``telemetry=`` accepts a :class:`repro.obs.Telemetry` session; ``None``
uses the ambient global registry (disabled by default, so the plain call
records nothing and pays nothing).  When recording, the per-call event
snapshot is attached to the returned result's ``.telemetry`` and merged
into the session.  See ``docs/telemetry.md`` for the event catalogue.
"""

from __future__ import annotations

import random
from typing import List, Optional, Union

import numpy as np

from repro import obs
from repro.errors import ParameterError

__all__ = ["replay", "stream", "seed_streams", "ReplayStreams",
           "replica_chunks", "REPLICA_CHUNK"]

AnyRng = Union[None, int, random.Random, np.random.Generator,
               np.random.SeedSequence]

#: Valid arrival orders — validated eagerly by :func:`replay` so a typo
#: fails before any packets are consumed, not deep inside an iterator.
_ORDERS = ("shuffled", "sequential", "asis", "roundrobin")

#: Columnar backends a stream (and the serve daemon) may run chunks on.
_STREAM_ENGINES = ("vector", "native")

_UNSET = object()


def _validate(
    *,
    order=_UNSET,
    replicas=_UNSET,
    shards=_UNSET,
    chunk_packets=_UNSET,
    epoch_packets=_UNSET,
    epoch_bytes=_UNSET,
    checkpoint_every=_UNSET,
    stream_engine=_UNSET,
    store_engine=_UNSET,
    resume=_UNSET,
) -> None:
    """The one home of the eager ``ParameterError`` checks.

    Each keyword is only checked when passed, so callers name exactly the
    parameters they accept: :func:`replay` checks ``order``/``replicas``
    and the ``store_engine`` pairing, :func:`stream` adds ``resume``,
    :class:`~repro.streaming.StreamSession` the shard/watermark bounds
    and ``stream_engine``, and ``repro.serve`` reuses the whole set.
    Having one implementation keeps the error messages identical across
    entrypoints (asserted in ``tests/test_stream.py``).

    ``store_engine`` is a ``(store, engine, resolved)`` triple — the
    requested compact store (canonical name or ``None``), the caller's
    ``engine=`` argument, and what it resolved to.  ``resume`` is a
    ``(resume, checkpoint_path)`` pair.
    """
    if order is not _UNSET and order not in _ORDERS:
        raise ParameterError(
            f"order must be one of {', '.join(_ORDERS)}, got {order!r}")
    if replicas is not _UNSET and replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas!r}")
    if shards is not _UNSET and shards < 1:
        raise ParameterError(f"shards must be >= 1, got {shards!r}")
    if chunk_packets is not _UNSET and chunk_packets < 1:
        raise ParameterError(
            f"chunk_packets must be >= 1, got {chunk_packets!r}")
    if (epoch_packets is not _UNSET and epoch_packets is not None
            and epoch_packets < 1):
        raise ParameterError(
            f"epoch_packets must be >= 1 or None, got {epoch_packets!r}")
    if (epoch_bytes is not _UNSET and epoch_bytes is not None
            and epoch_bytes < 1):
        raise ParameterError(
            f"epoch_bytes must be >= 1 or None, got {epoch_bytes!r}")
    if checkpoint_every is not _UNSET and checkpoint_every < 1:
        raise ParameterError(
            f"checkpoint_every must be >= 1, got {checkpoint_every!r}")
    if stream_engine is not _UNSET and stream_engine not in _STREAM_ENGINES:
        raise ParameterError(
            f"stream engine must be 'vector' or 'native', "
            f"got {stream_engine!r}")
    if store_engine is not _UNSET:
        store, engine, resolved = store_engine
        if store is not None and resolved not in ("vector", "native"):
            raise ParameterError(
                f"store={store!r} needs a columnar engine; engine={engine!r} "
                f"resolved to {resolved!r} — pass engine='vector' or 'native'"
            )
    if resume is not _UNSET:
        wants_resume, checkpoint_path = resume
        if wants_resume and checkpoint_path is None:
            raise ParameterError("resume=True needs checkpoint_path=")

#: Replicas advanced per multi-replica pass.  This is the *seeding* unit
#: of the replica axis: every ``replicas=R`` replay — serial
#: :func:`~repro.harness.runner.replay_replicas` and pooled
#: :func:`~repro.harness.parallel.replay_parallel` alike — splits R into
#: chunks of this size and derives one child stream per chunk through
#: :func:`replica_chunks`, so the two paths consume identical streams
#: and agree bit-for-bit for any R and any worker count.
REPLICA_CHUNK = 8


class ReplayStreams:
    """The two random streams a replay consumes, derived from one seed.

    * :attr:`shuffle` — the value handed to
      :meth:`~repro.traces.trace.Trace.packet_pairs` for the arrival
      shuffle.  Integers and ``random.Random`` instances pass through
      untouched, keeping shuffled replays bit-compatible with every
      historical seed.
    * :meth:`update` — the ``numpy.random.Generator`` driving vectorised
      update decisions, built through ``SeedSequence`` (an integer seed
      ``s`` yields ``default_rng(SeedSequence(s))``, which is exactly
      ``default_rng(s)``; a ``random.Random`` is consumed for one 128-bit
      seed).  Derived lazily, so scalar replays never disturb a caller's
      generator state.

    ``replay_parallel`` spawns per-chunk child seeds from the same
    ``SeedSequence`` root, which is why pooled and serial replica runs
    agree bit-for-bit.
    """

    __slots__ = ("raw",)

    def __init__(self, raw: AnyRng) -> None:
        self.raw = raw

    @property
    def shuffle(self) -> Union[None, int, random.Random]:
        """Seed for the arrival-order shuffle (scalar engines)."""
        raw = self.raw
        if raw is None or isinstance(raw, (int, random.Random)):
            return raw
        if isinstance(raw, np.random.SeedSequence):
            # generate_state is a pure function of the sequence's entropy:
            # no state is consumed, repeated calls agree.
            return int(raw.generate_state(1, np.uint64)[0])
        if isinstance(raw, np.random.Generator):
            return int(raw.integers(1 << 63))
        raise ParameterError(
            f"unsupported rng type {type(raw).__name__}; pass None, an "
            f"int, random.Random, numpy Generator or SeedSequence"
        )

    def update(self, fallback: AnyRng = None) -> np.random.Generator:
        """The NumPy generator for vectorised updates.

        ``fallback`` is used when this stream was built from ``rng=None``
        — the vector engine passes the scheme's own generator, preserving
        the historical "seeded scheme gives a deterministic vector
        replay" contract.
        """
        from repro.core.batchreplay import as_generator

        raw = self.raw if self.raw is not None else fallback
        return as_generator(raw)

    def root(self) -> np.random.SeedSequence:
        """This stream's entropy as a ``SeedSequence`` root.

        Integers and ``SeedSequence`` map losslessly; a ``random.Random``
        or NumPy ``Generator`` is *consumed* for one 128-bit seed (so two
        identically seeded generators derive the same root); ``None``
        draws fresh OS entropy and is therefore non-deterministic.
        """
        raw = self.raw
        if isinstance(raw, np.random.SeedSequence):
            return raw
        if isinstance(raw, random.Random):
            return np.random.SeedSequence(raw.getrandbits(128))
        if isinstance(raw, np.random.Generator):
            words = raw.integers(0, 1 << 63, size=2)
            return np.random.SeedSequence(
                (int(words[0]) << 63) | int(words[1]))
        if raw is None or isinstance(raw, int):
            return np.random.SeedSequence(raw)
        raise ParameterError(
            f"unsupported rng type {type(raw).__name__}; pass None, an "
            f"int, random.Random, numpy Generator or SeedSequence"
        )

    def spawn(self, n: int) -> List["ReplayStreams"]:
        """``n`` independent child streams, derived deterministically.

        Children are built from :meth:`root` by extending its spawn key
        (``SeedSequence(entropy, spawn_key=root.spawn_key + (i,))``) —
        the same derivation ``SeedSequence.spawn`` uses, but as a pure
        function: repeated calls on equal roots yield equal children, no
        hidden spawn counter involved.  This is the primitive behind
        :func:`replica_chunks`, which is why pooled and serial replica
        replays agree bit-for-bit.
        """
        if n < 1:
            raise ParameterError(f"spawn count must be >= 1, got {n!r}")
        root = self.root()
        key = tuple(root.spawn_key)
        return [
            ReplayStreams(np.random.SeedSequence(entropy=root.entropy,
                                                 spawn_key=key + (i,)))
            for i in range(n)
        ]


def seed_streams(rng: AnyRng) -> ReplayStreams:
    """Derive every replay-owned random stream from one ``rng`` value.

    The single seeding helper behind :func:`replay`,
    :func:`~repro.harness.runner.replay_replicas` and
    :func:`~repro.harness.parallel.replay_parallel`: accepts ``None``, an
    integer seed, a ``random.Random``, a ``numpy.random.Generator`` or a
    ``numpy.random.SeedSequence`` and exposes the shuffle and update
    streams documented on :class:`ReplayStreams`.
    """
    if rng is not None and not isinstance(
            rng, (int, random.Random, np.random.Generator,
                  np.random.SeedSequence)):
        raise ParameterError(
            f"unsupported rng type {type(rng).__name__}; pass None, an "
            f"int, random.Random, numpy Generator or SeedSequence"
        )
    return ReplayStreams(rng)


def replica_chunks(replicas: int, rng: AnyRng,
                   chunk: Optional[int] = None) -> List[tuple]:
    """The replica axis's canonical chunking: ``[(size, child_seed), ...]``.

    Splits ``replicas`` into chunks of ``chunk`` (default
    :data:`REPLICA_CHUNK`) and derives one independent
    ``numpy.random.SeedSequence`` per chunk via
    :meth:`ReplayStreams.spawn`.  Both
    :func:`~repro.harness.runner.replay_replicas` and
    :func:`~repro.harness.parallel.replay_parallel` seed their
    multi-replica passes through this one schedule, which is what makes
    an R-replica replay bit-identical no matter how the chunks are
    distributed over workers — including when R is not divisible by the
    chunk size.  Accepts every :func:`seed_streams` rng convention;
    ``rng=None`` derives from fresh OS entropy (non-deterministic by
    design — there is no seed to reproduce).
    """
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas!r}")
    if chunk is None:
        chunk = REPLICA_CHUNK
    if chunk < 1:
        raise ParameterError(f"chunk must be >= 1, got {chunk!r}")
    n_chunks = -(-replicas // chunk)
    children = seed_streams(rng).spawn(n_chunks)
    plan = []
    remaining = replicas
    for child in children:
        size = min(chunk, remaining)
        remaining -= size
        plan.append((size, child.raw))
    return plan


#: Integer event counters a scheme maintains during a replay; the facade
#: counts their deltas as ``scheme.<attr>`` telemetry events, uniformly
#: across engines (kernels write the same attributes back).
_SCHEME_EVENT_ATTRS = (
    "saturation_events",
    "global_renormalizations",
    "counter_renormalizations",
    "flushes",
    "overflow_events",
)


def _scheme_event_state(scheme) -> dict:
    state = {}
    for attr in _SCHEME_EVENT_ATTRS:
        value = getattr(scheme, attr, None)
        if isinstance(value, int):
            state[attr] = value
    return state


def _count_scheme_events(tel, scheme, before: dict) -> None:
    for attr, start in before.items():
        delta = getattr(scheme, attr, start) - start
        if delta:
            tel.count(f"scheme.{attr}", delta)


def replay(
    scheme,
    trace,
    *,
    order: str = "shuffled",
    rng: AnyRng = None,
    engine: str = "auto",
    replicas: int = 1,
    store: Optional[str] = None,
    telemetry: Optional["obs.Telemetry"] = None,
):
    """Replay ``trace`` through ``scheme`` and score the estimates.

    The single replay entrypoint: selects an engine
    (``auto``/``python``/``vector``/``native`` — see
    :mod:`repro.harness.runner` for the contract), derives every random
    stream from ``rng`` via :func:`seed_streams`, and returns one
    :class:`~repro.harness.runner.RunResult` — or a list of ``replicas``
    of them when ``replicas > 1``, in which case the columnar replica
    axis advances all copies in a single vector pass (the scheme must
    expose a kernel; ``order`` is ignored, the vector path is
    order-free).  For array-level replica output
    (:class:`~repro.core.batchreplay.ReplicaReplayResult`) use
    :func:`repro.core.batchreplay.run_kernel` directly.

    ``store`` selects the counter-store backend the final per-flow
    state is held in (:mod:`repro.core.stores`): ``None``/``"dense"``
    keeps the live arrays; ``"pools"``/``"morris"`` round-trip the
    state through the compact representation before read-out, so the
    scored estimates reflect compactly stored counters.  Compact
    backends need a columnar engine (``"vector"``/``"native"``, or an
    ``"auto"`` resolution landing on one).

    ``telemetry`` scopes event recording to a
    :class:`repro.obs.Telemetry` session (``None`` = the ambient global
    registry, disabled by default).
    """
    from repro.core.stores import resolve_store
    from repro.harness.runner import (
        _replay_scalar,
        _replay_vector,
        replay_replicas,
        resolve_engine,
    )

    _validate(order=order, replicas=replicas)
    compact_store = resolve_store(store)  # eager: bad names fail here
    if replicas > 1:
        if engine not in ("auto", "vector"):
            raise ParameterError(
                f"replica replays run on the vector path; engine must be "
                f"'auto' or 'vector', got {engine!r}"
            )
        return replay_replicas(scheme, trace, replicas, rng=rng,
                               telemetry=telemetry, store=compact_store)

    session = obs.resolve(telemetry)
    tel = obs.Telemetry() if session.enabled else obs.NULL_TELEMETRY
    streams = seed_streams(rng)
    resolved = resolve_engine(engine, scheme)
    _validate(store_engine=(compact_store, engine, resolved))
    tel.count("replay.calls")
    tel.count(f"replay.engine.{resolved}")
    before = _scheme_event_state(scheme) if tel.enabled else {}
    if resolved in ("vector", "native"):
        result = _replay_vector(scheme, trace,
                                rng=None if rng is None else streams.update(),
                                telemetry=tel, engine=resolved,
                                store=compact_store)
    else:
        result = _replay_scalar(scheme, trace, order=order,
                                rng=streams.shuffle, telemetry=tel)
    if tel.enabled:
        _count_scheme_events(tel, scheme, before)
        snap = tel.snapshot()
        result.telemetry = snap
        session.merge(snap)
    return result


def stream(
    scheme_factory,
    trace,
    *,
    shards: int = 1,
    epoch_packets: Optional[int] = None,
    epoch_bytes: Optional[int] = None,
    chunk_packets: Optional[int] = None,
    rng: AnyRng = None,
    engine: str = "vector",
    store: Optional[str] = None,
    telemetry: Optional["obs.Telemetry"] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    faults=None,
):
    """Measure ``trace`` as an epoch-rotating, hash-sharded stream.

    The one-call wrapper around :class:`repro.streaming.StreamSession`:
    builds the session, consumes the whole trace (chunked — the trace
    streams through zero-copy views, it is never replayed in one pass),
    and returns the :class:`~repro.streaming.StreamResult` with one
    :class:`~repro.streaming.EpochSnapshot` per rotation.  For
    incremental feeds (live pairs, multiple traces, manual rotation)
    drive a :class:`~repro.streaming.StreamSession` directly.

    ``scheme_factory`` is a zero-argument scheme builder — prefer
    :func:`repro.scheme_factory`, which pickles into checkpoints.
    ``rng`` follows the :func:`seed_streams` convention; for a fixed
    configuration the result is same-seed deterministic, and for the
    exact scheme the summed
    epoch estimates equal a one-shot :func:`replay` bit-for-bit.
    ``engine`` picks the per-chunk columnar backend (``"vector"`` or
    ``"native"`` — see :mod:`repro.core.native`); carried kernel state
    round-trips through native chunks unchanged.  ``store`` picks the
    counter-store backend holding the carried per-flow state between
    chunks (``"dense"`` default, ``"pools"`` lossless compact,
    ``"morris"`` lossy compact — :mod:`repro.core.stores`); the choice
    persists into checkpoints and is restored on ``resume``.

    ``resume=True`` (requires ``checkpoint_path=``) restores the
    session from an existing checkpoint and skips the packets it
    already consumed, reproducing the uninterrupted run's estimates
    exactly; when no checkpoint file exists yet the stream simply
    starts fresh.  ``faults=`` arms a :mod:`repro.faults` plan (plan
    string or :class:`~repro.faults.FaultPlan`) for the duration of the
    call — the ``shard.run`` and ``checkpoint.write`` seams.
    """
    import os as _os

    from repro import faults as _faults
    from repro.streaming import DEFAULT_CHUNK_PACKETS, StreamSession

    _validate(resume=(resume, checkpoint_path))
    if chunk_packets is None:
        chunk_packets = DEFAULT_CHUNK_PACKETS
    plan = _faults.resolve_plan(faults)
    session_tel = obs.resolve(telemetry)
    if plan:
        _faults.arm(plan, session_tel)
    try:
        if (resume and checkpoint_path is not None
                and _os.path.exists(checkpoint_path)):
            session = StreamSession.restore(checkpoint_path,
                                            telemetry=telemetry)
        else:
            session = StreamSession(
                scheme_factory,
                shards=shards,
                epoch_packets=epoch_packets,
                epoch_bytes=epoch_bytes,
                chunk_packets=chunk_packets,
                rng=rng,
                engine=engine,
                store=store,
                telemetry=telemetry,
                checkpoint_path=checkpoint_path,
            )
        session.consume(trace)
        return session.finish()
    finally:
        if plan:
            _faults.disarm()
