"""Epoch-based, hash-sharded streaming measurement sessions.

Every other entrypoint in this repo replays a whole in-memory trace and
returns one terminal result.  The paper's deployment shape is different:
DISCO counters live in per-linecard SRAM, are updated continuously, and
are **exported and reset** once per measurement epoch.  This module
reproduces that shape on top of the columnar kernel stack:

* A :class:`StreamSession` consumes packets *incrementally* — chunked
  views over a :class:`~repro.traces.compiled.CompiledTrace`
  (:meth:`~repro.traces.compiled.CompiledTrace.iter_chunks`) or any
  ``(flow, length)`` iterable — so traces never need to fit one replay
  call.
* The flow space is partitioned across ``S`` shards by
  :func:`repro.flows.hashing.stable_hash`.  Each shard holds its open
  epoch as one persistent :class:`~repro.core.kernels.KernelState`
  (``index``: key → lane, lanes numbered first-seen, arrays grown as
  keys arrive).  A chunk gathers the rows it replays by lane, runs them
  through one columnar :func:`~repro.core.batchreplay.run_kernel` pass
  (carry-in via ``resume=``/``load_state``, carry-out via
  ``export_state``) and scatters them back.  For
  :attr:`~repro.core.kernels.SchemeKernel.lane_local` kernels the rows
  are the chunk's keys only, so a chunk costs O(chunk), not O(epoch
  keys); coupled kernels (SAC, SD, ICE) replay every lane.
* Shard-chunk replays run serially or over the persistent process pool
  (:func:`repro.harness.parallel.run_tasks`).  Each replay's random
  stream is a pure ``SeedSequence`` child keyed by
  ``(epoch, shard, chunk)``, so serial and pooled execution consume
  identical streams — same seed, same estimates, bit for bit.
* Epochs rotate on packet-count or byte watermarks (quantised to chunk
  boundaries); every rotation reads the shards out into a mergeable
  :class:`EpochSnapshot` and resets them — the paper's
  export-and-reset.
* ``checkpoint_path=`` persists the session after each chunk
  (atomically: temp file + ``os.replace``), and
  :meth:`StreamSession.restore` resumes a killed session
  deterministically — the resumed run replays the exact chunk schedule
  the uninterrupted run would have, with the same per-chunk seeds.

Determinism
-----------
For the exact kernel, epoch totals summed across snapshots equal a
single ``replay()`` of the whole trace bit-for-bit (integer sums are
associative and epoch subtotals stay far below 2^53).  Probabilistic
kernels are *same-seed deterministic*: a given (seed, shard count,
chunk size, watermark) configuration always produces identical
estimates — serial, pooled, interrupted-and-resumed alike — but a
different sharding or chunking consumes the random streams differently,
exactly as the columnar engine already relates to the scalar one.

Failure injection
-----------------
Two seams (:mod:`repro.faults`): ``shard.run`` fires per dispatched
shard (parent side, with the shard index), ``checkpoint.write`` fires
between serialising a checkpoint and atomically publishing it — a
fault there leaves the previous checkpoint intact, which is the crash
the resume tests rehearse.  Events appear as ``stream.*`` telemetry
(see ``docs/telemetry.md``).
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro import faults as _faults
from repro import obs
from repro.core.batchreplay import run_kernel
from repro.core.kernels import KernelState, kernel_scheme_names, kernel_spec
from repro.errors import ParameterError
from repro.flows.hashing import stable_hash
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.traces.trace import Trace

__all__ = ["StreamSession", "StreamResult", "EpochSnapshot",
           "DEFAULT_CHUNK_PACKETS"]

#: Default packets per consumption chunk.  Large enough that the columnar
#: pass dominates the per-chunk Python routing, small enough that epoch
#: watermarks stay reasonably sharp.
DEFAULT_CHUNK_PACKETS = 8192

_CHECKPOINT_MAGIC = "repro-stream-checkpoint"
_CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochSnapshot:
    """One epoch's export: per-shard estimates, truths, counter widths.

    The mergeable unit of a stream — :class:`repro.export.collector
    .Collector` ingests snapshots as intervals, and
    :meth:`StreamResult.estimates_dict` sums them.  Satisfies
    :class:`repro.results.MeasurementResult`.
    """

    index: int
    scheme_name: str
    mode: str
    packets: int
    volume: int
    shards: int
    #: Per-shard ``{flow: estimate}`` read-outs; shards partition the
    #: flow space, so the mappings are key-disjoint.
    shard_estimates: Tuple[Dict[Hashable, float], ...]
    #: Per-shard maximum counter bit-width at rotation (0 = empty shard).
    shard_counter_bits: Tuple[int, ...]
    #: Ground truth accumulated over the epoch (size or volume per mode).
    truths: Dict[Hashable, int] = field(compare=False)
    telemetry: Optional[Dict[str, dict]] = field(default=None, compare=False,
                                                 repr=False)
    #: Counter-store backend the carried state was held in
    #: (``"dense"``/``"pools"``/``"morris"``); ``None`` on snapshots
    #: unpickled from pre-store checkpoints.  Merge guards (the export
    #: :class:`~repro.export.collector.Collector`) refuse to mix
    #: snapshots whose scheme or store differ.
    store: Optional[str] = field(default=None, compare=False)

    @property
    def flows(self) -> int:
        return sum(len(est) for est in self.shard_estimates)

    @property
    def max_counter_bits(self) -> int:
        return max(self.shard_counter_bits, default=0)

    def estimates_dict(self) -> Dict[Hashable, float]:
        """The epoch's estimates, shards merged (disjoint keys)."""
        merged: Dict[Hashable, float] = {}
        for estimates in self.shard_estimates:
            merged.update(estimates)
        return merged

    def to_json(self) -> Dict[str, object]:
        from repro.results import estimates_json

        return {
            "type": "epoch",
            "index": int(self.index),
            "scheme": self.scheme_name,
            "mode": self.mode,
            "packets": int(self.packets),
            "volume": int(self.volume),
            "shards": int(self.shards),
            "flows": int(self.flows),
            "max_counter_bits": int(self.max_counter_bits),
            "shard_counter_bits": [int(b) for b in self.shard_counter_bits],
            "store": self.store,
            "estimates": estimates_json(self.estimates_dict()),
            "telemetry": self.telemetry,
        }


@dataclass(frozen=True)
class StreamResult:
    """Terminal outcome of a stream: every epoch plus merged views.

    Satisfies :class:`repro.results.MeasurementResult`;
    ``estimates_dict()`` sums each flow across epochs (for the exact
    kernel that equals a one-shot replay bit-for-bit), and
    :meth:`collector` exposes the same merge through the export-side
    :class:`~repro.export.collector.Collector` interval machinery.
    """

    scheme_name: str
    trace_name: str
    mode: str
    shards: int
    snapshots: Tuple[EpochSnapshot, ...]
    packets: int
    volume: int
    elapsed_seconds: float
    telemetry: Optional[Dict[str, dict]] = field(default=None, compare=False,
                                                 repr=False)

    @property
    def epochs(self) -> int:
        return len(self.snapshots)

    @property
    def max_counter_bits(self) -> int:
        return max((s.max_counter_bits for s in self.snapshots), default=0)

    def estimates_dict(self) -> Dict[Hashable, float]:
        """Per-flow totals across every epoch (snapshot order)."""
        totals: Dict[Hashable, float] = {}
        for snapshot in self.snapshots:
            for key, estimate in snapshot.estimates_dict().items():
                totals[key] = totals.get(key, 0.0) + estimate
        return totals

    def truths(self) -> Dict[Hashable, int]:
        """Ground truth totals across every epoch."""
        totals: Dict[Hashable, int] = {}
        for snapshot in self.snapshots:
            for key, value in snapshot.truths.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def collector(self):
        """The epochs as intervals in an export-side ``Collector``.

        Flow keys are stringified (the export record convention);
        per-flow interval series and totals then come from the standard
        collector queries.
        """
        from repro.export.collector import Collector

        collector = Collector()
        for snapshot in self.snapshots:
            collector.ingest_snapshot(snapshot)
        return collector

    def to_json(self) -> Dict[str, object]:
        from repro.results import estimates_json

        return {
            "type": "stream",
            "scheme": self.scheme_name,
            "trace": self.trace_name,
            "mode": self.mode,
            "shards": int(self.shards),
            "epochs": int(self.epochs),
            "packets": int(self.packets),
            "volume": int(self.volume),
            "elapsed_seconds": float(self.elapsed_seconds),
            "max_counter_bits": int(self.max_counter_bits),
            "estimates": estimates_json(self.estimates_dict()),
            "epoch_packets": [int(s.packets) for s in self.snapshots],
            "telemetry": self.telemetry,
        }


# ---------------------------------------------------------------------------
# shard-chunk work items (module-level: must pickle into pool workers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _ShardChunkTask:
    """One shard's slice of one chunk: a resumable columnar replay."""

    shard: int
    index: int  # == shard; the fault-targeting unit id
    scheme_factory: Callable[[], object]
    trace: CompiledTrace
    mode: str
    rng: np.random.SeedSequence
    state: KernelState
    telemetry: bool
    #: Columnar backend for this chunk ("vector" or "native").
    engine: str = "vector"


def _run_shard_chunk(task: _ShardChunkTask):
    """Replay one shard-chunk, returning its rows' carried-out state.

    Carry-in and carry-out are dense: the parent gathers the rows from
    the shard's lanes (decoding a compact store once) and scatters the
    exported rows back (re-encoding once), so compact backends pay
    encode/decode once per chunk boundary, never per packet.
    """
    tel = obs.Telemetry() if task.telemetry else None
    scheme = task.scheme_factory()
    spec = kernel_spec(scheme)
    if spec is None:  # unreachable after session-probe; defend anyway
        raise ParameterError(
            f"scheme {getattr(scheme, 'name', type(scheme).__name__)!r} "
            f"lost its kernel between probe and replay")
    result = run_kernel(task.trace, spec.factory, mode=task.mode,
                        rng=task.rng, telemetry=tel, resume=task.state,
                        engine=task.engine)
    state = result.kernel.export_state(task.trace.keys)
    return task.shard, state, (tel.snapshot() if tel is not None else None)


def _readout(spec, state: KernelState) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a shard state: estimates and raw counters, in ``index`` order.

    A throwaway kernel holds the state (no packets replayed, so its
    generator is never drawn from).  Lane-local lanes load by position;
    coupled state loads by key in its last replay's row order, the
    layout ICE's re-bucketing ran under.
    """
    R = state.replicas
    kernel = spec.factory(state.flows * R, np.random.default_rng(0), R)
    if kernel.lane_local:
        kernel.load_rows(state)
    else:
        kernel.load_state(list(state.index), state)
    return kernel.estimates()[::R], kernel.counters()[::R]


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class StreamSession:
    """An incremental, epoch-rotating, hash-sharded measurement session.

    Build one with a zero-argument ``scheme_factory`` (prefer
    :func:`repro.scheme_factory` — it survives pickling into pool
    workers and checkpoints), feed it packets with :meth:`consume` /
    :meth:`extend`, and close it with :meth:`finish`.  The high-level
    wrapper is :func:`repro.stream`.

    Parameters
    ----------
    scheme_factory:
        Zero-argument callable building a fresh scheme; the scheme must
        expose a *resumable* columnar kernel (every in-tree kernel is).
    shards:
        Number of hash-partitions of the flow space; each shard is one
        independent counter array, replayed per chunk.
    epoch_packets / epoch_bytes:
        Rotation watermarks — close the epoch once it has consumed this
        many packets / bytes.  Either, both (first reached wins) or
        neither (one epoch per :meth:`finish`).  Rotation is quantised
        to chunk boundaries.
    chunk_packets:
        Packets consumed per internal chunk (the replay granularity).
    rng:
        Any :func:`repro.seed_streams` convention; the per-(epoch,
        shard, chunk) replay streams are pure ``SeedSequence`` children
        of its root.
    workers:
        ``None``/``1`` = replay shards serially in-process; ``>= 2`` =
        fan shard-chunk replays over the persistent process pool (same
        seeds, bit-identical results).
    engine:
        Columnar backend for shard-chunk replays: ``"vector"`` (default)
        or ``"native"`` (:mod:`repro.core.native`; falls back to
        ``"vector"`` with a one-time warning when no provider is
        available).  Carried kernel state round-trips through native
        chunks unchanged, so mixing backends across a resume is safe.
    store:
        Counter-store backend for the carried per-flow state
        (:mod:`repro.core.stores`): ``"dense"``/``None`` keeps the live
        arrays (default, zero regression); ``"pools"`` (lossless
        variable-width Counter Pools) or ``"morris"`` (lossy unbiased
        floating-point counters) encode the carry-state and checkpoints
        compactly — replays still run on dense scratch columns; each
        chunk decodes a touched shard's columns once and re-encodes
        them once.  Persisted in checkpoints and restored with the
        session.
    telemetry:
        Optional :class:`repro.obs.Telemetry` session; ``stream.*``
        events plus the per-chunk kernel events are recorded per epoch
        (each snapshot carries its epoch's events).
    checkpoint_path:
        When set, the session checkpoints itself after every
        ``checkpoint_every`` chunks (and at :meth:`finish`), atomically;
        :meth:`restore` rebuilds a session from the file.
    """

    def __init__(
        self,
        scheme_factory: Callable[[], object],
        *,
        shards: int = 1,
        epoch_packets: Optional[int] = None,
        epoch_bytes: Optional[int] = None,
        chunk_packets: int = DEFAULT_CHUNK_PACKETS,
        rng=None,
        workers: Optional[int] = None,
        engine: str = "vector",
        store: Optional[str] = None,
        telemetry: Optional[obs.Telemetry] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        name: str = "stream",
    ) -> None:
        from repro.core import native
        from repro.core import stores as _stores
        from repro.facade import _validate, seed_streams

        if not callable(scheme_factory):
            raise ParameterError(
                f"scheme_factory must be callable, got {scheme_factory!r}")
        _validate(shards=shards, chunk_packets=chunk_packets,
                  epoch_packets=epoch_packets, epoch_bytes=epoch_bytes,
                  workers=workers, checkpoint_every=checkpoint_every,
                  stream_engine=engine)
        if engine == "native" and not native.available():
            native.warn_fallback("stream engine='native'")
            engine = "vector"
        compact_store = _stores.resolve_store(store)  # eager ParameterError

        scheme = scheme_factory()
        spec = kernel_spec(scheme)
        if spec is None:
            raise ParameterError(
                f"scheme {getattr(scheme, 'name', type(scheme).__name__)!r} "
                f"has no columnar kernel; streaming needs one of: "
                f"{', '.join(kernel_scheme_names())}")
        probe = spec.factory(1, np.random.default_rng(0), 1)
        if not getattr(probe, "resumable", False):
            raise ParameterError(
                f"{type(probe).__name__} does not support resumable state; "
                f"streaming needs a resumable kernel")
        if (workers is not None and workers > 1) or checkpoint_path is not None:
            try:
                pickle.dumps(scheme_factory)
            except Exception:
                raise ParameterError(
                    "parallel or checkpointed streams need a picklable "
                    "scheme factory; build one with repro.scheme_factory()"
                ) from None

        self.scheme_factory = scheme_factory
        self.scheme_name = getattr(scheme, "name", type(scheme).__name__)
        self.mode = spec.mode
        self._spec = spec
        #: Replay only the chunk's keys (see ``SchemeKernel.lane_local``).
        self._lane_local = bool(getattr(probe, "lane_local", False))
        self.shards = shards
        self.epoch_packets = epoch_packets
        self.epoch_bytes = epoch_bytes
        self.chunk_packets = chunk_packets
        self.workers = workers
        self.engine = engine
        #: Canonical compact-store name, or ``None`` for dense state.
        self._store = compact_store
        self.store = compact_store or _stores.DEFAULT_STORE
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.name = name
        self.trace_name = name

        self._root = seed_streams(rng).root()
        self._root_key = tuple(self._root.spawn_key)

        self._session = obs.resolve(telemetry)
        self._enabled = self._session.enabled
        self._epoch_tel = obs.Telemetry() if self._enabled else obs.NULL_TELEMETRY
        self._total_tel = obs.Telemetry() if self._enabled else obs.NULL_TELEMETRY

        self._shard_of: Dict[Hashable, int] = {}
        #: Per shard, the open epoch's lanes.
        self._state: List[KernelState] = self._empty_states()
        self._truths: List[Dict[Hashable, int]] = [dict() for _ in range(shards)]

        self.snapshots: List[EpochSnapshot] = []
        self.epoch_index = 0
        self.packets_consumed = 0
        self.volume_consumed = 0
        self.elapsed_seconds = 0.0
        self._chunk_in_epoch = 0
        self._epoch_packet_count = 0
        self._epoch_volume_count = 0
        self._chunks_since_checkpoint = 0
        self._resume_skip = 0

    # -- feeding -------------------------------------------------------------

    def consume(self, source: Union[Trace, CompiledTrace, Iterable]) -> None:
        """Feed packets from a trace (fast columnar chunks) or an iterable.

        Traces stream through zero-copy
        :meth:`~repro.traces.compiled.CompiledTrace.iter_chunks` views in
        compiled (flow-major) packet order.  Any other chunk provider —
        an object exposing ``iter_chunks(chunk_packets, start=)`` and
        ``num_packets``, such as the chunk-only
        :class:`repro.traces.toolkit.BigTrace` — streams the same way
        without ever materialising a trace.  Any other iterable of
        ``(flow, length)`` pairs goes through :meth:`extend`.  A restored
        session transparently skips the prefix it already consumed — pass
        the same trace and the stream continues where the checkpoint left
        off.
        """
        if isinstance(source, Trace):
            source = compile_trace(source)
        if hasattr(source, "iter_chunks"):
            if self.trace_name == self.name:
                self.trace_name = getattr(source, "name", self.name)
            skip = min(self._resume_skip, source.num_packets)
            self._resume_skip -= skip
            for chunk in source.iter_chunks(self.chunk_packets, start=skip):
                self._ingest(chunk.keys, chunk.lengths)
        else:
            self.extend(source)

    def extend(self, pairs: Iterable[Tuple[Hashable, float]]) -> None:
        """Consume an iterable of ``(flow, length)`` pairs, chunking internally.

        The generic path for live feeds and generators — e.g.
        :meth:`Trace.packet_chunks <repro.traces.trace.Trace
        .packet_chunks>` batches, or pairs straight off a capture loop.
        """
        batch_keys: List[Hashable] = []
        batch_map: Dict[Hashable, List[float]] = {}
        count = 0
        for key, length in pairs:
            if self._resume_skip > 0:
                self._resume_skip -= 1
                continue
            lens = batch_map.get(key)
            if lens is None:
                batch_map[key] = lens = []
                batch_keys.append(key)
            lens.append(float(length))
            count += 1
            if count >= self.chunk_packets:
                self._ingest(batch_keys,
                             [np.asarray(batch_map[k], dtype=np.float64)
                              for k in batch_keys])
                batch_keys, batch_map, count = [], {}, 0
        if count:
            self._ingest(batch_keys,
                         [np.asarray(batch_map[k], dtype=np.float64)
                          for k in batch_keys])

    def ingest_chunk(self, keys: List[Hashable],
                     length_arrays: List[np.ndarray]) -> None:
        """Consume one pre-batched chunk: parallel key / length-array lists.

        The chunk-at-a-time feeding surface (used by :mod:`repro.serve`
        feeds, which batch upstream): ``keys[i]`` is a flow key and
        ``length_arrays[i]`` its packet lengths for this chunk, exactly
        the shape :meth:`~repro.traces.compiled.CompiledTrace.iter_chunks`
        yields.  Watermark rotation and auto-checkpointing apply as for
        :meth:`consume`.
        """
        if len(keys) != len(length_arrays):
            raise ParameterError(
                f"ingest_chunk needs parallel lists; got {len(keys)} keys "
                f"and {len(length_arrays)} length arrays")
        if keys:
            self._ingest(list(keys),
                         [np.asarray(lens, dtype=np.float64)
                          for lens in length_arrays])

    # -- live queries --------------------------------------------------------

    def live_estimates(self) -> Dict[Hashable, float]:
        """Per-flow estimates for the *open* (not yet rotated) epoch.

        Decodes the carried shard states without resetting them — the
        read side of the serve daemon's ``/flows`` and ``/topk`` while
        ingestion continues.  Consistent at chunk boundaries: the
        daemon's single-threaded loop never interleaves a query with a
        half-applied chunk.
        """
        merged: Dict[Hashable, float] = {}
        for state in self._state:
            merged.update(zip(state.index,
                              _readout(self._spec, state)[0].tolist()))
        return merged

    def live_counters(self) -> Dict[Hashable, int]:
        """Raw per-flow counter values for the open epoch.

        The companion of :meth:`live_estimates` for confidence
        intervals: :func:`~repro.core.confidence.confidence_interval`
        takes the counter value, not the estimate.
        """
        merged: Dict[Hashable, int] = {}
        for state in self._state:
            merged.update(zip(state.index,
                              _readout(self._spec, state)[1].tolist()))
        return merged

    # -- internals -----------------------------------------------------------

    def _shard(self, key: Hashable) -> int:
        shard = self._shard_of.get(key)
        if shard is None:
            shard = stable_hash(key) % self.shards
            self._shard_of[key] = shard
        return shard

    def _shard_chunk_trace(self, shard: int, keys: List[Hashable],
                           pos: np.ndarray, sizes: np.ndarray,
                           sums: np.ndarray,
                           length_arrays: List[np.ndarray]):
        """Compile one shard's replay rows for the chunk, with their carry-in.

        ``pos`` indexes the chunk's keys routed to this shard.  The rows
        are those keys for a lane-local kernel, else every lane of the
        shard (untouched ones as zero-packet rows).  Rows sort by
        descending chunk packets, ties by lane: the order of a slice over
        every lane, so either row set draws the same uniforms.

        Returns ``(trace, resume, rows, new_keys, columns)``: the carry-in
        gathered by lane, the rows' lanes, the keys that take lanes
        ``n, n + 1, ...`` in :meth:`_scatter`, and the decoded columns.
        """
        state = self._state[shard]
        n = len(state.index)
        lanes = np.fromiter((state.index.get(keys[i], -1)
                             for i in pos.tolist()),
                            dtype=np.int64, count=pos.size)
        fresh = np.flatnonzero(lanes < 0)
        lanes[fresh] = n + np.arange(fresh.size)
        new_keys = [keys[i] for i in pos[fresh].tolist()]
        if self._lane_local:
            rows, src, row_keys = lanes, pos, [keys[i] for i in pos.tolist()]
        else:
            rows = np.arange(n + fresh.size)
            src = np.full(rows.size, -1, dtype=np.int64)
            src[lanes] = pos
            row_keys = sorted(state.index, key=state.index.get) + new_keys
        row_sizes = np.where(src >= 0, sizes[src], 0)
        order = np.lexsort((rows, -row_sizes))
        rows, src, row_sizes = rows[order], src[order], row_sizes[order]
        row_keys = [row_keys[i] for i in order.tolist()]
        active = src[row_sizes > 0]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(row_sizes, out=offsets[1:])
        lengths = np.concatenate([length_arrays[i] for i in active.tolist()]
                                 or [np.zeros(0)])
        trace = CompiledTrace(
            name=f"{self.name}:shard{shard}", keys=row_keys, lengths=lengths,
            offsets=offsets, sizes=row_sizes,
            volumes=np.where(row_sizes > 0, sums[src], 0).astype(np.int64))
        columns = state.dense_arrays()
        carried = np.flatnonzero(rows < n)
        resume = KernelState(
            index={row_keys[i]: j for j, i in enumerate(carried.tolist())},
            arrays={name: col[rows[carried]] for name, col in columns.items()},
            scalars=state.scalars, replicas=state.replicas)
        return trace, resume, rows, new_keys, columns

    def _scatter(self, shard: int, carried: KernelState,
                 trace: CompiledTrace, rows: np.ndarray,
                 new_keys: List[Hashable],
                 columns: Dict[str, np.ndarray]) -> None:
        """Commit one shard-chunk: add its new lanes, write its rows back.

        A compact store re-encodes every lane, replayed rows first: the
        layout of a slice over every lane, so a Morris encode draws the
        same randomness whichever row set ran.
        """
        state = self._state[shard]
        n = len(state.index)
        if self._lane_local:
            state.index.update(zip(new_keys, range(n, n + len(new_keys))))
        else:
            # Every lane was replayed: keep the index in row order, the
            # layout read-outs load coupled state in.
            state.index = dict(zip(trace.keys, rows.tolist()))
        total = len(state.index) * state.replicas
        for name, out in carried.arrays.items():
            col = columns.get(name, out[:0])
            if col.size < total:
                col = np.concatenate([col, np.zeros(total - col.size,
                                                    col.dtype)])
            col[rows] = out
            columns[name] = col
        state.scalars = carried.scalars
        if state.store is None:
            state.arrays = columns
            return
        active = rows[trace.sizes > 0]
        rest = np.ones(total, dtype=bool)
        rest[active] = False
        order = np.concatenate([active, np.flatnonzero(rest)])
        for name, col in columns.items():
            state.store.write(name, col, order=order)

    def _empty_states(self) -> List[KernelState]:
        """One empty lane state per shard, as every epoch starts."""
        from repro.core import stores as _stores

        return [KernelState(index={}, arrays={}, scalars={},
                            store=self._store and _stores.make_store(self._store))
                for _ in range(self.shards)]

    def _ingest(self, keys: List[Hashable],
                length_arrays: List[np.ndarray]) -> None:
        """Route one chunk to its shards, replay them, advance watermarks."""
        start = time.perf_counter()
        if len(set(keys)) != len(keys):
            merged: Dict[Hashable, np.ndarray] = {}
            for key, lens in zip(keys, length_arrays):
                previous = merged.get(key)
                merged[key] = (lens if previous is None
                               else np.concatenate([previous, lens]))
            keys, length_arrays = list(merged), list(merged.values())
        count = len(keys)
        sizes = np.fromiter((lens.size for lens in length_arrays),
                            dtype=np.int64, count=count)
        # Per-key byte sums in one pass: the non-empty segments tile the
        # concatenation exactly, so reduceat needs only their starts.
        sums = np.zeros(count, dtype=np.float64)
        filled = np.flatnonzero(sizes)
        if filled.size:
            starts = np.cumsum(sizes) - sizes
            sums[filled] = np.add.reduceat(np.concatenate(length_arrays),
                                           starts[filled])
        totals = np.rint(sums).astype(np.int64)
        packets = int(sizes.sum())
        volume = int(totals.sum())
        amounts = sizes if self.mode == "size" else totals
        shard_ids = np.fromiter((self._shard(key) for key in keys),
                                dtype=np.int64, count=count)
        for key, shard, amount in zip(keys, shard_ids.tolist(),
                                      amounts.tolist()):
            truths = self._truths[shard]
            truths[key] = truths.get(key, 0) + amount

        tasks = []
        pending = {}
        for shard in np.unique(shard_ids).tolist():
            pos = np.flatnonzero(shard_ids == shard)
            _faults.fire("shard.run", unit=shard)
            seed = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=self._root_key + (self.epoch_index, shard,
                                            self._chunk_in_epoch))
            trace, resume, rows, new_keys, columns = self._shard_chunk_trace(
                shard, keys, pos, sizes, sums, length_arrays)
            pending[shard] = (trace, rows, new_keys, columns)
            tasks.append(_ShardChunkTask(
                shard=shard, index=shard,
                scheme_factory=self.scheme_factory, trace=trace,
                mode=self.mode, rng=seed, state=resume,
                telemetry=self._enabled, engine=self.engine))

        if self.workers is None or self.workers == 1:
            outcomes = [_run_shard_chunk(task) for task in tasks]
        else:
            from repro.harness.parallel import run_tasks

            outcomes = run_tasks(_run_shard_chunk, tasks,
                                 max_workers=self.workers,
                                 session=self._epoch_tel)
        for shard, carried, snap in outcomes:
            self._scatter(shard, carried, *pending[shard])
            self._epoch_tel.merge(snap)

        self._epoch_tel.count("stream.chunks")
        self._epoch_tel.count("stream.packets", packets)
        self._epoch_tel.count("stream.bytes", volume)
        self._epoch_tel.count("stream.shard_runs", len(tasks))
        self.packets_consumed += packets
        self.volume_consumed += volume
        self._epoch_packet_count += packets
        self._epoch_volume_count += volume
        self._chunk_in_epoch += 1
        self._chunks_since_checkpoint += 1

        if ((self.epoch_packets is not None
             and self._epoch_packet_count >= self.epoch_packets)
                or (self.epoch_bytes is not None
                    and self._epoch_volume_count >= self.epoch_bytes)):
            self.rotate()
        if (self.checkpoint_path is not None
                and self._chunks_since_checkpoint >= self.checkpoint_every):
            self.checkpoint()
        self.elapsed_seconds += time.perf_counter() - start

    # -- epochs --------------------------------------------------------------

    def rotate(self) -> Optional[EpochSnapshot]:
        """Close the open epoch: export every shard, then reset them.

        The paper's export-and-reset — each epoch starts from zeroed
        counters.  Returns the :class:`EpochSnapshot`, or ``None`` when
        the epoch consumed nothing.
        """
        if self._epoch_packet_count == 0:
            return None
        readouts = [_readout(self._spec, state) for state in self._state]
        shard_estimates = tuple(dict(zip(state.index, estimates.tolist()))
                                for state, (estimates, _) in
                                zip(self._state, readouts))
        shard_bits = tuple(int(counters.max(initial=0)).bit_length()
                           for _, counters in readouts)
        truths: Dict[Hashable, int] = {}
        for shard_truths in self._truths:
            truths.update(shard_truths)
        self._epoch_tel.count("stream.epochs")
        snap_tel = self._epoch_tel.snapshot() if self._enabled else None
        snapshot = EpochSnapshot(
            index=self.epoch_index, scheme_name=self.scheme_name,
            mode=self.mode, packets=self._epoch_packet_count,
            volume=self._epoch_volume_count, shards=self.shards,
            shard_estimates=shard_estimates, shard_counter_bits=shard_bits,
            truths=truths, telemetry=snap_tel, store=self.store)
        self.snapshots.append(snapshot)
        if self._enabled:
            self._session.merge(snap_tel)
            self._total_tel.merge(snap_tel)
            self._epoch_tel = obs.Telemetry()
        self._state = self._empty_states()
        self._truths = [dict() for _ in range(self.shards)]
        self.epoch_index += 1
        self._chunk_in_epoch = 0
        self._epoch_packet_count = 0
        self._epoch_volume_count = 0
        return snapshot

    def finish(self) -> StreamResult:
        """Close the session: rotate any open epoch, return the result.

        Also writes a final checkpoint when checkpointing is on, so
        restoring a finished stream resumes into a no-op.
        """
        if self._epoch_packet_count:
            self.rotate()
        if self.checkpoint_path is not None:
            self.checkpoint()
        if self._enabled:
            leftover = self._epoch_tel.snapshot()
            self._session.merge(leftover)
            self._total_tel.merge(leftover)
            self._epoch_tel = obs.Telemetry()
        return StreamResult(
            scheme_name=self.scheme_name, trace_name=self.trace_name,
            mode=self.mode, shards=self.shards,
            snapshots=tuple(self.snapshots),
            packets=self.packets_consumed, volume=self.volume_consumed,
            elapsed_seconds=self.elapsed_seconds,
            telemetry=self._total_tel.snapshot() if self._enabled else None)

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self) -> str:
        """Atomically persist the session; returns the checkpoint path.

        The write is temp-file + ``os.replace``, with the
        ``checkpoint.write`` fault seam between serialisation and
        publication — an injected failure there (or a real crash) leaves
        the previous checkpoint intact.
        """
        if self.checkpoint_path is None:
            raise ParameterError(
                "checkpoint() needs a session built with checkpoint_path=")
        payload = {
            "magic": _CHECKPOINT_MAGIC,
            "version": _CHECKPOINT_VERSION,
            "scheme_factory": self.scheme_factory,
            "config": {
                "shards": self.shards,
                "epoch_packets": self.epoch_packets,
                "epoch_bytes": self.epoch_bytes,
                "chunk_packets": self.chunk_packets,
                "checkpoint_every": self.checkpoint_every,
                "name": self.name,
                "engine": self.engine,
                "store": self.store,
            },
            "entropy": self._root.entropy,
            "spawn_key": self._root_key,
            "trace_name": self.trace_name,
            "epoch_index": self.epoch_index,
            "chunk_in_epoch": self._chunk_in_epoch,
            "packets_consumed": self.packets_consumed,
            "volume_consumed": self.volume_consumed,
            "epoch_packet_count": self._epoch_packet_count,
            "epoch_volume_count": self._epoch_volume_count,
            "elapsed_seconds": self.elapsed_seconds,
            "state": list(self._state),
            "truths": [dict(truths) for truths in self._truths],
            "snapshots": list(self.snapshots),
        }
        try:
            data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ParameterError(
                f"stream checkpoint state must pickle (use "
                f"repro.scheme_factory for the scheme): {exc}") from None
        tmp = f"{self.checkpoint_path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
        try:
            _faults.fire("checkpoint.write")
        except BaseException:
            # Publication never happened: drop the temp file so the
            # previous checkpoint stays the visible one.
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        os.replace(tmp, self.checkpoint_path)
        self._chunks_since_checkpoint = 0
        self._epoch_tel.count("stream.checkpoints")
        self._epoch_tel.count("stream.checkpoint_bytes", len(data))
        return self.checkpoint_path

    @classmethod
    def restore(cls, path: str, *, workers: Optional[int] = None,
                telemetry: Optional[obs.Telemetry] = None) -> "StreamSession":
        """Rebuild a session from a checkpoint written by :meth:`checkpoint`.

        The restored session continues the original chunk schedule (its
        per-chunk seeds are pure functions of the checkpointed root), so
        feeding it the same source yields estimates bit-identical to the
        uninterrupted run.  ``workers`` / ``telemetry`` are
        execution-environment choices, not measurement state, so they
        are chosen fresh here.  Each shard's lanes come from its carried
        ``state`` (in ``index`` order); a ``"keys"`` field, written by
        older sessions, is ignored.
        """
        with open(path, "rb") as fh:
            payload = pickle.load(fh)
        if (not isinstance(payload, dict)
                or payload.get("magic") != _CHECKPOINT_MAGIC):
            raise ParameterError(f"{path!r} is not a stream checkpoint")
        if payload.get("version") != _CHECKPOINT_VERSION:
            raise ParameterError(
                f"checkpoint version {payload.get('version')!r} is not "
                f"supported (expected {_CHECKPOINT_VERSION})")
        config = payload["config"]
        session = cls(
            payload["scheme_factory"],
            shards=config["shards"],
            epoch_packets=config["epoch_packets"],
            epoch_bytes=config["epoch_bytes"],
            chunk_packets=config["chunk_packets"],
            rng=np.random.SeedSequence(
                entropy=payload["entropy"],
                spawn_key=tuple(payload["spawn_key"])),
            workers=workers,
            engine=config.get("engine", "vector"),
            store=config.get("store", "dense"),
            telemetry=telemetry,
            checkpoint_path=path,
            checkpoint_every=config["checkpoint_every"],
            name=config["name"],
        )
        session.trace_name = payload["trace_name"]
        session.epoch_index = payload["epoch_index"]
        session._chunk_in_epoch = payload["chunk_in_epoch"]
        session.packets_consumed = payload["packets_consumed"]
        session.volume_consumed = payload["volume_consumed"]
        session._epoch_packet_count = payload["epoch_packet_count"]
        session._epoch_volume_count = payload["epoch_volume_count"]
        session.elapsed_seconds = payload["elapsed_seconds"]
        session._state = [state or empty for state, empty
                          in zip(payload["state"], session._state)]
        session._truths = [dict(truths) for truths in payload["truths"]]
        session.snapshots = list(payload["snapshots"])
        session._resume_skip = session.packets_consumed
        session._epoch_tel.count("stream.resumes")
        return session
