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
  epoch as one persistent, positional
  :class:`~repro.core.kernels.KernelState` (lanes numbered first-seen,
  arrays grown as keys arrive).  A chunk gathers the rows it replays by
  lane, runs them through one columnar
  :func:`~repro.core.batchreplay.run_kernel` pass keyed by lane (carry-in
  via ``resume=``/``load_state``, carry-out via ``export_state``, both
  by position) and scatters them back.  For
  :attr:`~repro.core.kernels.SchemeKernel.lane_local` kernels the rows
  are the chunk's lanes only, so a chunk costs O(chunk), not O(epoch
  keys); coupled kernels (SAC, SD, ICE) replay every lane.
* Routing is columnar.  The open epoch interns its keys to ids (one
  dict, key → id); int64 columns give each id its shard and its lane.
  A chunk looks its keys up in one C-level pass, hashes only the keys
  the epoch has not seen (all at once through
  :func:`~repro.flows.hashing.fnv1a64_int64` when they are plain ints,
  else one :func:`~repro.flows.hashing.stable_hash` per key) and reads
  shards and lanes by fancy indexing.  Each shard keeps its keys in
  lane order — the only place flow keys live, read at rotation, query
  and checkpoint — and its per-lane truths as an int64 column.  Every
  table resets with the epoch, so it holds one epoch's keys at most.
* A chunk commits whole or not at all: its lengths are checked (finite,
  > 0) before anything changes, and lanes, truths, ids and carried
  state are written only in the scatter step, after every shard-chunk
  replay of the chunk has returned.
* Shard-chunk replays run in-process, one after another, through the
  kernel spec the session resolved once at construction — the paper's
  linecard scales by engines over one shared counter memory, not by
  shipping counter state between processes.  Each replay's random
  stream is a pure ``SeedSequence`` child keyed by
  ``(epoch, shard, chunk)``, so a resumed run consumes the streams the
  uninterrupted one would have — same seed, same estimates, bit for bit.
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
estimates — uninterrupted or interrupted-and-resumed alike — but a
different sharding or chunking consumes the random streams differently,
exactly as the columnar engine already relates to the scalar one.

Failure injection
-----------------
Two seams (:mod:`repro.faults`): ``shard.run`` fires per touched shard
(with the shard index) before its replay, ``checkpoint.write`` fires
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
from itertools import accumulate, chain, islice, repeat
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Tuple, Union)

import numpy as np

from repro import faults as _faults
from repro import obs
from repro.core.batchreplay import run_kernel
from repro.core.kernels import KernelState, kernel_scheme_names, kernel_spec
from repro.errors import ParameterError
from repro.flows.hashing import fnv1a64_int64, stable_hash
from repro.schemes import SchemeFactory
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.traces.trace import Trace

__all__ = ["StreamSession", "StreamResult", "EpochSnapshot",
           "DEFAULT_CHUNK_PACKETS"]

#: Default packets per consumption chunk.  Large enough that the columnar
#: pass dominates the per-chunk Python routing, small enough that epoch
#: watermarks stay reasonably sharp.
DEFAULT_CHUNK_PACKETS = 8192

_CHECKPOINT_MAGIC = "repro-stream-checkpoint"
_CHECKPOINT_VERSION = 2


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
# helpers
# ---------------------------------------------------------------------------

def pair_batches(pairs: Iterable[Tuple[Hashable, float]],
                 chunk_packets: int
                 ) -> Iterator[Tuple[List[Hashable], List[np.ndarray]]]:
    """Batch ``(flow, length)`` pairs into chunks of ``chunk_packets``.

    Each chunk is ``(keys, length_arrays)`` — keys in first-seen order,
    each with a float64 array of its lengths in arrival order — the shape
    :meth:`StreamSession.ingest_chunk` takes.  Every chunk is full except
    possibly the last.  :meth:`StreamSession.extend` and
    :class:`repro.serve.feeds.GeneratorFeed` both batch through here, so
    the same pairs give the same chunk schedule on either path.
    """
    lengths: Dict[Hashable, List[float]] = {}
    count = 0
    for key, length in pairs:
        lens = lengths.get(key)
        if lens is None:
            lengths[key] = lens = []
        lens.append(float(length))
        count += 1
        if count >= chunk_packets:
            yield length_columns(lengths, count)
            lengths, count = {}, 0
    if count:
        yield length_columns(lengths, count)


def length_columns(lengths: Dict[Hashable, List[float]], count: int
                    ) -> Tuple[List[Hashable], List[np.ndarray]]:
    """One chunk's per-key length arrays, as views of one float64 column.

    The column is built in one pass over all the lists, so a chunk with
    many keys pays one conversion, not one per key.  :func:`pair_batches`
    and :class:`repro.serve.feeds.SocketFeed` both batch through here.
    """
    column = np.fromiter(chain.from_iterable(lengths.values()),
                         dtype=np.float64, count=count)
    ends = list(accumulate(map(len, lengths.values())))
    return list(lengths), [column[begin:end]
                           for begin, end in zip([0] + ends, ends)]


def _readout(spec, state: KernelState, order: Optional[np.ndarray]
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Decode a shard state: estimates and raw counters, in lane order.

    A throwaway kernel holds the state (no packets replayed, so its
    generator is never drawn from).  Lane-local lanes (``order`` is
    ``None``) load as they are.  Coupled state loads in ``order`` — its
    last replay's lanes in row order, the layout ICE's re-bucketing ran
    under — and the read-out is put back in lane order.
    """
    R = state.replicas
    kernel = spec.factory(state.flows * R, np.random.default_rng(0), R)
    if order is None:
        kernel.load_rows(state)
        return kernel.estimates()[::R], kernel.counters()[::R]
    # Session states carry one replica, so a lane is a row.
    kernel.load_state(order, KernelState(
        flows=order.size, scalars=state.scalars,
        arrays={name: col[order]
                for name, col in state.dense_arrays().items()}))
    back = np.argsort(order)
    return kernel.estimates()[back], kernel.counters()[back]


def _grown(column: np.ndarray, size: int, fill: int) -> np.ndarray:
    """``column`` with room for ``size`` entries; new slots read ``fill``.

    Capacity at least doubles, so growing a table key by key costs
    amortised O(1) per key.
    """
    if column.size >= size:
        return column
    out = np.full(max(size, 2 * column.size, 64), fill, dtype=column.dtype)
    out[:column.size] = column
    return out


# ---------------------------------------------------------------------------
# the session
# ---------------------------------------------------------------------------

class StreamSession:
    """An incremental, epoch-rotating, hash-sharded measurement session.

    Build one with a zero-argument ``scheme_factory`` (prefer
    :func:`repro.scheme_factory` — it survives pickling into
    checkpoints), feed it packets with :meth:`consume` /
    :meth:`extend`, and close it with :meth:`finish`.  The high-level
    wrapper is :func:`repro.stream`.

    Parameters
    ----------
    scheme_factory:
        Zero-argument callable building a fresh scheme; the scheme must
        expose a *resumable* columnar kernel (every in-tree kernel is).
        It is called once, here; every chunk replays through the kernel
        spec resolved from that scheme.
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
                  checkpoint_every=checkpoint_every, stream_engine=engine)
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
        if checkpoint_path is not None:
            try:
                pickle.dumps(scheme_factory)
            except Exception:
                raise ParameterError(
                    "checkpointed streams need a picklable scheme "
                    "factory; build one with repro.scheme_factory()"
                ) from None

        self.scheme_factory = scheme_factory
        # A registry factory names the scheme as ``make_scheme`` and
        # ``--scheme`` spell it ("anls2", where the sketch says "anls-2").
        self.scheme_name = (scheme_factory.name
                            if isinstance(scheme_factory, SchemeFactory)
                            else getattr(scheme, "name",
                                         type(scheme).__name__))
        self.mode = spec.mode
        self._spec = spec
        #: Replay only the chunk's keys (see ``SchemeKernel.lane_local``).
        self._lane_local = bool(getattr(probe, "lane_local", False))
        self.shards = shards
        self.epoch_packets = epoch_packets
        self.epoch_bytes = epoch_bytes
        self.chunk_packets = chunk_packets
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

        #: Per shard, the open epoch's lanes.
        self._state: List[KernelState] = self._empty_states()
        self._reset_tables()

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
        #: Lanes the live read-outs have decoded (point reads and shard
        #: read-outs alike); read-outs are cached per chunk boundary.
        self.live_lanes_decoded = 0
        self._readout_boundary: Optional[Tuple[int, int]] = None
        self._readout_cache: Dict[int, tuple] = {}

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
        :meth:`Trace.packet_pairs <repro.traces.trace.Trace.packet_pairs>`,
        or pairs straight off a capture loop.
        """
        pairs = iter(pairs)
        if self._resume_skip > 0:
            self._resume_skip -= sum(1 for _ in islice(pairs,
                                                       self._resume_skip))
        for keys, length_arrays in pair_batches(pairs, self.chunk_packets):
            self._ingest(keys, length_arrays)

    def ingest_chunk(self, keys: List[Hashable],
                     length_arrays: List[np.ndarray]) -> None:
        """Consume one pre-batched chunk: parallel key / length-array lists.

        The chunk-at-a-time feeding surface (used by :mod:`repro.serve`
        feeds, which batch upstream): ``keys[i]`` is a flow key and
        ``length_arrays[i]`` its packet lengths for this chunk, exactly
        the shape :meth:`~repro.traces.compiled.CompiledTrace.iter_chunks`
        yields.  Watermark rotation and auto-checkpointing apply as for
        :meth:`consume`.  A chunk with a length that is not finite and
        > 0 raises :class:`~repro.errors.ParameterError` before the
        session changes at all.
        """
        if len(keys) != len(length_arrays):
            raise ParameterError(
                f"ingest_chunk needs parallel lists; got {len(keys)} keys "
                f"and {len(length_arrays)} length arrays")
        if keys:
            self._ingest(list(keys), list(length_arrays))

    # -- live queries --------------------------------------------------------
    #
    # The read side of the serve daemon's ``/flows`` and ``/topk`` while
    # ingestion continues.  Every read sees a chunk boundary: the
    # daemon's single-threaded loop never interleaves a query with a
    # half-applied chunk.

    def live_flow(self, key: Hashable) -> Optional[Tuple[float, int]]:
        """One open-epoch flow's ``(estimate, raw counter)``, or ``None``.

        The key resolves through the epoch's id tables to its shard and
        lane.  A lane-local kernel decodes that one row (``replicas``
        lanes, :meth:`~repro.core.stores.CounterStore.read_rows` on a
        compact store) through a one-row kernel; a coupled kernel (SAC,
        SD, ICE) has no per-lane read-out, so it decodes the key's shard
        once per chunk boundary.  :attr:`live_lanes_decoded` counts the
        lanes either way decodes.
        """
        i = self._ids.get(key)
        if i is None:
            return None
        shard, lane = int(self._id_shard[i]), int(self._id_lane[i])
        state = self._state[shard]
        if not self._lane_local:
            _, estimates, counters = self.live_readout(shard)
            return float(estimates[lane]), int(counters[lane])
        R = state.replicas
        lanes = lane * R + np.arange(R)
        store = state.store
        if store is None:
            arrays = {name: col[lanes] for name, col in state.arrays.items()}
        else:
            arrays = {name: store.read_rows(name, lanes)
                      for name in store.columns()}
        kernel = self._spec.factory(R, np.random.default_rng(0), R)
        kernel.load_rows(KernelState(flows=1, arrays=arrays,
                                     scalars=state.scalars, replicas=R))
        self.live_lanes_decoded += R
        return float(kernel.estimates()[0]), int(kernel.counters()[0])

    def live_readout(self, shard: int
                     ) -> Tuple[List[Hashable], np.ndarray, np.ndarray]:
        """One shard's open epoch as arrays: ``(keys, estimates, counters)``.

        Aligned by position, in the shard's lane order; no dict is
        built.  ``keys`` is the session's own lane list (as
        :meth:`live_keys`).  The decode is cached per chunk boundary —
        ``(epoch, chunk in epoch)``, which every ingested chunk and every
        rotation advances — so the arrays are read-only and shared
        between callers.
        """
        boundary = (self.epoch_index, self._chunk_in_epoch)
        if boundary != self._readout_boundary:
            self._readout_cache = {}
            self._readout_boundary = boundary
        cached = self._readout_cache.get(shard)
        if cached is None:
            state = self._state[shard]
            estimates, counters = _readout(self._spec, state,
                                           self._order[shard])
            estimates.setflags(write=False)
            counters.setflags(write=False)
            self.live_lanes_decoded += state.flows * state.replicas
            cached = (self._lane_keys[shard], estimates, counters)
            self._readout_cache[shard] = cached
        return cached

    def live_keys(self, shard: int) -> List[Hashable]:
        """One shard's open-epoch keys in lane order, decoding nothing.

        The session's own list, grown as keys arrive: read it, do not
        change it.
        """
        return self._lane_keys[shard]

    def live_estimates(self) -> Dict[Hashable, float]:
        """Per-flow estimates for the *open* (not yet rotated) epoch."""
        merged: Dict[Hashable, float] = {}
        for shard in range(self.shards):
            keys, estimates, _ = self.live_readout(shard)
            merged.update(zip(keys, estimates.tolist()))
        return merged

    def live_counters(self) -> Dict[Hashable, int]:
        """Raw per-flow counter values for the open epoch.

        The companion of :meth:`live_estimates` for confidence
        intervals: :func:`~repro.core.confidence.confidence_interval`
        takes the counter value, not the estimate.
        """
        merged: Dict[Hashable, int] = {}
        for shard in range(self.shards):
            keys, _, counters = self.live_readout(shard)
            merged.update(zip(keys, counters.tolist()))
        return merged

    # -- internals -----------------------------------------------------------

    def _reset_tables(self) -> None:
        """Empty the open epoch's key tables (ids, shards, lanes, truths)."""
        #: key -> epoch-scoped id, for every key with a committed lane.
        self._ids: Dict[Hashable, int] = {}
        #: Per id: its shard, and its lane there (-1 until committed).
        self._id_shard = np.zeros(0, dtype=np.int64)
        self._id_lane = np.zeros(0, dtype=np.int64)
        #: Per shard: keys in lane order, and each lane's epoch truth.
        self._lane_keys: List[List[Hashable]] = [[] for _ in range(self.shards)]
        self._lane_truth: List[np.ndarray] = [np.zeros(0, dtype=np.int64)
                                              for _ in range(self.shards)]
        #: Per coupled shard: its last replay's lanes in row order, the
        #: layout read-outs load it in (``None`` for lane-local kernels).
        self._order: List[Optional[np.ndarray]] = [
            None if self._lane_local else np.zeros(0, dtype=np.int64)
            for _ in range(self.shards)]

    def _load_tables(self, lanes) -> None:
        """Rebuild the key tables from checkpointed per-shard lanes.

        ``lanes`` holds one ``(keys, truths, order)`` triple per shard,
        as :meth:`checkpoint` writes them.
        """
        self._reset_tables()
        shard_of, lane_of = [], []
        for shard, (keys, truth, order) in enumerate(lanes):
            self._lane_keys[shard] = keys
            self._lane_truth[shard] = truth
            self._order[shard] = order
            self._ids.update(zip(keys, range(len(self._ids),
                                             len(self._ids) + len(keys))))
            shard_of.append(np.full(len(keys), shard, dtype=np.int64))
            lane_of.append(np.arange(len(keys), dtype=np.int64))
        self._id_shard = np.concatenate(shard_of)
        self._id_lane = np.concatenate(lane_of)

    def _hash_shards(self, keys: List[Hashable]) -> np.ndarray:
        """``stable_hash(key) % shards`` for each key, as one int64 array.

        Plain ints that fit int64 hash in one vectorised pass; any other
        key (``bool``, wider ints, str, tuples, ``FiveTuple``) goes
        through :func:`stable_hash` one by one.
        """
        if set(map(type, keys)) == {int}:
            try:
                values = np.array(keys, dtype=np.int64)
            except OverflowError:
                pass
            else:
                return (fnv1a64_int64(values)
                        % np.uint64(self.shards)).astype(np.int64)
        return np.fromiter((stable_hash(key) % self.shards for key in keys),
                           dtype=np.int64, count=len(keys))

    def _shard_chunk_trace(self, shard: int, ids: np.ndarray,
                           pos: np.ndarray, starts: np.ndarray,
                           sizes: np.ndarray, sums: np.ndarray,
                           flat: np.ndarray):
        """Compile one shard's replay rows for the chunk, with their carry-in.

        ``pos`` indexes the chunk's keys routed to this shard, whose
        lengths are ``flat[starts[i]:starts[i] + sizes[i]]``.  The rows
        are those keys' lanes for a lane-local kernel, else every lane of
        the shard (untouched ones as zero-packet rows).  Rows sort by
        descending chunk packets, ties by lane: the order of a slice over
        every lane, so either row set draws the same uniforms.  The trace
        is keyed by lane; flow keys never enter the replay.

        Returns ``(trace, resume, rows, lanes, columns)``: the carry-in
        gathered into row order (rows new to the shard left at zero, as
        every kernel's lanes start), the rows' lanes, each ``pos`` key's
        lane (keys new to the shard take ``n, n + 1, ...`` in chunk
        order) and the decoded columns.  Nothing is written back here.
        """
        state = self._state[shard]
        n = len(self._lane_keys[shard])
        lanes = self._id_lane[ids[pos]]
        fresh = np.flatnonzero(lanes < 0)
        lanes[fresh] = n + np.arange(fresh.size)
        if self._lane_local:
            rows, src = lanes, pos
        else:
            rows = np.arange(n + fresh.size)
            src = np.full(rows.size, -1, dtype=np.int64)
            src[lanes] = pos
        row_sizes = np.where(src >= 0, sizes[src], 0)
        order = np.lexsort((rows, -row_sizes))
        rows, src, row_sizes = rows[order], src[order], row_sizes[order]
        offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(row_sizes, out=offsets[1:])
        # Active rows are a prefix (sizes descend); gather their lengths
        # segment by segment out of the chunk's flat column.
        active = int(np.count_nonzero(row_sizes))
        lengths = flat[np.repeat(starts[src[:active]] - offsets[:active],
                                 row_sizes[:active])
                       + np.arange(offsets[active])]
        trace = CompiledTrace(
            name=f"{self.name}:shard{shard}", keys=rows, lengths=lengths,
            offsets=offsets, sizes=row_sizes,
            volumes=np.where(row_sizes > 0, sums[src], 0).astype(np.int64))
        columns = state.dense_arrays()
        carried = np.flatnonzero(rows < n)
        arrays = {}
        for name, col in columns.items():
            arrays[name] = np.zeros(rows.size, dtype=col.dtype)
            arrays[name][carried] = col[rows[carried]]
        resume = KernelState(flows=rows.size, arrays=arrays,
                             scalars=state.scalars, replicas=state.replicas)
        return trace, resume, rows, lanes, columns

    def _scatter(self, shard: int, carried: KernelState,
                 keys: List[Hashable], ids: np.ndarray, amounts: np.ndarray,
                 trace: CompiledTrace, rows: np.ndarray, pos: np.ndarray,
                 lanes: np.ndarray, columns: Dict[str, np.ndarray]) -> None:
        """Commit one shard-chunk: lanes, ids, truths, then its rows.

        A compact store re-encodes every lane, replayed rows first: the
        layout of a slice over every lane, so a Morris encode draws the
        same randomness whichever row set ran.
        """
        state = self._state[shard]
        lane_keys = self._lane_keys[shard]
        n = len(lane_keys)
        new = pos[lanes >= n]  # chunk order == lane order
        new_keys = list(map(keys.__getitem__, new.tolist()))
        lane_keys.extend(new_keys)
        state.flows = len(lane_keys)
        if not self._lane_local:
            # Every lane was replayed: keep its row order, the layout
            # read-outs load coupled state in.
            self._order[shard] = rows
        self._ids.update(zip(new_keys, ids[new].tolist()))
        self._id_lane[ids[pos]] = lanes
        truth = _grown(self._lane_truth[shard], len(lane_keys), 0)
        truth[lanes] += amounts[pos]
        self._lane_truth[shard] = truth

        total = len(lane_keys) * state.replicas
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

        return [KernelState(flows=0, arrays={}, scalars={},
                            store=self._store and _stores.make_store(self._store))
                for _ in range(self.shards)]

    def _ingest(self, keys: List[Hashable],
                length_arrays: List[np.ndarray]) -> None:
        """Route one chunk to its shards, replay them, advance watermarks.

        Stages (timed as ``stream.stage.*`` when telemetry is on): route
        (merge, check, intern, shard), gather (per-shard rows and
        carry-in), kernel (the replays and their carry-out), scatter
        (the commit), then any rotation or checkpoint the chunk
        triggers.  Carry-in and carry-out are dense: rows are gathered
        from the shard's lanes (decoding a compact store once) and
        scattered back (re-encoding once), so compact stores pay
        encode/decode once per chunk, never per packet.
        """
        start = time.perf_counter()
        if len(set(keys)) != len(keys):
            merged: Dict[Hashable, np.ndarray] = {}
            for key, lens in zip(keys, length_arrays):
                previous = merged.get(key)
                merged[key] = (lens if previous is None
                               else np.concatenate([previous, lens]))
            keys, length_arrays = list(merged), list(merged.values())
        count = len(keys)
        sizes = np.fromiter(map(len, length_arrays), dtype=np.int64,
                            count=count)
        flat = (np.concatenate(length_arrays, dtype=np.float64) if count
                else np.zeros(0))
        if not (np.all(flat > 0) and np.all(np.isfinite(flat))):
            raise ParameterError(
                "packet lengths must be finite and > 0; chunk rejected")
        # Per-key byte sums in one pass: the non-empty segments tile the
        # flat column exactly, so reduceat needs only their starts.
        starts = np.cumsum(sizes) - sizes
        sums = np.zeros(count, dtype=np.float64)
        filled = np.flatnonzero(sizes)
        if filled.size:
            sums[filled] = np.add.reduceat(flat, starts[filled])
        totals = np.rint(sums).astype(np.int64)
        packets = int(sizes.sum())
        volume = int(totals.sum())
        amounts = sizes if self.mode == "size" else totals
        # Keys the epoch has not seen take the next free ids; their
        # shards are cached now, their lanes only at commit.
        ids = np.fromiter(map(self._ids.get, keys, repeat(-1)),
                          dtype=np.int64, count=count)
        new = np.flatnonzero(ids < 0)
        if new.size:
            first = len(self._ids)
            ids[new] = first + np.arange(new.size)
            end = first + new.size
            self._id_shard = _grown(self._id_shard, end, -1)
            self._id_lane = _grown(self._id_lane, end, -1)
            self._id_shard[first:end] = self._hash_shards(
                list(map(keys.__getitem__, new.tolist())))
        shard_ids = self._id_shard[ids]
        routed = time.perf_counter() if self._enabled else 0.0

        replays, commits = [], []
        for shard in np.unique(shard_ids).tolist():
            pos = np.flatnonzero(shard_ids == shard)
            _faults.fire("shard.run", unit=shard)
            seed = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=self._root_key + (self.epoch_index, shard,
                                            self._chunk_in_epoch))
            trace, resume, rows, lanes, columns = self._shard_chunk_trace(
                shard, ids, pos, starts, sizes, sums, flat)
            replays.append((trace, seed, resume))
            commits.append((shard, trace, rows, pos, lanes, columns))
        gathered = time.perf_counter() if self._enabled else 0.0

        tel = self._epoch_tel if self._enabled else None
        carried = [
            run_kernel(trace, self._spec.factory, mode=self.mode, rng=seed,
                       telemetry=tel, resume=resume, engine=self.engine)
            .kernel.export_state(trace.keys)
            for trace, seed, resume in replays]
        replayed = time.perf_counter() if self._enabled else 0.0
        for (shard, *commit), state in zip(commits, carried):
            self._scatter(shard, state, keys, ids, amounts, *commit)

        if self._enabled:
            tel.timing("stream.stage.route", routed - start)
            tel.timing("stream.stage.gather", gathered - routed)
            tel.timing("stream.stage.kernel", replayed - gathered)
            tel.timing("stream.stage.scatter", time.perf_counter() - replayed)
        self._epoch_tel.count("stream.chunks")
        self._epoch_tel.count("stream.packets", packets)
        self._epoch_tel.count("stream.bytes", volume)
        self._epoch_tel.count("stream.shard_runs", len(replays))
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
            self._timed("stream.stage.rotate", self.rotate)
        if (self.checkpoint_path is not None
                and self._chunks_since_checkpoint >= self.checkpoint_every):
            self._timed("stream.stage.checkpoint", self.checkpoint)
        self.elapsed_seconds += time.perf_counter() - start

    def _timed(self, stage: str, call: Callable[[], object]) -> None:
        """Run ``call``, timing it as ``stage`` when telemetry is on.

        The sample lands in the epoch telemetry current when ``call``
        returns, so a rotation is booked into the epoch it opened.
        """
        if not self._enabled:
            call()
            return
        began = time.perf_counter()
        call()
        self._epoch_tel.timing(stage, time.perf_counter() - began)

    # -- epochs --------------------------------------------------------------

    def rotate(self) -> Optional[EpochSnapshot]:
        """Close the open epoch: export every shard, then reset them.

        The paper's export-and-reset — each epoch starts from zeroed
        counters.  Returns the :class:`EpochSnapshot`, or ``None`` when
        the epoch consumed nothing.
        """
        if self._epoch_packet_count == 0:
            return None
        readouts = [_readout(self._spec, state, order)
                    for state, order in zip(self._state, self._order)]
        shard_estimates = tuple(dict(zip(keys, estimates.tolist()))
                                for keys, (estimates, _) in
                                zip(self._lane_keys, readouts))
        shard_bits = tuple(int(counters.max(initial=0)).bit_length()
                           for _, counters in readouts)
        truths: Dict[Hashable, int] = {}
        for keys, truth in zip(self._lane_keys, self._lane_truth):
            truths.update(zip(keys, truth[:len(keys)].tolist()))
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
        # Ids are epoch-scoped and shards a cache of ``stable_hash``:
        # dropping the tables with the epoch bounds them by one epoch's
        # keys without moving any key.
        self._reset_tables()
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
            "lanes": [(keys, truth[:len(keys)], order) for keys, truth, order
                      in zip(self._lane_keys, self._lane_truth, self._order)],
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
    def restore(cls, path: str, *,
                telemetry: Optional[obs.Telemetry] = None) -> "StreamSession":
        """Rebuild a session from a checkpoint written by :meth:`checkpoint`.

        The restored session continues the original chunk schedule (its
        per-chunk seeds are pure functions of the checkpointed root), so
        feeding it the same source yields estimates bit-identical to the
        uninterrupted run.  ``telemetry`` is an execution-environment
        choice, not measurement state, so it is chosen fresh here.  Each
        shard's carried ``state`` is positional; its ``lanes`` entry
        holds the keys in lane order, their truths and (coupled kernels)
        the last replay's row order.  The epoch's ids are renumbered
        from those, as ids never leave the session.  A checkpoint of
        another version is refused.
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
        session._load_tables(payload["lanes"])
        session.snapshots = list(payload["snapshots"])
        session._resume_skip = session.packets_consumed
        session._epoch_tel.count("stream.resumes")
        return session
