"""Struct-of-arrays trace form for the array-native replay engine.

A :class:`~repro.traces.trace.Trace` stores flows as tuples, which is
the right shape for per-packet ``observe()`` loops but the wrong shape
for vectorised replay: the batch engine wants every flow's packet lengths
in one contiguous ``float64`` array with CSR-style offsets, flows ordered
by descending packet budget so the still-active set at any replay column
is a prefix.

:func:`compile_trace` performs that conversion exactly once per trace
*object*.  A ``Trace`` cannot change after it is built, so the cache is
keyed by identity and a hit costs one weak-dict lookup: repeated
replays — the Figure 5-7 sweep replays one trace ten times — reuse the
arrays without reading the packets again, and a derived trace (merged
or renormalized, even under a source's name) is a new object that
compiles on its own.  Entries die with their trace, and
:func:`clear_compile_cache` drops them all.  A :class:`CompiledTrace`
also pickles as a handful of NumPy buffers rather than a dict of
per-flow tuples, which shrinks the process-pool transfer for full-scale
traces by an order of magnitude.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.errors import ParameterError
from repro.flows.packet import FlowKey
from repro.traces.trace import Trace

__all__ = ["CompiledTrace", "TraceChunk", "compile_trace",
           "clear_compile_cache"]


class TraceChunk:
    """A zero-copy window over a compiled trace's packet stream.

    ``keys[j]`` owns ``lengths[j]`` — a *view* into the parent trace's
    ``lengths`` array covering that flow's packets inside this window.
    Chunks partition the compiled (flow-major) packet order: chunk ``k``
    covers global packets ``[start, start + packets)``.
    """

    __slots__ = ("index", "start", "packets", "keys", "lengths")

    def __init__(self, index: int, start: int, packets: int,
                 keys: List[FlowKey], lengths: List[np.ndarray]) -> None:
        self.index = index
        self.start = start
        self.packets = packets
        self.keys = keys
        self.lengths = lengths

    def pairs(self) -> Iterator[Tuple[FlowKey, int]]:
        """Yield the window's ``(flow, length)`` pairs (debug/interop)."""
        for key, lens in zip(self.keys, self.lengths):
            for l in lens:
                yield key, int(l)

    def __repr__(self) -> str:
        return (f"TraceChunk(index={self.index}, start={self.start}, "
                f"packets={self.packets}, flows={len(self.keys)})")


class CompiledTrace:
    """A trace compiled to struct-of-arrays form.

    Attributes
    ----------
    keys:
        Flow keys, ordered by **descending packet count** (stable within
        ties).  Row ``i`` of every per-flow array refers to ``keys[i]``.
    lengths:
        All packet lengths, ``float64``, flows concatenated in key order
        with each flow's packets in original (trace) order.
    offsets:
        CSR offsets into ``lengths``: flow ``i`` owns
        ``lengths[offsets[i]:offsets[i + 1]]``.
    sizes:
        Per-flow packet counts (``int64``, non-increasing).
    volumes:
        Per-flow byte totals (``int64``).
    """

    __slots__ = ("name", "keys", "lengths", "offsets", "sizes", "volumes",
                 "__weakref__")

    def __init__(self, name: str, keys: List[FlowKey], lengths: np.ndarray,
                 offsets: np.ndarray, sizes: np.ndarray,
                 volumes: np.ndarray) -> None:
        self.name = name
        self.keys = keys
        self.lengths = lengths
        self.offsets = offsets
        self.sizes = sizes
        self.volumes = volumes

    # -- construction --------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "CompiledTrace":
        """Compile a :class:`Trace` (use :func:`compile_trace` to cache)."""
        items = list(trace.flows.items())
        raw_sizes = np.fromiter((len(ls) for _, ls in items),
                                dtype=np.int64, count=len(items))
        # Descending budget, stable so equal-sized flows keep trace order;
        # the active set at replay column t is then always a prefix.
        order = np.argsort(-raw_sizes, kind="stable")
        keys = [items[i][0] for i in order]
        sizes = raw_sizes[order]
        offsets = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        lengths = np.empty(int(offsets[-1]), dtype=np.float64)
        for row, i in enumerate(order):
            lengths[offsets[row]:offsets[row + 1]] = items[i][1]
        if lengths.size and not np.all(lengths > 0):
            raise ParameterError("packet lengths must be > 0")
        volumes = np.add.reduceat(lengths, offsets[:-1]).astype(np.int64) \
            if len(items) else np.zeros(0, dtype=np.int64)
        return cls(name=trace.name, keys=keys, lengths=lengths,
                   offsets=offsets, sizes=sizes, volumes=volumes)

    def to_trace(self) -> Trace:
        """Rebuild a :class:`Trace` (compiled flow order)."""
        flows = {
            key: [int(l) for l in
                  self.lengths[self.offsets[i]:self.offsets[i + 1]]]
            for i, key in enumerate(self.keys)
        }
        return Trace(flows, name=self.name)

    # -- trace-compatible surface (what replay() needs) ----------------------

    @property
    def num_flows(self) -> int:
        return len(self.keys)

    @property
    def num_packets(self) -> int:
        return int(self.offsets[-1])

    @property
    def max_flow_packets(self) -> int:
        """Largest per-flow packet count — the batch engine's column count."""
        return int(self.sizes[0]) if len(self.keys) else 0

    def __len__(self) -> int:
        return len(self.keys)

    def true_totals(self, mode: str) -> Dict[FlowKey, int]:
        """Per-flow ground truth, same contract as :meth:`Trace.true_totals`."""
        return dict(zip(self.keys, self.true_totals_array(mode).tolist()))

    def true_totals_array(self, mode: str) -> np.ndarray:
        """Ground truth as an ``int64`` array aligned with ``keys``."""
        if mode == "size":
            return self.sizes
        if mode == "volume":
            return self.volumes
        raise ParameterError(f"mode must be 'size' or 'volume', got {mode!r}")

    def packet_pairs(
        self, order: str = "asis",
        rng: Union[None, int, random.Random] = None,
    ) -> Iterator[Tuple[FlowKey, int]]:
        """Yield ``(flow, length)`` pairs, mirroring :meth:`Trace.packet_pairs`.

        Lets the per-packet engines replay a compiled trace without
        decompressing it back into Python lists first.  ``"asis"`` /
        ``"sequential"`` stream each flow back-to-back in compiled order;
        ``"shuffled"`` draws a uniformly random global order;
        ``"roundrobin"`` interleaves one packet per still-active flow.
        """
        if order in ("asis", "sequential"):
            for i, key in enumerate(self.keys):
                for l in self.lengths[self.offsets[i]:self.offsets[i + 1]]:
                    yield key, int(l)
            return
        if order == "shuffled":
            rand = rng if isinstance(rng, random.Random) else random.Random(rng)
            pairs = [(key, int(l))
                     for i, key in enumerate(self.keys)
                     for l in self.lengths[self.offsets[i]:self.offsets[i + 1]]]
            rand.shuffle(pairs)
            yield from pairs
            return
        if order == "roundrobin":
            for t in range(self.max_flow_packets):
                active = self.active_prefix(t)
                for i in range(active):
                    yield self.keys[i], int(self.lengths[self.offsets[i] + t])
            return
        raise ParameterError(
            f"order must be 'asis', 'sequential', 'shuffled' or 'roundrobin', "
            f"got {order!r}"
        )

    def iter_chunks(self, chunk_packets: int,
                    start: int = 0) -> Iterator[TraceChunk]:
        """Yield :class:`TraceChunk` views of ``chunk_packets`` packets each.

        Chunks cover global packets ``[start, num_packets)`` in compiled
        (flow-major) order, every chunk full except possibly the last;
        the per-flow ``lengths`` entries are views, so iterating a trace
        in chunks allocates O(flows-per-chunk), not O(packets).  Chunk
        numbering stays aligned with a from-zero iteration when
        ``start`` is a multiple of ``chunk_packets`` — what a stream
        resume passes.
        """
        if chunk_packets < 1:
            raise ParameterError(
                f"chunk_packets must be >= 1, got {chunk_packets!r}")
        total = self.num_packets
        if start < 0 or start > total:
            raise ParameterError(
                f"start must be in [0, {total}], got {start!r}")
        offsets = self.offsets
        num_flows = self.num_flows
        index = start // chunk_packets
        p = start
        while p < total:
            q = min(p + chunk_packets, total)
            # Flows overlapping [p, q): flow i owns [offsets[i],
            # offsets[i+1]), so the first is the rightmost i with
            # offsets[i] <= p and the last has offsets[i] < q.
            first = int(np.searchsorted(offsets, p, side="right")) - 1
            last = min(int(np.searchsorted(offsets, q, side="left")),
                       num_flows)
            keys: List[FlowKey] = []
            lens: List[np.ndarray] = []
            for i in range(first, last):
                lo = max(p, int(offsets[i]))
                hi = min(q, int(offsets[i + 1]))
                if hi > lo:
                    keys.append(self.keys[i])
                    lens.append(self.lengths[lo:hi])
            yield TraceChunk(index=index, start=p, packets=q - p,
                             keys=keys, lengths=lens)
            index += 1
            p = q

    def active_prefix(self, column: int) -> int:
        """Number of flows with more than ``column`` packets.

        Because flows are sorted by descending budget, those flows are
        exactly rows ``0..active_prefix(column)``.
        """
        # sizes is non-increasing, so negate for searchsorted's ascending
        # contract: count of sizes strictly greater than `column` = count
        # of negated sizes strictly below ``-column``.
        return int(np.searchsorted(-self.sizes, -column, side="left"))

    def nbytes(self) -> int:
        """Array memory footprint in bytes (the pickling payload size)."""
        return int(self.lengths.nbytes + self.offsets.nbytes
                   + self.sizes.nbytes + self.volumes.nbytes)

    def __repr__(self) -> str:
        return (f"CompiledTrace(name={self.name!r}, flows={len(self.keys)}, "
                f"packets={self.num_packets})")


#: Identity cache: a live Trace -> its compilation.  Traces are
#: immutable, so an entry can never go stale; it dies with its trace.
_COMPILE_CACHE: "weakref.WeakKeyDictionary[Trace, CompiledTrace]" = \
    weakref.WeakKeyDictionary()


def compile_trace(trace: Union[Trace, CompiledTrace]) -> CompiledTrace:
    """Compile ``trace`` to struct-of-arrays form, reusing a cached result.

    Passing an already-compiled trace is a no-op, so callers can accept
    either form.  The cache is keyed by the :class:`Trace` object
    itself: each trace compiles once, later calls return the same
    :class:`CompiledTrace` without touching its packets, and two
    equal-content traces compile separately.
    """
    if isinstance(trace, CompiledTrace):
        return trace
    if not isinstance(trace, Trace):
        hint = ("; chunk-only workloads (iter_chunks providers) are "
                "streaming-only — consume them via stream()"
                if hasattr(trace, "iter_chunks") else "")
        raise ParameterError(
            f"compile_trace needs a Trace or CompiledTrace, got "
            f"{type(trace).__name__}{hint}")
    compiled = _COMPILE_CACHE.get(trace)
    if compiled is None:
        compiled = _COMPILE_CACHE[trace] = CompiledTrace.from_trace(trace)
    return compiled


def clear_compile_cache() -> None:
    """Drop all cached compilations (tests and memory-pressure hooks)."""
    _COMPILE_CACHE.clear()
