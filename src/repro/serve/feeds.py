"""Packet feeds for the serve daemon: where live chunks come from.

A *feed* is the daemon's ingestion source — an async iterator of
pre-batched chunks, each one a ``(keys, length_arrays)`` pair in exactly
the shape :meth:`repro.streaming.StreamSession.ingest_chunk` consumes.
Three sources cover the deployment shapes:

* :class:`TraceFeed` — tail a :class:`~repro.traces.compiled
  .CompiledTrace` through :meth:`~repro.traces.compiled.CompiledTrace
  .iter_chunks`.  Deterministic and *resumable*: ``start=`` skips an
  already-consumed prefix on the original chunk boundaries, which is
  what makes ``serve --resume`` bit-identical to an uninterrupted run.
* :class:`GeneratorFeed` — any iterable of ``(flow, length)`` pairs,
  batched internally (the live-capture shape).  Resumable by consuming
  and discarding ``start`` pairs, so a deterministic generator resumes
  deterministically.
* :class:`SocketFeed` — a line-delimited TCP listener (``"<flow>
  <length>\\n"`` per packet), for pushing packets at a running daemon.
  A socket is a live source: ``start`` is ignored and a resumed daemon
  simply continues from whatever arrives next.

Feeds are deliberately dumb: no sharding, no watermarks, no telemetry —
the :class:`~repro.serve.daemon.ServeDaemon` owns all of that.
"""

from __future__ import annotations

import asyncio
import math
from itertools import islice
from typing import (AsyncIterator, Dict, Hashable, Iterable, List, Optional,
                    Tuple)

import numpy as np

from repro.errors import ParameterError
from repro.streaming import length_columns, pair_batches
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.traces.trace import Trace

__all__ = ["Feed", "TraceFeed", "GeneratorFeed", "SocketFeed", "make_feed"]

#: One feed batch: parallel flow-key / packet-length-array lists.
Batch = Tuple[List[Hashable], List[np.ndarray]]


class Feed:
    """Interface: an async stream of ingestion batches.

    ``batches(chunk_packets, start=)`` yields :data:`Batch` tuples of at
    most ``chunk_packets`` packets each; ``start`` asks the feed to skip
    a prefix it already delivered (resume).  ``name`` labels the feed in
    telemetry and ``/healthz``.
    """

    name = "feed"

    #: Whether ``start=`` replays the exact original batch schedule —
    #: the property ``serve --resume`` bit-identity rests on.
    deterministic_resume = False

    def batches(self, chunk_packets: int,
                start: int = 0) -> AsyncIterator[Batch]:
        raise NotImplementedError


class TraceFeed(Feed):
    """Chunk a compiled trace — the deterministic, resumable feed."""

    deterministic_resume = True

    def __init__(self, trace) -> None:
        if not isinstance(trace, (Trace, CompiledTrace)):
            raise ParameterError(
                f"TraceFeed needs a Trace or CompiledTrace, got "
                f"{type(trace).__name__}")
        self.trace = compile_trace(trace)
        self.name = f"trace:{self.trace.name}"

    async def batches(self, chunk_packets: int,
                      start: int = 0) -> AsyncIterator[Batch]:
        for chunk in self.trace.iter_chunks(chunk_packets, start=start):
            yield chunk.keys, chunk.lengths


class GeneratorFeed(Feed):
    """Batch an iterable of ``(flow, length)`` pairs into chunks.

    Batches through the same function as :meth:`StreamSession.extend
    <repro.streaming.StreamSession.extend>` — per-flow length arrays
    aggregated until ``chunk_packets`` packets accumulate — so a
    generator feed and a direct ``extend()`` of the same pairs produce
    identical chunk schedules.  Resume replays deterministically
    *iff* the underlying iterable does (a seeded generator yes, a live
    capture no), so ``deterministic_resume`` is an explicit flag.
    """

    def __init__(self, pairs: Iterable[Tuple[Hashable, float]], *,
                 name: str = "generator",
                 deterministic_resume: bool = False) -> None:
        self._pairs = pairs
        self.name = f"generator:{name}"
        self.deterministic_resume = deterministic_resume

    async def batches(self, chunk_packets: int,
                      start: int = 0) -> AsyncIterator[Batch]:
        for batch in pair_batches(islice(self._pairs, start, None),
                                  chunk_packets):
            yield batch


class SocketFeed(Feed):
    """Line-delimited TCP ingestion: ``"<flow> <length>\\n"`` per packet.

    Binds an asyncio listener; every connected client's lines are parsed
    into ``(flow, length)`` pairs and batched into chunks.  A short
    flush timeout bounds how stale a partial batch may get when traffic
    pauses, so low-rate sources still reach the counters.  The feed ends
    when :meth:`close` is called (the daemon's drain path); malformed
    lines — not ``<flow> <length>``, or a length that is not finite and
    > 0 — are counted and skipped, never fatal: a measurement daemon
    must not die because one sender glitched.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 flush_seconds: float = 0.25) -> None:
        if flush_seconds <= 0:
            raise ParameterError(
                f"flush_seconds must be > 0, got {flush_seconds!r}")
        self.host = host
        self.port = port
        self.flush_seconds = flush_seconds
        self.name = "socket"
        self.malformed_lines = 0
        self._queue: "asyncio.Queue[Optional[Tuple[Hashable, float]]]" = (
            asyncio.Queue())
        self._server: Optional[asyncio.AbstractServer] = None
        self._closed = False

    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self.name = f"socket:{self.host}:{self.port}"
        return self.host, self.port

    async def close(self) -> None:
        """Stop accepting packets and end :meth:`batches`."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._queue.put(None)  # sentinel: drain the batch loop

    async def _serve_client(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        try:
            async for raw in reader:
                parts = raw.split()
                if len(parts) != 2:
                    self.malformed_lines += 1
                    continue
                try:
                    length = float(parts[1])
                except ValueError:
                    length = math.nan
                # The session rejects a whole chunk over one length that
                # is not finite and > 0; drop the line here instead.
                if not (math.isfinite(length) and length > 0):
                    self.malformed_lines += 1
                    continue
                await self._queue.put((parts[0].decode("ascii", "replace"),
                                       length))
        finally:
            writer.close()

    async def batches(self, chunk_packets: int,
                      start: int = 0) -> AsyncIterator[Batch]:
        if self._server is None:
            await self.start()
        lengths: Dict[Hashable, List[float]] = {}
        count = 0
        while True:
            try:
                item = await asyncio.wait_for(self._queue.get(),
                                              timeout=self.flush_seconds)
            except asyncio.TimeoutError:
                if count:
                    yield length_columns(lengths, count)
                    lengths, count = {}, 0
                continue
            if item is None:
                break
            key, length = item
            lens = lengths.get(key)
            if lens is None:
                lengths[key] = lens = []
            lens.append(length)
            count += 1
            if count >= chunk_packets:
                yield length_columns(lengths, count)
                lengths, count = {}, 0
        if count:
            yield length_columns(lengths, count)


def make_feed(kind: str, *, trace=None, pairs=None, host: str = "127.0.0.1",
              port: int = 0) -> Feed:
    """Build a feed by kind name — the CLI's ``--feed`` dispatcher.

    ``"trace"`` needs ``trace=``, ``"generator"`` needs ``pairs=``,
    ``"socket"`` takes ``host=``/``port=`` (0 = ephemeral).
    """
    if kind == "trace":
        if trace is None:
            raise ParameterError("feed 'trace' needs trace=")
        return TraceFeed(trace)
    if kind == "generator":
        if pairs is None:
            raise ParameterError("feed 'generator' needs pairs=")
        return GeneratorFeed(pairs)
    if kind == "socket":
        return SocketFeed(host, port)
    raise ParameterError(
        f"unknown feed kind {kind!r}; one of: trace, generator, socket")
