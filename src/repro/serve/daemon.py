"""The long-running measurement daemon: ingest, rotate, answer, survive.

:class:`ServeDaemon` is where every prior subsystem composes — the
paper's linecard deployment shape as a service:

* **Ingestion** — an async loop pulls pre-batched chunks from a
  :mod:`~repro.serve.feeds` feed and drives them through one sharded
  :class:`~repro.streaming.StreamSession` (carried kernel state,
  compact stores, epoch watermarks — all of PR 5/7 unchanged).
* **Queries** — a tiny JSON-over-HTTP surface
  (:mod:`~repro.serve.httpd` + :mod:`~repro.serve.queries`):
  ``GET /flows/{id}``, ``/topk?n=``, ``/epochs``, ``/telemetry``,
  ``/healthz``, plus ``POST /control/rotate|checkpoint|drain``.
* **Crash safety** — checkpoints are daemon-scheduled (every
  ``checkpoint_every`` ingested chunks) through the session's atomic
  temp-file + ``os.replace`` writer, with a ``serve.checkpoint`` fault
  seam *before* each write: an injected failure there crashes the
  daemon between checkpoints, and :func:`build_daemon` with
  ``resume=True`` restores the last published checkpoint and replays
  the exact chunk schedule — final query answers bit-identical to an
  uninterrupted run (the acceptance test of this subsystem).

Concurrency model
-----------------
Everything runs on **one** asyncio event loop, and chunk ingestion is
synchronous within its loop iteration.  That single decision buys the
whole consistency story: an HTTP handler can only ever observe the
session *between* chunks, so every answer reflects a chunk-boundary
state — no locks, no torn reads, no query racing a half-applied batch.
The ``pace`` knob (seconds slept between chunks, default 0 = just yield)
bounds how long queries can be starved by back-to-back ingestion.

Telemetry lands in the ``serve.*`` catalogue (``docs/telemetry.md``);
the daemon defaults to its own enabled session so ``GET /telemetry``
is populated without any environment setup.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional, Tuple
from urllib.parse import unquote

from repro import faults as _faults
from repro import obs
from repro.errors import ParameterError
from repro.serve.feeds import Feed
from repro.serve.httpd import HttpServer, Request
from repro.serve.queries import QueryEngine
from repro.streaming import DEFAULT_CHUNK_PACKETS, StreamSession

__all__ = ["ServeDaemon", "build_daemon"]

#: Sentinel ``checkpoint_every`` for the underlying session: the daemon
#: schedules checkpoints itself (so the ``serve.checkpoint`` fault seam
#: wraps them); the session's own per-chunk trigger must never fire.
_SESSION_NEVER_CHECKPOINTS = 1 << 62


class ServeDaemon:
    """One feed, one stream session, one query endpoint — one event loop.

    Build directly from a prepared session, or through
    :func:`build_daemon` (which owns the create-vs-restore decision).
    ``checkpoint_every`` counts *ingested chunks between scheduled
    checkpoints* (``None`` disables scheduling; manual
    ``POST /control/checkpoint`` still works whenever the session has a
    ``checkpoint_path``).
    """

    def __init__(self, session: StreamSession, feed: Feed, *,
                 host: str = "127.0.0.1", port: int = 0,
                 checkpoint_every: Optional[int] = 4,
                 pace: float = 0.0,
                 telemetry: Optional[obs.Telemetry] = None) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ParameterError(
                f"checkpoint_every must be >= 1, got {checkpoint_every!r}")
        if pace < 0:
            raise ParameterError(f"pace must be >= 0, got {pace!r}")
        self.session = session
        self.feed = feed
        self.host = host
        self.port = port
        self.checkpoint_every = checkpoint_every
        self.pace = pace
        self.telemetry = obs.resolve(telemetry)
        self.queries = QueryEngine(session, telemetry=self.telemetry)

        self.bound_host: Optional[str] = None
        self.bound_port: Optional[int] = None
        #: Set once the HTTP listener is bound — the cross-thread "ready"
        #: signal :class:`~repro.serve.client.DaemonHandle` waits on.
        self.started = threading.Event()
        self.result = None
        self._drain: Optional[asyncio.Event] = None
        self._chunks_since_checkpoint = 0
        # malformed_lines already folded into the telemetry counter, so
        # repeated exports count each dropped line exactly once.
        self._malformed_reported = 0

    # -- lifecycle -----------------------------------------------------------

    async def run(self):
        """Serve until drained (or the feed crashes); returns the result.

        Binds the listener, prints the ``serving on http://host:port``
        banner (the machine-readable ready line the smoke harness and
        ops scripts parse), ingests the feed to exhaustion, keeps
        answering queries until ``POST /control/drain``, then closes the
        session (final rotate + checkpoint) and returns its
        :class:`~repro.streaming.StreamResult`.  An ingestion failure —
        including an armed ``serve.ingest``/``serve.checkpoint`` fault —
        propagates out *without* finishing the session: the previous
        checkpoint stays the truth a resume restores.
        """
        self._drain = asyncio.Event()
        server = HttpServer(self._handle, self.host, self.port,
                            telemetry=self.telemetry)
        try:
            host, port = await server.start()
            self.bound_host, self.bound_port = host, port
            self.telemetry.count("serve.starts")
            print(f"serving on http://{host}:{port}", flush=True)
            self.started.set()

            ingest = asyncio.ensure_future(self._ingest_loop())
            drained = asyncio.ensure_future(self._drain.wait())
            try:
                done, _pending = await asyncio.wait(
                    {ingest, drained},
                    return_when=asyncio.FIRST_COMPLETED)
                if ingest in done:
                    ingest.result()  # re-raise an ingestion crash
                    await drained  # feed exhausted; serve until drained
                else:
                    ingest.cancel()
                    try:
                        await ingest
                    except asyncio.CancelledError:
                        pass
            finally:
                drained.cancel()
                close = getattr(self.feed, "close", None)
                if close is not None:
                    await close()
        finally:
            await server.close()
        self.telemetry.count("serve.drains")
        self.result = self.session.finish()
        return self.result

    def serve_forever(self):
        """Blocking wrapper: run the daemon on a fresh event loop."""
        return asyncio.run(self.run())

    async def _ingest_loop(self) -> None:
        chunk_packets = self.session.chunk_packets
        start = self.session.packets_consumed
        batch_index = 0
        async for keys, length_arrays in self.feed.batches(chunk_packets,
                                                           start=start):
            _faults.fire("serve.ingest", unit=batch_index)
            packets = self.session.packets_consumed
            volume = self.session.volume_consumed
            self.session.ingest_chunk(keys, length_arrays)
            self.telemetry.count("serve.ingest.chunks")
            self.telemetry.count("serve.ingest.packets",
                                 self.session.packets_consumed - packets)
            self.telemetry.count("serve.ingest.bytes",
                                 self.session.volume_consumed - volume)
            self._chunks_since_checkpoint += 1
            if (self.checkpoint_every is not None
                    and self.session.checkpoint_path is not None
                    and self._chunks_since_checkpoint
                    >= self.checkpoint_every):
                self._checkpoint()
            batch_index += 1
            # Yield the loop so queued queries run at this chunk boundary.
            await asyncio.sleep(self.pace)

    def _checkpoint(self) -> str:
        """One daemon checkpoint: fault seam first, then the atomic write."""
        _faults.fire("serve.checkpoint")
        path = self.session.checkpoint()
        self.telemetry.count("serve.checkpoints")
        self._chunks_since_checkpoint = 0
        return path

    # -- the query surface ---------------------------------------------------

    def _handle(self, request: Request) -> Tuple[int, object]:
        method, path = request.method, request.path
        if method == "GET":
            if path.startswith("/flows/"):
                self.telemetry.count("serve.query.flows")
                payload = self.queries.flow(unquote(path[len("/flows/"):]))
                return (200 if payload["found"] else 404), payload
            if path == "/topk":
                self.telemetry.count("serve.query.topk")
                return 200, self.queries.topk(request.int_param("n", 10))
            if path == "/epochs":
                self.telemetry.count("serve.query.epochs")
                return 200, self.queries.epochs()
            if path == "/telemetry":
                self.telemetry.count("serve.query.telemetry")
                self._sync_feed_health()
                return 200, {"type": "telemetry",
                             "telemetry": self.telemetry.snapshot()}
            if path == "/healthz":
                self.telemetry.count("serve.query.healthz")
                return 200, self._healthz()
            return 404, {"error": f"no route for GET {path}"}
        if method == "POST":
            if path == "/control/rotate":
                self.telemetry.count("serve.control.rotate")
                snapshot = self.session.rotate()
                return 200, {"rotated": snapshot is not None,
                             "epochs": len(self.session.snapshots)}
            if path == "/control/checkpoint":
                self.telemetry.count("serve.control.checkpoint")
                return 200, {"checkpoint": self._checkpoint()}
            if path == "/control/drain":
                self.telemetry.count("serve.control.drain")
                if self._drain is not None:
                    self._drain.set()
                return 200, {"draining": True}
            return 404, {"error": f"no route for POST {path}"}
        return 405, {"error": f"method {method} not allowed"}

    def _sync_feed_health(self) -> Optional[int]:
        """Fold the feed's malformed-line count into ``serve.*`` telemetry.

        :class:`~repro.serve.feeds.SocketFeed` counts lines it drops
        (bad field count, non-numeric length) but the counter only lives
        on the feed object — a daemon silently eating garbage input
        would look healthy.  Exported here (delta-counted, so telemetry
        totals stay exact) and surfaced by ``/healthz``.  Returns the
        current total, or ``None`` for feeds without the counter.
        """
        malformed = getattr(self.feed, "malformed_lines", None)
        if malformed is None:
            return None
        delta = int(malformed) - self._malformed_reported
        if delta > 0:
            self.telemetry.count("serve.feed.malformed_lines", delta)
            self._malformed_reported = int(malformed)
        return int(malformed)

    def _healthz(self) -> dict:
        session = self.session
        health = {
            "status": "ok",
            "feed": self.feed.name,
            "scheme": session.scheme_name,
            "mode": session.mode,
            "store": session.store,
            "shards": session.shards,
            "packets_consumed": session.packets_consumed,
            "volume_consumed": session.volume_consumed,
            "epochs": len(session.snapshots),
            "open_epoch_packets": session._epoch_packet_count,
            "draining": bool(self._drain is not None
                             and self._drain.is_set()),
        }
        malformed = self._sync_feed_health()
        if malformed is not None:
            health["malformed_lines"] = malformed
        return health


def build_daemon(
    scheme_factory,
    feed: Feed,
    *,
    shards: int = 1,
    epoch_packets: Optional[int] = None,
    epoch_bytes: Optional[int] = None,
    chunk_packets: Optional[int] = None,
    rng=None,
    engine: str = "vector",
    store: Optional[str] = None,
    telemetry: Optional[obs.Telemetry] = None,
    checkpoint_path: Optional[str] = None,
    checkpoint_every: Optional[int] = 4,
    resume: bool = False,
    host: str = "127.0.0.1",
    port: int = 0,
    pace: float = 0.0,
    name: str = "serve",
) -> ServeDaemon:
    """Assemble a daemon: validate, create-or-restore the session, wire up.

    The serve analogue of :func:`repro.stream` — same measurement
    parameters, same :func:`repro.facade._validate` eager checks (so a
    bad ``shards=`` is rejected with the identical message), plus the
    service knobs: ``host``/``port`` (0 = ephemeral) for the listener,
    ``pace`` seconds between chunks, ``checkpoint_every`` ingested
    chunks per scheduled checkpoint.  ``resume=True`` (requires
    ``checkpoint_path=``) restores an existing checkpoint and skips the
    consumed feed prefix; with a deterministic feed the continued run is
    bit-identical to an uninterrupted one.  ``telemetry=None`` gives the
    daemon its own enabled session so ``GET /telemetry`` answers out of
    the box.
    """
    from repro.facade import _validate

    _validate(shards=shards,
              chunk_packets=(DEFAULT_CHUNK_PACKETS if chunk_packets is None
                             else chunk_packets),
              epoch_packets=epoch_packets, epoch_bytes=epoch_bytes,
              stream_engine=engine,
              resume=(resume, checkpoint_path))
    if chunk_packets is None:
        chunk_packets = DEFAULT_CHUNK_PACKETS
    if telemetry is None:
        telemetry = obs.Telemetry()

    import os as _os
    if (resume and checkpoint_path is not None
            and _os.path.exists(checkpoint_path)):
        session = StreamSession.restore(checkpoint_path,
                                        telemetry=telemetry)
        telemetry.count("serve.resumes")
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
            checkpoint_every=_SESSION_NEVER_CHECKPOINTS,
            name=name,
        )
    return ServeDaemon(session, feed, host=host, port=port,
                       checkpoint_every=checkpoint_every, pace=pace,
                       telemetry=telemetry)
