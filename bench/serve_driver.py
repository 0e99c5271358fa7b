"""The serve-mixed workload's program side: a daemon on a paced feed.

Started by ``run.py --workload serve-mixed``, which is the HTTP client.
Each of ``MIN_ROUNDS`` rounds builds a fresh daemon with
``build_daemon`` and feeds it the same seeded Zipf(1.1) chunk schedule at
a fixed offered packet rate through a benchmark-side ``Feed``.  A round
prints the daemon's ``serving on`` banner and the feed's start time
(``feed origin <t>`` on the shared monotonic clock), serves until the
client drains it, checks the daemon's epochs against generator truth,
and then runs the round's other legs: the same schedule through a native
session and a scalar replay of its start.  The results go to ``--out``
as JSON.

Usage: python bench/serve_driver.py --seed N --seconds S --trace 0|1
       --out PATH [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time

from common import OUT, TMP, bootstrap, import_repro, median, peak_rss_mb, \
    percentile

perf_counter = time.perf_counter


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    bootstrap()
    import_s = import_repro()
    import oracle
    import repro
    import tracing
    import workloads as wl
    from repro.core import native
    from repro.serve.daemon import build_daemon
    from repro.serve.feeds import Feed
    from repro.streaming import StreamSession

    sizes = wl.QUICK if args.quick else wl.FULL
    count = wl.serve_chunks(args.seconds / wl.MIN_ROUNDS)
    make = wl.serve_maker(args.seed)
    epoch = sizes.serve_epoch
    checkpoint = os.path.join(TMP, f"serve-{os.getpid()}.ckpt")

    class PacedFeed(Feed):
        """Chunk ``k`` is due ``k * CHUNK / SERVE_PPS`` seconds after start."""

        name = "bench-paced"

        def __init__(self) -> None:
            self.due = []
            self.handed = 0.0      # when the last chunk left the feed
            self.generate_s = 0.0  # load generation inside the daemon's loop

        def _make(self, index):
            start = perf_counter()
            chunk = make(index)
            self.generate_s += perf_counter() - start
            return chunk

        async def batches(self, chunk_packets, start=0):
            origin = perf_counter()
            print(f"feed origin {origin!r}", flush=True)
            chunk = self._make(0)
            for index in range(count):
                due = origin + index * wl.CHUNK / wl.SERVE_PPS
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                self.due.append(due)
                self.handed = perf_counter()
                yield chunk.keys, chunk.lengths
                if index + 1 < count:
                    chunk = self._make(index + 1)

    epoch_truth = []
    for first in range(0, count, epoch):
        truth = {}
        for i in range(first, min(first + epoch, count)):
            wl.add_truth(truth, make(i))
        epoch_truth.append(truth)
    volume = sum(sum(truth.values()) for truth in epoch_truth)
    totals = (count * wl.CHUNK, volume)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    native.available()  # builds the .so cache on a checkout's first run

    slice_chunks = [make(i) for i in
                    range(min(count, -(-sizes.scalar_packets // wl.CHUNK)))]
    scalar = wl.chunk_trace(slice_chunks, "serve-slice")
    legs = {traced: wl.Leg(wl.CHUNK) for traced in (False, True)}
    native_leg = wl.Leg(wl.CHUNK)
    scalar_leg = wl.Leg(scalar.num_packets)
    setup_samples, lags, faults, native_faults = [], [], 0, 0
    errors = wl.Errors()
    for index in range(wl.MIN_ROUNDS):
        traced = tracer is not None and index % 2 == 1
        gc.collect()
        start = perf_counter()
        native.reset()
        feed = PacedFeed()
        daemon = build_daemon(
            repro.scheme_factory("disco", b=wl.B, mode="volume"), feed,
            shards=wl.SHARDS, store="pools", epoch_packets=epoch * wl.CHUNK,
            rng=wl.engine_seed(args.seed, 0, 0), checkpoint_path=checkpoint,
            checkpoint_every=10)
        native.available()
        setup_samples.append(perf_counter() - start)

        # Times every chunk the daemon hands its session (an instance
        # attribute, so only this daemon's session).  When tracing, a
        # ``serve.ingest`` span runs from the feed's hand-off to the end of
        # ``ingest_chunk``: its self time is the daemon loop's own work.
        ingest = daemon.session.ingest_chunk
        leg = legs[traced]

        def timed_ingest(keys, length_arrays, ingest=ingest, feed=feed,
                         leg=leg, traced=traced):
            span = None
            if traced:
                span = tracer.enter("serve.ingest", start=feed.handed)
            start = perf_counter()
            try:
                return ingest(keys, length_arrays)
            finally:
                end = perf_counter()
                lags.append(1e3 * (start - feed.due[-1]))
                leg.add(end - start, new_round=len(feed.due) == 1)
                if span is not None:
                    tracer.exit(span)

        daemon.session.ingest_chunk = timed_ingest
        selector = tracing.IdleSelector()
        loop = asyncio.SelectorEventLoop(selector)
        if tracer is not None:
            tracer.active = traced
        try:
            began = perf_counter()
            result = loop.run_until_complete(daemon.run())
            ended = perf_counter()
        finally:
            if tracer is not None:
                tracer.active = False
            loop.close()
        if traced:
            tracer.windows.append(
                (began, ended, selector.idle + feed.generate_s))
        for path in (checkpoint, checkpoint + ".tmp"):
            if os.path.exists(path):
                os.unlink(path)
        if ((result.packets, result.volume) != totals
                or len(result.snapshots) != len(epoch_truth)
                or any(snap.truths != truth for snap, truth
                       in zip(result.snapshots, epoch_truth))):
            faults += 1
        for snap, truth in zip(result.snapshots, epoch_truth):
            errors.add(snap.estimates_dict(), truth)
        if index == wl.MIN_ROUNDS - 1:
            rss = peak_rss_mb()

        # The round's other legs: the schedule through a native session
        # of the daemon's configuration, and a scalar replay of its start.
        if tracer is not None:
            tracer.active = traced
        native_session = StreamSession(
            repro.scheme_factory("disco", b=wl.B, mode="volume"),
            shards=wl.SHARDS, store="pools", epoch_packets=epoch * wl.CHUNK,
            rng=wl.engine_seed(args.seed, 1, 0), engine="native")
        for i in range(count):
            chunk = make(i)
            start = perf_counter()
            native_session.ingest_chunk(chunk.keys, chunk.lengths)
            native_leg.add(perf_counter() - start, new_round=i == 0)
        native_result = native_session.finish()
        native_faults += ((native_result.packets, native_result.volume)
                          != totals)
        scheme = wl.disco_scheme(repro, args.seed, 2, index)
        start = perf_counter()
        repro.replay(scheme, scalar, order="asis",
                     rng=wl.engine_seed(args.seed, 2, index))
        scalar_leg.add(perf_counter() - start, new_round=True)
        if tracer is not None:
            tracer.active = False

    out = {"checks": [], "chunks": wl.MIN_ROUNDS * count}

    def check(name, ok, detail=""):
        out["checks"].append([name, bool(ok), detail])

    check("daemon-conservation", faults == 0,
          f"{faults} rounds differ from the generator's epochs")
    check("disco-cov-bound", errors.mean < oracle.cov_bound(wl.B),
          f"mean {errors.mean:.5f} < {oracle.cov_bound(wl.B):.5f}")

    check("native-conservation", native_faults == 0,
          f"{native_faults} native passes differ from the generator")

    chunk_ms = [1e3 * s for s in legs[False].profile()]
    out.update({
        "setup_s": import_s + median(setup_samples),
        "pps": legs[False].pps,
        "pps_native": native_leg.pps,
        "pps_scalar": scalar_leg.pps,
        "peak_rss_mb": rss,
        "mean_rel_error": errors.mean,
        "ingest_lag_p95_ms": percentile(lags, 95),
        "chunk_p50_ms": percentile(chunk_ms, 50),
        "chunk_p95_ms": percentile(chunk_ms, 95),
    })

    if tracer is not None:
        layers, details = tracing.layer_metrics(tracer, len(result.snapshots))
        layers["trace.overhead_pct"] = (
            tracing.overhead_pct(legs[False].pps, legs[True].pps), "%")
        handler_ms = {rid: 1e3 * (end - start)
                      for name, start, end, _, rid in tracer.spans
                      if name == "serve.handle" and rid is not None}
        tracer.dump(os.path.join(OUT, "serve-mixed.daemon.trace.json"),
                    {"layers": layers, "details": details})
        out.update({"layers": layers, "details": details,
                    "handler_ms": handler_ms})

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
