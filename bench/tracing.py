"""Outside-in tracing: spans around each layer's public functions.

:func:`install` replaces functions and methods of the program with
wrappers that record a span (name, start, end, parent, request id) while
:attr:`Tracer.active` is set; the program's files are not touched.
Spans stay in memory and :meth:`Tracer.dump` writes them out at exit.

Self time is a span's duration minus the time its child spans cover;
the tracer runs on one thread (replay, streams, and the serve daemon's
single event loop), so children never overlap and their durations sum.
"""

from __future__ import annotations

import functools
import json
import os
import selectors
import time
from collections import Counter, defaultdict

from common import percentile

perf_counter = time.perf_counter

_MISSING = object()


class Tracer:
    """In-memory span recorder with a cheap on/off switch."""

    def __init__(self) -> None:
        self.spans = []          # [name, start, end, parent index, rid]
        self.stack = []
        self.counts = Counter()  # count-only hooks and per-span sums
        self.active = False
        self.rid = None          # request id given to top-level spans
        self.windows = []        # (start, end, excluded seconds) measured
        self._undo = []

    # -- recording -----------------------------------------------------------

    def enter(self, name, rid=None, start=None) -> int:
        """Open a span (``start`` may be earlier than now); returns its index."""
        parent = self.stack[-1] if self.stack else -1
        if rid is None:
            rid = self.spans[parent][4] if parent >= 0 else self.rid
        index = len(self.spans)
        self.spans.append([name, perf_counter() if start is None else start,
                           None, parent, rid])
        self.stack.append(index)
        return index

    def exit(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = perf_counter()

    def span(self, name, fn, rid_of=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.enter(name, rid_of(args) if rid_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(index)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` to count calls only (too frequent for spans)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr, wrap) -> None:
        """Replace ``owner.attr`` with ``wrap(original)``; undone by :meth:`uninstall`."""
        own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) \
            else _MISSING
        original = getattr(owner, attr)
        setattr(owner, attr, wrap(original))
        if isinstance(owner, type):
            self._undo.append((owner, attr, own))
        else:
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def _child_time(self):
        """Seconds each span's children cover, by span index."""
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return child_time

    def stats(self):
        """Per span name: calls, total seconds, self seconds, durations."""
        child_time = self._child_time()
        table = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0, "durations": []})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
            row["durations"].append(end - start)
        return table

    def top_level_self_s(self) -> float:
        child_time = self._child_time()
        return sum(end - start - child_time[i]
                   for i, (_, start, end, parent, _) in enumerate(self.spans)
                   if parent < 0)

    def coverage_pct(self) -> float:
        """Top-level span time inside the measured windows, as % of them."""
        covered = 0.0
        measured = 0.0
        for lo, hi, excluded in self.windows:
            measured += hi - lo - excluded
            for _, start, end, parent, _ in self.spans:
                if parent < 0:
                    covered += max(0.0, min(end, hi) - max(start, lo))
        return 100.0 * covered / measured if measured > 0 else 0.0

    def dump(self, path: str, summary: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "rid"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "windows": self.windows, "summary": summary}, fh)


class IdleSelector(selectors.DefaultSelector):
    """A selector that sums the time its event loop spends blocked (idle)."""

    idle = 0.0

    def select(self, timeout=None):
        start = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle += perf_counter() - start


# ---------------------------------------------------------------------------
# the layer map
# ---------------------------------------------------------------------------

def _add(key, amount):
    def after(counts, args, result):
        counts[key] += amount(args, result)
    return after


def _run_kernel_after(counts, args, result):
    counts["batchreplay.update_s"] += result.elapsed_seconds
    counts["batchreplay.packets"] += result.packets
    sizes = result.compiled.sizes
    counts["streaming.rows"] += int(sizes.size)
    counts["streaming.rows_touched"] += int((sizes > 0).sum())


def _checkpoint_after(counts, args, path):
    counts["streaming.checkpoint.bytes"] += os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    import repro
    import repro.core.batchreplay as batchreplay
    import repro.harness.runner as runner
    import repro.streaming as streaming
    from repro.core.kernels import DiscoKernel
    from repro.core.stores import PoolStore
    from repro.export.collector import Collector
    from repro.serve.daemon import ServeDaemon
    from repro.serve.queries import QueryEngine

    def spans(name, **hooks):
        return lambda fn: tracer.span(name, fn, **hooks)

    tracer.patch(repro, "replay", spans("facade.replay"))
    for attr in ("summarize_errors", "summarize_errors_array"):
        tracer.patch(runner, attr, spans("metrics.errors.score"))
    tracer.patch(batchreplay, "compile_trace",
                 spans("traces.compiled.compile_trace"))
    for module in (batchreplay, streaming):
        tracer.patch(module, "run_kernel", spans(
            "batchreplay.run_kernel", after=_run_kernel_after))
    tracer.patch(DiscoKernel, "load_state", spans(
        "kernels.load_state",
        after=_add("kernels.load_state.lanes", lambda a, r: len(a[1]))))
    tracer.patch(DiscoKernel, "export_state", spans(
        "kernels.export_state",
        after=_add("kernels.export_state.lanes", lambda a, r: len(a[1]))))
    tracer.patch(DiscoKernel, "writeback", spans(
        "kernels.writeback",
        after=_add("kernels.writeback.lanes", lambda a, r: len(a[2]))))
    tracer.patch(DiscoKernel, "native_step", spans("native.native_step"))
    tracer.patch(PoolStore, "write", spans("stores.encode"))
    tracer.patch(PoolStore, "read", spans("stores.decode"))
    for attr in ("ingest_chunk", "rotate", "finish", "live_estimates",
                 "live_counters"):
        tracer.patch(streaming.StreamSession, attr,
                     spans(f"streaming.{attr}"))
    tracer.patch(streaming.StreamSession, "checkpoint",
                 spans("streaming.checkpoint", after=_checkpoint_after))
    tracer.patch(streaming, "stable_hash",
                 lambda fn: tracer.counted("flows.hashing.stable_hash", fn))
    tracer.patch(QueryEngine, "flow", spans("serve.queries.flow"))
    tracer.patch(QueryEngine, "topk", spans("serve.queries.topk"))
    tracer.patch(Collector, "ingest_snapshot",
                 spans("export.collector.ingest_snapshot"))
    tracer.patch(Collector, "flow_total",
                 lambda fn: tracer.counted("export.collector.flow_total", fn))
    # The daemon's request handler: the span carries the client's request id
    # (the ``rid`` query parameter) so the client side can be joined to it.
    tracer.patch(ServeDaemon, "_handle", spans(
        "serve.handle", rid_of=lambda a: a[1].params.get("rid")))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_READOUT = ("metrics.errors.score", "streaming.rotate",
            "streaming.live_estimates", "streaming.live_counters")
_STATE_IO = ("kernels.load_state", "kernels.export_state", "kernels.writeback")


def layer_metrics(tracer: Tracer, retained_epochs: int):
    """Per-layer metrics every workload produces, and printed-only details.

    Returns ``(layers, details)``, each ``name -> (value, unit)``.  The
    first holds what ``BENCHMARK.json`` lists under ``per_layer``: layers
    every workload crosses (a time that one workload never spends would
    read 0 on every run).  The second holds the layer numbers only some
    workloads produce.
    """
    stats = tracer.stats()
    counts = tracer.counts

    def total(*names):
        return sum(stats[n]["total_s"] for n in names if n in stats)

    def calls(name):
        return stats[name]["calls"] if name in stats else 0

    def pct(name, q):
        if name not in stats:
            return 0.0
        return 1e3 * percentile(stats[name]["durations"], q)

    update_s = counts["batchreplay.update_s"]
    run_kernel_s = total("batchreplay.run_kernel")
    # load_state also runs in read-outs; only the carry-in is run_kernel's.
    carry_in_s = sum(end - start for name, start, end, parent, _ in tracer.spans
                     if name == "kernels.load_state" and parent >= 0
                     and tracer.spans[parent][0] == "batchreplay.run_kernel")
    rows = counts["streaming.rows"]
    state_lanes = sum(counts[f"{n}.lanes"] for n in _STATE_IO)
    topk_calls = calls("serve.queries.topk")
    layers = {
        "entry.self_s": (tracer.top_level_self_s(), "s"),
        "batchreplay.run_kernel.calls": (calls("batchreplay.run_kernel"),
                                         "count"),
        "batchreplay.run_kernel.total_s": (run_kernel_s, "s"),
        "batchreplay.update_s": (update_s, "s"),
        "batchreplay.overhead_s": (
            run_kernel_s - update_s - carry_in_s, "s"),
        "kernels.update_pps": (
            counts["batchreplay.packets"] / update_s if update_s else 0.0,
            "packets/s"),
        "kernels.state_io_s": (total(*_STATE_IO), "s"),
        "kernels.state_io.lanes": (state_lanes, "count"),
        "native.warmup_s": (total("native.native_step"), "s"),
        "readout_s": (total(*_READOUT), "s"),
        "streaming.touched_ratio": (
            counts["streaming.rows_touched"] / rows if rows else 0.0, "ratio"),
        "streaming.rotate.calls": (calls("streaming.rotate"), "count"),
        "streaming.retained_epochs": (retained_epochs, "count"),
        "streaming.live_decode.calls": (
            calls("streaming.live_estimates")
            + calls("streaming.live_counters"), "count"),
        "streaming.checkpoint.bytes": (
            counts["streaming.checkpoint.bytes"], "B"),
        "flows.hashing.stable_hash.calls": (
            counts["flows.hashing.stable_hash"], "count"),
        "export.collector.flow_total.calls_per_topk": (
            counts["export.collector.flow_total"] / topk_calls
            if topk_calls else 0.0, "ratio"),
        "trace.coverage_pct": (tracer.coverage_pct(), "%"),
    }
    ingest = "streaming.ingest_chunk"
    details = {
        "facade.replay.self_s": (
            stats["facade.replay"]["self_s"] if "facade.replay" in stats
            else 0.0, "s"),
        "metrics.errors.score_s": (total("metrics.errors.score"), "s"),
        "traces.compiled.compile_s": (
            total("traces.compiled.compile_trace"), "s"),
        "kernels.load_state.total_s": (total("kernels.load_state"), "s"),
        "kernels.load_state.lanes": (counts["kernels.load_state.lanes"],
                                     "count"),
        "kernels.export_state.total_s": (total("kernels.export_state"), "s"),
        "kernels.export_state.lanes": (counts["kernels.export_state.lanes"],
                                       "count"),
        "stores.encode_s": (total("stores.encode"), "s"),
        "stores.decode_s": (total("stores.decode"), "s"),
        "streaming.ingest.p50_ms": (pct(ingest, 50), "ms"),
        "streaming.ingest.p95_ms": (pct(ingest, 95), "ms"),
        "streaming.ingest.self_s": (
            stats[ingest]["self_s"] if ingest in stats else 0.0, "s"),
        "streaming.rotate.total_s": (total("streaming.rotate"), "s"),
        "streaming.checkpoint.total_s": (total("streaming.checkpoint"), "s"),
        "streaming.live_decode_s": (
            total("streaming.live_estimates", "streaming.live_counters"), "s"),
        "serve.queries.flow.p50_ms": (pct("serve.queries.flow", 50), "ms"),
        "serve.queries.topk.p50_ms": (pct("serve.queries.topk", 50), "ms"),
        "serve.queries.topk.p95_ms": (pct("serve.queries.topk", 95), "ms"),
        "export.collector.ingest_snapshot_s": (
            total("export.collector.ingest_snapshot"), "s"),
    }
    return layers, details


def overhead_pct(untraced_pps: float, traced_pps: float) -> float:
    """How much slower the traced legs ran, in % of the untraced rate."""
    return 100.0 * (1.0 - traced_pps / untraced_pps)
