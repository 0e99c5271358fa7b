"""The benchmark's workloads: seeded inputs and the measured loop of each.

Every input comes from ``--seed``: the NLANR-like trace through the
program's trace registry (as the workload definition asks), the stream
and serve chunk schedules from NumPy generators kept here so that a
change to the program cannot change what it is fed.  Chunk ``i`` of a
schedule is a pure function of ``(seed, workload, i)``, so a schedule
can be regenerated chunk by chunk instead of held in memory.

Each workload runs *rounds* until ``--seconds`` are used up (at least
two).  A round runs every engine path ("leg") of the workload once on
the same input, so slow periods of the machine hit all legs alike.  In a
traced run odd rounds are traced and even rounds are not; the per-layer
numbers come from the traced rounds and the difference between the two
is the tracing overhead.
"""

from __future__ import annotations

import gc
import http.client
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

import numpy as np

import oracle
import tracing
from common import BENCH, OUT, BenchError, Outcome, child_env, median, \
    peak_rss_mb, percentile

perf_counter = time.perf_counter

B = 1.02          # DISCO growth base for every workload
CHUNK = 8192      # packets per chunk
SHARDS = 4

ELEPHANT_FLOWS = 512
CHURN_FLOWS = 2048        # flows per churn chunk; half continue, half are new
SERVE_FLOWS = 20_000
SERVE_PPS = 60_000        # offered packet rate of the serve feed
SERVE_QPS = 10            # offered query rate of the serve client
SLO_MS = 500.0

_LENGTHS = np.array([40.0, 576.0, 1500.0])
_LENGTH_P = np.array([0.45, 0.15, 0.40])
# Keeps the generators' random streams apart for one seed.
_ELEPHANTS, _CHURN, SERVE_TAG, _QUERIES, _ENGINE = 1, 2, 3, 4, 5


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one benchmark scale."""

    nlanr_flows: int
    elephant_epoch: int     # chunks per epoch
    churn_epoch: int
    serve_epoch: int
    scalar_packets: int     # packets in the scalar leg's trace slice
    oracle_chunks: int      # chunks checked with the exact scheme
    setup_reps: int


FULL = Sizes(100_000, 75, 80, 40, 1 << 18, 16, 3)
#: About 20x smaller, for the benchmark's own tests.
QUICK = Sizes(5_000, 4, 4, 4, 1 << 14, 4, 1)

#: Rounds every run completes; peak memory is read when the last of them
#: ends, because sessions keep each closed epoch and a run's later rounds
#: (how many depends on the machine's speed) would otherwise move it.
MIN_ROUNDS = 3


@dataclass
class Context:
    seed: int
    seconds: float
    sizes: Sizes
    import_s: float
    tracer: Optional[tracing.Tracer]
    quick: bool = False


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

class Chunk(NamedTuple):
    """One chunk as ``StreamSession.ingest_chunk`` takes it, plus truth."""

    keys: List[int]
    lengths: List[np.ndarray]
    volumes: np.ndarray       # per-flow bytes, aligned with ``keys``


def _lengths(rng, n: int) -> np.ndarray:
    return rng.choice(_LENGTHS, size=n, p=_LENGTH_P)


def _chunk(keys, lengths: np.ndarray, starts: np.ndarray) -> Chunk:
    return Chunk(keys, np.split(lengths, starts[1:]),
                 np.add.reduceat(lengths, starts).astype(np.int64))


def zipf_cdf(flows: int, alpha: float) -> np.ndarray:
    weights = np.arange(1, flows + 1, dtype=np.float64) ** -alpha
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


def zipf_chunk(seed: int, tag: int, index: int, cdf: np.ndarray) -> Chunk:
    """CHUNK packets of flows drawn by popularity (flow 0 most popular)."""
    rng = np.random.default_rng([seed, tag, index])
    ids = np.searchsorted(cdf, rng.random(CHUNK), side="right")
    lengths = _lengths(rng, CHUNK)
    order = np.argsort(ids, kind="stable")
    keys, starts = np.unique(ids[order], return_index=True)
    return _chunk(keys.tolist(), lengths[order], starts)


def churn_chunk(seed: int, index: int) -> Chunk:
    """CHURN_FLOWS flows of ~4 packets: the first half continue from chunk
    ``index - 1``, the second half are new and continue into ``index + 1``."""
    rng = np.random.default_rng([seed, _CHURN, index])
    sizes = 1 + rng.multinomial(CHUNK - CHURN_FLOWS,
                                np.full(CHURN_FLOWS, 1.0 / CHURN_FLOWS))
    starts = np.zeros(CHURN_FLOWS, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    first = index * (CHURN_FLOWS // 2)
    return _chunk(list(range(first, first + CHURN_FLOWS)),
                  _lengths(rng, CHUNK), starts)


def elephant_maker(seed: int):
    cdf = zipf_cdf(ELEPHANT_FLOWS, 1.0)
    return lambda i: zipf_chunk(seed, _ELEPHANTS, i, cdf)


def churn_maker(seed: int):
    return lambda i: churn_chunk(seed, i)


def serve_maker(seed: int):
    cdf = zipf_cdf(SERVE_FLOWS, 1.1)
    return lambda i: zipf_chunk(seed, SERVE_TAG, i, cdf)


def serve_chunks(seconds: float) -> int:
    """Chunks the serve feed offers in ``seconds`` at SERVE_PPS."""
    return max(1, round(seconds * SERVE_PPS / CHUNK))


def add_truth(truth: dict, chunk: Chunk) -> None:
    for key, volume in zip(chunk.keys, chunk.volumes.tolist()):
        truth[key] = truth.get(key, 0) + volume


def chunk_trace(chunks, name: str):
    """The chunks' packets as one ``Trace`` (each flow's packets in order)."""
    from repro.traces.trace import Trace

    flows = {}
    for chunk in chunks:
        for key, lengths in zip(chunk.keys, chunk.lengths):
            flows.setdefault(key, []).extend(lengths.astype(np.int64).tolist())
    return Trace(flows, name=name)


def engine_seed(seed: int, leg: int, index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([seed, _ENGINE, leg, index])


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

class Leg:
    """Per-op seconds of one engine path, one list per round.

    Every op of a leg carries the same packet count, and op ``j`` of
    every round does the same work (the ``j``-th chunk of an epoch, or
    the one replay of a round).  Throughput and latency come from the
    leg's *profile*: each position's fastest time over the rounds.  On a
    machine shared with other tenants, their load slows whole stretches
    of a run and never speeds one up, so the fastest round is the
    estimate they move least (bench/README.md has the measured spreads).
    Costs that recur at a position every round, such as the rotation at
    an epoch's last chunk or per-chunk growth with epoch keys, stay in
    the profile.
    """

    def __init__(self, op_packets: int) -> None:
        self.op_packets = op_packets
        self.rounds: List[List[float]] = []

    def add(self, seconds: float, new_round: bool = False) -> None:
        if new_round or not self.rounds:
            self.rounds.append([])
        self.rounds[-1].append(seconds)

    def profile(self) -> List[float]:
        """Fastest seconds of each op position over the complete rounds."""
        width = len(self.rounds[0])
        full = [r for r in self.rounds if len(r) == width]
        return [min(column) for column in zip(*full)]

    @property
    def pps(self) -> float:
        profile = self.profile()
        return self.op_packets * len(profile) / sum(profile)


class Errors:
    """Running mean of relative errors against generator truth."""

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0

    def add(self, estimates: dict, truth: dict) -> None:
        errors = oracle.relative_errors(estimates, truth)
        self.total += sum(errors)
        self.count += len(errors)

    @property
    def mean(self) -> float:
        return self.total / self.count


def measure_setup(ctx: Context, build):
    """Set up ``setup_reps`` times; returns (import + median seconds, objects)."""
    samples = []
    built = None
    for _ in range(ctx.sizes.setup_reps):
        built = None
        gc.collect()
        start = perf_counter()
        built = build()
        samples.append(perf_counter() - start)
    return ctx.import_s + median(samples), built


def freeze_inputs() -> None:
    """Move the generated inputs out of the cyclic GC's scans.

    The inputs are the load generator's objects (a replay trace is
    millions of Python ints in lists); without this every full collection
    the program triggers would also walk them.
    """
    gc.collect()
    gc.freeze()


def rounds(ctx: Context):
    """Yield ``(round, traced)`` until the measuring time is used up."""
    deadline = perf_counter() + ctx.seconds
    index = 0
    while index < MIN_ROUNDS or perf_counter() < deadline:
        traced = ctx.tracer is not None and index % 2 == 1
        if ctx.tracer is not None:
            ctx.tracer.active = traced
        yield index, traced
        index += 1
    if ctx.tracer is not None:
        ctx.tracer.active = False


def throughput(legs: dict) -> dict:
    """The engine legs' end-to-end metrics from their untraced rounds.

    ``op_p50_ms``/``op_p95_ms`` are percentiles of the vector leg's
    profile: over an epoch's chunk positions for a stream, and the one
    replay for replay-nlanr (whose repeats differ only by contention).
    """
    profile_ms = [1e3 * s for s in legs[("vector", False)].profile()]
    return {
        "pps": (legs[("vector", False)].pps, "packets/s"),
        "pps_native": (legs[("native", False)].pps, "packets/s"),
        "pps_scalar": (legs[("scalar", False)].pps, "packets/s"),
        "op_p50_ms": (percentile(profile_ms, 50), "ms"),
        "op_p95_ms": (percentile(profile_ms, 95), "ms"),
    }


def finish_layers(ctx, out: Outcome, legs: dict, retained_epochs: int) -> None:
    """Per-layer metrics of a traced run, and the tracing overhead."""
    layers, details = tracing.layer_metrics(ctx.tracer, retained_epochs)
    layers["trace.overhead_pct"] = (tracing.overhead_pct(
        legs[("vector", False)].pps, legs[("vector", True)].pps), "%")
    out.layers.update(layers)
    out.details.update(details)


def disco_scheme(repro, seed: int, leg: int, index: int):
    return repro.make_scheme("disco", b=B, mode="volume",
                             seed=int(engine_seed(seed, leg, index)
                                      .generate_state(1)[0]))


# ---------------------------------------------------------------------------
# replay-nlanr
# ---------------------------------------------------------------------------

def _flow_slice(trace, packets: int):
    """The trace's first flows, up to about ``packets`` packets."""
    from repro.traces.trace import Trace

    flows = {}
    total = 0
    for key, lengths in trace.flows.items():
        if total >= packets:
            break
        flows[key] = lengths
        total += len(lengths)
    return Trace(flows, name=f"{trace.name}-slice")


def replay_nlanr(ctx: Context, out: Outcome) -> None:
    import repro
    from repro.core import native
    from repro.traces.compiled import clear_compile_cache, compile_trace

    # The 1 MB flow cap (the uncapped Pareto tail reaches 50 MB) keeps
    # the seed from moving packet totals by more than a few percent.
    trace = repro.make_trace("nlanr", num_flows=ctx.sizes.nlanr_flows,
                             mean_flow_bytes=10_000,
                             max_flow_bytes=1_000_000, seed=ctx.seed)
    truth = {key: sum(lengths) for key, lengths in trace.flows.items()}
    totals = (trace.num_packets, sum(truth.values()))
    scalar = _flow_slice(trace, ctx.sizes.scalar_packets)
    scalar_truth = scalar.true_totals("volume")
    native.available()  # builds the .so cache on a checkout's first run
    freeze_inputs()

    def setup():
        clear_compile_cache()
        native.reset()
        compile_trace(trace)
        native.available()
        return disco_scheme(repro, ctx.seed, 0, 0)

    setup_s, _ = measure_setup(ctx, setup)

    paths = (("vector", "vector", trace), ("native", "native", trace),
             ("scalar", "auto", scalar))

    rss = None

    def replay(leg: int, index: int, seed_leg: int):
        engine, source = paths[leg][1], paths[leg][2]
        scheme = disco_scheme(repro, ctx.seed, seed_leg, index)
        start = perf_counter()
        result = repro.replay(scheme, source, order="asis", engine=engine,
                              rng=engine_seed(ctx.seed, seed_leg, index))
        return result, perf_counter() - start

    for leg in range(len(paths)):  # warm-up, untimed, on seeds of its own
        replay(leg, 0, leg + len(paths))

    legs = {(name, traced): Leg(source.num_packets)
            for name, _, source in paths for traced in (False, True)}
    error = None
    for index, traced in rounds(ctx):
        gc.collect()
        start = perf_counter()
        for leg, (name, _, source) in enumerate(paths):
            if ctx.tracer is not None:
                ctx.tracer.rid = index
            result, seconds = replay(leg, index, leg)
            legs[(name, traced)].add(seconds, new_round=True)
            out.attempted += 1
            if index == 0:
                want = truth if source is trace else scalar_truth
                errors = Errors()
                errors.add(result.estimates, want)
                oracle.check_accuracy(out, f"{name}-cov-bound", errors.mean, B)
                if name == "vector":
                    error = errors.mean
                    oracle.check_totals(
                        out, "vector-conservation",
                        (result.packets, sum(result.truths.values())), totals)
                    out.check("vector-truth-table", result.truths == truth)
            del result
        if traced:
            ctx.tracer.windows.append((start, perf_counter(), 0.0))
        if index == MIN_ROUNDS - 1:
            rss = peak_rss_mb()

    exact = repro.replay(repro.make_scheme("exact", mode="volume"), scalar,
                         engine="vector")
    oracle.check_exact(out, "exact-slice", exact.estimates, scalar_truth)

    out.metrics.update(throughput(legs))
    out.metrics.update({
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "mean_rel_error": (error, "fraction"),
    })
    if ctx.tracer is not None:
        finish_layers(ctx, out, legs, 0)


# ---------------------------------------------------------------------------
# stream-elephants / stream-churn
# ---------------------------------------------------------------------------

def stream(ctx: Context, out: Outcome, make, epoch_chunks: int) -> None:
    import repro
    from repro.core import native
    from repro.streaming import StreamSession

    oracle_chunks = [make(i) for i in range(ctx.sizes.oracle_chunks)]
    scalar = chunk_trace(
        [make(i) for i in range(-(-ctx.sizes.scalar_packets // CHUNK))],
        "scalar-slice")
    scalar_truth = scalar.true_totals("volume")
    native.available()  # builds the .so cache on a checkout's first run
    freeze_inputs()

    def session(factory, leg: int, engine: str):
        return StreamSession(factory, shards=SHARDS,
                             epoch_packets=epoch_chunks * CHUNK,
                             rng=engine_seed(ctx.seed, leg, 0), engine=engine)

    def setup():
        native.reset()
        factory = repro.scheme_factory("disco", b=B, mode="volume")
        native.available()
        return [session(factory, 0, "vector"), session(factory, 1, "native"),
                disco_scheme(repro, ctx.seed, 2, 0)]

    setup_s, (vector_session, native_session, _) = measure_setup(ctx, setup)
    sessions = {"vector": vector_session, "native": native_session}

    # The exact scheme must reproduce the generator's per-flow bytes.
    exact = session(repro.scheme_factory("exact", mode="volume"), 3, "vector")
    oracle_truth = {}
    for chunk in oracle_chunks:
        exact.ingest_chunk(chunk.keys, chunk.lengths)
        add_truth(oracle_truth, chunk)
    oracle.check_exact(out, "exact-first-chunks",
                       exact.finish().estimates_dict(), oracle_truth)
    # Warm-up, untimed: a throwaway DISCO session per engine warms the
    # process-wide update memo both legs share.
    warm_factory = repro.scheme_factory("disco", b=B, mode="volume")
    for leg, engine in ((4, "vector"), (5, "native")):
        warm = session(warm_factory, leg, engine)
        for chunk in oracle_chunks:
            warm.ingest_chunk(chunk.keys, chunk.lengths)
    del warm, exact

    legs = {(name, traced): Leg(scalar.num_packets if name == "scalar"
                                else CHUNK)
            for name in ("vector", "native", "scalar")
            for traced in (False, True)}
    errors = Errors()
    rss = None
    totals = [0, 0]
    epoch_faults = {"vector": 0, "native": 0}
    for index, traced in rounds(ctx):
        chunks = [make(index * epoch_chunks + j) for j in range(epoch_chunks)]
        epoch_truth = {}
        for chunk in chunks:
            add_truth(epoch_truth, chunk)
        volume = sum(epoch_truth.values())
        totals[0] += epoch_chunks * CHUNK
        totals[1] += volume
        for name, live in sessions.items():
            leg = legs[(name, traced)]
            start = perf_counter()
            for j, chunk in enumerate(chunks):
                if ctx.tracer is not None:
                    ctx.tracer.rid = j
                t = perf_counter()
                live.ingest_chunk(chunk.keys, chunk.lengths)
                leg.add(perf_counter() - t, new_round=j == 0)
                out.attempted += 1
            if traced:
                ctx.tracer.windows.append((start, perf_counter(), 0.0))
            snap = live.snapshots[-1]
            if (len(live.snapshots) != index + 1
                    or (snap.packets, snap.volume)
                    != (epoch_chunks * CHUNK, volume)
                    or snap.truths != epoch_truth):
                epoch_faults[name] += 1
            errors.add(snap.estimates_dict(), epoch_truth)
        scheme = disco_scheme(repro, ctx.seed, 2, index)
        start = perf_counter()
        result = repro.replay(scheme, scalar, order="asis",
                              rng=engine_seed(ctx.seed, 2, index))
        seconds = perf_counter() - start
        legs[("scalar", traced)].add(seconds, new_round=True)
        out.attempted += 1
        if traced:
            ctx.tracer.windows.append((start, start + seconds, 0.0))
        if index == 0:
            scalar_errors = Errors()
            scalar_errors.add(result.estimates, scalar_truth)
            oracle.check_accuracy(out, "scalar-cov-bound", scalar_errors.mean, B)
        if index == MIN_ROUNDS - 1:
            rss = peak_rss_mb()

    for name, live in sessions.items():
        out.check(f"{name}-epochs-conserved", epoch_faults[name] == 0,
                  f"{epoch_faults[name]} epochs differ from the generator")
        result = live.finish()
        oracle.check_totals(out, f"{name}-conservation",
                            (result.packets, result.volume), totals)
    oracle.check_accuracy(out, "disco-cov-bound", errors.mean, B)

    out.metrics.update(throughput(legs))
    out.metrics.update({
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "mean_rel_error": (errors.mean, "fraction"),
    })
    if ctx.tracer is not None:
        finish_layers(ctx, out, legs, len(vector_session.snapshots))


def stream_elephants(ctx: Context, out: Outcome) -> None:
    stream(ctx, out, elephant_maker(ctx.seed), ctx.sizes.elephant_epoch)


def stream_churn(ctx: Context, out: Outcome) -> None:
    stream(ctx, out, churn_maker(ctx.seed), ctx.sizes.churn_epoch)


# ---------------------------------------------------------------------------
# serve-mixed (the load-generating side; the daemon runs in serve_driver.py)
# ---------------------------------------------------------------------------

def _request(host: str, port: int, method: str, path: str):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


#: One cycle of the query mix: 70% /flows, 20% /topk, 10% /healthz.  The
#: two /topk requests (the costly ones) sit half a cycle apart: drawn at
#: random, runs of them queue behind each other and the tail percentile
#: measures the draw instead of the daemon.
_MIX = ("flow", "flow", "flow", "topk", "flow",
        "flow", "flow", "flow", "topk", "healthz")


def _query_plan(seed: int, count: int):
    """``count`` (kind, path) pairs; /flows/{id} picks flows by popularity.

    Each path ends in ``rid={rid}``, filled with the request id that the
    daemon's handler span records.
    """
    rng = np.random.default_rng([seed, _QUERIES])
    flows = np.searchsorted(zipf_cdf(SERVE_FLOWS, 1.1), rng.random(count),
                            side="right")
    paths = {"topk": "/topk?n=10", "healthz": "/healthz",
             "flow": "/flows/{flow}"}
    plan = []
    for i, flow in enumerate(flows):
        kind = _MIX[i % len(_MIX)]
        path = paths[kind].format(flow=int(flow))
        plan.append((kind, path + ("&" if "?" in path else "?") + "rid={rid}"))
    return plan


def _read_line(child, prefix: str) -> str:
    line = child.stdout.readline()
    while line and not line.startswith(prefix):
        line = child.stdout.readline()
    if not line:
        raise BenchError(f"serve driver exited before printing {prefix!r}")
    return line.strip()[len(prefix):]


def _await_feed(child) -> tuple:
    """The daemon's address and the feed's start on the shared clock."""
    host, port = _read_line(child, "serving on http://").rsplit(":", 1)
    origin = float(_read_line(child, "feed origin "))
    return host, int(port), origin


def serve_mixed(ctx: Context, out: Outcome) -> None:
    import repro
    from repro.streaming import StreamSession

    make = serve_maker(ctx.seed)
    count = serve_chunks(ctx.seconds / MIN_ROUNDS)
    totals = (count * CHUNK,
              sum(int(make(i).volumes.sum()) for i in range(count)))
    plan = _query_plan(ctx.seed,
                       max(1, round(ctx.seconds / MIN_ROUNDS * SERVE_QPS)))
    results_path = os.path.join(OUT, "serve-mixed.daemon.json")
    if os.path.exists(results_path):
        os.unlink(results_path)
    argv = [sys.executable, os.path.join(BENCH, "serve_driver.py"),
            "--seed", str(ctx.seed), "--seconds", str(ctx.seconds),
            "--trace", "1" if ctx.tracer is not None else "0",
            "--out", results_path] + (["--quick"] if ctx.quick else [])
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             env=child_env())
    # Latency of query i in each round, from its due time; query i does the
    # same work in every round, so the profile (best round per query)
    # leaves out slow spells of the machine as it does for chunks.
    latency = Leg(1)
    service, failed, slow, served, ranked = {}, 0, 0, [], []
    try:
        for index in range(MIN_ROUNDS):
            # Queries are due at fixed offsets from the feed's first chunk,
            # so every round meets chunk ingests and rotations at the same
            # points.
            host, port, origin = _await_feed(child)
            for i, (kind, path) in enumerate(plan):
                rid = index * len(plan) + i
                due = origin + (i + 0.5) / SERVE_QPS
                delay = due - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = perf_counter()
                try:
                    status, _ = _request(host, port, "GET",
                                         path.format(rid=rid))
                    ok = status == 200 or (kind == "flow" and status == 404)
                except (OSError, ValueError):
                    ok = False
                done = perf_counter()
                if ctx.tracer is not None:
                    ctx.tracer.spans.append(
                        ["client.request", sent, done, -1, rid])
                latency.add(done - due, new_round=i == 0)
                service[rid] = 1e3 * (done - sent)
                failed += not ok
                slow += (not ok) or done - due > SLO_MS / 1e3
            out.attempted += len(plan)

            deadline = perf_counter() + 60
            health = _request(host, port, "GET", "/healthz")[1]
            while (health["packets_consumed"] < totals[0]
                   and perf_counter() < deadline):
                time.sleep(0.05)
                health = _request(host, port, "GET", "/healthz")[1]
            served.append((health["packets_consumed"],
                           health["volume_consumed"]))
            top = _request(host, port, "GET", "/topk?n=10")[1]["flows"]
            ranked.append(top[0]["flow"] if top else None)
            _request(host, port, "POST", "/control/drain")
        child.wait(timeout=150)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if child.returncode != 0:
        raise BenchError(f"serve driver exited with {child.returncode}")
    with open(results_path, encoding="utf-8") as fh:
        daemon = json.load(fh)

    out.failed += failed
    oracle.check_totals(out, "served-conservation", served[-1], totals)
    out.check("served-every-round", len(set(served)) == 1,
              f"/healthz totals per round {served}")
    out.check("topk-rank-1", ranked == ["0"] * MIN_ROUNDS,
              f"rank 1 per round {ranked}, want flow 0")
    for name, ok, detail in daemon["checks"]:
        out.check(name, ok, detail)
    out.attempted += daemon["chunks"]
    exact = StreamSession(repro.scheme_factory("exact", mode="volume"),
                          shards=SHARDS, store="pools",
                          epoch_packets=ctx.sizes.serve_epoch * CHUNK)
    oracle_truth = {}
    for i in range(min(ctx.sizes.oracle_chunks, count)):
        chunk = make(i)
        exact.ingest_chunk(chunk.keys, chunk.lengths)
        add_truth(oracle_truth, chunk)
    oracle.check_exact(out, "exact-first-chunks",
                       exact.finish().estimates_dict(), oracle_truth)

    profile_ms = [1e3 * s for s in latency.profile()]
    out.metrics.update({
        "setup_s": (daemon["setup_s"], "s"),
        "pps": (daemon["pps"], "packets/s"),
        "pps_native": (daemon["pps_native"], "packets/s"),
        "pps_scalar": (daemon["pps_scalar"], "packets/s"),
        "op_p50_ms": (percentile(profile_ms, 50), "ms"),
        "op_p95_ms": (percentile(profile_ms, 95), "ms"),
        "peak_rss_mb": (daemon["peak_rss_mb"], "MB"),
        "mean_rel_error": (daemon["mean_rel_error"], "fraction"),
    })
    queries = MIN_ROUNDS * len(plan)
    out.details.update({
        "serve.queries": (queries, "count"),
        "serve.query_slo_miss_frac": (slow / queries, "fraction"),
        "serve.ingest_lag_p95_ms": (daemon["ingest_lag_p95_ms"], "ms"),
        "serve.chunk_p50_ms": (daemon["chunk_p50_ms"], "ms"),
        "serve.chunk_p95_ms": (daemon["chunk_p95_ms"], "ms"),
    })
    if ctx.tracer is not None:
        out.layers.update({k: tuple(v) for k, v in daemon["layers"].items()})
        out.details.update({k: tuple(v) for k, v in daemon["details"].items()})
        overhead = [service[int(rid)] - ms
                    for rid, ms in daemon["handler_ms"].items()]
        out.details["serve.http.overhead_p50_ms"] = (
            percentile(overhead, 50) if overhead else 0.0, "ms")


WORKLOAD_RUNNERS = {
    "replay-nlanr": replay_nlanr,
    "stream-elephants": stream_elephants,
    "stream-churn": stream_churn,
    "serve-mixed": serve_mixed,
}
