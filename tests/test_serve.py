"""Tests for the serve daemon: feeds, query surface, crash safety.

In-process integration: each test builds a :class:`ServeDaemon` over a
small trace, runs it on a background thread via :class:`DaemonHandle`,
and talks real JSON-over-HTTP to the ephemeral listener.  The two
load-bearing properties are

* **offline equivalence** — a drained daemon's result equals
  :func:`repro.stream` over the same trace with the same parameters,
  bit for bit; and
* **crash safety** — an armed ``serve.checkpoint`` fault kills the
  daemon between checkpoints, and a ``resume=True`` rebuild answers
  every query bit-identically to an uninterrupted run.
"""

import asyncio
import socket
import time

import pytest

import repro.faults as faults_mod
from repro import obs, scheme_factory, stream
from repro.errors import ParameterError
from repro.serve import (
    DaemonHandle,
    GeneratorFeed,
    SocketFeed,
    TraceFeed,
    build_daemon,
    make_feed,
)
from repro.streaming import StreamSession
from repro.traces.compiled import compile_trace
from repro.traces.nlanr import nlanr_like

B = 1.05


@pytest.fixture(scope="module")
def trace():
    return nlanr_like(num_flows=40, mean_flow_bytes=10_000,
                      max_flow_bytes=80_000, rng=11)


@pytest.fixture(scope="module")
def compiled(trace):
    return compile_trace(trace)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults_mod.disarm()
    yield
    faults_mod.disarm()


def _factory():
    return scheme_factory("disco", b=B, seed=0)


def _config(compiled):
    return dict(shards=2, epoch_packets=compiled.num_packets // 3,
                chunk_packets=256, rng=3, engine="vector")


def _wait_ingested(client, packets, timeout=20.0):
    """Poll /healthz until the daemon has consumed ``packets`` packets."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        health = client.healthz()
        if health["packets_consumed"] >= packets:
            return health
        time.sleep(0.01)
    raise AssertionError(f"daemon never reached {packets} packets")


def _collect(feed, chunk_packets, start=0):
    async def scenario():
        return [batch async for batch in feed.batches(chunk_packets,
                                                      start=start)]
    return asyncio.run(scenario())


# ---------------------------------------------------------------------------
# feeds
# ---------------------------------------------------------------------------

class TestFeeds:
    def test_generator_feed_batches_and_resumes(self):
        pairs = [(f"f{i % 5}", 100 + i) for i in range(23)]
        batches = _collect(GeneratorFeed(pairs), 8)
        sizes = [int(sum(a.size for a in arrays)) for _, arrays in batches]
        assert sizes == [8, 8, 7]
        for keys, arrays in batches:
            assert len(keys) == len(arrays) == len(set(keys))
        # start= drops exactly the first batch's packets: the resumed
        # schedule is the original one minus its consumed prefix.
        resumed = _collect(GeneratorFeed(pairs), 8, start=8)
        assert len(resumed) == 2
        for (keys_a, arrays_a), (keys_b, arrays_b) in zip(resumed,
                                                          batches[1:]):
            assert keys_a == keys_b
            assert all((a == b).all()
                       for a, b in zip(arrays_a, arrays_b))

    def test_trace_feed_resume_replays_chunk_schedule(self, compiled):
        feed = TraceFeed(compiled)
        assert feed.deterministic_resume
        full = _collect(TraceFeed(compiled), 256)
        resumed = _collect(feed, 256, start=256)
        assert len(resumed) == len(full) - 1
        for (keys_a, _), (keys_b, _) in zip(resumed, full[1:]):
            assert keys_a == keys_b

    def test_trace_feed_rejects_non_trace(self):
        with pytest.raises(ParameterError, match="TraceFeed needs"):
            TraceFeed([("f", 10)])

    def test_socket_feed_parses_and_skips_malformed(self):
        async def scenario():
            feed = SocketFeed()
            host, port = await feed.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"f1 100\nf1 200\nf2 50\nbogus\nf3 abc\nf2 25\n")
            await writer.drain()
            writer.close()
            for _ in range(500):
                if feed._queue.qsize() >= 4:
                    break
                await asyncio.sleep(0.01)
            await feed.close()
            return feed, [batch async for batch in feed.batches(100)]

        feed, batches = asyncio.run(scenario())
        assert feed.malformed_lines == 2
        totals = {}
        for keys, arrays in batches:
            for key, lens in zip(keys, arrays):
                totals[key] = totals.get(key, 0.0) + float(lens.sum())
        assert totals == {"f1": 300.0, "f2": 75.0}

    def test_trace_feed_start_boundary_cases(self, compiled):
        chunk = 256
        full = _collect(TraceFeed(compiled), chunk)
        # start=0 is the unskipped schedule, bit for bit.
        fresh = _collect(TraceFeed(compiled), chunk, start=0)
        assert len(fresh) == len(full)
        for (keys_a, arrays_a), (keys_b, arrays_b) in zip(fresh, full):
            assert keys_a == keys_b
            assert all((a == b).all()
                       for a, b in zip(arrays_a, arrays_b))
        # start on an exact chunk boundary mid-trace: the resumed feed
        # continues the original schedule bit-identically.
        k = 2
        assert len(full) > k + 1
        resumed = _collect(TraceFeed(compiled), chunk, start=k * chunk)
        assert len(resumed) == len(full) - k
        for (keys_a, arrays_a), (keys_b, arrays_b) in zip(resumed,
                                                          full[k:]):
            assert keys_a == keys_b
            assert all((a == b).all()
                       for a, b in zip(arrays_a, arrays_b))
        # start == num_packets: a fully consumed feed yields nothing.
        done = _collect(TraceFeed(compiled), chunk,
                        start=compiled.num_packets)
        assert done == []
        # start past end-of-trace is a configuration error, not silence.
        with pytest.raises(ParameterError, match="start must be in"):
            _collect(TraceFeed(compiled), chunk,
                     start=compiled.num_packets + 1)

    def test_make_feed_dispatch(self, compiled):
        assert isinstance(make_feed("trace", trace=compiled), TraceFeed)
        assert isinstance(make_feed("generator", pairs=[]), GeneratorFeed)
        assert isinstance(make_feed("socket"), SocketFeed)
        with pytest.raises(ParameterError, match="unknown feed kind"):
            make_feed("pcap-live")
        with pytest.raises(ParameterError, match="needs trace="):
            make_feed("trace")

    def test_ingest_chunk_rejects_ragged_lists(self):
        session = StreamSession(scheme_factory("exact"))
        with pytest.raises(ParameterError, match="parallel lists"):
            session.ingest_chunk(["a"], [])


# ---------------------------------------------------------------------------
# the query surface
# ---------------------------------------------------------------------------

class TestQuerySurface:
    def test_queries_against_live_daemon(self, trace, compiled):
        daemon = build_daemon(_factory(), TraceFeed(compiled),
                              **_config(compiled))
        truths = trace.true_totals("volume")
        with DaemonHandle(daemon) as handle:
            health = _wait_ingested(handle.client, compiled.num_packets)
            assert health["scheme"] == "disco"
            assert health["mode"] == "volume"
            assert health["shards"] == 2
            assert health["epochs"] >= 2
            assert health["feed"].startswith("trace:")

            # topk: descending, n respected, biggest flow on top.
            top = handle.client.topk(5)
            estimates = [f["estimate"] for f in top["flows"]]
            assert len(estimates) == 5
            assert estimates == sorted(estimates, reverse=True)
            biggest_truth = max(truths, key=truths.get)
            assert str(biggest_truth) in {f["flow"] for f in top["flows"]}

            # per-flow: found, right ballpark, confidence from the live
            # counter when the open epoch still holds the flow.
            payload = handle.client.flow(str(biggest_truth))
            assert payload["found"]
            assert payload["total"] == pytest.approx(
                truths[biggest_truth], rel=0.5)
            if payload["confidence"] is not None:
                conf = payload["confidence"]
                assert conf["low"] <= conf["estimate"] <= conf["high"]
                assert conf["level"] == 0.95

            # unseen flow: 404 but still a JSON answer.
            missing = handle.client.flow("no-such-flow")
            assert not missing["found"]
            assert missing["live_estimate"] is None

            # epochs: every rotated snapshot as JSON.
            epochs = handle.client.epochs()
            assert epochs["count"] == health["epochs"]
            assert all(e["type"] == "epoch" for e in epochs["epochs"])

            # telemetry: the serve.* catalogue is live by default.
            counters = handle.client.telemetry()["telemetry"]["counters"]
            assert counters["serve.starts"] == 1
            assert counters["serve.ingest.packets"] == compiled.num_packets
            assert counters["serve.query.topk"] >= 1
        assert handle.error is None
        assert handle.result is not None

    def test_control_verbs(self, compiled, tmp_path):
        daemon = build_daemon(
            _factory(), TraceFeed(compiled),
            checkpoint_path=str(tmp_path / "serve.ckpt"),
            **_config(compiled))
        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, compiled.num_packets)
            before = handle.client.epochs()["count"]
            rotated = handle.client.rotate()
            assert rotated["epochs"] >= before
            checkpoint = handle.client.checkpoint()
            assert checkpoint["checkpoint"].endswith("serve.ckpt")
            # drain is what __exit__ sends; answer must be immediate.
            assert handle.client.drain() == {"draining": True}
            handle.join()
        assert handle.error is None

    def test_bad_requests_are_4xx(self, compiled):
        daemon = build_daemon(_factory(), TraceFeed(compiled),
                              **_config(compiled))
        with DaemonHandle(daemon) as handle:
            status, payload = handle.client.get("/topk?n=0")
            assert status == 400 and "n must be >= 1" in payload["error"]
            status, _ = handle.client.get("/nope")
            assert status == 404
            status, _ = handle.client.request("PUT", "/flows/x")
            assert status == 405
        assert handle.error is None

    def test_daemon_result_matches_offline_stream(self, compiled):
        config = _config(compiled)
        offline = stream(_factory(), compiled, **config)
        daemon = build_daemon(_factory(), TraceFeed(compiled), **config)
        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, compiled.num_packets)
        assert handle.error is None
        assert handle.result.estimates_dict() == offline.estimates_dict()
        assert handle.result.epochs == offline.epochs

    def test_live_queries_match_offline_prefix(self, compiled):
        # Pause ingestion at the feed boundary (generator exhausted) and
        # compare the live answers with an offline session fed the same
        # prefix: the daemon's chunk-boundary reads hide no drift.
        config = dict(_config(compiled), epoch_packets=None)
        chunk = config["chunk_packets"]
        prefix_chunks = 4
        chunks = _collect(TraceFeed(compiled), chunk)[:prefix_chunks]

        async def replay_prefix():
            for keys, arrays in chunks:
                yield keys, arrays

        feed = GeneratorFeed([])
        feed.batches = lambda cp, start=0: replay_prefix()
        daemon = build_daemon(_factory(), feed, **config)

        offline = StreamSession(_factory(), **config)
        for keys, arrays in chunks:
            offline.ingest_chunk(keys, arrays)
        expected = {str(k): float(v)
                    for k, v in offline.live_estimates().items()}

        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, prefix_chunks * chunk)
            top = handle.client.topk(len(expected) + 10)
            live = {f["flow"]: f["estimate"] for f in top["flows"]
                    if f["flow"] in expected}
            for key, value in expected.items():
                assert live[key] == pytest.approx(value)
        assert handle.error is None

    def test_flow_queries_decode_live_counters_once_per_boundary(
            self, compiled):
        # N /flows queries at one chunk boundary share one decode of the
        # live counters (the confidence interval's input).
        config = dict(_config(compiled), epoch_packets=None)
        chunks = _collect(TraceFeed(compiled), config["chunk_packets"])[:3]

        async def replay_prefix():
            for keys, arrays in chunks:
                yield keys, arrays

        feed = GeneratorFeed([])
        feed.batches = lambda cp, start=0: replay_prefix()
        daemon = build_daemon(_factory(), feed, **config)
        decodes = []
        live_counters = daemon.session.live_counters

        def counted():
            decodes.append(daemon.session.packets_consumed)
            return live_counters()

        daemon.session.live_counters = counted
        flow = str(chunks[0][0][0])
        packets = sum(int(a.size) for _, arrays in chunks for a in arrays)
        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, packets)
            answers = [handle.client.flow(flow) for _ in range(8)]
        assert handle.error is None
        assert all(a["confidence"] is not None for a in answers)
        assert decodes == [packets]


# ---------------------------------------------------------------------------
# feed health
# ---------------------------------------------------------------------------

class TestFeedHealth:
    def test_socket_daemon_surfaces_malformed_lines(self):
        # A daemon silently eating garbage input must not look healthy:
        # the feed's malformed-line count has to reach /telemetry and
        # /healthz, and repeated exports must not double-count.
        feed = SocketFeed(flush_seconds=0.05)
        daemon = build_daemon(_factory(), feed, chunk_packets=4,
                              rng=3, engine="vector")
        with DaemonHandle(daemon) as handle:
            deadline = time.monotonic() + 10.0
            while feed._server is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert feed._server is not None, "socket feed never bound"
            with socket.create_connection((feed.host, feed.port)) as conn:
                conn.sendall(b"f1 100\nbogus\nf2 50\nf3 abc\nf1 25\nf2 75\n")
            _wait_ingested(handle.client, 4)
            counters = handle.client.telemetry()["telemetry"]["counters"]
            assert counters["serve.feed.malformed_lines"] == 2
            health = handle.client.healthz()
            assert health["malformed_lines"] == 2
            counters = handle.client.telemetry()["telemetry"]["counters"]
            assert counters["serve.feed.malformed_lines"] == 2
        assert handle.error is None

    def test_trace_daemon_healthz_omits_malformed_lines(self, compiled):
        # Feeds without a malformed-line counter (trace replay cannot
        # produce garbage) must not fake a zero in /healthz.
        daemon = build_daemon(_factory(), TraceFeed(compiled),
                              **_config(compiled))
        with DaemonHandle(daemon) as handle:
            health = _wait_ingested(handle.client, compiled.num_packets)
            assert "malformed_lines" not in health
            counters = handle.client.telemetry()["telemetry"]["counters"]
            assert "serve.feed.malformed_lines" not in counters
        assert handle.error is None


# ---------------------------------------------------------------------------
# crash safety
# ---------------------------------------------------------------------------

class TestCrashSafety:
    def _quiet_config(self, compiled, path):
        # Telemetry disabled so snapshots carry telemetry=None and the
        # resumed run's query answers can be compared bit-for-bit.
        return dict(shards=2, epoch_packets=compiled.num_packets // 3,
                    chunk_packets=256, rng=3, engine="vector",
                    checkpoint_path=str(path), checkpoint_every=1,
                    telemetry=obs.Telemetry(enabled=False))

    def _drained_answers(self, compiled, **kwargs):
        daemon = build_daemon(_factory(), TraceFeed(compiled), **kwargs)
        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, compiled.num_packets)
            answers = {
                "topk": handle.client.topk(10),
                "epochs": handle.client.epochs(),
                "healthz": {k: v for k, v in handle.client.healthz().items()
                            if k != "feed"},
            }
        assert handle.error is None
        return answers, handle.result

    def test_sites_registered(self):
        assert "serve.ingest" in faults_mod.SITES
        assert "serve.checkpoint" in faults_mod.SITES

    def test_checkpoint_fault_crashes_then_resume_is_bit_identical(
            self, compiled, tmp_path):
        baseline, baseline_result = self._drained_answers(
            compiled, **self._quiet_config(compiled, tmp_path / "base.ckpt"))

        path = tmp_path / "crash.ckpt"
        config = self._quiet_config(compiled, path)

        # Leg 1: the third scheduled checkpoint raises *before* the
        # write — the daemon dies, the second checkpoint stays intact.
        faults_mod.arm(faults_mod.FaultPlan.parse(
            "serve.checkpoint:raise:after=2:times=1"))
        daemon = build_daemon(_factory(), TraceFeed(compiled), **config)
        with DaemonHandle(daemon) as handle:
            handle.join(timeout=20.0)
        assert isinstance(handle.error, OSError)
        assert "injected fault at serve.checkpoint" in str(handle.error)
        assert path.exists()
        faults_mod.disarm()

        # Leg 2: resume from the surviving checkpoint; the deterministic
        # trace feed replays the exact remaining chunk schedule.
        resumed, resumed_result = self._drained_answers(
            compiled, resume=True, **config)
        assert resumed == baseline
        assert (resumed_result.estimates_dict()
                == baseline_result.estimates_dict())
        assert resumed_result.snapshots == baseline_result.snapshots

    def test_ingest_fault_leaves_previous_checkpoint(self, compiled,
                                                     tmp_path):
        path = tmp_path / "ingest.ckpt"
        faults_mod.arm(faults_mod.FaultPlan.parse(
            "serve.ingest:raise:after=3:times=1"))
        daemon = build_daemon(
            _factory(), TraceFeed(compiled),
            **self._quiet_config(compiled, path))
        with DaemonHandle(daemon) as handle:
            handle.join(timeout=20.0)
        assert isinstance(handle.error, OSError)
        assert path.exists()
        session = StreamSession.restore(str(path))
        assert 0 < session.packets_consumed < compiled.num_packets


# ---------------------------------------------------------------------------
# builder validation
# ---------------------------------------------------------------------------

class TestBuildDaemon:
    def test_daemon_knob_validation(self, compiled):
        with pytest.raises(ParameterError, match="checkpoint_every"):
            build_daemon(_factory(), GeneratorFeed([]), checkpoint_every=0)
        with pytest.raises(ParameterError, match="pace"):
            build_daemon(_factory(), GeneratorFeed([]), pace=-1.0)

    def test_default_telemetry_enabled(self):
        daemon = build_daemon(_factory(), GeneratorFeed([]))
        assert daemon.telemetry.enabled
        explicit = obs.Telemetry(enabled=False)
        wired = build_daemon(_factory(), GeneratorFeed([]),
                             telemetry=explicit)
        assert wired.telemetry is explicit
