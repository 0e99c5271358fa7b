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

import numpy as np
import pytest

import repro.faults as faults_mod
from repro import obs, scheme_factory, stream
from repro.core.confidence import confidence_interval
from repro.core.stores import PoolStore
from repro.errors import ParameterError
from repro.flows import FiveTuple
from repro.serve import (
    DaemonHandle,
    GeneratorFeed,
    SocketFeed,
    TraceFeed,
    build_daemon,
    make_feed,
)
from repro.serve.queries import QueryEngine
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

    @pytest.mark.parametrize("start", [0, 8, 13])
    def test_generator_feed_and_extend_share_chunk_schedule(
            self, trace, tmp_path, start):
        # A session restored after ``start`` packets skips them in
        # extend(); the feed skips them through start=.  Both must then
        # cut the same chunks.
        pairs = list(trace.packet_pairs(rng=5))[:200]
        path = str(tmp_path / "ckpt")
        first = StreamSession(_factory(), chunk_packets=16, rng=3,
                              checkpoint_path=path)
        first.extend(pairs[:start])
        session = StreamSession.restore(path) if start else first
        ingested = []
        session._ingest = lambda keys, arrays: ingested.append(
            (keys, arrays))
        session.extend(pairs)
        batches = _collect(GeneratorFeed(pairs), 16, start=start)
        assert len(batches) == len(ingested) == -(-(200 - start) // 16)
        for (keys_a, arrays_a), (keys_b, arrays_b) in zip(batches,
                                                          ingested):
            assert keys_a == keys_b
            for a, b in zip(arrays_a, arrays_b):
                assert a.dtype == b.dtype == np.float64
                assert np.array_equal(a, b)

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
            # Lengths that are not finite and > 0 would make the session
            # reject a whole chunk; the feed must drop just those lines.
            writer.write(b"f1 100\nf1 200\nf2 50\nbogus\nf3 abc\nf2 25\n"
                         b"f4 nan\nf4 inf\nf4 -5\nf4 0\n")
            await writer.drain()
            writer.close()
            for _ in range(500):
                if feed.malformed_lines >= 6:
                    break
                await asyncio.sleep(0.01)
            await feed.close()
            return feed, [batch async for batch in feed.batches(100)]

        feed, batches = asyncio.run(scenario())
        assert feed.malformed_lines == 6
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
            assert counters["serve.ingest.bytes"] == sum(
                int(round(float(compiled.lengths[a:b].sum())))
                for a, b in zip(compiled.offsets[:-1].tolist(),
                                compiled.offsets[1:].tolist()))
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

    def test_generator_daemon_matches_offline_stream(self, trace,
                                                     compiled):
        pairs = list(trace.packet_pairs(rng=7))
        config = _config(compiled)
        offline = stream(_factory(), pairs, **config)
        daemon = build_daemon(_factory(), GeneratorFeed(pairs), **config)
        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, len(pairs))
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

    @pytest.mark.parametrize("live_flows", [100, 5000])
    def test_point_query_decodes_one_row(self, monkeypatch, live_flows):
        # One /flows/{id} decodes the queried flow's row (``replicas``
        # lanes, out of its pool) whatever the live-state size: no
        # whole-state read-out, no whole-column store decode.
        gen = np.random.default_rng(live_flows)
        keys = list(range(live_flows))
        chunk = (keys, [gen.uniform(40, 1500, 1 + i % 3) for i in keys])

        async def one_chunk():
            yield chunk

        feed = GeneratorFeed([])
        feed.batches = lambda cp, start=0: one_chunk()
        daemon = build_daemon(_factory(), feed, shards=4, store="pools",
                              rng=3, engine="vector")
        packets = sum(int(a.size) for a in chunk[1])
        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, packets)
            calls = []
            with monkeypatch.context() as patch:  # undone before the drain
                for name in ("live_estimates", "live_counters",
                             "live_readout"):
                    patch.setattr(daemon.session, name,
                                  lambda *a, name=name: calls.append(name))
                patch.setattr(PoolStore, "read",
                              lambda *a: calls.append("PoolStore.read"))
                for flow in (0, live_flows // 2, live_flows - 1):
                    before = _counter(handle.client,
                                      "serve.query.lanes_decoded")
                    payload = handle.client.flow(flow)
                    after = _counter(handle.client,
                                     "serve.query.lanes_decoded")
                    assert payload["found"]
                    assert payload["confidence"] is not None
                    assert after - before == 1  # replicas
                assert not handle.client.flow("no-such-flow")["found"]
                assert _counter(handle.client,
                                "serve.query.lanes_decoded") == 3
        assert handle.error is None
        assert calls == []

    def test_flow_ids_with_reserved_url_characters(self):
        # '?', '#' and '%' in a flow id must reach the daemon verbatim.
        feed = SocketFeed(flush_seconds=0.05)
        daemon = build_daemon(scheme_factory("exact"), feed, chunk_packets=4,
                              rng=3, engine="vector")
        with DaemonHandle(daemon) as handle:
            _wait_bound(feed)
            with socket.create_connection((feed.host, feed.port)) as conn:
                conn.sendall(b"a?b 100\nc%41 50\nd#e 10\nplain 7\n")
            _wait_ingested(handle.client, 4)
            for flow, estimate in (("a?b", 100.0), ("c%41", 50.0),
                                   ("d#e", 10.0), ("plain", 7.0)):
                payload = handle.client.flow(flow)
                assert payload["flow"] == flow
                assert payload["found"], flow
                assert payload["live_estimate"] == estimate
            assert not handle.client.flow("cA")["found"]
        assert handle.error is None

    def test_http_stage_timed(self, compiled):
        daemon = build_daemon(_factory(), TraceFeed(compiled),
                              **_config(compiled))
        with DaemonHandle(daemon) as handle:
            _wait_ingested(handle.client, compiled.num_packets)
            handle.client.topk(3)
            timers = handle.client.telemetry()["telemetry"]["timers"]
            http = timers["serve.stage.http"]
            assert http["count"] >= 2 and http["seconds"] > 0
        assert handle.error is None


def _counter(client, name):
    return client.telemetry()["telemetry"]["counters"].get(name, 0)


def _wait_bound(feed, timeout=10.0):
    deadline = time.monotonic() + timeout
    while feed._server is None and time.monotonic() < deadline:
        time.sleep(0.01)
    assert feed._server is not None, "socket feed never bound"


# ---------------------------------------------------------------------------
# answers == a brute-force read-out
# ---------------------------------------------------------------------------

#: Every registry scheme, sized so its coupling machinery fires on the
#: small feed below (SAC renormalisation, SD flushes, ICE up-scales).
SCHEMES = {
    "disco": dict(b=1.05, capacity_bits=9),
    "exact": {},
    "sac": dict(bits=8, mode_bits=3),
    "sd": dict(sram_bits=10, dram_access_ratio=4),
    "anls1": dict(b=1.02),
    "anls2": dict(b=1.02),
    "ice": dict(bits=6, bucket_flows=4),
    "aee": dict(p=0.3, bits=10),
}


def _zipf_chunks(seed, count, packets=300, flows=250):
    """Seeded chunks over ``flows`` int keys (Zipf-ish), 40-1500 B packets."""
    gen = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, flows + 1)
    chunks = []
    for _ in range(count):
        picks = gen.choice(flows, size=packets, p=weights / weights.sum())
        keys = sorted(set(picks.tolist()))
        lengths = {key: [] for key in keys}
        for key, length in zip(picks.tolist(),
                               gen.integers(40, 1501, packets).tolist()):
            lengths[key].append(float(length))
        chunks.append((keys, [np.array(lengths[k]) for k in keys]))
    return chunks


def _brute_force(session, b):
    """Every flow's answer, built from snapshots + the live dict read-outs."""
    series = {}
    for snapshot in session.snapshots:
        for key, estimate in snapshot.estimates_dict().items():
            series.setdefault(key, []).append(float(estimate))
    live = session.live_estimates()
    counters = session.live_counters()
    answers = {}
    for key in set(series) | set(live):
        epochs = series.get(key, [])
        confidence = None
        if b is not None and key in counters:
            ci = confidence_interval(b, counters[key])
            confidence = {"estimate": ci.estimate, "low": ci.low,
                          "high": ci.high, "level": ci.level,
                          "relative_stddev": ci.relative_stddev}
        answers[key] = {"epochs": epochs, "epoch_total": sum(epochs),
                        "live_estimate": live.get(key),
                        "total": sum(epochs) + live.get(key, 0.0),
                        "confidence": confidence}
    return answers


class TestAnswersMatchBruteForce:
    @pytest.mark.parametrize("store", ["dense", "pools", "morris"])
    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_flow_and_topk(self, name, store):
        session = StreamSession(scheme_factory(name, seed=0, **SCHEMES[name]),
                                shards=3, rng=5, store=store)
        engine = QueryEngine(session)
        chunks = _zipf_chunks(len(name), 9)
        for i, (keys, arrays) in enumerate(chunks):
            session.ingest_chunk(keys, arrays)
            if i in (2, 5):
                session.rotate()
            if i not in (1, 3, 8):  # before, between and after rotations
                continue
            expected = _brute_force(session, engine.b)
            for key, want in expected.items():
                got = engine.flow(str(key))
                assert got["found"] and got["flow"] == str(key)
                assert {k: got[k] for k in want} == want, (name, store, key)
            ranked = sorted(expected.items(),
                            key=lambda kv: (-kv[1]["total"], str(kv[0])))
            for n in (1, 7, len(ranked) + 3):
                assert [(f["flow"], f["estimate"])
                        for f in engine.topk(n)["flows"]] == [
                    (str(key), want["total"]) for key, want in ranked[:n]]
            assert 7 in expected
            assert not engine.flow("007")["found"]
            unseen = engine.flow("no-such-flow")
            assert not unseen["found"] and unseen["epochs"] == []
            assert unseen["live_estimate"] is None and unseen["total"] == 0.0
        assert session.epoch_index == 2

    def test_coupled_kernel_decodes_one_shard_per_boundary(self):
        # SAC couples a shard's lanes: a point read decodes the key's
        # shard, once per chunk boundary, and no other shard.
        session = StreamSession(scheme_factory("sac", seed=0, **SCHEMES["sac"]),
                                shards=3, rng=5)
        chunks = _zipf_chunks(1, 2)
        session.ingest_chunk(*chunks[0])
        key = chunks[0][0][0]
        shard = next(s for s in range(3) if key in session.live_keys(s))
        for _ in range(3):
            assert session.live_flow(key) is not None
        own = len(session.live_keys(shard))
        assert 0 < own < sum(len(session.live_keys(s)) for s in range(3))
        assert session.live_lanes_decoded == own
        session.ingest_chunk(*chunks[1])
        session.live_flow(key)
        assert session.live_lanes_decoded == own + len(session.live_keys(shard))

    def test_ties_rank_by_flow_id(self):
        session = StreamSession(scheme_factory("exact"), shards=2, rng=1)
        engine = QueryEngine(session)
        keys = [12, 3, "b", "a", 40]
        session.ingest_chunk(keys, [np.array([5.0])] * 5)
        assert [f["flow"] for f in engine.topk(3)["flows"]] == \
            ["12", "3", "40"]
        assert [f["flow"] for f in engine.topk(5)["flows"]] == \
            ["12", "3", "40", "a", "b"]

    def test_keys_of_other_types_found_by_str(self):
        flows = [(1, 2), FiveTuple("10.0.0.1", "10.0.0.2", 80, 443, 6),
                 b"raw", True, 7, "7x"]
        session = StreamSession(scheme_factory("exact"), shards=2, rng=1)
        engine = QueryEngine(session)
        session.ingest_chunk(flows[:3], [np.array([10.0])] * 3)
        session.rotate()
        session.ingest_chunk(flows[1:], [np.array([5.0])] * 5)
        expected = _brute_force(session, None)
        for key in flows:
            got = engine.flow(str(key))
            assert got["found"], key
            assert got["total"] == expected[key]["total"]
        assert engine.flow(str(flows[1]))["epochs"] == [10.0]

    def test_int_and_str_keys_build_no_str_table(self):
        session = StreamSession(scheme_factory("exact"), shards=2, rng=1)
        engine = QueryEngine(session)
        session.ingest_chunk([1, "x", 3], [np.array([10.0])] * 3)
        session.rotate()
        session.ingest_chunk([3, "y"], [np.array([5.0])] * 2)
        assert engine.flow("3")["total"] == 15.0
        assert not engine.flow("nope")["found"]
        engine.topk(2)
        assert engine._closed_named == {} and engine._live_named == {}


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
                # A nan or negative length must not reach the session: it
                # would reject the chunk and end the daemon.
                conn.sendall(b"f1 100\nbogus\nf2 50\nf3 nan\nf3 abc\n"
                             b"f1 25\nf4 -5\nf2 75\n")
            _wait_ingested(handle.client, 4)
            counters = handle.client.telemetry()["telemetry"]["counters"]
            assert counters["serve.feed.malformed_lines"] == 4
            health = handle.client.healthz()
            assert health["malformed_lines"] == 4
            assert health["packets_consumed"] == 4
            assert health["volume_consumed"] == 250
            counters = handle.client.telemetry()["telemetry"]["counters"]
            assert counters["serve.feed.malformed_lines"] == 4
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
