"""Streaming subsystem + public scheme/result API redesign tests.

Covers the PR-5 surface end to end:

* the :mod:`repro.schemes` registry (build-by-name, frozen factories,
  parameter rejection);
* the :class:`repro.results.MeasurementResult` protocol across every
  terminal result type;
* eager argument validation on :func:`repro.replay` /
  :func:`repro.stream`;
* stream determinism — exact-kernel bit-identity with a one-shot
  replay and same-seed reproducibility for probabilistic kernels;
* epoch rotation watermarks, truths, collector ingestion;
* checkpoint / restore under an injected ``checkpoint.write`` fault.
"""

import pickle
import warnings

import numpy as np
import pytest

import repro.faults as faults_mod
import repro.streaming as streaming
from repro import (
    EpochSnapshot,
    MeasurementResult,
    StreamSession,
    Telemetry,
    make_scheme,
    replay,
    scheme_factory,
    scheme_names,
    seed_streams,
    stream,
)
from repro.core.batchreplay import run_kernel
from repro.core.kernels import KernelState, kernel_spec
from repro.errors import ParameterError
from repro.export.collector import Collector
from repro.flows.hashing import stable_hash
from repro.flows.packet import FiveTuple
from repro.serve import GeneratorFeed, build_daemon
from repro.schemes import SchemeFactory, scheme_spec
from repro.traces.compiled import CompiledTrace, compile_trace
from repro.traces.nlanr import nlanr_like

B = 1.05


@pytest.fixture(scope="module")
def trace():
    return nlanr_like(num_flows=80, mean_flow_bytes=20_000,
                      max_flow_bytes=200_000, rng=11)


@pytest.fixture(scope="module")
def compiled(trace):
    return compile_trace(trace)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults_mod.disarm()
    yield
    faults_mod.disarm()


# ---------------------------------------------------------------------------
# the scheme registry
# ---------------------------------------------------------------------------

class TestSchemeRegistry:
    def test_names_sorted_unique(self):
        names = scheme_names()
        assert names == tuple(sorted(names))
        assert {"disco", "exact", "sac", "sd", "anls1", "anls2"} <= set(names)

    def test_make_scheme_builds_each(self):
        for name in scheme_names():
            scheme = make_scheme(name, max_length=200_000, seed=3)
            assert getattr(scheme, "name", name)
            assert kernel_spec(scheme) is not None

    def test_unknown_name_rejected(self):
        with pytest.raises(ParameterError, match="unknown scheme"):
            make_scheme("nope")
        with pytest.raises(ParameterError):
            scheme_spec("nope")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ParameterError):
            make_scheme("disco", b=1.01, colour="red")

    def test_factory_is_frozen_picklable_and_deterministic(self):
        factory = scheme_factory("disco", b=1.02, seed=9)
        assert isinstance(factory, SchemeFactory)
        clone = pickle.loads(pickle.dumps(factory))
        assert clone == factory
        a, b = factory(), clone()
        assert type(a) is type(b)

    def test_factory_matches_make_scheme(self, trace):
        via_factory = replay(scheme_factory("disco", b=B, seed=4)(), trace,
                             rng=2, engine="vector")
        direct = replay(make_scheme("disco", b=B, seed=4), trace,
                        rng=2, engine="vector")
        assert via_factory.estimates == direct.estimates


# ---------------------------------------------------------------------------
# the MeasurementResult protocol
# ---------------------------------------------------------------------------

class TestMeasurementResultProtocol:
    def test_run_result_conforms(self, trace):
        result = replay(make_scheme("disco", b=B, seed=1), trace, rng=3)
        assert isinstance(result, MeasurementResult)
        payload = result.to_json()
        assert payload["type"] == "run"
        assert set(payload["estimates"]) == {str(k) for k in
                                             result.estimates_dict()}

    def test_batch_and_replica_results_conform(self, compiled):
        spec = kernel_spec(make_scheme("disco", b=B, seed=1))
        single = run_kernel(compiled, spec.factory, mode=spec.mode,
                            rng=np.random.SeedSequence(5))
        multi = run_kernel(compiled, spec.factory, mode=spec.mode,
                           rng=np.random.SeedSequence(5), replicas=3)
        for result in (single, multi):
            assert isinstance(result, MeasurementResult)
            assert result.to_json()["estimates"]

    def test_stream_results_conform(self, compiled):
        result = stream(scheme_factory("disco", b=B, seed=1), compiled,
                        shards=2, epoch_packets=compiled.num_packets // 3,
                        rng=7)
        assert isinstance(result, MeasurementResult)
        assert result.to_json()["type"] == "stream"
        for snapshot in result.snapshots:
            assert isinstance(snapshot, EpochSnapshot)
            assert isinstance(snapshot, MeasurementResult)
            assert snapshot.to_json()["type"] == "epoch"


# ---------------------------------------------------------------------------
# eager argument validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_replay_rejects_bad_order(self, trace):
        with pytest.raises(ParameterError, match="order must be one of"):
            replay(make_scheme("disco", b=B), trace, order="sorted")

    @pytest.mark.parametrize("kwargs", [
        {"shards": 0},
        {"chunk_packets": 0},
        {"epoch_packets": 0},
        {"epoch_bytes": -5},
    ])
    def test_stream_rejects_bad_parameters(self, trace, kwargs):
        with pytest.raises(ParameterError):
            stream(scheme_factory("exact"), trace, **kwargs)

    def test_stream_rejects_resume_without_checkpoint(self, trace):
        with pytest.raises(ParameterError, match="checkpoint_path"):
            stream(scheme_factory("exact"), trace, resume=True)

    def test_stream_rejects_non_callable_and_kernelless(self, trace):
        with pytest.raises(ParameterError, match="callable"):
            StreamSession(42)
        with pytest.raises(ParameterError, match="no columnar kernel"):
            stream(lambda: object(), trace)

    def test_parallel_stream_needs_picklable_factory(self, trace):
        unpicklable = lambda: make_scheme("disco", b=B)  # noqa: E731
        with pytest.raises(ParameterError, match="picklable"):
            StreamSession(unpicklable, checkpoint_path="x.ckpt")

    def test_session_checkpoint_without_path_rejected(self):
        session = StreamSession(scheme_factory("exact"))
        with pytest.raises(ParameterError, match="checkpoint_path"):
            session.checkpoint()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

class TestStreamDeterminism:
    def test_exact_stream_equals_one_shot_replay(self, trace, compiled):
        result = stream(scheme_factory("exact"), compiled, shards=3,
                        epoch_packets=compiled.num_packets // 4, rng=1)
        one_shot = replay(make_scheme("exact"), trace, rng=1,
                          engine="vector")
        assert result.estimates_dict() == one_shot.estimates_dict()
        assert result.packets == compiled.num_packets

    def test_same_seed_same_estimates(self, compiled):
        kwargs = dict(shards=2, epoch_packets=compiled.num_packets // 3)
        a = stream(scheme_factory("disco", b=B, seed=0), compiled,
                   rng=9, **kwargs)
        b = stream(scheme_factory("disco", b=B, seed=0), compiled,
                   rng=9, **kwargs)
        assert a.estimates_dict() == b.estimates_dict()
        assert [s.estimates_dict() for s in a.snapshots] == \
            [s.estimates_dict() for s in b.snapshots]

    def test_different_seed_differs(self, compiled):
        a = stream(scheme_factory("disco", b=B, seed=0), compiled, rng=1)
        b = stream(scheme_factory("disco", b=B, seed=0), compiled, rng=2)
        assert a.estimates_dict() != b.estimates_dict()

    @pytest.mark.parametrize("name,kwargs", [
        ("sac", {"bits": 10, "mode_bits": 3}),
        ("sd", {"sram_bits": 12, "dram_access_ratio": 12}),
        ("anls2", {"b": 1.02}),
    ])
    def test_comparator_kernels_same_seed(self, compiled, name, kwargs):
        factory = scheme_factory(name, seed=0, **kwargs)
        run = dict(shards=2, epoch_packets=compiled.num_packets // 2, rng=4)
        assert stream(factory, compiled, **run).estimates_dict() == \
            stream(factory, compiled, **run).estimates_dict()

    def test_extend_equals_consume_for_exact(self, trace, compiled):
        via_trace = stream(scheme_factory("exact"), compiled, shards=2,
                           rng=3)
        session = StreamSession(scheme_factory("exact"), shards=2, rng=3)
        session.extend(trace.packet_pairs(order="asis"))
        via_pairs = session.finish()
        assert via_pairs.estimates_dict() == via_trace.estimates_dict()


# ---------------------------------------------------------------------------
# epochs, truths, collector
# ---------------------------------------------------------------------------

class TestEpochs:
    def test_packet_watermark_rotates(self, compiled):
        epoch_packets = compiled.num_packets // 4
        result = stream(scheme_factory("exact"), compiled, shards=2,
                        epoch_packets=epoch_packets, chunk_packets=512,
                        rng=0)
        assert result.epochs >= 2
        assert sum(s.packets for s in result.snapshots) == result.packets
        # every epoch but the last must have reached the watermark
        for snapshot in result.snapshots[:-1]:
            assert snapshot.packets >= epoch_packets

    def test_byte_watermark_rotates(self, compiled):
        total = int(compiled.volumes.sum())
        result = stream(scheme_factory("exact"), compiled,
                        epoch_bytes=total // 3, chunk_packets=512, rng=0)
        assert result.epochs >= 2
        assert sum(s.volume for s in result.snapshots) == result.volume

    def test_no_watermark_single_epoch(self, compiled):
        result = stream(scheme_factory("exact"), compiled, shards=4, rng=0)
        assert result.epochs == 1

    def test_truths_match_trace(self, trace, compiled):
        result = stream(scheme_factory("disco", b=B, seed=0), compiled,
                        shards=2, epoch_packets=compiled.num_packets // 3,
                        rng=1)
        assert result.truths() == trace.true_totals("volume")

    def test_snapshot_shards_are_key_disjoint(self, compiled):
        result = stream(scheme_factory("exact"), compiled, shards=4, rng=0)
        for snapshot in result.snapshots:
            keys = [set(est) for est in snapshot.shard_estimates]
            assert sum(len(k) for k in keys) == len(set().union(*keys))

    def test_collector_ingests_snapshots(self, compiled):
        result = stream(scheme_factory("exact"), compiled,
                        epoch_packets=compiled.num_packets // 3, rng=0)
        collector = result.collector()
        assert collector.intervals == result.epochs
        merged = result.estimates_dict()
        for key, value in merged.items():
            assert collector.flow_total(str(key)) == pytest.approx(value)
        with pytest.raises(ParameterError, match="epoch snapshot"):
            collector.interval_confidence(0, str(next(iter(merged))))

    def test_telemetry_counts_stream_events(self, compiled):
        tel = Telemetry()
        stream(scheme_factory("exact"), compiled, shards=2,
               epoch_packets=compiled.num_packets // 2, rng=0,
               telemetry=tel)
        snap = tel.snapshot()["counters"]
        assert snap["stream.packets"] == compiled.num_packets
        assert snap["stream.epochs"] >= 2
        assert snap["stream.shard_runs"] >= snap["stream.chunks"]


# ---------------------------------------------------------------------------
# checkpoint / restore
# ---------------------------------------------------------------------------

class TestCheckpointRestore:
    def _config(self, compiled, path):
        return dict(shards=2, epoch_packets=compiled.num_packets // 3,
                    chunk_packets=512, rng=17,
                    checkpoint_path=str(path))

    def test_resume_after_injected_crash_is_bit_identical(self, compiled,
                                                          tmp_path):
        factory = scheme_factory("disco", b=B, seed=0)
        baseline = stream(factory, compiled, shards=2,
                          epoch_packets=compiled.num_packets // 3,
                          chunk_packets=512, rng=17)

        path = tmp_path / "stream.ckpt"
        config = self._config(compiled, path)
        # the 4th checkpoint write dies between serialise and publish
        with pytest.raises(OSError):
            stream(factory, compiled,
                   faults="checkpoint.write:raise:after=3:times=1",
                   **config)
        assert path.exists(), "previous checkpoint must survive the crash"
        assert not path.with_suffix(".ckpt.tmp").exists()

        resumed = stream(factory, compiled, resume=True, **config)
        assert resumed.estimates_dict() == baseline.estimates_dict()
        assert [s.packets for s in resumed.snapshots] == \
            [s.packets for s in baseline.snapshots]
        assert resumed.packets == baseline.packets

    def test_restore_validates_format(self, tmp_path):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(ParameterError, match="not a stream checkpoint"):
            StreamSession.restore(str(bogus))

    def test_restore_refuses_version_1(self, tmp_path):
        # Version 1 carried keyed state (``KernelState.index`` plus
        # per-shard truth dicts); positional state cannot read it.
        old = tmp_path / "v1.ckpt"
        old.write_bytes(pickle.dumps({"magic": "repro-stream-checkpoint",
                                      "version": 1}))
        with pytest.raises(ParameterError,
                           match=r"checkpoint version 1 is not supported "
                                 r"\(expected 2\)"):
            StreamSession.restore(str(old))

    def test_resuming_finished_stream_is_noop(self, compiled, tmp_path):
        factory = scheme_factory("exact")
        config = self._config(compiled, tmp_path / "done.ckpt")
        done = stream(factory, compiled, **config)
        again = stream(factory, compiled, resume=True, **config)
        assert again.estimates_dict() == done.estimates_dict()
        assert again.epochs == done.epochs


# ---------------------------------------------------------------------------
# counter-store backends through the stream / checkpoint path
# ---------------------------------------------------------------------------

class TestCheckpointStoreBackends:
    """Every counter-store backend survives crash/resume bit-identically.

    The carried chunk state rides through the compact store twice per
    resume (checkpoint pickle out, ``load_state`` back in), so these
    are the round-trip tests that matter: pools must stay lossless and
    Morris must stay *deterministic* (content-seeded encode) across the
    interruption.
    """

    def _config(self, compiled, path, store):
        return dict(shards=2, epoch_packets=compiled.num_packets // 3,
                    chunk_packets=512, rng=17, store=store,
                    checkpoint_path=str(path))

    @pytest.mark.parametrize("store", ["dense", "pools", "morris"])
    def test_resume_is_bit_identical_per_store(self, compiled, tmp_path,
                                               store):
        factory = scheme_factory("disco", b=B, seed=0)
        baseline = stream(factory, compiled, shards=2,
                          epoch_packets=compiled.num_packets // 3,
                          chunk_packets=512, rng=17, store=store)

        path = tmp_path / f"stream-{store}.ckpt"
        config = self._config(compiled, path, store)
        # the 4th checkpoint write dies between serialise and publish
        with pytest.raises(OSError):
            stream(factory, compiled,
                   faults="checkpoint.write:raise:after=3:times=1",
                   **config)
        assert path.exists(), "previous checkpoint must survive the crash"

        resumed = stream(factory, compiled, resume=True, **config)
        assert resumed.estimates_dict() == baseline.estimates_dict()
        assert [s.packets for s in resumed.snapshots] == \
            [s.packets for s in baseline.snapshots]
        assert resumed.packets == baseline.packets

    def test_restored_session_keeps_store_choice(self, compiled, tmp_path):
        path = tmp_path / "pools.ckpt"
        config = self._config(compiled, path, "pools")
        factory = scheme_factory("disco", b=B, seed=0)
        with pytest.raises(OSError):
            stream(factory, compiled,
                   faults="checkpoint.write:raise:after=3:times=1",
                   **config)
        session = StreamSession.restore(str(path))
        assert session.store == "pools"

    def test_pools_stream_matches_dense_bitwise(self, compiled):
        # The pools encoding is lossless, so a streamed run staging its
        # carried state through it must equal the dense run exactly.
        factory = scheme_factory("disco", b=B, seed=0)
        kwargs = dict(shards=2, epoch_packets=compiled.num_packets // 3,
                      chunk_packets=512, rng=17)
        dense = stream(factory, compiled, store="dense", **kwargs)
        pools = stream(factory, compiled, store="pools", **kwargs)
        assert pools.estimates_dict() == dense.estimates_dict()


# ---------------------------------------------------------------------------
# snapshot merge guards
# ---------------------------------------------------------------------------

class TestSnapshotMergeGuards:
    """A collector must refuse to merge epochs from incomparable runs."""

    def _snapshots(self, compiled, factory, **kwargs):
        return stream(factory, compiled,
                      epoch_packets=compiled.num_packets // 3, rng=0,
                      **kwargs).snapshots

    def test_collector_rejects_scheme_mismatch(self, compiled):
        exact = self._snapshots(compiled, scheme_factory("exact"))
        disco = self._snapshots(compiled, scheme_factory("disco", b=B, seed=0))
        collector = Collector()
        collector.ingest_snapshot(exact[0])
        with pytest.raises(ParameterError, match="snapshot scheme mismatch"):
            collector.ingest_snapshot(disco[0])

    def test_collector_rejects_store_mismatch(self, compiled):
        factory = scheme_factory("disco", b=B, seed=0)
        dense = self._snapshots(compiled, factory, store="dense")
        pools = self._snapshots(compiled, factory, store="pools")
        collector = Collector()
        collector.ingest_snapshot(dense[0])
        with pytest.raises(ParameterError, match="snapshot store mismatch"):
            collector.ingest_snapshot(pools[0])

    def test_same_config_epochs_still_merge(self, compiled):
        snapshots = self._snapshots(compiled, scheme_factory("exact"))
        assert len(snapshots) >= 2
        collector = Collector()
        for snapshot in snapshots:
            collector.ingest_snapshot(snapshot)
        assert collector.intervals == len(snapshots)

    def test_snapshot_json_carries_store(self, compiled):
        snapshot = self._snapshots(compiled,
                                   scheme_factory("disco", b=B, seed=0),
                                   store="pools")[0]
        assert snapshot.store == "pools"
        assert snapshot.to_json()["store"] == "pools"


# ---------------------------------------------------------------------------
# validation-message parity
# ---------------------------------------------------------------------------

class TestValidationParity:
    """Every entrypoint funnels through ``repro.facade._validate``, so the
    same bad argument must raise the *identical* message everywhere —
    replay, stream, StreamSession and the serve daemon builder."""

    def _msg(self, fn):
        with pytest.raises(ParameterError) as excinfo:
            fn()
        return str(excinfo.value)

    def test_shards_message_identical(self, compiled):
        factory = scheme_factory("exact")
        messages = {
            self._msg(lambda: stream(factory, compiled, shards=0)),
            self._msg(lambda: StreamSession(factory, shards=0)),
            self._msg(lambda: build_daemon(factory, GeneratorFeed([]),
                                           shards=0)),
        }
        assert messages == {"shards must be >= 1, got 0"}

    def test_chunk_packets_message_identical(self, compiled):
        factory = scheme_factory("exact")
        messages = {
            self._msg(lambda: stream(factory, compiled, chunk_packets=0)),
            self._msg(lambda: StreamSession(factory, chunk_packets=0)),
        }
        assert messages == {"chunk_packets must be >= 1, got 0"}

    def test_stream_engine_message_identical(self, compiled):
        factory = scheme_factory("exact")
        messages = {
            self._msg(lambda: StreamSession(factory, engine="python")),
            self._msg(lambda: build_daemon(factory, GeneratorFeed([]),
                                           engine="python")),
        }
        assert messages == {
            "stream engine must be 'vector' or 'native', got 'python'"
        }

    def test_resume_message_identical(self, compiled):
        factory = scheme_factory("exact")
        messages = {
            self._msg(lambda: stream(factory, compiled, resume=True)),
            self._msg(lambda: build_daemon(factory, GeneratorFeed([]),
                                           resume=True)),
        }
        assert messages == {"resume=True needs checkpoint_path="}


# ---------------------------------------------------------------------------
# persistent lanes and touched-only replays
# ---------------------------------------------------------------------------

#: Every kernel, sized so its coupling machinery fires on the small feeds
#: below: SAC global renormalisation, SD flushes, ICE bucket up-scales,
#: DISCO/AEE saturation.
KERNELS = {
    "disco": dict(b=1.05, capacity_bits=7),
    "exact": {},
    "sac": dict(bits=8, mode_bits=3),
    "sd": dict(sram_bits=10, dram_access_ratio=4),
    "anls1": dict(b=1.02),
    "anls2": dict(b=1.02),
    "ice": dict(bits=6, bucket_flows=4),
    "aee": dict(p=0.3, bits=10),
}

#: The kernels whose update law never reads another lane.
LANE_LOCAL = {"disco", "exact", "anls1", "anls2", "aee"}


def _churn_chunks(seed, chunks, keys_per_chunk):
    """Churn-style chunks: about half the keys continue from earlier ones.

    Every fifth chunk repeats its first key once more, so the merge of a
    key listed twice in one chunk is covered too.
    """
    gen = np.random.default_rng(seed)
    seen, out = [], []
    for c in range(chunks):
        reused = min(len(seen), keys_per_chunk // 2)
        picks = gen.choice(len(seen), reused, replace=False) if reused else []
        keys = [seen[i] for i in picks]
        keys += [f"c{c}k{j}" for j in range(keys_per_chunk - reused)]
        seen += keys[reused:]
        if c % 5 == 4:
            keys.append(keys[0])
        arrays = [gen.integers(40, 1500, size=int(gen.geometric(0.25)))
                  .astype(np.float64) for _ in keys]
        out.append((keys, arrays))
    return out


def _by_key(carried, keys):
    """A reference carry ``(rows, state)`` regathered into ``keys`` order.

    Kernel state is positional; the reference keeps each state's keys
    itself and matches rows by key here, so it shares nothing with the
    session's lane bookkeeping.  Keys the state lacks get zero rows, as
    a fresh kernel's lanes.
    """
    if carried is None:
        return None
    rows, state = carried
    where = {key: row for row, key in enumerate(rows)}
    src = np.array([where.get(key, -1) for key in keys], dtype=np.int64)
    arrays = {}
    for name, col in state.dense_arrays().items():
        arrays[name] = np.zeros(len(keys), dtype=col.dtype)
        arrays[name][src >= 0] = col[src[src >= 0]]
    return KernelState(flows=len(keys), arrays=arrays, scalars=state.scalars,
                       replicas=state.replicas)


def _full_slice_reference(factory, chunks, *, shards, epoch_packets, rng,
                          engine, store):
    """The full-slice stream schedule the touched-only one must reproduce.

    Every chunk replays *every* key its shard has seen this epoch —
    untouched keys as zero-packet rows, rows sorted by descending chunk
    packets in first-seen order — and carries the whole shard through
    ``load_state``/``export_state``.  Returns one ``(shard estimates,
    truths, shard counter bits)`` triple per epoch.
    """
    spec = kernel_spec(factory())
    root = seed_streams(rng).root()
    epochs = []

    def rotate(states, truths):
        estimates, bits = [], []
        for carried in states:
            keys, state = carried if carried is not None else ([], None)
            kernel = spec.factory(len(keys), np.random.default_rng(0), 1)
            if keys:
                kernel.load_state(keys, state)
            estimates.append(dict(zip(keys, map(float, kernel.estimates()))))
            bits.append(int(kernel.counters().max(initial=0)).bit_length()
                        if keys else 0)
        merged = {k: v for shard in truths for k, v in shard.items()}
        epochs.append((estimates, merged, bits))

    seen = [dict() for _ in range(shards)]
    states, truths = [None] * shards, [dict() for _ in range(shards)]
    epoch = chunk_no = packets = 0
    for keys, arrays in chunks:
        per_shard = {}
        for key, lens in zip(keys, arrays):
            shard = stable_hash(key) % shards
            flows = per_shard.setdefault(shard, {})
            flows[key] = (np.concatenate([flows[key], lens]) if key in flows
                          else lens)
            seen[shard].setdefault(key)
            amount = lens.size if spec.mode == "size" else int(round(
                float(lens.sum())))
            truths[shard][key] = truths[shard].get(key, 0) + amount
            packets += lens.size
        for shard in sorted(per_shard):
            flows = per_shard[shard]
            keys_s = list(seen[shard])
            raw = np.array([flows[k].size if k in flows else 0
                            for k in keys_s], dtype=np.int64)
            order = np.argsort(-raw, kind="stable")
            rows = [keys_s[i] for i in order]
            offsets = np.concatenate([[0], np.cumsum(raw[order])])
            lengths = np.concatenate([flows.get(k, np.zeros(0))
                                      for k in rows])
            trace = CompiledTrace("ref", rows, lengths, offsets, raw[order],
                                  np.zeros(len(rows), dtype=np.int64))
            seed = np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=tuple(root.spawn_key) + (epoch, shard, chunk_no))
            result = run_kernel(trace, spec.factory, mode=spec.mode, rng=seed,
                                resume=_by_key(states[shard], rows),
                                engine=engine)
            states[shard] = (rows,
                             result.kernel.export_state(rows, store=store))
        chunk_no += 1
        if packets >= epoch_packets:
            rotate(states, truths)
            seen = [dict() for _ in range(shards)]
            states, truths = [None] * shards, [dict() for _ in range(shards)]
            epoch, chunk_no, packets = epoch + 1, 0, 0
    if packets:
        rotate(states, truths)
    return epochs


def _layouts(count, seed):
    gen = np.random.default_rng(seed)
    for _ in range(count):
        chunk_keys = int(gen.integers(20, 120))
        yield (int(gen.integers(1, 5)), chunk_keys,
               chunk_keys * int(gen.integers(8, 20)))


class TestTouchedOnlyEquivalence:
    """Persistent lanes + touched-only replays == the full-slice schedule.

    Bit-identical per-epoch estimates, truths and counter widths for every
    kernel, engine and counter store, over seeded random (shards, chunk,
    epoch) layouts with a checkpoint/restore at a random chunk.  A kernel
    marked ``lane_local`` must pass this to keep the mark.
    """

    @pytest.mark.parametrize("store", ["dense", "pools", "morris"])
    @pytest.mark.parametrize("engine", ["vector", "native"])
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_matches_full_slice_reference(self, tmp_path, name, engine,
                                          store):
        factory = scheme_factory(name, seed=0, **KERNELS[name])
        for case, (shards, chunk_keys, epoch_packets) in enumerate(
                _layouts(2, seed=len(name))):
            chunks = _churn_chunks(case, 14, chunk_keys)
            config = dict(shards=shards, epoch_packets=epoch_packets,
                          rng=case + 3, engine=engine, store=store)
            expected = _full_slice_reference(factory, chunks, **config)

            path = str(tmp_path / f"{case}.ckpt")
            session = StreamSession(factory, checkpoint_path=path,
                                    checkpoint_every=len(chunks) + 1,
                                    **config)
            crash = 1 + case * 5
            for i, (keys, arrays) in enumerate(chunks):
                if i == crash:
                    session.checkpoint()
                    session = StreamSession.restore(path)
                session.ingest_chunk(keys, arrays)
            got = [(list(s.shard_estimates), s.truths,
                    list(s.shard_counter_bits))
                   for s in session.finish().snapshots]
            assert len(got) >= 2
            assert got == expected, (name, engine, store, case)


class TestTouchedOnlyRows:
    """Each replay's row count is the chunk's, not the epoch's."""

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_rows_per_replay(self, monkeypatch, name):
        factory = scheme_factory(name, seed=0, **KERNELS[name])
        probe = kernel_spec(factory()).factory(1, np.random.default_rng(0), 1)
        assert probe.lane_local == (name in LANE_LOCAL)

        calls = []
        real = streaming.run_kernel

        def spy(trace, *args, **kwargs):
            calls.append(trace.keys)
            return real(trace, *args, **kwargs)

        monkeypatch.setattr(streaming, "run_kernel", spy)
        shards = 2
        session = StreamSession(factory, shards=shards, rng=1)
        epoch_keys = [set() for _ in range(shards)]
        for keys, arrays in _churn_chunks(5, 80, 24):
            touched = [set() for _ in range(shards)]
            for key in keys:
                touched[stable_hash(key) % shards].add(key)
                epoch_keys[stable_hash(key) % shards].add(key)
            first = len(calls)
            session.ingest_chunk(keys, arrays)
            # Replays are keyed by lane, one per touched shard in shard
            # order; the shard's lane table names each lane's key.
            hit = [shard for shard in range(shards) if touched[shard]]
            covered = [set(map(session._lane_keys[shard].__getitem__,
                               rows.tolist()))
                       for shard, rows in zip(hit, calls[first:])]
            assert all(len(rows) == len(set(rows.tolist()))
                       for rows in calls[first:])
            assert covered == [
                set(t) if probe.lane_local else set(e)
                for t, e in zip(touched, epoch_keys) if t]
        assert session.finish().epochs == 1
        widest = max(len(rows) for rows in calls)
        total = sum(len(e) for e in epoch_keys)
        if probe.lane_local:
            assert widest <= 24 and total > 30 * widest
        else:
            assert widest > total // 4


class TestShardMemoBounded:
    """The key -> id table holds one epoch's keys, not the process's."""

    def test_memo_reset_each_rotation(self):
        session = StreamSession(scheme_factory("exact"), shards=3,
                                epoch_packets=400, rng=1)
        rotations = 0
        for keys, arrays in _churn_chunks(7, 60, 32):
            before = session.epoch_index
            session.ingest_chunk(keys, arrays)
            rotations += session.epoch_index - before
            open_keys = set().union(*session._lane_keys)
            assert set(session._ids) <= open_keys
            for key, key_id in session._ids.items():
                shard = int(session._id_shard[key_id])
                assert shard == stable_hash(key) % 3
                lane = int(session._id_lane[key_id])
                assert session._lane_keys[shard][lane] == key
            assert [state.flows for state in session._state] == [
                len(keys) for keys in session._lane_keys]
        assert rotations >= 10
        session.rotate()
        assert session._ids == {}
        assert session._id_shard.size == session._id_lane.size == 0
        assert session._lane_keys == [[], [], []]


# ---------------------------------------------------------------------------
# columnar routing: shard placement and whole-chunk commits
# ---------------------------------------------------------------------------

class TestShardPlacement:
    """Every key lands in shard ``stable_hash(key) % shards``, fast path
    (plain int64 ints) or not."""

    @pytest.mark.parametrize("keys", [
        [0, 1, -1, 127, 128, -129, 2**31, -2**31, 2**62, 2**63 - 1,
         -2**63] + list(range(1000, 1040)),
        [True, False, 2, 3],
        [2**63, 2**64 + 5, -2**63 - 1, 7],
        [1, "1", 2, "two", 3, b"3"],
        [("a", 1), ("b", 2), (1, (2, 3)), 4],
        [FiveTuple(f"10.0.0.{i}", "10.0.0.99", 1000 + i, 443, 6)
         for i in range(12)],
    ], ids=["int64", "bool", "wide-int", "int-str", "tuple", "fivetuple"])
    @pytest.mark.parametrize("shards", [3, 7])
    def test_key_lands_in_its_hash_shard(self, keys, shards):
        session = StreamSession(scheme_factory("exact"), shards=shards, rng=1)
        # Half the keys first, then all of them: new keys arrive beside
        # keys the epoch already holds.
        for chunk in (keys[::2], keys):
            session.ingest_chunk(chunk, [np.full(2, 100.0) for _ in chunk])
        snap = session.finish().snapshots[0]
        for key in keys:
            shard = stable_hash(key) % shards
            assert key in snap.shard_estimates[shard], key
        assert snap.truths == {key: (400 if i % 2 == 0 else 200)
                               for i, key in enumerate(keys)}


def _observable(session, path):
    """What a session exposes: counts, checkpoint payload, final result."""
    session.checkpoint()
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    payload.pop("elapsed_seconds")
    result = session.finish()
    summary = result.to_json()
    summary.pop("elapsed_seconds")
    return (session.packets_consumed, session.volume_consumed,
            pickle.dumps(payload), summary, result.snapshots,
            result.truths())


class TestWholeChunkCommit:
    """A chunk that fails leaves the session as if it never arrived."""

    KEYS = list(range(10))

    def _chunk(self):
        return self.KEYS, [np.array([100.0, 200.0]) for _ in self.KEYS]

    def _session(self, path, name="exact"):
        return StreamSession(scheme_factory(name, **KERNELS[name]),
                             shards=2, rng=5,
                             checkpoint_path=str(path), checkpoint_every=99)

    def _clean(self, tmp_path, name="exact"):
        path = tmp_path / "clean.ckpt"
        session = self._session(path, name)
        session.ingest_chunk(*self._chunk())
        session.ingest_chunk(*self._chunk())
        return _observable(session, path)

    def test_shard_fault_commits_nothing(self, tmp_path):
        assert len({stable_hash(k) % 2 for k in self.KEYS}) == 2
        path = tmp_path / "faulted.ckpt"
        session = self._session(path)
        session.ingest_chunk(*self._chunk())
        faults_mod.arm(faults_mod.FaultPlan.parse("shard.run:raise:unit=1"))
        with pytest.raises(OSError):
            session.ingest_chunk(*self._chunk())
        faults_mod.disarm()
        session.ingest_chunk(*self._chunk())
        got = _observable(session, path)
        assert got == self._clean(tmp_path)
        assert got[:2] == (40, 6000)
        assert sum(got[5].values()) == 6000

    @pytest.mark.parametrize("bad", [0.0, -5.0, np.nan, np.inf])
    @pytest.mark.parametrize("name", ["exact", "disco"])
    def test_bad_lengths_rejected_before_any_change(self, tmp_path, bad,
                                                    name):
        path = tmp_path / "bad.ckpt"
        session = self._session(path, name)
        session.ingest_chunk(*self._chunk())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="finite and > 0"):
                session.ingest_chunk([1, 2], [[bad, 100.0], [100.0]])
        session.ingest_chunk(*self._chunk())
        assert _observable(session, path) == self._clean(tmp_path, name)


class TestStageTimers:
    def test_each_stage_timed_once_per_chunk(self, compiled):
        tel = Telemetry()
        result = stream(scheme_factory("disco", b=B), compiled, shards=2,
                        epoch_packets=compiled.num_packets // 2,
                        chunk_packets=1024, rng=0, telemetry=tel)
        snap = result.telemetry
        chunks = snap["counters"]["stream.chunks"]
        assert chunks >= 4
        stages = [snap["timers"][f"stream.stage.{stage}"]
                  for stage in ("route", "gather", "kernel", "scatter")]
        assert all(entry["count"] == chunks for entry in stages)
        assert all(entry["seconds"] >= 0 for entry in stages)
        assert sum(entry["seconds"] for entry in stages) \
            <= result.elapsed_seconds

    def test_rotations_and_checkpoints_timed(self, compiled, tmp_path):
        chunk = 512
        session = StreamSession(
            scheme_factory("disco", b=B), shards=2,
            epoch_packets=compiled.num_packets // 3, chunk_packets=chunk,
            rng=0, telemetry=Telemetry(),
            checkpoint_path=str(tmp_path / "s.ckpt"), checkpoint_every=2)
        session.consume(compiled)
        # Only the rotations and checkpoints a chunk triggers are timed,
        # not the ones finish() adds.
        rotations = len(session.snapshots)
        chunks = -(-compiled.num_packets // chunk)
        result = session.finish()
        snap = result.telemetry
        assert rotations >= 2 and chunks >= 4
        timers = snap["timers"]
        assert timers["stream.stage.rotate"]["count"] == rotations
        assert timers["stream.stage.checkpoint"]["count"] == chunks // 2
        assert snap["counters"]["stream.checkpoints"] == chunks // 2 + 1
        # A rotation is booked into the epoch it opened.
        assert "stream.stage.rotate" not in \
            result.snapshots[0].telemetry["timers"]
        assert result.snapshots[1].telemetry["timers"][
            "stream.stage.rotate"]["count"] == 1
        stages = ("route", "gather", "kernel", "scatter", "rotate",
                  "checkpoint")
        assert sum(timers[f"stream.stage.{stage}"]["seconds"]
                   for stage in stages) <= result.elapsed_seconds


class TestOneSchemePerSession:
    def test_factory_called_once(self, trace, compiled):
        calls = []

        def factory():  # a closure: unpicklable, so never shipped anywhere
            calls.append(1)
            return make_scheme("disco", b=B)

        session = StreamSession(
            factory, shards=3, chunk_packets=-(-compiled.num_packets // 5),
            rng=0, telemetry=Telemetry())
        # Shuffled packets: every chunk touches every shard.
        session.extend(trace.packet_pairs(order="shuffled", rng=1))
        counters = session.finish().telemetry["counters"]
        assert counters["stream.chunks"] == 5
        assert counters["stream.shard_runs"] == 15
        assert len(calls) == 1
