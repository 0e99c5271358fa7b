"""Tests for the unified replay facade (repro.replay) and its seeding.

The historical entrypoints (``repro.harness.runner.replay``,
``repro.core.batchreplay.replay_kernel`` / ``replay_batch``) are gone;
``repro.replay`` / ``run_kernel`` are the only ways in, and
``test_legacy_entrypoints_removed`` locks the removal.
"""

import random

import numpy as np
import pytest

from repro import (
    DiscoSketch,
    ReplayJob,
    Telemetry,
    replay,
    replay_parallel,
    replay_replicas,
    seed_streams,
)
from repro.errors import ParameterError
from repro.facade import ReplayStreams
from repro.traces.nlanr import nlanr_like

B = 1.05


@pytest.fixture(scope="module")
def trace():
    return nlanr_like(num_flows=60, mean_flow_bytes=20_000,
                      max_flow_bytes=200_000, rng=11)


def _sketch(seed=1):
    return DiscoSketch(b=B, mode="volume", rng=seed)


class TestDeterminism:
    @pytest.mark.parametrize("engine", ["python", "vector", "auto"])
    def test_same_seed_same_estimates_every_engine(self, trace, engine):
        a = replay(_sketch(), trace, rng=9, engine=engine)
        b = replay(_sketch(), trace, rng=9, engine=engine)
        assert a.estimates == b.estimates
        assert a.engine == b.engine

    def test_vector_rng_now_drives_the_update_stream(self, trace):
        # The unification: rng= seeds the vector engine's update stream,
        # so different seeds give different draws even with identically
        # seeded schemes.
        a = replay(_sketch(), trace, rng=1, engine="vector")
        b = replay(_sketch(), trace, rng=2, engine="vector")
        assert a.estimates != b.estimates

    def test_vector_rng_none_uses_scheme_generator(self, trace):
        # Historical contract: a seeded scheme alone determines the run.
        a = replay(_sketch(seed=5), trace, engine="vector")
        b = replay(_sketch(seed=5), trace, engine="vector")
        assert a.estimates == b.estimates

    def test_seed_sequence_matches_int_seed(self, trace):
        a = replay(_sketch(), trace, rng=7, engine="vector")
        b = replay(_sketch(), trace, rng=np.random.SeedSequence(7),
                   engine="vector")
        assert a.estimates == b.estimates


class TestSeedStreams:
    def test_int_and_random_pass_through_to_shuffle(self):
        assert seed_streams(13).shuffle == 13
        rand = random.Random(3)
        assert seed_streams(rand).shuffle is rand
        assert seed_streams(None).shuffle is None

    def test_seed_sequence_shuffle_is_stable(self):
        seq = np.random.SeedSequence(5)
        s = seed_streams(seq)
        assert s.shuffle == s.shuffle  # generate_state consumes no state

    def test_update_matches_default_rng_for_int(self):
        a = seed_streams(5).update()
        b = np.random.default_rng(5)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_update_fallback_used_only_for_none(self):
        fallback = np.random.default_rng(1)
        gen = seed_streams(None).update(fallback)
        assert gen is fallback

    def test_rejects_unsupported_rng_type(self):
        with pytest.raises(ParameterError):
            seed_streams("seed")
        with pytest.raises(ParameterError):
            ReplayStreams("seed").shuffle  # noqa: B018 — property raises


class TestReplicas:
    def test_facade_replicas_matches_replay_replicas(self, trace):
        via_facade = replay(_sketch(), trace, rng=3, replicas=4)
        direct = replay_replicas(_sketch(), trace, 4, rng=3)
        assert len(via_facade) == len(direct) == 4
        for a, b in zip(via_facade, direct):
            assert a.estimates == b.estimates

    def test_replicas_validation(self, trace):
        with pytest.raises(ParameterError):
            replay(_sketch(), trace, replicas=0)
        with pytest.raises(ParameterError):
            replay(_sketch(), trace, replicas=2, engine="python")


class TestLegacyRemoval:
    def test_legacy_entrypoints_removed(self):
        from repro.core import batchreplay
        from repro.harness import runner

        with pytest.raises(AttributeError):
            runner.replay  # noqa: B018 — removed wrapper must not resolve
        with pytest.raises(AttributeError):
            batchreplay.replay_kernel  # noqa: B018
        with pytest.raises(AttributeError):
            batchreplay.replay_batch  # noqa: B018
        assert "replay" not in runner.__all__
        assert "replay_batch" not in batchreplay.__all__

    def test_harness_package_still_reexports_facade_replay(self):
        import repro.harness

        assert repro.harness.replay is replay


class TestTelemetryIntegration:
    def test_disabled_by_default_attaches_nothing(self, trace):
        result = replay(_sketch(), trace, rng=1)
        assert result.telemetry is None

    def test_session_records_and_result_carries_snapshot(self, trace):
        tel = Telemetry()
        result = replay(_sketch(), trace, rng=1, engine="python",
                        telemetry=tel)
        counters = tel.snapshot()["counters"]
        assert counters["replay.calls"] == 1
        assert counters["replay.engine.python"] == 1
        assert counters["replay.order.shuffled"] == 1
        assert result.telemetry["counters"] == counters
        assert "replay.update" in tel.snapshot()["timers"]

    def test_vector_session_sees_batch_events(self, trace):
        tel = Telemetry()
        replay(_sketch(), trace, rng=1, engine="vector", telemetry=tel)
        counters = tel.snapshot()["counters"]
        assert counters["replay.engine.vector"] == 1
        assert counters["batch.replays"] == 1
        assert (counters["batch.tail_packets"]
                + counters.get("batch.columns", 0) >= 1)

    def test_sessions_accumulate_across_calls(self, trace):
        tel = Telemetry()
        replay(_sketch(), trace, rng=1, telemetry=tel)
        replay(_sketch(), trace, rng=2, telemetry=tel)
        assert tel.snapshot()["counters"]["replay.calls"] == 2

    def test_replicas_counts_replica_axis(self, trace):
        tel = Telemetry()
        results = replay(_sketch(), trace, rng=1, replicas=3, telemetry=tel)
        counters = tel.snapshot()["counters"]
        assert counters["replay.replicas"] == 3
        assert counters["batch.replicas"] == 3
        # All replicas share the one per-call snapshot.
        assert all(r.telemetry["counters"] == counters for r in results)

    def test_global_registry_when_enabled(self, trace):
        from repro import obs

        registry = obs.get()
        was, counters_before = registry.enabled, dict(registry.counters)
        try:
            obs.enable()
            registry.clear()
            replay(_sketch(), trace, rng=1)
            assert registry.counters["replay.calls"] == 1
        finally:
            registry.enabled = was
            registry.clear()
            registry.counters.update(counters_before)

    def test_parallel_merges_worker_snapshots(self, trace):
        tel = Telemetry()
        jobs = [ReplayJob(_sketch, trace, rng=5),
                ReplayJob(_sketch, trace, rng=6, replicas=3)]
        results = replay_parallel(jobs, max_workers=1, telemetry=tel)
        assert len(results) == 4
        counters = tel.snapshot()["counters"]
        assert counters["parallel.jobs"] == 2
        assert counters["parallel.units"] == 2
        assert counters["parallel.replica_chunks"] == 1
        assert counters["replay.calls"] == 2
        assert counters["replay.replicas"] == 3

    def test_parallel_disabled_ships_no_snapshots(self, trace):
        results = replay_parallel([ReplayJob(_sketch, trace, rng=5)],
                                  max_workers=1)
        assert results[0].telemetry is None
