"""Tests for error-aware change detection."""

import random

import pytest

from repro.apps.anomaly import ChangeDetector
from repro.errors import ParameterError
from repro.schemes import scheme_factory
from repro.streaming import StreamSession


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ChangeDetector(b=1.01, min_change=-1)


class TestCompare:
    def test_no_change_no_alarm(self):
        detector = ChangeDetector(b=1.01)
        epoch = {"a": 1000.0, "b": 50_000.0}
        assert detector.compare(epoch, dict(epoch)) == []

    def test_large_change_detected(self):
        detector = ChangeDetector(b=1.01)
        changes = detector.compare({"a": 10_000.0}, {"a": 100_000.0})
        assert len(changes) == 1
        assert changes[0].direction == "up"
        assert changes[0].z_score > detector.z

    def test_noise_level_change_suppressed(self):
        # b=1.1 carries ~20% CoV: a 10% move is inside the noise.
        detector = ChangeDetector(b=1.1)
        changes = detector.compare({"a": 100_000.0}, {"a": 110_000.0})
        assert changes == []

    def test_births_and_deaths(self):
        detector = ChangeDetector(b=1.01)
        changes = detector.compare({"old": 50_000.0}, {"new": 80_000.0})
        flows = {c.flow: c.direction for c in changes}
        assert flows == {"old": "down", "new": "up"}

    def test_min_change_floor(self):
        detector = ChangeDetector(b=1.01, min_change=1_000_000.0)
        changes = detector.compare({"a": 10_000.0}, {"a": 100_000.0})
        assert changes == []

    def test_sorted_by_significance(self):
        detector = ChangeDetector(b=1.01)
        changes = detector.compare(
            {"big": 10_000.0, "huge": 10_000.0},
            {"big": 50_000.0, "huge": 500_000.0},
        )
        assert [c.flow for c in changes] == ["huge", "big"]


class TestEndToEnd:
    def test_detects_real_shift_ignores_noise(self):
        b = 1.01
        rand = random.Random(5)
        # Epoch 0: steady flows. Epoch 1: flow "surge" grows 10x.
        pairs = []
        for epoch in range(2):
            for _ in range(4000):
                flow = rand.randrange(8)
                if epoch == 1 and flow == 0:
                    pairs.append(("surge", 1500))
                else:
                    pairs.append((f"steady{flow}", rand.randint(200, 400)))
        session = StreamSession(scheme_factory("disco", b=b, mode="volume"),
                                shards=2, epoch_packets=4000,
                                chunk_packets=500, rng=5)
        session.extend(pairs)
        first, second = session.snapshots
        assert (first.packets, second.packets) == (4000, 4000)
        detector = ChangeDetector(b=b, level=0.99, min_change=5000.0)
        changes = detector.compare_records(first, second)
        flows = {c.flow for c in changes}
        # steady0's share of the packets goes to the surge in epoch 1, so
        # both are real changes.
        assert {"surge", "steady0"} <= flows
        # Steady flows (same rate both epochs) stay quiet.
        assert len(flows - {"surge", "steady0"}) <= 1
