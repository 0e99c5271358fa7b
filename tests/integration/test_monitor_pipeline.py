"""End-to-end integration: a full monitoring pipeline across subsystems.

Trace generation -> hardware-constrained DISCO sketch -> on-line heavy
hitters -> per-account billing with confidence bands -> epoch rotation
(:class:`~repro.streaming.StreamSession`).  Every subsystem is the real implementation; the assertions are the
operational guarantees a deployment would rely on.
"""

import pytest

from repro.apps.billing import UsageAccountant
from repro.apps.heavyhitters import HeavyHitterDetector, top_k
from repro.core.analysis import choose_b, cov_bound
from repro.core.confidence import confidence_interval
from repro.core.disco import DiscoSketch
from repro.counters.hardware import HardwareDiscoSketch
from repro.schemes import scheme_factory
from repro.streaming import StreamSession
from repro.traces.nlanr import nlanr_like


@pytest.fixture(scope="module")
def trace():
    return nlanr_like(num_flows=150, mean_flow_bytes=25_000,
                      max_flow_bytes=1_000_000, rng=77)


@pytest.fixture(scope="module")
def truths(trace):
    return trace.true_totals("volume")


class TestHardwareMonitor:
    def test_provisioned_table_accounts_every_flow(self, trace, truths):
        b = choose_b(12, max(truths.values()), slack=1.5)
        sketch = HardwareDiscoSketch(b=b, slots=512, counter_bits=12,
                                     max_probes=16, rng=1)
        for flow, length in trace.packet_pairs(rng=2):
            sketch.observe(flow, length)
        assert sketch.unaccounted_packets == 0
        assert len(sketch) == len(truths)
        # Per-flow error within the theory's envelope (plus tail slack).
        bound = cov_bound(b)
        errors = [
            abs(sketch.estimate(f) - n) / n for f, n in truths.items()
        ]
        assert sum(errors) / len(errors) < bound
        assert max(errors) < 6 * bound

    def test_confidence_intervals_cover_most_flows(self, trace, truths):
        b = choose_b(12, max(truths.values()), slack=1.5)
        sketch = DiscoSketch(b=b, mode="volume", rng=3)
        for flow, length in trace.packet_pairs(rng=4):
            sketch.observe(flow, length)
        covered = 0
        for flow, n in truths.items():
            ci = confidence_interval(b, sketch.counter_value(flow), level=0.95)
            if ci.contains(n):
                covered += 1
        assert covered / len(truths) > 0.85

    def test_under_provisioned_table_reports_its_losses(self, trace):
        sketch = HardwareDiscoSketch(b=1.01, slots=32, counter_bits=12,
                                     max_probes=4, rng=5)
        for flow, length in trace.packet_pairs(rng=6):
            sketch.observe(flow, length)
        # The device cannot hold 150 flows in 32 slots — and says so.
        assert sketch.unaccounted_packets > 0
        assert len(sketch) <= 32


class TestApplicationsOnOneSketch:
    def test_heavy_hitters_and_billing_agree(self, trace, truths):
        b = choose_b(12, max(truths.values()), slack=1.5)
        sketch = DiscoSketch(b=b, mode="volume", rng=7)
        threshold = sorted(truths.values())[-10]  # ~top-10 cutoff
        detector = HeavyHitterDetector(sketch, threshold=threshold)
        for flow, length in trace.packet_pairs(rng=8):
            detector.observe(flow, length)
        metrics = detector.evaluate(truths)
        assert metrics["recall"] > 0.85
        assert metrics["precision"] > 0.6

        # Top-k from the same sketch matches the true top-k substantially.
        true_top = {f for f, _ in
                    sorted(truths.items(), key=lambda kv: kv[1],
                           reverse=True)[:10]}
        est_top = {f for f, _ in top_k(sketch, 10)}
        assert len(true_top & est_top) >= 7

        # Billing the whole link lands on the true total.
        accountant = UsageAccountant(sketch, account_of=lambda f: f % 4)
        total = accountant.total_traffic()
        assert total.usage == pytest.approx(sum(truths.values()), rel=0.03)
        per_account = accountant.bill_all()
        assert sum(b_.usage for b_ in per_account) == pytest.approx(
            total.usage, rel=1e-9
        )

    def test_epoch_rotation_over_trace(self, trace):
        packets = list(trace.packet_pairs(rng=9))
        epoch = max(1, len(packets) // 4)
        session = StreamSession(
            scheme_factory("disco", b=1.01, mode="volume"),
            epoch_packets=epoch, chunk_packets=max(1, epoch // 8), rng=10)
        session.extend(packets)
        result = session.finish()
        assert result.epochs >= 4
        # Epoch totals sum to roughly the trace total.
        closed = sum(sum(snap.estimates_dict().values())
                     for snap in result.snapshots)
        truth_total = sum(trace.true_totals("volume").values())
        assert closed == pytest.approx(truth_total, rel=0.05)
