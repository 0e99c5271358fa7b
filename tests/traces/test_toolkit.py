"""Tests for the workload toolkit: composition, stress generators, BigTrace."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.schemes import scheme_factory
from repro.traces import (
    Trace,
    adversarial_trace,
    big_trace,
    bursty_trace,
    churn_trace,
    merge_traces,
    renormalize,
)


class TestMergeTraces:
    def test_namespaced_ids_never_collide(self):
        a = Trace({"f": [10], "g": [20]}, name="a")
        b = Trace({"f": [30]}, name="b")
        merged = merge_traces([a, b])
        assert set(merged.flows) == {"0/f", "0/g", "1/f"}
        assert merged.flows["0/f"] == (10,)
        assert merged.flows["1/f"] == (30,)
        assert merged.name == "a+b"

    def test_self_merge_keeps_every_flow(self):
        t = churn_trace(epochs=2, flows_per_epoch=10, rng=1)
        merged = merge_traces([t, t, t])
        assert len(merged.flows) == 3 * len(t.flows)
        assert merged.num_packets == 3 * t.num_packets

    def test_unnamespaced_collision_raises(self):
        a = Trace({"f": [10]}, name="a")
        with pytest.raises(ParameterError, match="namespace=True"):
            merge_traces([a, a], namespace=False)

    def test_unnamespaced_disjoint_keys_verbatim(self):
        a = Trace({"x": [1]}, name="a")
        b = Trace({"y": [2]}, name="b")
        assert set(merge_traces([a, b], namespace=False).flows) == {"x", "y"}

    def test_empty_sequence_rejected(self):
        with pytest.raises(ParameterError):
            merge_traces([])


class TestRenormalize:
    def test_hits_target_packet_budget(self):
        trace = bursty_trace(num_flows=40, rng=2)
        scaled = renormalize(trace, target_pps=trace.num_packets * 3)
        # renormalize rounds per flow; allow a few percent of slack.
        assert scaled.num_packets == pytest.approx(
            3 * trace.num_packets, rel=0.05)
        assert len(scaled.flows) == len(trace.flows)
        assert "pps" in scaled.name

    def test_downscale_keeps_every_flow_alive(self):
        trace = churn_trace(epochs=2, flows_per_epoch=20, rng=3)
        scaled = renormalize(trace, target_pps=trace.num_packets / 10)
        assert len(scaled.flows) == len(trace.flows)
        assert all(lengths for lengths in scaled.flows.values())

    def test_bad_parameters(self):
        trace = Trace({"f": [10]})
        with pytest.raises(ParameterError):
            renormalize(trace, target_pps=0)
        with pytest.raises(ParameterError):
            renormalize(trace, target_pps=10, duration=0)


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("build", [
        lambda seed: churn_trace(epochs=3, flows_per_epoch=15, rng=seed),
        lambda seed: adversarial_trace(num_elephants=4, elephant_packets=16,
                                       num_mice=20, ramp_flows=5, rng=seed),
        lambda seed: bursty_trace(num_flows=25, rng=seed),
    ])
    def test_same_seed_bit_identical(self, build):
        assert build(11).flows == build(11).flows

    def test_different_seed_differs(self):
        assert churn_trace(rng=1).flows != churn_trace(rng=2).flows

    def test_churn_population_turns_over(self):
        trace = churn_trace(epochs=4, flows_per_epoch=6, lifetime=2, rng=4)
        assert len(trace.flows) == 24
        epochs = {key.split("/")[1] for key in trace.flows}
        assert epochs == {"e0", "e1", "e2", "e3"}

    def test_adversarial_ramp_crosses_counter_words(self):
        trace = adversarial_trace(num_elephants=0, num_mice=0, ramp_flows=10,
                                  ramp_start=4.0, ramp_factor=2.0, rng=0)
        sizes = sorted(len(v) for v in trace.flows.values())
        assert sizes == [4 * 2 ** k for k in range(10)]

    def test_bursty_flows_alternate_peak_and_idle(self):
        trace = bursty_trace(num_flows=5, peak_length=1500, idle_length=40,
                             rng=6)
        for lengths in trace.flows.values():
            assert set(lengths) <= {1500, 40}
            assert lengths[-1] == 40  # every burst train ends with the marker


class TestBigTrace:
    def test_same_seed_bit_identical_chunks(self):
        a = big_trace(num_flows=200, segment_flows=64, seed=9)
        b = big_trace(num_flows=200, segment_flows=64, seed=9)
        for ca, cb in zip(a.iter_chunks(500), b.iter_chunks(500)):
            assert ca.keys == cb.keys
            for la, lb in zip(ca.lengths, cb.lengths):
                np.testing.assert_array_equal(la, lb)

    def test_stream_independent_of_chunk_size(self):
        big = big_trace(num_flows=200, segment_flows=64, seed=9)
        flat = lambda chunks: np.concatenate(
            [np.asarray(l) for c in chunks for l in c.lengths])
        np.testing.assert_array_equal(flat(big.iter_chunks(333)),
                                      flat(big.iter_chunks(1000)))

    def test_flow_sizes_independent_of_segmentation(self):
        coarse = big_trace(num_flows=200, segment_flows=200, seed=9)
        fine = big_trace(num_flows=200, segment_flows=32, seed=9)
        assert coarse.true_totals("size") == fine.true_totals("size")
        assert coarse.num_packets == fine.num_packets

    def test_chunks_match_materialization_flow_for_flow(self):
        big = big_trace(num_flows=150, segment_flows=64, seed=3)
        materialized = big.materialize()
        accumulated = {}
        chunks = list(big.iter_chunks(777))
        for chunk in chunks:
            for key, lengths in zip(chunk.keys, chunk.lengths):
                accumulated.setdefault(key, []).extend(
                    int(l) for l in lengths)
        assert accumulated == {key: list(lengths) for key, lengths
                               in materialized.flows.items()}
        # Canonical boundaries: chunk k covers [k*777, ...).
        assert [c.start for c in chunks] == \
            [i * 777 for i in range(len(chunks))]
        assert sum(c.packets for c in chunks) == big.num_packets

    def test_resume_start_reproduces_suffix(self):
        big = big_trace(num_flows=150, segment_flows=64, seed=3)
        full = list(big.iter_chunks(400))
        resumed = list(big.iter_chunks(400, start=2 * 400))
        assert len(resumed) == len(full) - 2
        for got, ref in zip(resumed, full[2:]):
            assert got.index == ref.index and got.start == ref.start
            flat_got = np.concatenate([np.asarray(l) for l in got.lengths])
            flat_ref = np.concatenate([np.asarray(l) for l in ref.lengths])
            np.testing.assert_array_equal(flat_got, flat_ref)

    def test_true_totals_match_chunks(self):
        big = big_trace(num_flows=100, segment_flows=32, seed=5)
        volumes = {}
        sizes = {}
        for chunk in big.iter_chunks(256):
            for key, lengths in zip(chunk.keys, chunk.lengths):
                volumes[key] = volumes.get(key, 0) + int(np.sum(lengths))
                sizes[key] = sizes.get(key, 0) + len(lengths)
        assert volumes == big.true_totals("volume")
        assert sizes == big.true_totals("size")

    def test_materialize_refuses_big_instances(self):
        big = big_trace(num_flows=500, seed=1)
        with pytest.raises(ParameterError, match="streaming-only"):
            big.materialize(max_packets=100)

    def test_streamed_matches_one_shot_replay(self):
        """The tentpole invariant: big_trace through stream() equals a
        one-shot replay of the materialised chunks, flow for flow."""
        from repro.facade import replay, stream

        big = big_trace(num_flows=120, segment_flows=48, seed=7,
                        max_flow_packets=500)
        streamed = stream(scheme_factory("exact"), big, shards=2,
                          epoch_packets=big.num_packets // 3 or 1, rng=1)
        assert streamed.packets == big.num_packets
        assert streamed.trace_name == big.name

        one_shot = replay(scheme_factory("exact")(), big.materialize(),
                          rng=1, engine="vector")
        assert streamed.estimates_dict() == one_shot.estimates
        assert streamed.estimates_dict() == {
            k: float(v) for k, v in big.true_totals("volume").items()}
