"""Tests for the struct-of-arrays compiled trace form."""

import pickle

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.traces.compiled import (
    CompiledTrace,
    clear_compile_cache,
    compile_trace,
)
from repro.traces.nlanr import nlanr_like
from repro.traces.trace import Trace


def sample_trace():
    return Trace(
        {"a": [100, 200], "b": [50], "c": [10, 20, 30], "d": [7, 7]},
        name="sample",
    )


class TestStructure:
    def test_flows_sorted_by_descending_packet_count(self):
        compiled = compile_trace(sample_trace())
        assert compiled.keys[0] == "c"
        assert list(compiled.sizes) == [3, 2, 2, 1]

    def test_stable_order_for_ties(self):
        # "a" and "d" both have 2 packets; trace insertion order wins.
        compiled = compile_trace(sample_trace())
        assert compiled.keys == ["c", "a", "d", "b"]

    def test_csr_offsets_partition_lengths(self):
        compiled = compile_trace(sample_trace())
        assert list(compiled.offsets) == [0, 3, 5, 7, 8]
        assert compiled.lengths.dtype == np.float64
        np.testing.assert_array_equal(
            compiled.lengths, [10, 20, 30, 100, 200, 7, 7, 50]
        )

    def test_per_flow_packet_order_preserved(self):
        compiled = compile_trace(Trace({"f": [3, 1, 2]}))
        np.testing.assert_array_equal(compiled.lengths, [3.0, 1.0, 2.0])

    def test_volumes_and_counts(self):
        trace = sample_trace()
        compiled = compile_trace(trace)
        assert compiled.num_flows == 4
        assert compiled.num_packets == trace.num_packets == 8
        assert len(compiled) == 4
        assert compiled.max_flow_packets == 3
        assert dict(zip(compiled.keys, compiled.volumes.tolist())) == {
            "a": 300, "b": 50, "c": 60, "d": 14,
        }

    def test_empty_trace(self):
        compiled = compile_trace(Trace({}))
        assert compiled.num_flows == 0
        assert compiled.num_packets == 0
        assert compiled.max_flow_packets == 0
        assert compiled.true_totals("volume") == {}

    def test_rejects_nonpositive_lengths(self):
        with pytest.raises(ParameterError):
            compile_trace(Trace({"f": [100, 0]}))

    def test_repr(self):
        assert "flows=4" in repr(compile_trace(sample_trace()))


class TestTruth:
    def test_true_totals_match_trace(self):
        trace = nlanr_like(num_flows=30, mean_flow_bytes=3_000, rng=1)
        compiled = compile_trace(trace)
        for mode in ("size", "volume"):
            assert compiled.true_totals(mode) == trace.true_totals(mode)

    def test_true_totals_array_aligned_with_keys(self):
        compiled = compile_trace(sample_trace())
        sizes = compiled.true_totals_array("size")
        volumes = compiled.true_totals_array("volume")
        for i, key in enumerate(compiled.keys):
            assert sizes[i] == len(sample_trace().flows[key])
            assert volumes[i] == sum(sample_trace().flows[key])

    def test_bad_mode(self):
        with pytest.raises(ParameterError):
            compile_trace(sample_trace()).true_totals_array("bytes")


class TestPacketPairs:
    def test_asis_streams_compiled_order(self):
        compiled = compile_trace(sample_trace())
        pairs = list(compiled.packet_pairs("asis"))
        assert pairs == [("c", 10), ("c", 20), ("c", 30), ("a", 100),
                         ("a", 200), ("d", 7), ("d", 7), ("b", 50)]
        assert pairs == list(compiled.packet_pairs("sequential"))

    def test_shuffled_is_permutation_and_seeded(self):
        compiled = compile_trace(sample_trace())
        a = list(compiled.packet_pairs("shuffled", rng=3))
        b = list(compiled.packet_pairs("shuffled", rng=3))
        assert a == b
        assert sorted(map(repr, a)) == sorted(
            map(repr, compiled.packet_pairs("asis"))
        )

    def test_roundrobin_interleaves_active_flows(self):
        compiled = compile_trace(Trace({"x": [1, 2, 3], "y": [4]}))
        assert list(compiled.packet_pairs("roundrobin")) == [
            ("x", 1), ("y", 4), ("x", 2), ("x", 3),
        ]

    def test_bad_order(self):
        with pytest.raises(ParameterError):
            list(compile_trace(sample_trace()).packet_pairs("zigzag"))

    def test_matches_trace_packet_multiset(self):
        trace = nlanr_like(num_flows=20, mean_flow_bytes=2_000, rng=2)
        compiled = compile_trace(trace)
        assert sorted(map(repr, compiled.packet_pairs("asis"))) == sorted(
            map(repr, trace.packet_pairs(order="sequential"))
        )


class TestActivePrefix:
    def test_counts_flows_strictly_larger_than_column(self):
        compiled = compile_trace(sample_trace())  # sizes 3, 2, 2, 1
        assert compiled.active_prefix(0) == 4
        assert compiled.active_prefix(1) == 3
        assert compiled.active_prefix(2) == 1
        assert compiled.active_prefix(3) == 0


class TestCacheAndPickle:
    def test_cache_returns_same_object(self):
        trace = sample_trace()
        assert compile_trace(trace) is compile_trace(trace)

    def test_clear_compile_cache(self):
        trace = sample_trace()
        first = compile_trace(trace)
        clear_compile_cache()
        assert compile_trace(trace) is not first

    def test_trace_is_immutable(self):
        trace = sample_trace()
        with pytest.raises(TypeError):
            trace.flows["e"] = [1]
        assert all(isinstance(v, tuple) for v in trace.flows.values())
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.name == trace.name
        assert dict(clone.flows) == dict(trace.flows)

    def test_replay_compiles_each_trace_once(self, monkeypatch):
        from repro.core.disco import DiscoSketch
        from repro.facade import replay

        compiles = []
        original = CompiledTrace.from_trace.__func__

        def spy(cls, trace):
            compiles.append(trace)
            return original(cls, trace)

        monkeypatch.setattr(CompiledTrace, "from_trace", classmethod(spy))
        trace = sample_trace()
        for seed in range(3):
            replay(DiscoSketch(b=1.05, rng=seed), trace, engine="vector")
        assert compiles == [trace]
        clear_compile_cache()
        replay(DiscoSketch(b=1.05, rng=0), trace, engine="vector")
        assert compiles == [trace, trace]

    def test_name_reuse_with_different_content_recompiles(self):
        # Regression: a derived trace reusing a source's *name* must
        # never be served the source's arrays.
        a = Trace({"x": [10, 20]}, name="same-name")
        b = Trace({"y": [5]}, name="same-name")
        ca, cb = compile_trace(a), compile_trace(b)
        assert ca is not cb
        assert ca.keys == ["x"] and cb.keys == ["y"]

    def test_chunk_only_workload_rejected_with_hint(self):
        from repro.traces.toolkit import big_trace

        with pytest.raises(ParameterError, match="streaming-only"):
            compile_trace(big_trace(num_flows=64, segment_flows=32))

    def test_compiled_passthrough(self):
        compiled = compile_trace(sample_trace())
        assert compile_trace(compiled) is compiled

    def test_pickle_roundtrip(self):
        compiled = compile_trace(sample_trace())
        clone = pickle.loads(pickle.dumps(compiled))
        assert isinstance(clone, CompiledTrace)
        assert clone.keys == compiled.keys
        np.testing.assert_array_equal(clone.lengths, compiled.lengths)
        np.testing.assert_array_equal(clone.offsets, compiled.offsets)
        assert clone.name == "sample"

    def test_to_trace_roundtrip(self):
        trace = sample_trace()
        rebuilt = compile_trace(trace).to_trace()
        assert rebuilt.flows == {k: trace.flows[k] for k in rebuilt.flows}
        assert rebuilt.num_packets == trace.num_packets

    def test_nbytes_positive(self):
        assert compile_trace(sample_trace()).nbytes() > 0
