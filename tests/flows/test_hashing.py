"""Tests for deterministic flow-key hashing."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.flows.hashing import (
    crc32_pair,
    encode_key,
    fnv1a64,
    fnv1a64_int64,
    stable_hash,
)
from repro.flows.packet import FiveTuple

SIMPLE_KEYS = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=30),
    st.binary(max_size=30),
    st.booleans(),
)
KEYS = st.one_of(SIMPLE_KEYS, st.tuples(SIMPLE_KEYS, SIMPLE_KEYS))


class TestEncodeKey:
    def test_type_prefixes_distinguish(self):
        # "1" (str) vs 1 (int) vs b"1" (bytes) must all encode differently.
        encodings = {encode_key("1"), encode_key(1), encode_key(b"1"),
                     encode_key(True)}
        assert len(encodings) == 4

    def test_tuple_structure_matters(self):
        assert encode_key(("a", "b")) != encode_key(("ab",))
        assert encode_key((1, (2, 3))) != encode_key((1, 2, 3))

    def test_five_tuple_supported(self):
        ft = FiveTuple("10.0.0.1", "10.0.0.2", 80, 443, 6)
        assert encode_key(ft) == encode_key(
            ("10.0.0.1", "10.0.0.2", 80, 443, 6)
        )

    def test_unsupported_type_rejected(self):
        with pytest.raises(ParameterError):
            encode_key(3.14)

    @given(a=KEYS, b=KEYS)
    @settings(max_examples=200)
    def test_injective_on_samples(self, a, b):
        if a != b:
            assert encode_key(a) != encode_key(b)


class TestHashes:
    def test_known_fnv_vector(self):
        # Standard FNV-1a test vector: empty input -> offset basis.
        assert fnv1a64(b"") == 0xCBF29CE484222325

    def test_64_bit_range(self):
        for key in ("x", 123, ("a", 5)):
            assert 0 <= stable_hash(key) < (1 << 64)
            assert 0 <= stable_hash(key, "crc") < (1 << 64)

    def test_algorithms_differ(self):
        assert stable_hash("flow", "fnv") != stable_hash("flow", "crc")

    def test_unknown_algorithm(self):
        with pytest.raises(ParameterError):
            stable_hash("x", "md5")

    def test_crc_pair_uses_both_words(self):
        value = crc32_pair(b"hello")
        assert value >> 32 != 0
        assert value & 0xFFFFFFFF != 0

    def test_stable_across_processes(self):
        # The whole point: Python's str hash is salted per process; ours
        # must not be.
        code = ("from repro.flows.hashing import stable_hash;"
                "print(stable_hash(('flow', 42, 'abc')))")
        outputs = {
            subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, check=True).stdout.strip()
            for _ in range(2)
        }
        assert len(outputs) == 1
        assert outputs.pop() == str(stable_hash(("flow", 42, "abc")))


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
#: Every encoded-width boundary an int64 can sit on, both signs.
EDGE_INTS = sorted({sign * (2**shift + delta)
                    for shift in range(63) for delta in (-1, 0, 1)
                    for sign in (1, -1)} | {INT64_MIN, INT64_MAX})


class TestVectorisedIntHash:
    """``fnv1a64_int64`` is ``stable_hash`` over int64, bit for bit."""

    def test_edge_values(self):
        got = fnv1a64_int64(np.array(EDGE_INTS, dtype=np.int64))
        assert got.dtype == np.uint64
        assert got.tolist() == [stable_hash(k) for k in EDGE_INTS]

    @given(st.lists(st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
                    max_size=64))
    @settings(max_examples=200)
    def test_matches_stable_hash(self, keys):
        got = fnv1a64_int64(np.array(keys, dtype=np.int64)).tolist()
        assert got == [stable_hash(k) for k in keys]

    def test_accepts_lists_and_empty(self):
        assert fnv1a64_int64([0, -1]).tolist() == [stable_hash(0),
                                                  stable_hash(-1)]
        assert fnv1a64_int64([]).size == 0


class TestFlowTableDeterminism:
    def test_same_placement_every_run(self):
        from repro.flows.flowtable import FlowTable

        def build():
            table = FlowTable(slots=8, max_probes=2)
            placed = [table.put(f"flow{i}", i) for i in range(30)]
            return placed

        assert build() == build()
