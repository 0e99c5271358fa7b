"""Counter-store backends: round-trips, footprints, and kernel staging.

Three claims per backend: the encoded representation round-trips through
``export_state``/``load_state`` bit-exactly (lossless *and* lossy —
Morris randomness happens at encode, stored levels are plain data); the
compact backends actually undercut the dense footprint on heavy-tailed
counter columns; and staging a kernel's carry-state through a store
(``SchemeKernel.export_state(store=...)`` → ``load_state``) preserves
estimates exactly for pools and within the Morris analytic error bound
for the lossy backend.
"""

import pickle

import numpy as np
import pytest

from repro.core.batchreplay import run_kernel
from repro.core.kernels import kernel_spec
from repro.core.stores import (
    DEFAULT_STORE,
    CounterStore,
    DenseStore,
    MorrisStore,
    PoolStore,
    _morris_base,
    make_store,
    resolve_store,
    store_from_state,
    store_names,
)
from repro.errors import ParameterError
from repro.facade import replay
from repro.schemes import make_scheme
from repro.traces.nlanr import nlanr_like

B = 1.02


@pytest.fixture(scope="module")
def trace():
    # fig05-style heavy-tailed mix: a few elephants, mouse-majority tail.
    return nlanr_like(num_flows=300, mean_flow_bytes=30_000,
                      max_flow_bytes=3_000_000, rng=20100621)


def heavy_tailed_column(n=5000, seed=7):
    gen = np.random.default_rng(seed)
    values = np.minimum(gen.pareto(1.2, n) * 50.0, 1e12).astype(np.int64)
    return values


# ---------------------------------------------------------------------------
# registry / validation
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_names_sorted(self):
        assert store_names() == ["dense", "morris", "pools"]

    def test_make_store_builds_each(self):
        for name in store_names():
            store = make_store(name)
            assert store.name == name
            assert store.columns() == []

    def test_make_store_unknown_rejected(self):
        with pytest.raises(ParameterError, match="unknown counter store"):
            make_store("zstd")

    def test_resolve_dense_means_no_store(self):
        assert resolve_store(None) is None
        assert resolve_store(DEFAULT_STORE) is None

    def test_resolve_compact_names(self):
        assert resolve_store("pools") == "pools"
        assert resolve_store("morris") == "morris"

    def test_resolve_rejects_unknown_and_non_string(self):
        with pytest.raises(ParameterError, match="unknown counter store"):
            resolve_store("bogus")
        with pytest.raises(ParameterError, match="must be a backend name"):
            resolve_store(42)

    def test_missing_column_named_in_error(self):
        store = make_store("pools")
        with pytest.raises(ParameterError, match="no column 'counters'"):
            store.read("counters")

    def test_pool_lanes_validated(self):
        with pytest.raises(ParameterError, match="pool_lanes"):
            PoolStore(pool_lanes=0)

    def test_morris_bits_validated(self):
        with pytest.raises(ParameterError, match="bits"):
            MorrisStore(bits=4)
        with pytest.raises(ParameterError, match="bits"):
            MorrisStore(bits=24)
        with pytest.raises(ParameterError, match="cap"):
            MorrisStore(cap=1)


# ---------------------------------------------------------------------------
# dense backend
# ---------------------------------------------------------------------------

class TestDenseStore:
    def test_round_trip_identity(self):
        store = DenseStore()
        values = heavy_tailed_column()
        store.write("counters", values)
        out = store.read("counters")
        assert np.array_equal(out, values)
        assert out.dtype == values.dtype

    def test_read_is_a_copy(self):
        store = DenseStore()
        store.write("c", np.arange(5))
        first = store.read("c")
        first[:] = -1
        assert np.array_equal(store.read("c"), np.arange(5))

    def test_nbytes_is_buffer_bytes(self):
        store = DenseStore()
        store.write("c", np.zeros(1000, dtype=np.int64))
        assert store.nbytes() == 8000


# ---------------------------------------------------------------------------
# pools backend
# ---------------------------------------------------------------------------

class TestPoolStore:
    def test_lossless_on_heavy_tail(self):
        store = PoolStore()
        values = heavy_tailed_column()
        store.write("counters", values)
        assert np.array_equal(store.read("counters"), values)
        assert store.lossless

    def test_compacts_mouse_majority(self):
        # Mouse-dominated column: most pools pack at one or two bytes
        # even with elephants scattered at random lanes...
        values = heavy_tailed_column()
        store = PoolStore()
        store.write("counters", values)
        assert store.nbytes() < 0.5 * values.nbytes
        # ...and once lanes are ordered by size — which is how kernel
        # columns arrive, the compiled driver sorts flows by descending
        # packet budget — the elephants cluster into a few wide pools.
        store.write("counters", np.sort(values)[::-1].copy())
        assert store.nbytes() < 0.25 * values.nbytes

    def test_signed_ladder_round_trip(self):
        values = heavy_tailed_column()
        values[::7] *= -1
        store = PoolStore()
        store.write("counters", values)
        assert np.array_equal(store.read("counters"), values)

    def test_all_widths_exercised(self):
        lanes = PoolStore().pool_lanes
        # One pool per ladder rung: 1, 2, 4 and 8 byte values.
        values = np.repeat(
            np.array([3, 1000, 100_000, 1 << 40], dtype=np.int64), lanes)
        store = PoolStore()
        store.write("counters", values)
        assert np.array_equal(store.read("counters"), values)
        widths = store._columns["counters"]["widths"]
        assert sorted(widths.tolist()) == [0, 1, 2, 3]

    def test_overflow_promotes_pool(self):
        store = PoolStore()
        values = np.full(store.pool_lanes, 10, dtype=np.int64)
        store.write("counters", values)
        assert store.promotions == 0
        values[0] = 100_000  # outgrows the 1-byte class
        store.write("counters", values)
        assert store.promotions == 1
        assert np.array_equal(store.read("counters"), values)

    def test_float_column_falls_back_dense(self):
        store = PoolStore()
        values = np.linspace(0.0, 1.0, 100)
        store.write("scale", values)
        assert np.array_equal(store.read("scale"), values)
        assert store._columns["scale"]["kind"] == "dense"

    def test_add_accumulates_repeated_rows(self):
        store = PoolStore()
        store.write("c", np.zeros(10, dtype=np.int64))
        store.add("c", np.array([1, 1, 3]), np.array([5, 5, 7]))
        out = store.read("c")
        assert out[1] == 10 and out[3] == 7 and out.sum() == 17

    def test_empty_column(self):
        store = PoolStore()
        store.write("c", np.zeros(0, dtype=np.int64))
        assert store.read("c").size == 0
        assert store.nbytes() == 0


# ---------------------------------------------------------------------------
# morris backend
# ---------------------------------------------------------------------------

class TestMorrisStore:
    def test_deterministic_encode(self):
        values = heavy_tailed_column()
        a = MorrisStore()
        b = MorrisStore()
        a.write("counters", values)
        b.write("counters", values)
        assert np.array_equal(a._columns["counters"]["levels"],
                              b._columns["counters"]["levels"])
        assert np.array_equal(a.read("counters"), b.read("counters"))

    def test_column_name_salts_the_seed(self):
        values = heavy_tailed_column()
        store = MorrisStore()
        store.write("one", values)
        store.write("two", values)
        assert not np.array_equal(store._columns["one"]["levels"],
                                  store._columns["two"]["levels"])

    @pytest.mark.parametrize("bits,tolerance", [(16, 5e-4), (8, 2e-2)])
    def test_unbiased_decode(self, bits, tolerance):
        # E[decode(encode(n))] = n: the mean over many lanes of the same
        # value lands within a few standard errors of the truth.
        n = 20_000
        store = MorrisStore(bits=bits)
        values = np.full(n, 123_457, dtype=np.int64)
        store.write("c", values)
        mean = store.read("c").astype(np.float64).mean()
        assert abs(mean - 123_457) / 123_457 < tolerance

    def test_per_encode_error_within_analytic_bound(self):
        # Relative error per round-trip ~ sqrt((a-1)/2).
        store = MorrisStore(bits=16)
        a = _morris_base(16, store.cap)
        sigma = np.sqrt((a - 1.0) / 2.0)
        values = heavy_tailed_column() + 1000  # keep values well off zero
        store.write("c", values)
        rel = np.abs(store.read("c") - values) / values
        assert rel.mean() < 3.0 * sigma

    def test_level_width_matches_bits(self):
        values = heavy_tailed_column(n=1000)
        wide = MorrisStore(bits=16)
        narrow = MorrisStore(bits=8)
        wide.write("c", values)
        narrow.write("c", values)
        assert wide.nbytes() == 2000
        assert narrow.nbytes() == 1000

    def test_negative_and_float_fall_back_dense(self):
        store = MorrisStore()
        negatives = np.array([-3, 5, 9], dtype=np.int64)
        store.write("n", negatives)
        assert np.array_equal(store.read("n"), negatives)
        floats = np.array([0.5, 2.5])
        store.write("f", floats)
        assert np.array_equal(store.read("f"), floats)

    def test_cap_clips_instead_of_overflowing(self):
        store = MorrisStore(bits=8, cap=10_000)
        values = np.array([10**9], dtype=np.int64)
        store.write("c", values)
        assert store.read("c")[0] <= 10_000


# ---------------------------------------------------------------------------
# random access: read_rows
# ---------------------------------------------------------------------------

class TestReadRows:
    """``read_rows(name, rows)`` equals ``read(name)[rows]`` bit for bit."""

    COLUMNS = {
        "heavy": heavy_tailed_column(),
        "signed": np.arange(-700, 700, 3, dtype=np.int64) * 1001,
        "uint": np.arange(300, dtype=np.uint32) * 7,
        "float": np.linspace(0.0, 9.5, 257),
        "empty": np.zeros(0, dtype=np.int64),
    }

    @pytest.mark.parametrize("column", sorted(COLUMNS))
    @pytest.mark.parametrize("name", ["dense", "pools", "morris"])
    def test_equals_full_read(self, name, column):
        values = self.COLUMNS[column]
        store = make_store(name)
        store.write("c", values)
        full = store.read("c")
        n = values.size
        gen = np.random.default_rng(n)
        picks = [np.zeros(0, dtype=np.int64)]
        if n:
            picks += [gen.integers(0, n, 40), np.array([0, n - 1, n // 2]),
                      np.array([-1, -n, 3 % n]), np.arange(n),
                      gen.integers(0, n, (3, 4))]
        for rows in picks:
            got = store.read_rows("c", rows)
            assert got.dtype == full.dtype
            assert np.array_equal(got, full[rows]), (name, column, rows)

    def test_pools_decodes_only_the_rows_pools(self, monkeypatch):
        store = PoolStore(pool_lanes=8)
        values = heavy_tailed_column(n=4000)
        store.write("c", values)
        monkeypatch.setattr(PoolStore, "read", None)  # never the whole column
        assert store.read_rows("c", np.array([3999, 5, 2048])).tolist() == \
            values[[3999, 5, 2048]].tolist()

    @pytest.mark.parametrize("name", ["dense", "pools", "morris"])
    def test_out_of_bounds_rows_raise(self, name):
        store = make_store(name)
        store.write("c", np.arange(10, dtype=np.int64))
        for rows in ([10], [-11]):
            with pytest.raises(IndexError):
                store.read_rows("c", np.array(rows))

    def test_default_reads_whole_column(self):
        class Plain(DenseStore):
            read_rows = CounterStore.read_rows

        store = Plain()
        store.write("c", np.arange(6, dtype=np.int64) * 3)
        assert store.read_rows("c", np.array([5, 0])).tolist() == [15, 0]


# ---------------------------------------------------------------------------
# export / load round-trips
# ---------------------------------------------------------------------------

class TestStateRoundTrip:
    @pytest.mark.parametrize("name", ["dense", "pools", "morris"])
    def test_export_load_is_bit_exact(self, name):
        store = make_store(name)
        store.write("counters", heavy_tailed_column())
        before = store.read("counters")
        payload = pickle.loads(pickle.dumps(store.export_state()))
        rebuilt = store_from_state(payload)
        assert rebuilt.name == name
        assert np.array_equal(rebuilt.read("counters"), before)
        assert rebuilt.nbytes() == store.nbytes()

    def test_params_survive_export(self):
        store = MorrisStore(bits=8, cap=10_000)
        store.write("c", np.arange(10, dtype=np.int64))
        rebuilt = store_from_state(store.export_state())
        assert rebuilt.bits == 8 and rebuilt.cap == 10_000

    def test_load_rejects_wrong_backend(self):
        pools = make_store("pools")
        pools.write("c", np.arange(4, dtype=np.int64))
        with pytest.raises(ParameterError, match="store export"):
            make_store("morris").load_state(pools.export_state())

    def test_store_from_state_rejects_garbage(self):
        with pytest.raises(ParameterError, match="store export payload"):
            store_from_state({"columns": {}})


# ---------------------------------------------------------------------------
# kernel staging + facade accuracy
# ---------------------------------------------------------------------------

class TestKernelStaging:
    def _disco_state(self, trace, store):
        spec = kernel_spec(make_scheme("disco", b=B, seed=0))
        result = run_kernel(trace, spec.factory, mode=spec.mode, rng=0)
        return result, result.kernel.export_state(result.compiled.keys,
                                                  store=store)

    def test_pools_state_smaller_and_lossless(self, trace):
        result, dense_state = self._disco_state(trace, None)
        _, pools_state = self._disco_state(trace, "pools")
        assert pools_state.store_name == "pools"
        assert pools_state.nbytes() < dense_state.nbytes()
        for name, arr in dense_state.dense_arrays().items():
            assert np.array_equal(pools_state.dense_arrays()[name], arr)

    def test_pools_replay_estimates_exact(self, trace):
        dense = replay(make_scheme("disco", b=B, seed=0), trace,
                       engine="vector", rng=1)
        pools = replay(make_scheme("disco", b=B, seed=0), trace,
                       engine="vector", rng=1, store="pools")
        assert pools.estimates_dict() == dense.estimates_dict()

    def test_morris_replay_within_analytic_bound(self, trace):
        # Distributional gate: the Morris round-trip quantizes the DISCO
        # counters, and d(estimate)/d(counter) = ln(b) * estimate, so a
        # counter off by +-1.5 levels moves the estimate by a few
        # percent at most.  Mean relative error across the fig05-style
        # trace must stay inside that envelope.
        dense = replay(make_scheme("disco", b=B, seed=0), trace,
                       engine="vector", rng=1)
        morris = replay(make_scheme("disco", b=B, seed=0), trace,
                        engine="vector", rng=1, store="morris")
        d = dense.estimates_dict()
        m = morris.estimates_dict()
        rel = np.array([abs(m[k] - d[k]) / max(d[k], 1.0) for k in d])
        assert rel.mean() < 0.05

    def test_compact_store_needs_columnar_engine(self, trace):
        with pytest.raises(ParameterError, match="columnar engine"):
            replay(make_scheme("disco", b=B, seed=0), trace,
                   engine="python", store="pools")

    def test_unknown_store_rejected_eagerly(self, trace):
        with pytest.raises(ParameterError, match="unknown counter store"):
            replay(make_scheme("disco", b=B, seed=0), trace, store="zip")
