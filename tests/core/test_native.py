"""Tests for the compiled native backend (``repro.core.native``).

Four groups, mirroring the backend's contract:

* **Bit-identity** — kernels whose native path consumes the same
  pre-drawn uniform stream as the vector path (exact, ANLS, ANLS-I,
  AEE) must match ``engine="vector"`` bit for bit.
* **Distributional equivalence** — kernels whose native path draws a
  data-dependent number of uniforms (DISCO, SAC, ANLS-II, SD, ICE)
  follow the same law on a different stream; their error statistics
  must agree with the vector engine's.
* **Exact tables** — native DISCO's table-driven step must give the
  same counters and saturations as its direct (all-libm) step,
  reached through a zero-length table.
* **Fallback** — without the C provider (no C compiler, or
  ``REPRO_DISABLE_NATIVE=1``) the backend must warn once, run the
  vector path, and produce identical results; ``engine="auto"`` must
  prefer native only when the probe succeeded.

The whole file degrades gracefully: on a machine without a backend the
identity/distributional groups skip and the fallback group still runs
(``make test-nonative`` exercises exactly that configuration).
"""

import ctypes
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from repro import obs
from repro.core import native
from repro.core.batchreplay import run_kernel
from repro.core.kernels import DiscoKernel, kernel_spec
from repro.counters.anls import Anls, AnlsBytesNaive
from repro.counters.exact import ExactCounters
from repro.errors import ParameterError
from repro.facade import replay, stream
from repro.harness.runner import resolve_engine
from repro.schemes import make_scheme, scheme_factory
from repro.streaming import StreamSession
from repro.traces.compiled import compile_trace
from repro.traces.nlanr import nlanr_like

B = 1.02

needs_native = pytest.mark.skipif(
    not native.available(),
    reason="no native backend (no C compiler, or disabled)")


@pytest.fixture(scope="module")
def compiled():
    return compile_trace(nlanr_like(num_flows=250, mean_flow_bytes=30_000,
                                    max_flow_bytes=600_000, rng=8))


def both_engines(build, compiled, **kwargs):
    """Replay a freshly built scheme under vector and native."""
    rv = replay(build(), compiled, order="asis", engine="vector", **kwargs)
    rn = replay(build(), compiled, order="asis", engine="native", **kwargs)
    assert rv.engine == "vector" and rn.engine == "native"
    return rv, rn


def avg_error(result):
    return sum(result.errors) / len(result.errors)


# ---------------------------------------------------------------------------
# bit-identity: exact, ANLS, ANLS-I
# ---------------------------------------------------------------------------

@needs_native
class TestBitIdentity:
    @pytest.mark.parametrize("mode", ["size", "volume"])
    def test_exact(self, compiled, mode):
        rv, rn = both_engines(lambda: ExactCounters(mode=mode), compiled)
        assert rv.estimates == rn.estimates
        assert rv.summary.average == rn.summary.average == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_anls_size_counting(self, compiled, seed):
        rv, rn = both_engines(lambda: Anls(b=B, rng=seed), compiled)
        assert rv.estimates == rn.estimates

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_anls1_byte_counting(self, compiled, seed):
        rv, rn = both_engines(lambda: AnlsBytesNaive(b=B, rng=seed),
                              compiled)
        assert rv.estimates == rn.estimates

    def test_anls1_via_registry(self, compiled):
        rv, rn = both_engines(lambda: make_scheme("anls1", b=B, seed=5),
                              compiled)
        assert rv.estimates == rn.estimates

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_aee_byte_counting(self, compiled, seed):
        # Constant-p compare-add: the native columns consume the same
        # pre-drawn uniform stream lane for lane, and the tail reuses
        # the kernel's own vectorised tail — bit-identical end to end.
        rv, rn = both_engines(
            lambda: make_scheme("aee", p=0.3, seed=seed), compiled)
        assert rv.estimates == rn.estimates

    def test_aee_size_counting(self, compiled):
        rv, rn = both_engines(
            lambda: make_scheme("aee", p=0.25, mode="size", seed=1),
            compiled)
        assert rv.estimates == rn.estimates

    def test_aee_saturation_counts_match(self, compiled):
        # A clamping configuration: the saturation ledger is part of
        # the bit-identity contract, not just the estimates.
        sv = make_scheme("aee", p=0.5, bits=12, seed=2)
        sn = make_scheme("aee", p=0.5, bits=12, seed=2)
        replay(sv, compiled, order="asis", engine="vector")
        replay(sn, compiled, order="asis", engine="native")
        assert sn.saturation_events > 0
        assert sn.saturation_events == sv.saturation_events

    def test_replicas_reject_native(self, compiled):
        # The replica axis runs on the vector path; native is a
        # single-replay engine and must be rejected eagerly.
        with pytest.raises(ParameterError, match="replica"):
            replay(ExactCounters(mode="volume"), compiled, order="asis",
                   engine="native", replicas=4)


# ---------------------------------------------------------------------------
# distributional equivalence: DISCO, SAC, ANLS-II, SD
# ---------------------------------------------------------------------------

@needs_native
class TestDistributionalEquivalence:
    SEEDS = range(6)

    def _avg_errors(self, build, compiled):
        vec, nat = [], []
        for seed in self.SEEDS:
            rv, rn = both_engines(lambda: build(seed), compiled)
            vec.append(avg_error(rv))
            nat.append(avg_error(rn))
        return float(np.mean(vec)), float(np.mean(nat))

    def test_disco(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("disco", b=B, mode="volume", seed=s),
            compiled)
        # Same law: both averages sit around the b=1.02 error level and
        # agree to well within the Monte-Carlo noise of 6x250 flows.
        assert abs(v - n) < 0.02
        assert n < 0.2

    def test_anls2(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("anls2", b=B, seed=s), compiled)
        assert abs(v - n) < 0.02
        assert n < 0.3

    def test_sac(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("sac", bits=10, mode_bits=3, seed=s),
            compiled)
        assert abs(v - n) < 0.02

    def test_ice(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("ice", bits=10, seed=s), compiled)
        assert abs(v - n) < 0.02
        assert n < 0.2

    def test_ice_size_mode(self, compiled):
        v, n = self._avg_errors(
            lambda s: make_scheme("ice", bits=8, mode="size", seed=s),
            compiled)
        assert abs(v - n) < 0.02

    def test_ice_upscale_counts_same_order(self, compiled):
        # Upscales are data-driven, so the two engines need not agree
        # exactly — but both must see the same pressure regime.
        sv = make_scheme("ice", bits=8, seed=0)
        sn = make_scheme("ice", bits=8, seed=0)
        replay(sv, compiled, order="asis", engine="vector")
        replay(sn, compiled, order="asis", engine="native")
        assert sv.bucket_upscales > 0
        assert sn.bucket_upscales > 0
        assert 0.5 < sn.bucket_upscales / sv.bucket_upscales < 2.0

    def test_sd_exact_when_not_saturating(self, compiled):
        # SD with generous SRAM never loses traffic: both engines must
        # report every flow exactly (a deterministic, stronger check
        # than comparing error statistics).
        rv, rn = both_engines(
            lambda: make_scheme("sd", sram_bits=16, dram_access_ratio=12,
                                seed=0), compiled)
        assert rv.summary.average == 0.0
        assert rn.summary.average == 0.0
        assert rv.estimates == rn.estimates

    def test_sd_accounting_under_pressure(self, compiled):
        # Tight SRAM forces flush traffic; the native path must keep
        # the same books (flush counts are policy-deterministic, only
        # timing-independent totals are compared).
        sv = make_scheme("sd", sram_bits=8, dram_access_ratio=12, seed=0)
        sn = make_scheme("sd", sram_bits=8, dram_access_ratio=12, seed=0)
        replay(sv, compiled, order="asis", engine="vector")
        replay(sn, compiled, order="asis", engine="native")
        assert sn.flushes > 0
        assert sn.flushes == sv.flushes
        assert sn.bus_bits_transferred == sv.bus_bits_transferred


# ---------------------------------------------------------------------------
# DISCO's compiled tail (general + dwell regimes in one C call)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tail_heavy():
    # 60 flows stay below the 128-lane column floor from the first
    # packet, so every packet is a tail packet.
    return compile_trace(nlanr_like(num_flows=60, mean_flow_bytes=200_000,
                                    max_flow_bytes=2_000_000, rng=3))


def disco_kernel_run(compiled, engine, seed=0):
    spec = kernel_spec(make_scheme("disco", b=B))
    return run_kernel(compiled, spec.factory, mode=spec.mode, rng=seed,
                      engine=engine, telemetry=obs.Telemetry())


@needs_native
class TestDiscoNativeTail:
    @pytest.mark.parametrize("mode", ["volume", "size"])
    def test_errors_agree_with_vector(self, tail_heavy, mode):
        vec, nat = [], []
        for seed in range(8):
            rv, rn = both_engines(
                lambda: make_scheme("disco", b=B, mode=mode, seed=seed),
                tail_heavy)
            vec.append(avg_error(rv))
            nat.append(avg_error(rn))
        assert abs(np.mean(vec) - np.mean(nat)) < 0.02

    def test_saturation_agrees_with_vector(self, tail_heavy):
        sv = make_scheme("disco", b=B, seed=0, capacity_bits=8)
        sn = make_scheme("disco", b=B, seed=0, capacity_bits=8)
        replay(sv, tail_heavy, order="asis", engine="vector")
        replay(sn, tail_heavy, order="asis", engine="native")
        assert sn.max_counter_value() <= 255
        assert sv.saturation_events > 0
        assert abs(sn.saturation_events - sv.saturation_events) \
            < 0.05 * sv.saturation_events

    def test_no_python_tail(self, tail_heavy, monkeypatch):
        def boom(self, lane, lengths, count):
            raise AssertionError("native DISCO ran the Python tail")

        monkeypatch.setattr(DiscoKernel, "tail_flow", boom)
        result = replay(make_scheme("disco", b=B, seed=1), tail_heavy,
                        order="asis", engine="native")
        assert result.engine == "native"
        session = StreamSession(scheme_factory("disco", b=B, seed=1),
                                shards=2, chunk_packets=4096,
                                epoch_packets=tail_heavy.num_packets // 2,
                                rng=2, engine="native")
        session.consume(tail_heavy)
        assert session.finish().packets == tail_heavy.num_packets

    @pytest.mark.parametrize("fixture", ["tail_heavy", "compiled"])
    def test_geometry_matches_vector(self, request, fixture):
        trace = request.getfixturevalue(fixture)
        rv = disco_kernel_run(trace, "vector")
        rn = disco_kernel_run(trace, "native")
        assert rn.tail_packets == rv.tail_packets > 0
        assert rn.vector_steps == rv.vector_steps
        for name in ("batch.tail_flows", "batch.tail_packets"):
            assert rn.telemetry["counters"][name] \
                == rv.telemetry["counters"][name]

    def test_same_seed_same_estimates(self, tail_heavy):
        first = disco_kernel_run(tail_heavy, "native", seed=9)
        again = disco_kernel_run(tail_heavy, "native", seed=9)
        assert np.array_equal(first.counters, again.counters)
        assert np.array_equal(first.estimates, again.estimates)

    def test_tail_phase_is_timed(self, tail_heavy):
        result = disco_kernel_run(tail_heavy, "native")
        timers = result.telemetry["timers"]
        assert result.telemetry["counters"]["batch.native"] == 1
        assert timers["batch.tail_phase"]["seconds"] > 0
        total = (timers["batch.columnar_phase"]["seconds"]
                 + timers["batch.tail_phase"]["seconds"])
        assert total == pytest.approx(result.elapsed_seconds)


# ---------------------------------------------------------------------------
# DISCO's exact power tables vs the direct (all-libm) step
# ---------------------------------------------------------------------------

def disco_c(lengths, sizes, b, volume, tabn, carried=0, max_value=None,
            seed=0, t_end=None, u_scale=1.0):
    """Run ``repro_disco_columns`` then ``repro_disco_tail`` over one
    CSR batch (flows sorted by descending size; ``t_end`` columns, by
    default half, in the column phase) through ``tabn``-entry tables,
    on uniforms drawn from ``[0, u_scale)``.

    Returns ``(counters, saturation_events, fallbacks)``.
    """
    cc = native._cc
    ln_b = math.log(b)
    sizes = np.asarray(sizes, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    columns = int(sizes[0])
    actives = np.array([(sizes > t).sum() for t in range(columns)],
                       dtype=np.int64)
    if t_end is None:
        t_end = columns // 2
    tail_flows = int(actives[t_end]) if t_end < columns else 0
    tail_packets = int(sizes[:tail_flows].sum()) - tail_flows * t_end
    gen = np.random.default_rng(seed)
    u_cols = gen.random(int(actives[:t_end].sum())) * u_scale
    u_tail = gen.random(tail_packets) * u_scale
    counters = np.array(np.broadcast_to(carried, len(sizes)),
                        dtype=np.int64)
    events = np.zeros(2, dtype=np.int64)
    tables = native._build_disco_tables(cc, ln_b, tabn)
    law = (ctypes.c_double(-1.0 if max_value is None else max_value),
           *map(native._p, tables), ctypes.c_int64(tabn),
           native._p(counters), native._p(events[0:1]),
           native._p(events[1:2]))
    cc.repro_disco_columns(
        native._p(lengths), native._p(offsets), native._p(actives),
        ctypes.c_int64(t_end), ctypes.c_int64(1), ctypes.c_int64(volume),
        native._p(u_cols), ctypes.c_double(ln_b), ctypes.c_double(b - 1.0),
        *law)
    cc.repro_disco_tail(
        native._p(lengths), native._p(offsets), native._p(sizes),
        ctypes.c_int64(tail_flows), ctypes.c_int64(t_end), ctypes.c_int64(1),
        ctypes.c_int64(volume), native._p(u_tail), ctypes.c_double(b),
        ctypes.c_double(ln_b), *law)
    return counters, int(events[0]), int(events[1])


@pytest.fixture(scope="module")
def disco_batch():
    """Seeded CSR batch: 40 flows of 1..300 packets, 40..1500 bytes."""
    gen = np.random.default_rng(12)
    sizes = np.sort(gen.integers(1, 300, size=40))[::-1].copy()
    sizes[0] = 300
    lengths = gen.integers(40, 1501, size=int(sizes.sum())).astype(np.float64)
    return lengths, sizes


def table_len(b, v_max):
    return int(math.ceil(math.log1p((b - 1.0) * 2 * v_max)
                         / math.log(b))) + 2


@needs_native
class TestDiscoTables:
    """The table step is bit-identical to the direct step it replaces."""

    def assert_same(self, batch, b, volume, tabn, **kwargs):
        lengths, sizes = batch
        with_tab = disco_c(lengths, sizes, b, volume, tabn, **kwargs)
        direct = disco_c(lengths, sizes, b, volume, 0, **kwargs)
        assert np.array_equal(with_tab[0], direct[0])
        assert with_tab[1] == direct[1]
        assert direct[2] >= with_tab[2]
        return with_tab + (direct[2],)

    @pytest.mark.parametrize("b", [1.0005, 1.002, 1.02, 1.08])
    @pytest.mark.parametrize("volume", [1, 0])
    def test_equal_counters(self, disco_batch, b, volume):
        lengths, sizes = disco_batch
        v_max = lengths[:sizes[0]].sum() if volume else sizes[0]
        counters, _, fallbacks, _ = self.assert_same(
            disco_batch, b, volume, table_len(b, v_max), seed=volume)
        assert fallbacks == 0
        assert counters.max() > 0

    @pytest.mark.parametrize("volume", [1, 0])
    def test_capacity_saturates_identically(self, disco_batch, volume):
        max_value = 63 if volume else 7
        _, sat, _, _ = self.assert_same(disco_batch, 1.08, volume,
                                     max_value + 2, max_value=max_value)
        assert sat > 0

    def test_carried_counters_past_the_table_end(self, disco_batch):
        # Every counter starts past the end, so every lookup falls back.
        counters, _, fallbacks, direct = self.assert_same(
            disco_batch, 1.02, 1, 100, carried=150)
        assert fallbacks == direct > 0
        assert counters.min() >= 150

    @pytest.mark.parametrize("tabn", [180, 260, 400])
    def test_steps_crossing_the_table_end(self, disco_batch, tabn):
        # From c = 0 a 1500-byte packet jumps ~170 counter values at
        # b = 1.02, so short tables force c + delta past their end.
        counters, _, fallbacks, direct = self.assert_same(
            disco_batch, 1.02, 1, tabn)
        assert 0 < fallbacks < direct
        assert counters.max() >= tabn - 2

    @pytest.mark.parametrize("b", [1.02, 2.0])
    @pytest.mark.parametrize("t_end", [1, 0])
    def test_decision_boundaries(self, b, t_end):
        # One packet per lane, within a relative 1e-9..1e-3 of a length
        # where delta changes (y = (b-1) l b^-c at b^k - 1; k = 1 is the
        # shortcut's edge), on small uniforms so that a wrong delta or
        # p moves the counter.  t_end = 1 runs the column phase, 0 the
        # tail's general and dwell regimes.
        gen = np.random.default_rng(5)
        n = 4000
        c0 = gen.integers(0, 60, size=n)
        k = gen.integers(1, 5, size=n)
        rel = gen.choice([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3],
                         size=n)
        lengths = b ** c0 * (b ** k - 1.0) / (b - 1.0) * (1.0 + rel)
        self.assert_same((lengths, np.ones(n, dtype=np.int64)), b, 1, 300,
                         carried=c0, t_end=t_end, u_scale=1e-3)

    def test_bench_trace_takes_no_fallback(self):
        import repro

        trace = compile_trace(repro.make_trace(
            "nlanr", num_flows=100_000, mean_flow_bytes=10_000,
            max_flow_bytes=1_000_000, seed=1))
        spec = kernel_spec(make_scheme("disco", b=B, mode="volume"))
        result = run_kernel(trace, spec.factory, mode=spec.mode, rng=1,
                            engine="native", telemetry=obs.Telemetry())
        assert result.tail_packets > 0 and result.vector_steps > 0
        assert result.kernel.table_fallbacks == 0
        assert "kernel.disco.table_fallbacks" \
            not in result.telemetry["counters"]

    def test_fallbacks_surface_in_telemetry(self):
        kernel = kernel_spec(make_scheme("disco", b=B)).factory(
            1, np.random.default_rng(0), 1)
        kernel.table_fallbacks = 3
        assert kernel.telemetry_events()["kernel.disco.table_fallbacks"] == 3


# ---------------------------------------------------------------------------
# streaming with native chunks
# ---------------------------------------------------------------------------

@needs_native
class TestStreamNative:
    def test_exact_stream_equals_one_shot_replay(self, compiled):
        # Carried KernelState must round-trip through native chunks:
        # for the exact scheme the summed epochs equal one replay pass
        # bit for bit, same as the vector-chunk invariant.
        result = stream(scheme_factory("exact"), compiled, shards=3,
                        epoch_packets=compiled.num_packets // 3,
                        chunk_packets=512, rng=7, engine="native")
        one_shot = replay(ExactCounters(mode="volume"), compiled,
                          order="asis", engine="vector")
        assert result.estimates_dict() == one_shot.estimates
        assert result.packets == compiled.num_packets

    def test_native_stream_matches_vector_stream_bitwise_for_anls(
            self, compiled):
        factory = scheme_factory("anls1", b=B, seed=3)
        kwargs = dict(shards=2, epoch_packets=compiled.num_packets // 2,
                      chunk_packets=1024, rng=11)
        rv = stream(factory, compiled, engine="vector", **kwargs)
        rn = stream(factory, compiled, engine="native", **kwargs)
        assert rv.estimates_dict() == rn.estimates_dict()

    def test_checkpoint_carries_engine(self, compiled, tmp_path):
        path = tmp_path / "native.ckpt"
        session = StreamSession(scheme_factory("exact"), shards=2,
                                epoch_packets=10_000, engine="native",
                                checkpoint_path=str(path))
        assert session.engine == "native"
        session.consume(compiled)
        session.checkpoint()
        restored = StreamSession.restore(str(path))
        assert restored.engine == "native"

    def test_native_stream_matches_vector_stream_bitwise_for_aee(
            self, compiled):
        # AEE's chunk replays are bit-identical and its carried state is
        # a plain counter array, so the whole sharded stream matches.
        factory = scheme_factory("aee", p=0.3, seed=3)
        kwargs = dict(shards=2, epoch_packets=compiled.num_packets // 2,
                      chunk_packets=1024, rng=11)
        rv = stream(factory, compiled, engine="vector", **kwargs)
        rn = stream(factory, compiled, engine="native", **kwargs)
        assert rv.estimates_dict() == rn.estimates_dict()

    def test_ice_stream_runs_on_native_chunks(self, compiled):
        result = stream(scheme_factory("ice", bits=10, seed=0), compiled,
                        shards=2, epoch_packets=compiled.num_packets // 2,
                        rng=5, engine="native")
        assert result.packets == compiled.num_packets
        errors = [abs(e - t) / t for e, t in
                  ((result.estimates_dict()[f], t)
                   for f, t in compiled.true_totals("volume").items())]
        assert sum(errors) / len(errors) < 0.2

    def test_sd_carried_sram_above_max_runs(self):
        # A lossy store can decode a carried SRAM value past
        # 2**sram_bits - 1; the compiled bucket queue has no chain for it.
        # Run in a child process: the failure mode is a segfault.
        code = (
            "from repro.schemes import scheme_factory\n"
            "from repro.streaming import StreamSession\n"
            "from repro.traces import make_trace\n"
            "trace = make_trace('nlanr', num_flows=3000, seed=1)\n"
            "session = StreamSession(\n"
            "    scheme_factory('sd', sram_bits=10, mode='volume'),\n"
            "    shards=2, store='morris', engine='native',\n"
            "    chunk_packets=4096, rng=0)\n"
            "session.consume(trace)\n"
            "print(session.finish().packets == trace.num_packets)\n")
        done = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr[-2000:]
        assert done.stdout.strip() == "True"

    def test_disco_stream_runs_on_native_chunks(self, compiled):
        result = stream(scheme_factory("disco", b=B, seed=0), compiled,
                        shards=2, epoch_packets=compiled.num_packets // 2,
                        rng=5, engine="native")
        assert result.packets == compiled.num_packets
        errors = [abs(e - t) / t for e, t in
                  ((result.estimates_dict()[f], t)
                   for f, t in compiled.true_totals("volume").items())]
        assert sum(errors) / len(errors) < 0.2


# ---------------------------------------------------------------------------
# fallback behaviour (runs with or without a backend)
# ---------------------------------------------------------------------------

class TestFallback:
    @pytest.fixture()
    def clean_probe(self):
        native.reset()
        yield
        native.reset()

    @pytest.fixture()
    def no_backend(self, clean_probe, monkeypatch):
        """Mask the provider: the C compile fails."""
        monkeypatch.setattr(native, "_compile_cc", lambda: None)

    def test_disable_env_masks_backend(self, clean_probe, monkeypatch):
        monkeypatch.setenv(native.DISABLE_ENV, "1")
        assert native.disabled()
        assert not native.available()
        assert native.provider_name() == "none"

    def test_native_without_backend_warns_once_and_matches_vector(
            self, no_backend, compiled):
        assert not native.available()
        build = lambda: Anls(b=B, rng=4)  # noqa: E731
        with pytest.warns(RuntimeWarning, match="falling back"):
            rn = replay(build(), compiled, order="asis", engine="native")
        assert rn.engine == "vector"
        # Identical results to an explicit vector replay — the fallback
        # is the vector path, not a third code path.
        rv = replay(build(), compiled, order="asis", engine="vector")
        assert rn.estimates == rv.estimates
        # Warn-once: a second degraded call is silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            again = replay(build(), compiled, order="asis", engine="native")
        assert again.engine == "vector"

    def test_stream_engine_falls_back_at_construction(self, no_backend):
        with pytest.warns(RuntimeWarning, match="falling back"):
            session = StreamSession(scheme_factory("exact"), shards=2,
                                    epoch_packets=1000, engine="native")
        assert session.engine == "vector"

    def test_auto_prefers_native_only_after_probe_succeeds(
            self, clean_probe, monkeypatch):
        scheme = ExactCounters(mode="volume")
        if native.available():
            assert resolve_engine("auto", scheme) == "native"
        native.reset()
        monkeypatch.setenv(native.DISABLE_ENV, "1")
        assert resolve_engine("auto", scheme) == "vector"

    def test_probe_is_cached_and_resettable(self, clean_probe):
        first = native.available()
        assert native.available() == first  # cached flag, no re-probe
        native.reset()
        assert native.available() == first  # deterministic re-probe
