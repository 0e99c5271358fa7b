"""Distributional-equivalence tests for the columnar scheme kernels.

The kernels replay the *same update laws* as each scheme's reference
``observe()`` loop but draw randomness column-by-column, so single runs
are not bit-identical (except for the deterministic exact kernel).  What
must hold is the distribution: the replica-axis mean matches the truth
(or the reference loop's mean, for the deliberately biased ANLS-I straw
man) and the empirical CoV respects the published bound where one
exists.
"""

import numpy as np
import pytest

from repro.core.analysis import cov_bound
from repro.core.batchreplay import (
    BatchReplayResult,
    ReplicaReplayResult,
    run_kernel,
)
from repro.core.disco import DiscoSketch
from repro.core.kernels import kernel_scheme_names, kernel_spec
from repro.counters.aee import AeeCounters
from repro.counters.anls import Anls, AnlsBytesNaive, AnlsPerUnit
from repro.counters.countmin import CountMin
from repro.counters.exact import ExactCounters
from repro.counters.ice import IceBuckets
from repro.counters.sac import SmallActiveCounters
from repro.counters.sd import SdCounters
from repro.errors import ParameterError
from repro.harness.montecarlo import measure_trace_estimator
from repro.facade import replay
from repro.metrics.errors import relative_errors_array
from repro.traces.nlanr import nlanr_like
from repro.traces.trace import Trace

B = 1.05
REPLICAS = 48


@pytest.fixture(scope="module")
def trace():
    return nlanr_like(num_flows=60, mean_flow_bytes=3_000,
                      max_flow_bytes=40_000, rng=12)


def _spec(scheme):
    spec = kernel_spec(scheme)
    assert spec is not None, type(scheme).__name__
    return spec


def _mean_total(trace, scheme, replicas=REPLICAS, rng=101):
    spec = _spec(scheme)
    result = run_kernel(trace, spec.factory, mode=spec.mode,
                           rng=rng, replicas=replicas)
    return float(result.estimates.mean(axis=0).sum()), result


class TestRegistry:
    def test_scheme_names(self):
        names = kernel_scheme_names()
        for expected in ("disco", "sac", "anls", "anls-1", "anls-2",
                         "sd", "exact", "ice", "aee"):
            assert expected in names

    def test_no_kernel_for_unsupported_scheme(self):
        assert kernel_spec(CountMin(width=64, depth=2)) is None

    def test_no_kernel_for_pre_observed_scheme(self):
        scheme = SmallActiveCounters(total_bits=10, mode_bits=3, rng=0)
        scheme.observe("f", 10)
        assert kernel_spec(scheme) is None


class TestDistributionalEquivalence:
    """Replica-mean totals land on the truth for the unbiased schemes."""

    def test_sac_mean_within_one_percent(self, trace):
        truth = sum(trace.true_totals("volume").values())
        mean, _ = _mean_total(
            trace, SmallActiveCounters(total_bits=10, mode_bits=3,
                                       mode="volume", rng=0))
        assert mean == pytest.approx(truth, rel=0.01)

    def test_anls_mean_within_one_percent(self, trace):
        truth = sum(trace.true_totals("size").values())
        mean, _ = _mean_total(trace, Anls(b=B, mode="size", rng=0))
        assert mean == pytest.approx(truth, rel=0.01)

    def test_anls2_mean_within_one_percent(self, trace):
        truth = sum(trace.true_totals("volume").values())
        mean, _ = _mean_total(trace, AnlsPerUnit(b=B, mode="volume", rng=0))
        assert mean == pytest.approx(truth, rel=0.01)

    def test_disco_mean_within_one_percent(self, trace):
        truth = sum(trace.true_totals("volume").values())
        mean, _ = _mean_total(trace, DiscoSketch(b=B, mode="volume", rng=0))
        assert mean == pytest.approx(truth, rel=0.01)

    def test_sd_totals_exact_when_provisioned(self, trace):
        # A provisioned SD array is lossless: saturating SRAM plus DRAM
        # flushes recover the exact totals, matching the reference loop.
        truths = trace.true_totals("volume")
        scheme = SdCounters(sram_bits=20, dram_access_ratio=8,
                            mode="volume", rng=0)
        spec = _spec(scheme)
        result = run_kernel(trace, spec.factory, mode="volume", rng=3)
        for key, est in result.estimates_dict().items():
            assert est == truths[key]

    def test_exact_matches_reference_bitwise(self, trace):
        ref = replay(ExactCounters(mode="volume"), trace, engine="python")
        scheme = ExactCounters(mode="volume")
        result = run_kernel(trace, _spec(scheme).factory, mode="volume")
        assert result.estimates_dict() == ref.estimates

    def test_anls1_straw_man_matches_reference_direction(self, trace):
        # ANLS-I (naive byte increments) is the paper's biased straw man:
        # kernel and reference loop must agree that it wildly
        # overestimates, not on the (astronomical, high-variance) value.
        truth = sum(trace.true_totals("volume").values())
        ref = replay(AnlsBytesNaive(b=B, mode="volume", rng=5), trace,
                     rng=7, engine="python")
        ref_total = sum(ref.estimates.values())
        mean, _ = _mean_total(
            trace, AnlsBytesNaive(b=B, mode="volume", rng=5), replicas=16)
        assert ref_total > 3 * truth
        assert mean > 3 * truth

    def test_ice_mean_within_one_percent(self, trace):
        truth = sum(trace.true_totals("volume").values())
        mean, _ = _mean_total(
            trace, IceBuckets(total_bits=10, mode="volume", rng=0))
        assert mean == pytest.approx(truth, rel=0.01)

    def test_aee_mean_within_three_percent(self, trace):
        truth = sum(trace.true_totals("volume").values())
        mean, _ = _mean_total(
            trace, AeeCounters(p=0.3, total_bits=20, mode="volume", rng=0))
        assert mean == pytest.approx(truth, rel=0.03)

    def test_ice_kernel_vs_reference_mean(self, trace):
        refs = [replay(IceBuckets(total_bits=10, mode="volume", rng=s),
                       trace, rng=s + 50, engine="python")
                for s in range(4)]
        ref_mean = np.mean([sum(r.estimates.values()) for r in refs])
        mean, _ = _mean_total(
            trace, IceBuckets(total_bits=10, mode="volume", rng=0))
        assert mean == pytest.approx(ref_mean, rel=0.05)

    def test_ice_kernel_upscale_accounting(self, trace):
        # Narrow counters force bucket upscales; the kernel must surface
        # them both on the written-back scheme and in telemetry events.
        scheme = IceBuckets(total_bits=6, mode="volume", rng=0)
        result = replay(scheme, trace, rng=3, engine="vector")
        assert scheme.bucket_upscales > 0
        assert result.estimates  # replay completed with a full read-out

    def test_aee_kernel_saturation_accounting(self, trace):
        # p=1 with a tiny word: every long flow clamps, deterministically.
        scheme = AeeCounters(p=1.0, total_bits=6, mode="volume", rng=0)
        replay(scheme, trace, rng=3, engine="vector")
        assert scheme.saturation_events > 0
        assert max(scheme._state.values()) == (1 << 6) - 1

    def test_sac_kernel_vs_reference_mean(self, trace):
        # Kernel replica-mean vs a small ensemble of reference loops:
        # the two paths estimate the same quantity.
        refs = [replay(SmallActiveCounters(total_bits=10, mode_bits=3,
                                           mode="volume", rng=s),
                       trace, rng=s + 50, engine="python")
                for s in range(4)]
        ref_mean = np.mean([sum(r.estimates.values()) for r in refs])
        mean, _ = _mean_total(
            trace, SmallActiveCounters(total_bits=10, mode_bits=3,
                                       mode="volume", rng=0))
        assert mean == pytest.approx(ref_mean, rel=0.05)


class TestCovBound:
    def test_disco_cov_within_published_bound(self, trace):
        report = measure_trace_estimator(
            DiscoSketch(b=B, mode="volume", rng=0), trace,
            replicas=REPLICAS, rng=11)
        big = report.truths >= 1_000
        assert big.any()
        assert (report.cov()[big] <= cov_bound(B) * 1.35).all()

    def test_anls2_cov_within_published_bound(self, trace):
        report = measure_trace_estimator(
            AnlsPerUnit(b=B, mode="volume", rng=0), trace,
            replicas=REPLICAS, rng=11)
        big = report.truths >= 1_000
        assert (report.cov()[big] <= cov_bound(B) * 1.35).all()


class TestEdgeCases:
    def test_empty_trace(self):
        empty = Trace({}, name="empty")
        scheme = SmallActiveCounters(total_bits=10, mode_bits=3,
                                     mode="volume", rng=0)
        result = run_kernel(empty, _spec(scheme).factory,
                               mode="volume", rng=1)
        assert result.packets == 0
        assert result.counters.shape == (0,)
        assert result.estimates_dict() == {}

    def test_single_packet_flows(self):
        flows = {f"f{i}": [100 + i] for i in range(30)}
        trace = Trace(flows, name="single")
        scheme = ExactCounters(mode="volume")
        result = run_kernel(trace, _spec(scheme).factory, mode="volume")
        assert result.packets == 30
        assert result.estimates_dict() == {k: float(v[0])
                                           for k, v in flows.items()}

    def test_replicas_one_returns_batch_result(self, trace):
        scheme = ExactCounters(mode="volume")
        result = run_kernel(trace, _spec(scheme).factory,
                               mode="volume", replicas=1)
        assert isinstance(result, BatchReplayResult)

    def test_replica_axis_shapes_and_consistency(self, trace):
        scheme = ExactCounters(mode="volume")
        result = run_kernel(trace, _spec(scheme).factory,
                               mode="volume", replicas=3)
        assert isinstance(result, ReplicaReplayResult)
        flows = len(trace.flows)
        assert result.estimates.shape == (3, flows)
        assert result.relative_errors().shape == (3, flows)
        # Exact counting: every replica reproduces the truth bit-for-bit.
        for r in range(3):
            assert (result.estimates[r] == result.truths).all()
        assert result.estimates_dict(replica=2) == result.estimates_dict()

    def test_replica_axis_unbiased_per_replica(self, trace):
        truth = sum(trace.true_totals("volume").values())
        scheme = SmallActiveCounters(total_bits=10, mode_bits=3,
                                     mode="volume", rng=0)
        result = run_kernel(trace, _spec(scheme).factory,
                               mode="volume", rng=9, replicas=8)
        totals = result.estimates.sum(axis=1)
        assert totals.shape == (8,)
        # Each replica is an independent run of the same unbiased law.
        assert (np.abs(totals - truth) / truth < 0.25).all()
        assert float(np.abs(totals.mean() - truth) / truth) < 0.05

    def test_validation(self, trace):
        factory = _spec(ExactCounters(mode="volume")).factory
        with pytest.raises(ParameterError):
            run_kernel(trace, factory, mode="bytes")
        with pytest.raises(ParameterError):
            run_kernel(trace, factory, replicas=0)
        with pytest.raises(ParameterError):
            run_kernel(trace, factory, min_lanes=0)


#: One fresh scheme per registry kernel, for the read-out checks.
READOUT_SCHEMES = {
    "disco": lambda: DiscoSketch(b=B, mode="volume", rng=0),
    "sac": lambda: SmallActiveCounters(total_bits=10, mode_bits=3,
                                       mode="volume", rng=0),
    "anls": lambda: Anls(b=B, mode="size", rng=0),
    "anls-1": lambda: AnlsBytesNaive(b=B, mode="volume", rng=0),
    "anls-2": lambda: AnlsPerUnit(b=B, mode="volume", rng=0),
    "sd": lambda: SdCounters(sram_bits=12, dram_access_ratio=8,
                             mode="volume", rng=0),
    "exact": lambda: ExactCounters(mode="volume"),
    "ice": lambda: IceBuckets(total_bits=10, mode="volume", rng=0),
    "aee": lambda: AeeCounters(p=0.3, total_bits=20, mode="volume", rng=0),
}


def _comprehension_writeback(name, kernel, keys):
    """The written-back sketch state, built one element at a time."""
    lanes, r0 = kernel.lanes, kernel._replica0
    if name == "disco":
        final = r0(kernel.state.counters[:lanes])
        return {"_counters": {k: int(c) for k, c in zip(keys, final)}}
    if name == "sac":
        a, m = r0(kernel.a[:lanes]), r0(kernel.m[:lanes])
        return {"_state": {k: (int(ai), int(mi))
                           for k, ai, mi in zip(keys, a, m)}}
    if name == "sd":
        sram, dram = r0(kernel.sram[:lanes]), r0(kernel.dram[:lanes])
        return {"_state": {k: int(s) for k, s in zip(keys, sram)},
                "_dram": {k: int(d) for k, d in zip(keys, dram)}}
    if name == "exact":
        final = r0(kernel.totals[:lanes])
        return {"_state": {k: int(t) for k, t in zip(keys, final)}}
    state = {"_state": {k: int(c)
                        for k, c in zip(keys, r0(kernel.c[:lanes]))}}
    if name == "ice":
        final_s, bf = r0(kernel.s[:lanes]), kernel.bucket_flows
        state["_scale"] = {b: int(final_s[b * bf])
                           for b in range((len(keys) + bf - 1) // bf)}
    return state


def _leaves(values):
    for value in values:
        if isinstance(value, tuple):
            yield from value
        else:
            yield value


class TestReadOut:
    """Replay results and written-back state are exact Python numbers."""

    def test_every_registry_kernel_is_covered(self):
        assert sorted(READOUT_SCHEMES) == kernel_scheme_names()

    @pytest.mark.parametrize("name", sorted(READOUT_SCHEMES))
    def test_matches_per_element_comprehension(self, trace, name):
        scheme, twin = READOUT_SCHEMES[name](), READOUT_SCHEMES[name]()
        spec = _spec(twin)
        ref = run_kernel(trace, spec.factory, mode=spec.mode, rng=twin._rng)
        result = replay(scheme, trace, engine="vector")
        keys = ref.keys
        assert result.estimates == {k: float(e)
                                    for k, e in zip(keys, ref.estimates)}
        assert result.truths == {k: int(t) for k, t in zip(keys, ref.truths)}
        assert result.errors == [float(e) for e in relative_errors_array(
            ref.estimates, ref.truths)]
        state = _comprehension_writeback(name, ref.kernel, keys)
        for attr, want in state.items():
            assert getattr(scheme, attr) == want, attr
        numbers = [*result.estimates.values(), *result.errors,
                   *result.truths.values()]
        for attr in state:
            numbers.extend(_leaves(getattr(scheme, attr).values()))
        assert {type(v) for v in numbers} <= {int, float}


class _ScriptedUniforms:
    """A stand-in for the kernels' uniform sources with a known script.

    Serves both the NumPy-generator surface the vector paths consume
    (``random(size)``) and the scalar ``draw()`` callable the tails use,
    popping from one shared sequence — so two kernels fed copies of the
    same script are comparable draw-for-draw.
    """

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(int(size))])

    def __len__(self):
        return len(self.values)


class TestDwellBoundary:
    """Satellite audit: scalar tails vs vector paths at regime boundaries.

    The vector ANLS-II column step draws one uniform per active lane per
    jump attempt *even when success is certain* (c = 0, p = 1); the
    scalar tail must consume its stream identically or the two paths
    fall out of alignment from the first boundary packet on.  Similarly
    DISCO's two-phase tail (memoized decisions below ``c*``, dwell
    above) must agree packet-for-packet with the pure Algorithm-1
    reference across the ``b^c == l`` crossover.
    """

    # -- ANLS-II: geometric jumps vs per-unit tail ------------------------

    @staticmethod
    def _anls2_vector(us, lens, b):
        from repro.core.kernels import AnlsPerUnitKernel

        kernel = AnlsPerUnitKernel(1, np.random.default_rng(0), 1, b=b)
        script = _ScriptedUniforms(us)
        kernel.gen = script
        for l in lens:
            kernel.step_column(np.array([float(l)]), 1)
        return int(kernel.c[0]), len(script)

    @staticmethod
    def _anls2_scalar(us, lens, b):
        from repro.core.kernels import AnlsPerUnitKernel

        kernel = AnlsPerUnitKernel(1, np.random.default_rng(0), 1, b=b)
        script = _ScriptedUniforms(us)
        kernel._tail_rand = script.random
        kernel.tail_flow(0, np.array([float(l) for l in lens]), len(lens))
        return int(kernel.c[0]), len(script)

    def test_anls2_tail_consumes_a_draw_at_c0(self):
        # c = 0 means certain success (p = 1): the draw's value is
        # irrelevant but it must still be consumed.  With us[0] spent on
        # the c = 0 jump, the remaining jumps line up with the vector
        # path; the pre-fix tail skipped it and landed on c = 2, not 3.
        us = [0.9, 0.3, 0.6, 0.8]
        vec = self._anls2_vector(list(us), [5], b=2.0)
        tail = self._anls2_scalar(list(us), [5], b=2.0)
        assert vec == tail == (3, 1)  # same counter, same leftovers

    def test_anls2_certain_jump_ignores_u_zero(self):
        # u = 0 at c = 0 must not break the packet: success is certain.
        vec = self._anls2_vector([0.0, 0.4, 0.9], [3], b=2.0)
        tail = self._anls2_scalar([0.0, 0.4, 0.9], [3], b=2.0)
        assert vec == tail
        assert vec[0] >= 1

    def test_anls2_u_zero_ends_packet_above_c0(self):
        # u = 0 with c > 0 is the measure-zero "geometric never lands"
        # draw: both paths spend the packet without advancing further.
        us = [0.9, 0.0, 0.5, 0.5]
        vec = self._anls2_vector(list(us), [10], b=2.0)
        tail = self._anls2_scalar(list(us), [10], b=2.0)
        assert vec == tail == (1, 2)

    def test_anls2_jump_equal_to_remaining_budget_lands(self):
        # The g == rem crossover: a jump exactly consuming the budget
        # still advances the counter (hit is inclusive) on both paths.
        # us[2] = 0.6 at c = 2 gives g = 2 against rem = 2.
        us = [0.9, 0.3, 0.6]
        vec = self._anls2_vector(list(us), [5], b=2.0)
        tail = self._anls2_scalar(list(us), [5], b=2.0)
        assert vec == tail == (3, 0)

    @pytest.mark.parametrize("b", [2.0, 1.5, 1.05])
    def test_anls2_paths_agree_packet_for_packet(self, b):
        rng = np.random.default_rng(20100621)
        lens = rng.integers(1, 40, size=25).tolist()
        us = rng.random(2000).tolist()
        assert self._anls2_vector(list(us), lens, b) \
            == self._anls2_scalar(list(us), lens, b)

    # -- DISCO: two-phase tail vs pure Algorithm 1 ------------------------

    @staticmethod
    def _disco_reference(b, c0, lens, us):
        from repro.core.functions import GeometricCountingFunction
        from repro.core.update import compute_update

        fn = GeometricCountingFunction(b)
        draws = iter(us)
        c = c0
        for l in lens:
            decision = compute_update(fn, c, float(l))
            c += decision.delta + (1 if next(draws) < decision.probability
                                   else 0)
        return c

    @staticmethod
    def _disco_tail(b, c0, lens, us):
        from repro.core.kernels import DiscoKernel

        kernel = DiscoKernel(1, np.random.default_rng(0), 1, b=b)
        script = _ScriptedUniforms(us)
        kernel.gen = script
        kernel._tail_rand = script.random
        kernel.state.counters[0] = c0
        if lens is None:
            kernel.tail_flow(0, None, len(us))
        else:
            kernel.tail_flow(0, np.array([float(l) for l in lens]),
                             len(lens))
        return int(kernel.state.counters[0])

    @pytest.mark.parametrize("c0", [0, 2, 3, 4, 6])
    def test_disco_tail_matches_reference_across_crossover(self, c0):
        # b = 2, every length a power of two: maxlen = 8 puts the
        # boundary exactly at b^3 == 8, so c0 = 3 starts *on* the
        # crossover and the run sweeps memoized -> dwell mid-flow.
        b = 2.0
        lens = [8, 6, 8, 2, 8, 8, 1, 8, 4, 8] * 4
        rng = np.random.default_rng(7)
        us = rng.random(len(lens)).tolist()
        assert self._disco_tail(b, c0, list(lens), list(us)) \
            == self._disco_reference(b, c0, lens, us)

    def test_disco_below_boundary_can_jump_by_more_than_one(self):
        # b^c < l is the regime a mis-placed dwell phase would clamp to
        # +1 per packet: at c = 2, l = 8 (gap 4), Algorithm 1 takes
        # delta = 1 plus a Bernoulli(1/2) — u = 0.1 lands the extra step.
        b = 2.0
        assert self._disco_reference(b, 2, [8.0], [0.1]) == 4
        assert self._disco_tail(b, 2, [8.0], [0.1]) == 4

    @pytest.mark.parametrize("b", [2.0, 1.7])
    def test_disco_tail_matches_reference_mixed_lengths(self, b):
        rng = np.random.default_rng(42)
        lens = rng.integers(1, 30, size=60).tolist()
        us = rng.random(len(lens)).tolist()
        for c0 in (0, 5, 11):
            assert self._disco_tail(b, c0, list(lens), list(us)) \
                == self._disco_reference(b, c0, lens, us)

    def test_disco_size_mode_tail_matches_reference(self):
        b = 2.0
        us = np.random.default_rng(3).random(50).tolist()
        assert self._disco_tail(b, 0, None, list(us)) \
            == self._disco_reference(b, 0, [1.0] * len(us), us)


class TestPositionalState:
    """Carried state loads by position and refuses rows it cannot place."""

    def _exported(self, trace):
        spec = _spec(DiscoSketch(b=B, mode="volume", rng=0))
        result = run_kernel(trace, spec.factory, mode=spec.mode, rng=5)
        return spec, result.kernel.export_state(result.keys)

    def test_state_holds_no_keys(self, trace):
        _, state = self._exported(trace)
        assert state.flows == len(trace.flows)
        assert not hasattr(state, "index")

    def test_rows_load_by_position(self, trace):
        spec, state = self._exported(trace)
        kernel = spec.factory(state.flows + 3, np.random.default_rng(0), 1)
        kernel.load_state(list(range(state.flows + 3)), state)
        live = kernel._state_arrays()["counters"]
        assert np.array_equal(live[:state.flows], state.arrays["counters"])
        assert not live[state.flows:].any()

    def test_more_rows_than_flows_rejected(self, trace):
        spec, state = self._exported(trace)
        kernel = spec.factory(state.flows - 1, np.random.default_rng(0), 1)
        with pytest.raises(ParameterError, match="carried state has"):
            kernel.load_state(list(range(state.flows - 1)), state)
