"""Tests for arrival-time models and trace composition."""

import statistics

import pytest

from repro.errors import ParameterError
from repro.traces.arrival import constant_rate, on_off, poisson
from repro.traces.toolkit import merge_traces, renormalize
from repro.traces.trace import Trace

PACKETS = [("f", 1000)] * 200


class TestConstantRate:
    def test_validation(self):
        with pytest.raises(ParameterError):
            list(constant_rate(PACKETS, gbps=0))

    def test_rate_honoured(self):
        timed = list(constant_rate(PACKETS, gbps=8.0))
        # 1000 bytes at 8 Gbps = 1000 ns per packet, back to back.
        assert timed[0][0] == pytest.approx(1000.0)
        assert timed[-1][0] == pytest.approx(200_000.0)

    def test_monotone(self):
        times = [t for t, _, _ in constant_rate(PACKETS, gbps=3.0)]
        assert times == sorted(times)


class TestPoisson:
    def test_validation(self):
        with pytest.raises(ParameterError):
            list(poisson(PACKETS, mean_pps=0))

    def test_mean_rate(self):
        timed = list(poisson(PACKETS, mean_pps=1e6, rng=0))
        gaps = [b[0] - a[0] for a, b in zip(timed, timed[1:])]
        # Mean gap ~1000 ns at 1 Mpps.
        assert statistics.mean(gaps) == pytest.approx(1000.0, rel=0.2)

    def test_deterministic_given_seed(self):
        a = [t for t, _, _ in poisson(PACKETS, mean_pps=1e6, rng=5)]
        b = [t for t, _, _ in poisson(PACKETS, mean_pps=1e6, rng=5)]
        assert a == b


class TestOnOff:
    def test_validation(self):
        with pytest.raises(ParameterError):
            list(on_off(PACKETS, peak_gbps=0, mean_on_ns=10, mean_off_ns=10))
        with pytest.raises(ParameterError):
            list(on_off(PACKETS, peak_gbps=1, mean_on_ns=0, mean_off_ns=10))

    def test_average_rate_below_peak(self):
        timed = list(on_off(PACKETS, peak_gbps=10.0, mean_on_ns=5000,
                            mean_off_ns=5000, rng=1))
        total_bytes = 200 * 1000
        span = timed[-1][0]
        average_gbps = total_bytes * 8.0 / span
        # Duty cycle 50%: long-run average ~5 Gbps.
        assert 2.5 < average_gbps < 7.5

    def test_no_off_time_is_constant_rate(self):
        bursty = [t for t, _, _ in on_off(PACKETS, peak_gbps=8.0,
                                          mean_on_ns=1e12, mean_off_ns=0,
                                          rng=2)]
        smooth = [t for t, _, _ in constant_rate(PACKETS, gbps=8.0)]
        assert bursty == pytest.approx(smooth)

    def test_monotone(self):
        times = [t for t, _, _ in on_off(PACKETS, peak_gbps=10.0,
                                         mean_on_ns=2000, mean_off_ns=2000,
                                         rng=3)]
        assert times == sorted(times)


class TestMixer:
    """Trace composition through the toolkit's one composer."""

    def _trace(self, name, **flows):
        return Trace({k: v for k, v in flows.items()}, name=name)

    def test_relabel(self):
        t = merge_traces([self._trace("t", a=[10, 20])], namespace=True)
        assert t.flows == {"0/a": (10, 20)}
        assert t.name == "t"

    def test_merge_disjoint(self):
        merged = merge_traces([
            self._trace("t1", a=[10]),
            self._trace("t2", b=[20]),
        ], namespace=False)
        assert set(merged.flows) == {"a", "b"}

    def test_merge_collision_rejected(self):
        with pytest.raises(ParameterError):
            merge_traces([self._trace("t1", a=[10]),
                          self._trace("t2", a=[20])], namespace=False)

    def test_merge_empty_rejected(self):
        with pytest.raises(ParameterError):
            merge_traces([], namespace=False)

    # renormalize scales every flow by target / total packets.

    def test_scale_up(self):
        scaled = renormalize(self._trace("t", a=[10, 20, 30]), target_pps=6)
        assert scaled.flows["a"] == (10, 20, 30, 10, 20, 30)
        assert scaled.true_volume("a") == 120

    def test_scale_down(self):
        scaled = renormalize(self._trace("t", a=[10, 20, 30, 40]),
                             target_pps=2)
        assert scaled.flows["a"] == (10, 20)

    def test_scale_never_empties(self):
        scaled = renormalize(self._trace("t", a=[10], b=[20] * 99),
                             target_pps=1)
        assert scaled.flows == {"a": (10,), "b": (20,)}

    def test_scale_validation(self):
        with pytest.raises(ParameterError):
            renormalize(self._trace("t", a=[10]), target_pps=0)
