"""Tests for usage accounting.

Measurement epochs are :class:`repro.streaming.StreamSession`'s
(``tests/test_stream.py``).
"""

import random

import pytest

from repro.apps.billing import UsageAccountant
from repro.core.disco import DiscoSketch
from repro.errors import ParameterError


class TestUsageAccountant:
    def _loaded_sketch(self, seed=0):
        sketch = DiscoSketch(b=1.005, mode="volume", rng=seed)
        rand = random.Random(seed + 1)
        truth = {}
        for customer in ("acme", "globex"):
            for i in range(12):
                flow = f"{customer}/{i}"
                truth[flow] = 0
                for _ in range(60):
                    l = rand.randint(40, 1500)
                    sketch.observe(flow, l)
                    truth[flow] += l
        return sketch, truth

    def test_validation(self):
        sketch = DiscoSketch(b=1.01, rng=0)
        with pytest.raises(ParameterError):
            UsageAccountant(sketch, account_of=None)

    def test_bill_covers_truth(self):
        sketch, truth = self._loaded_sketch()
        accountant = UsageAccountant(sketch, lambda flow: flow.split("/")[0])
        bill = accountant.bill("acme")
        true_usage = sum(v for f, v in truth.items() if f.startswith("acme"))
        assert bill.flows == 12
        assert bill.low <= true_usage * 1.02
        assert bill.high >= true_usage * 0.98
        assert bill.usage == pytest.approx(true_usage, rel=0.05)

    def test_bill_all_sorted(self):
        sketch, _ = self._loaded_sketch()
        # Make acme clearly bigger.
        for _ in range(2000):
            sketch.observe("acme/0", 1500)
        accountant = UsageAccountant(sketch, lambda flow: flow.split("/")[0])
        bills = accountant.bill_all()
        assert [b.account for b in bills] == ["acme", "globex"]

    def test_unknown_account_zero(self):
        sketch, _ = self._loaded_sketch()
        accountant = UsageAccountant(sketch, lambda flow: flow.split("/")[0])
        bill = accountant.bill("nobody")
        assert bill.usage == 0.0 and bill.flows == 0

    def test_total_traffic(self):
        sketch, truth = self._loaded_sketch()
        accountant = UsageAccountant(sketch, lambda flow: flow.split("/")[0])
        total = accountant.total_traffic()
        assert total.usage == pytest.approx(sum(truth.values()), rel=0.03)

    def test_aggregation_tightens_relative_error(self):
        sketch, _ = self._loaded_sketch()
        accountant = UsageAccountant(sketch, lambda flow: flow.split("/")[0])
        single = accountant.bill("acme", flows=["acme/0"])
        whole = accountant.bill("acme")
        assert whole.relative_half_width < single.relative_half_width
