"""Correctness checks: the program's answers against generator truth.

Every check compares with what the benchmark itself generated, never
with totals the program reports about itself.
"""

from __future__ import annotations

import math


def cov_bound(b: float) -> float:
    """Corollary 1's CoV bound for DISCO with base ``b``: sqrt((b-1)/(b+1))."""
    return math.sqrt((b - 1.0) / (b + 1.0))


def relative_errors(estimates: dict, truth: dict):
    """|estimate - truth| / truth for every flow in ``truth`` (missing = 0)."""
    return [abs(estimates.get(key, 0.0) - value) / value
            for key, value in truth.items()]


def exact_mismatches(estimates: dict, truth: dict) -> int:
    """Flows whose exact-counter estimate differs from truth at all."""
    if estimates.keys() != truth.keys():
        return len(estimates.keys() ^ truth.keys())
    return sum(1 for key, value in truth.items() if estimates[key] != value)


def check_exact(outcome, name: str, estimates: dict, truth: dict) -> bool:
    """The ``exact`` scheme must reproduce generator truth bit for bit."""
    bad = exact_mismatches(estimates, truth)
    return outcome.check(name, bad == 0,
                         f"{len(truth)} flows, {bad} differ")


def check_totals(outcome, name: str, got, want) -> bool:
    """Packet/byte conservation: ``got == want`` exactly."""
    return outcome.check(name, tuple(got) == tuple(want),
                         f"got {tuple(got)} want {tuple(want)}")


def check_accuracy(outcome, name: str, mean_error: float, b: float) -> bool:
    """DISCO's mean relative error stays under the Corollary-1 CoV bound."""
    bound = cov_bound(b)
    return outcome.check(name, 0.0 <= mean_error < bound,
                         f"mean {mean_error:.5f} < {bound:.5f}")
