"""Error-aware traffic-change detection across measurement epochs.

Diffing two epochs' estimates flags raw changes; an operator also needs
to know which changes are *real* — larger than the estimators' own
noise.  DISCO makes that decidable: each epoch estimate carries a
Theorem-2 relative error, so a change is significant when it exceeds
``z`` combined standard deviations.  The epochs are the
:class:`~repro.streaming.EpochSnapshot` objects a
:class:`~repro.streaming.StreamSession` rotates out.

This is the measurement-backed version of the load-change detection that
sampling papers (Choi et al., SIGMETRICS 2002 — reference [1] of the
DISCO paper) built on adaptive sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List

from repro.core.analysis import coefficient_of_variation
from repro.core.confidence import z_for_confidence
from repro.core.functions import GeometricCountingFunction
from repro.errors import ParameterError

__all__ = ["TrafficChange", "ChangeDetector"]


@dataclass(frozen=True)
class TrafficChange:
    """A statistically significant per-flow change between two epochs."""

    flow: Hashable
    before: float
    after: float
    change: float
    sigma: float
    z_score: float

    @property
    def direction(self) -> str:
        return "up" if self.change > 0 else "down"


class ChangeDetector:
    """Flags flows whose epoch-to-epoch change exceeds the noise floor.

    Parameters
    ----------
    b:
        The DISCO base both epochs were measured with (sets the noise
        model via Theorem 2).
    level:
        Two-sided confidence level for significance (default 99%: change
        alarms should be quiet).
    min_change:
        Absolute floor below which changes are never reported, whatever
        their z-score (filters significant-but-irrelevant mice moves).
    """

    def __init__(self, b: float, level: float = 0.99,
                 min_change: float = 0.0) -> None:
        if min_change < 0:
            raise ParameterError(f"min_change must be >= 0, got {min_change!r}")
        self.function = GeometricCountingFunction(b)
        self.b = b
        self.z = z_for_confidence(level)
        self.level = level
        self.min_change = min_change

    def _sigma_of(self, estimate: float) -> float:
        """Estimator stddev for an epoch estimate (Theorem 2 at its counter)."""
        if estimate <= 0:
            return 0.0
        counter = int(round(self.function.inverse(estimate)))
        return coefficient_of_variation(self.b, counter) * estimate

    def compare(
        self,
        before: Dict[Hashable, float],
        after: Dict[Hashable, float],
    ) -> List[TrafficChange]:
        """Significant changes between two epochs' estimate maps.

        Flows absent from an epoch count as 0 there (births and deaths are
        changes too).  Results are sorted by |z|, largest first.
        """
        changes: List[TrafficChange] = []
        for flow in set(before) | set(after):
            x = before.get(flow, 0.0)
            y = after.get(flow, 0.0)
            change = y - x
            if abs(change) < self.min_change or change == 0.0:
                continue
            sigma = math.hypot(self._sigma_of(x), self._sigma_of(y))
            if sigma == 0.0:
                z_score = math.inf
            else:
                z_score = abs(change) / sigma
            if z_score >= self.z:
                changes.append(TrafficChange(
                    flow=flow, before=x, after=y, change=change,
                    sigma=sigma, z_score=z_score,
                ))
        changes.sort(key=lambda c: c.z_score, reverse=True)
        return changes

    def compare_records(self, before, after) -> List[TrafficChange]:
        """:meth:`compare` on two :class:`~repro.streaming.EpochSnapshot`.

        The snapshots a :class:`~repro.streaming.StreamSession` rotates
        out (``session.snapshots``, ``StreamResult.snapshots``); each
        is read through ``estimates_dict()``.
        """
        return self.compare(before.estimates_dict(), after.estimates_dict())
