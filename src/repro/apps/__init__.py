"""Applications built on DISCO's on-line estimates.

Measurement intervals are the epochs of
:class:`~repro.streaming.StreamSession` (``stream(..., epoch_packets=)``);
:mod:`repro.apps.anomaly` compares two of its
:class:`~repro.streaming.EpochSnapshot` exports.

* :mod:`repro.apps.heavyhitters` — streaming threshold detection, top-k.
* :mod:`repro.apps.billing` — per-account usage with confidence bands.
* :mod:`repro.apps.anomaly` — error-aware change detection between epochs.
* :mod:`repro.apps.distribution` — flow-size histograms and quantiles.
* :mod:`repro.apps.moments` — entropy, Gini and concentration.
"""

from repro.apps.anomaly import ChangeDetector, TrafficChange
from repro.apps.billing import AccountBill, UsageAccountant
from repro.apps.distribution import Histogram, log_histogram, quantiles, tail_fraction
from repro.apps.heavyhitters import Detection, HeavyHitterDetector, top_k
from repro.apps.moments import (
    ConcentrationReport,
    concentration,
    entropy,
    gini,
    second_moment,
    top_share,
)

__all__ = [
    "Detection",
    "HeavyHitterDetector",
    "top_k",
    "AccountBill",
    "UsageAccountant",
    "Histogram",
    "log_histogram",
    "quantiles",
    "tail_fraction",
    "ChangeDetector",
    "TrafficChange",
    "ConcentrationReport",
    "concentration",
    "entropy",
    "gini",
    "second_moment",
    "top_share",
]
