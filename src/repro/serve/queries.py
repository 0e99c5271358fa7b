"""The daemon's read side: live queries over a running stream session.

A :class:`QueryEngine` answers every ``GET`` the daemon serves.  It
merges two sources:

* **Closed epochs** — the session's rotated
  :class:`~repro.streaming.EpochSnapshot` list, ingested lazily into an
  export-side :class:`~repro.export.collector.Collector` (per-flow
  interval series, totals, top-k).  The collector's scheme/store merge
  guard runs on every ingest, so a daemon can never silently mix
  incomparable epochs.
* **The open epoch** — the carried shard states, decoded through
  :meth:`StreamSession.live_estimates
  <repro.streaming.StreamSession.live_estimates>` /
  ``live_counters``.  Decoding is O(live flows), so both read-outs are
  cached per chunk boundary: between chunks, repeated queries pay one
  dict lookup.

Confidence intervals come from the raw *live counter* via
:func:`repro.core.confidence.confidence_interval` when the scheme
exposes a DISCO growth base ``b`` — the export-protocol property that
collectors can re-derive error bars instead of trusting point
estimates.  Schemes without ``b`` (exact, SAC, ...) answer with
``"confidence": null``.

Flow keys are stringified at the query boundary (the export-record
convention), so ``GET /flows/7`` finds integer flow ``7``.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Tuple

from repro.core.confidence import confidence_interval
from repro.errors import ParameterError
from repro.export.collector import Collector

__all__ = ["QueryEngine"]


class QueryEngine:
    """Answers flow/topk/epoch queries against a live ``StreamSession``."""

    def __init__(self, session) -> None:
        self.session = session
        self.collector = Collector()
        self._ingested = 0
        # Chunk-boundary cache for the open-epoch decode; invalidated by
        # (packets_consumed, epoch_index) movement.
        self._live_key: Optional[Tuple[int, int]] = None
        self._live_estimates: Dict[str, float] = {}
        self._live_keys: Dict[str, Hashable] = {}
        self._live_counters: Optional[Dict[Hashable, int]] = None
        # DISCO-family schemes expose their growth base on the counting
        # function (``DiscoSketch.function.b``); probed once at build.
        scheme = session.scheme_factory()
        b = getattr(scheme, "b", None)
        if b is None:
            b = getattr(getattr(scheme, "function", None), "b", None)
        self.b = float(b) if isinstance(b, (int, float)) else None

    # -- synchronisation -----------------------------------------------------

    def sync(self) -> None:
        """Ingest any newly rotated epochs into the collector."""
        snapshots = self.session.snapshots
        while self._ingested < len(snapshots):
            self.collector.ingest_snapshot(snapshots[self._ingested])
            self._ingested += 1

    def _live(self) -> Dict[str, float]:
        """Open-epoch estimates, string-keyed, cached per chunk boundary."""
        key = (self.session.packets_consumed, self.session.epoch_index)
        if key != self._live_key:
            raw = self.session.live_estimates()
            self._live_estimates = {str(k): float(v) for k, v in raw.items()}
            self._live_keys = {str(k): k for k in raw}
            self._live_counters = None
            self._live_key = key
        return self._live_estimates

    def _counters(self) -> Dict[Hashable, int]:
        """Open-epoch raw counters, cached under the same boundary key."""
        self._live()
        if self._live_counters is None:
            self._live_counters = self.session.live_counters()
        return self._live_counters

    # -- queries -------------------------------------------------------------

    def flow(self, flow_id: str) -> Dict[str, object]:
        """Per-flow answer: epoch series, live estimate, total, confidence."""
        self.sync()
        live = self._live()
        series = self.collector.series(flow_id)
        live_estimate = live.get(flow_id)
        confidence = None
        if self.b is not None and flow_id in self._live_keys:
            counter = self._counters().get(self._live_keys[flow_id])
            if counter is not None:
                ci = confidence_interval(self.b, counter)
                confidence = {
                    "estimate": ci.estimate,
                    "low": ci.low,
                    "high": ci.high,
                    "level": ci.level,
                    "relative_stddev": ci.relative_stddev,
                }
        total = series.total + (live_estimate or 0.0)
        found = bool(series.estimates) or live_estimate is not None
        return {
            "type": "flow",
            "flow": flow_id,
            "found": found,
            "scheme": self.session.scheme_name,
            "mode": self.session.mode,
            "epochs": list(series.estimates),
            "epoch_total": series.total,
            "live_estimate": live_estimate,
            "total": total,
            "confidence": confidence,
        }

    def topk(self, n: int) -> Dict[str, object]:
        """Heavy hitters over closed epochs plus the open one, merged.

        ``n`` is validated eagerly — a bad count must be a
        :class:`ParameterError` (the daemon's 400) before any collector
        work happens, whoever the caller is.  Ties rank by
        ``(-estimate, flow_id)`` so repeated queries at the same chunk
        boundary return a stable order.
        """
        # bool is an int subclass; reject it explicitly so topk(True)
        # cannot masquerade as topk(1).
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParameterError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n!r}")
        self.sync()
        totals: Dict[str, float] = {
            key: self.collector.flow_total(key)
            for key in self.collector.flows()
        }
        for key, estimate in self._live().items():
            totals[key] = totals.get(key, 0.0) + estimate
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return {
            "type": "topk",
            "n": int(n),
            "scheme": self.session.scheme_name,
            "mode": self.session.mode,
            "flows": [{"flow": key, "estimate": est}
                      for key, est in ranked[:n]],
        }

    def epochs(self) -> Dict[str, object]:
        """Every rotated epoch as its ``MeasurementResult.to_json()``."""
        self.sync()
        return {
            "type": "epochs",
            "count": len(self.session.snapshots),
            "epochs": [snap.to_json() for snap in self.session.snapshots],
        }
