"""The daemon's read side: live queries over a running stream session.

A :class:`QueryEngine` answers every ``GET`` the daemon serves.  It
merges two sources:

* **Closed epochs** — the session's rotated
  :class:`~repro.streaming.EpochSnapshot` list.  Each snapshot is
  folded once, in snapshot order, into one running per-flow total
  column (``float64``, plus a key → slot dict).
* **The open epoch** — the carried shard states, read through
  :meth:`StreamSession.live_flow <repro.streaming.StreamSession.live_flow>`
  (one flow) and :meth:`~repro.streaming.StreamSession.live_readout`
  (one shard, as arrays).

Per-query cost contract:

* ``GET /flows/{id}`` costs O(answer): the id resolves to its key, the
  key to its shard and lane, and the session decodes that one row
  (``replicas`` lanes; a coupled kernel decodes the key's shard once
  per chunk boundary).  The closed-epoch series is one dict lookup per
  snapshot shard.  Decoded lanes are counted as
  ``serve.query.lanes_decoded``.
* ``GET /topk`` is a column operation: the live estimate arrays are
  added to a copy of the running totals and the top ``n`` selected
  with ``np.partition``; only the ``n`` winners (and ties at the cut)
  are sorted in Python.  Folding a snapshot costs O(its flows), once
  per rotation.

Both sum a flow's epochs in epoch order, so ``epoch_total`` equals the
flow's top-k total bit for bit.

Confidence intervals come from the raw *live counter* via
:func:`repro.core.confidence.confidence_interval` when the scheme
exposes a DISCO growth base ``b`` — the export-protocol property that
collectors can re-derive error bars instead of trusting point
estimates.  Schemes without ``b`` (exact, SAC, ...) answer with
``"confidence": null``.

Flow ids are ``str(key)`` (the export-record convention).  An id is
parsed to a key once: the str itself, then an ``int`` when
``str(int(id)) == id`` — so ``GET /flows/7`` finds integer flow ``7``
and ``"007"`` finds nothing.  Keys of any other type (tuples,
``FiveTuple``, bytes) are found through a ``str(key)`` table that holds
only such keys, so int- and str-keyed sessions never build one.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.confidence import confidence_interval
from repro.errors import ParameterError
from repro.streaming import _grown

__all__ = ["QueryEngine"]

#: Key types a flow id parses to directly; every other type is looked up
#: by ``str(key)``.
_PARSED = {int, str}


def _parse(flow_id: str) -> List[Hashable]:
    """The keys ``flow_id`` may name, in lookup order."""
    keys: List[Hashable] = [flow_id]
    try:
        number = int(flow_id)
    except ValueError:
        return keys
    if str(number) == flow_id:
        keys.append(number)
    return keys


def _named(keys: List[Hashable]) -> Dict[str, Hashable]:
    """``{str(key): key}`` for the keys an id cannot parse to."""
    if set(map(type, keys)) <= _PARSED:
        return {}
    return {str(key): key for key in keys if type(key) not in _PARSED}


class QueryEngine:
    """Answers flow/topk/epoch queries against a live ``StreamSession``.

    ``telemetry`` receives ``serve.query.lanes_decoded`` (the daemon
    passes its own session); ``None`` records nothing.
    """

    def __init__(self, session,
                 telemetry: Optional[obs.Telemetry] = None) -> None:
        self.session = session
        self.telemetry = (telemetry if telemetry is not None
                          else obs.NULL_TELEMETRY)
        #: Snapshots folded into the running totals so far.
        self._folded = 0
        #: Closed-epoch totals per slot, and each slot's key.
        self._totals = np.zeros(0, dtype=np.float64)
        self._slots: Dict[Hashable, int] = {}
        self._slot_keys: List[Hashable] = []
        #: ``str(key) -> key`` for keys that are neither int nor str:
        #: closed epochs (grown per fold), and the open epoch (grown by
        #: scanning the keys each shard gained since the last scan).
        self._closed_named: Dict[str, Hashable] = {}
        self._live_named: Dict[str, Hashable] = {}
        self._live_epoch = -1
        self._live_scanned: List[int] = []
        # DISCO-family schemes expose their growth base on the counting
        # function (``DiscoSketch.function.b``); probed once at build.
        scheme = session.scheme_factory()
        b = getattr(scheme, "b", None)
        if b is None:
            b = getattr(getattr(scheme, "function", None), "b", None)
        self.b = float(b) if isinstance(b, (int, float)) else None

    # -- synchronisation -----------------------------------------------------

    def sync(self) -> None:
        """Fold any newly rotated epochs into the running totals."""
        snapshots = self.session.snapshots
        while self._folded < len(snapshots):
            for estimates in snapshots[self._folded].shard_estimates:
                self._fold(estimates)
            self._folded += 1

    def _fold(self, estimates: Dict[Hashable, float]) -> None:
        """Add one snapshot shard's ``{key: estimate}`` to the totals."""
        keys = list(estimates)
        slots = np.fromiter(map(self._slots.get, keys, repeat(-1)),
                            dtype=np.int64, count=len(keys))
        fresh = np.flatnonzero(slots < 0)
        if fresh.size:
            first = len(self._slot_keys)
            slots[fresh] = first + np.arange(fresh.size)
            new_keys = list(map(keys.__getitem__, fresh.tolist()))
            self._slots.update(zip(new_keys, range(first, first + fresh.size)))
            self._slot_keys.extend(new_keys)
            self._totals = _grown(self._totals, len(self._slot_keys), 0)
            self._closed_named.update(_named(new_keys))
        self._totals[slots] += np.fromiter(estimates.values(),
                                           dtype=np.float64, count=len(keys))

    def _live_name(self, flow_id: str) -> Optional[Hashable]:
        """The open-epoch key named ``flow_id`` that an id cannot parse to.

        Scans only the keys each shard gained since the last scan.
        """
        session = self.session
        if self._live_epoch != session.epoch_index:
            self._live_epoch = session.epoch_index
            self._live_named = {}
            self._live_scanned = [0] * session.shards
        for shard, scanned in enumerate(self._live_scanned):
            keys = session.live_keys(shard)
            self._live_named.update(_named(keys[scanned:]))
            self._live_scanned[shard] = len(keys)
        return self._live_named.get(flow_id)

    def _resolve(self, flow_id: str
                 ) -> Tuple[Optional[Hashable], Optional[Tuple[float, int]]]:
        """``flow_id``'s key and its live ``(estimate, counter)``."""
        for key in _parse(flow_id):
            live = self.session.live_flow(key)
            if live is not None or key in self._slots:
                return key, live
        key = self._closed_named.get(flow_id)
        if key is None:
            key = self._live_name(flow_id)
        if key is None:
            return None, None
        return key, self.session.live_flow(key)

    # -- queries -------------------------------------------------------------

    def flow(self, flow_id: str) -> Dict[str, object]:
        """Per-flow answer: epoch series, live estimate, total, confidence."""
        self.sync()
        decoded = self.session.live_lanes_decoded
        key, live = self._resolve(flow_id)
        self.telemetry.count("serve.query.lanes_decoded",
                             self.session.live_lanes_decoded - decoded)
        epochs: List[float] = []
        if key is not None and key in self._slots:
            epochs = [float(estimates[key])
                      for snapshot in self.session.snapshots
                      for estimates in snapshot.shard_estimates
                      if key in estimates]
        epoch_total = sum(epochs, 0.0)
        live_estimate = None if live is None else live[0]
        confidence = None
        if self.b is not None and live is not None:
            ci = confidence_interval(self.b, live[1])
            confidence = {
                "estimate": ci.estimate,
                "low": ci.low,
                "high": ci.high,
                "level": ci.level,
                "relative_stddev": ci.relative_stddev,
            }
        return {
            "type": "flow",
            "flow": flow_id,
            "found": bool(epochs) or live is not None,
            "scheme": self.session.scheme_name,
            "mode": self.session.mode,
            "epochs": epochs,
            "epoch_total": epoch_total,
            "live_estimate": live_estimate,
            "total": epoch_total + (live_estimate or 0.0),
            "confidence": confidence,
        }

    def topk(self, n: int) -> Dict[str, object]:
        """Heavy hitters over closed epochs plus the open one, merged.

        ``n`` is validated eagerly — a bad count must be a
        :class:`ParameterError` (the daemon's 400) before any work
        happens, whoever the caller is.  Ties rank by
        ``(-estimate, str(key))`` so repeated queries at the same chunk
        boundary return a stable order.
        """
        # bool is an int subclass; reject it explicitly so topk(True)
        # cannot masquerade as topk(1).
        if isinstance(n, bool) or not isinstance(n, int):
            raise ParameterError(f"n must be an integer, got {n!r}")
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n!r}")
        self.sync()
        closed = len(self._slot_keys)
        totals = self._totals[:closed].copy()
        columns, fresh_keys = [totals], []
        for shard in range(self.session.shards):
            keys, estimates, _ = self.session.live_readout(shard)
            slots = np.fromiter(map(self._slots.get, keys, repeat(-1)),
                                dtype=np.int64, count=len(keys))
            held = slots >= 0
            totals[slots[held]] += estimates[held]
            fresh = np.flatnonzero(~held)
            columns.append(estimates[fresh])
            fresh_keys.extend(map(keys.__getitem__, fresh.tolist()))
        values = np.concatenate(columns)
        picked = range(values.size)
        if n < values.size:
            cut = np.partition(values, values.size - n)[values.size - n]
            picked = np.flatnonzero(values >= cut).tolist()
        ranked = sorted(
            (-float(values[i]), str(self._slot_keys[i] if i < closed
                                    else fresh_keys[i - closed]))
            for i in picked)[:n]
        return {
            "type": "topk",
            "n": int(n),
            "scheme": self.session.scheme_name,
            "mode": self.session.mode,
            "flows": [{"flow": name, "estimate": -negated}
                      for negated, name in ranked],
        }

    def epochs(self) -> Dict[str, object]:
        """Every rotated epoch as its ``MeasurementResult.to_json()``."""
        self.sync()
        return {
            "type": "epochs",
            "count": len(self.session.snapshots),
            "epochs": [snap.to_json() for snap in self.session.snapshots],
        }
