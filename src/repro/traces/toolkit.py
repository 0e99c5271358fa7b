"""Workload toolkit: composition, renormalisation and stress generators.

The paper's evaluation (Section V) rests on a handful of fixed scenarios;
the toolkit widens the field to the traffic shapes a deployed measurement
box actually faces:

``merge_traces`` / ``renormalize``
    Composition: union several traces under namespaced flow IDs, and
    rescale a workload to a target packets-per-second budget — the two
    eval-harness staples for building mixed scenarios out of existing
    generators.

``churn_trace``
    Flow churn: a fresh cohort of flows arrives every epoch and departs
    ``lifetime`` epochs later, so the live flow population turns over
    continuously — the flow-table growth/decay stressor.

``adversarial_trace``
    Counter-stressing traffic: runs of consecutive elephant flows (so
    arrival-order bucketed schemes like ICE Buckets concentrate them in
    the same buckets and upscale repeatedly), a geometric saturation
    ramp whose flow sizes cross every power-of-two counter word (AEE
    word saturation, SAC exponent escalation), and a bed of mouse flows
    that must stay accurate next to both.

``bursty_trace``
    On/off traffic: each flow is a train of back-to-back peak-size
    bursts separated by idle-marker packets.  Replay with
    ``order="sequential"`` (or stream the compiled form) to preserve
    burst adjacency.

``big_trace``
    An NLANR-like workload at 100k+ flows that never materialises a
    :class:`~repro.traces.trace.Trace`: it exists only as
    :class:`~repro.traces.compiled.CompiledTrace` segments generated on
    the fly, consumable solely through ``iter_chunks`` / streaming, so
    peak RSS stays bounded by one segment regardless of trace size.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import random
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ParameterError
from repro.traces.compiled import CompiledTrace, TraceChunk
from repro.traces.nlanr import (
    NLANR_PROFILE_MIX,
    _CONSTANT_LENGTH_CHOICES,
    _JITTER_BASE_CHOICES,
)
from repro.traces.synthetic import packet_length_sampler
from repro.traces.trace import Trace

__all__ = [
    "merge_traces",
    "renormalize",
    "churn_trace",
    "adversarial_trace",
    "bursty_trace",
    "big_trace",
    "BigTrace",
]


def _as_rng(rng: Union[None, int, random.Random]) -> random.Random:
    return rng if isinstance(rng, random.Random) else random.Random(rng)


# -- composition ---------------------------------------------------------------


def merge_traces(traces: Sequence[Trace], namespace: bool = True,
                 name: Optional[str] = None) -> Trace:
    """Union several traces into one workload.

    With ``namespace=True`` (the default) every flow key is prefixed with
    its source index (``"0/flow"``, ``"1/flow"``, ...), so identically
    keyed flows from different sources never collide — the merged trace
    keeps one flow per source flow.  With ``namespace=False`` keys are
    taken verbatim and any collision raises
    :class:`~repro.errors.ParameterError`.
    """
    if not traces:
        raise ParameterError("at least one trace is required")
    flows: Dict[Hashable, Tuple[int, ...]] = {}
    for index, trace in enumerate(traces):
        for flow, lengths in trace.flows.items():
            key: Hashable = f"{index}/{flow}" if namespace else flow
            if key in flows:
                raise ParameterError(
                    f"flow key collision on {key!r}; pass namespace=True"
                )
            flows[key] = lengths
    return Trace(flows, name=name or "+".join(t.name for t in traces))


def renormalize(trace: Trace, target_pps: float,
                duration: float = 1.0) -> Trace:
    """Rescale ``trace`` so it carries ``target_pps * duration`` packets.

    Every flow's packet list is repeated or thinned by the same factor:
    a factor ``>= 1`` repeats the list (a fractional remainder takes a
    prefix), a factor ``< 1`` keeps a prefix.  Packet sizes are untouched,
    so the flow-size *distribution shape* and per-flow length statistics
    survive while the total packet budget lands on the target — the knob
    for replaying one workload at several offered loads.  Per-flow
    rounding keeps at least one packet per flow, so the realised total is
    approximate for factors near or below ``1 / mean_flow_packets``.
    """
    if not (target_pps > 0):
        raise ParameterError(f"target_pps must be > 0, got {target_pps!r}")
    if not (duration > 0):
        raise ParameterError(f"duration must be > 0, got {duration!r}")
    total = sum(len(lengths) for lengths in trace.flows.values())
    factor = max(1.0, target_pps * duration) / total
    flows: Dict[Hashable, Tuple[int, ...]] = {}
    for flow, lengths in trace.flows.items():
        keep = max(1, int(round(len(lengths) * factor)))
        repeats, remainder = divmod(keep, len(lengths))
        flows[flow] = lengths * repeats + lengths[:remainder]
    return Trace(flows, name=f"{trace.name}@{target_pps:g}pps")


# -- stress generators ---------------------------------------------------------


def churn_trace(
    epochs: int = 8,
    flows_per_epoch: int = 120,
    lifetime: int = 2,
    mean_flow_packets: float = 32.0,
    rng: Union[None, int, random.Random] = None,
) -> Trace:
    """Flow churn: per-epoch cohorts of flows that arrive and depart.

    Epoch ``e`` spawns ``flows_per_epoch`` flows keyed
    ``"churn/e<e>/f<i>"``; each lives ``min(lifetime, epochs - e)``
    epochs and carries an independent exponential packet budget per live
    epoch.  The live population turns over continuously — short-lived
    cohorts dominate the flow *count* while long totals stay bounded —
    which is the flow-table arrival/departure stressor the fixed
    scenarios never produce.
    """
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs!r}")
    if flows_per_epoch < 1:
        raise ParameterError(
            f"flows_per_epoch must be >= 1, got {flows_per_epoch!r}")
    if lifetime < 1:
        raise ParameterError(f"lifetime must be >= 1, got {lifetime!r}")
    if not (mean_flow_packets >= 1):
        raise ParameterError(
            f"mean_flow_packets must be >= 1, got {mean_flow_packets!r}")
    rand = _as_rng(rng)
    length_sampler = packet_length_sampler()
    flows: Dict[Hashable, List[int]] = {}
    for epoch in range(epochs):
        live = min(lifetime, epochs - epoch)
        for i in range(flows_per_epoch):
            size = 0
            for _ in range(live):
                size += 1 + int(rand.expovariate(1.0 / mean_flow_packets))
            flows[f"churn/e{epoch}/f{i}"] = [
                length_sampler(rand) for _ in range(size)
            ]
    return Trace(flows, name=f"churn(e={epochs},f={flows_per_epoch})")


def adversarial_trace(
    num_elephants: int = 32,
    elephant_packets: int = 2048,
    num_mice: int = 256,
    mice_packets: int = 4,
    ramp_flows: int = 12,
    ramp_start: float = 4.0,
    ramp_factor: float = 2.0,
    rng: Union[None, int, random.Random] = None,
) -> Trace:
    """Counter-stressing traffic aimed at the comparators' failure modes.

    Three flow populations:

    * **elephants** — ``num_elephants`` consecutive flows of
      ``elephant_packets`` 1500-byte packets.  Under sequential /
      compiled-order replay they arrive back to back, so arrival-order
      bucketed schemes (ICE Buckets) pack whole buckets with elephants
      and must upscale repeatedly instead of isolating one.
    * **saturation ramp** — flow ``k`` carries about ``ramp_start *
      ramp_factor**k`` packets, crossing every power-of-two counter
      word along the way: the probe for AEE word saturation and SAC
      exponent escalation.
    * **mice** — tiny ACK-sized flows that must stay accurate while the
      elephants coarsen shared state around them.
    """
    if num_elephants < 0 or num_mice < 0 or ramp_flows < 0:
        raise ParameterError("flow counts must be >= 0")
    if num_elephants + num_mice + ramp_flows < 1:
        raise ParameterError("at least one flow is required")
    if elephant_packets < 1 or mice_packets < 1:
        raise ParameterError("per-flow packet counts must be >= 1")
    if not (ramp_start >= 1):
        raise ParameterError(f"ramp_start must be >= 1, got {ramp_start!r}")
    if not (ramp_factor > 1):
        raise ParameterError(f"ramp_factor must be > 1, got {ramp_factor!r}")
    rand = _as_rng(rng)
    flows: Dict[Hashable, List[int]] = {}
    for i in range(num_elephants):
        flows[f"adv/ele/{i}"] = [1500] * elephant_packets
    size = ramp_start
    for k in range(ramp_flows):
        flows[f"adv/ramp/{k}"] = [1500] * max(1, int(round(size)))
        size *= ramp_factor
    for i in range(num_mice):
        flows[f"adv/mouse/{i}"] = [rand.choice((40, 52, 64))] * mice_packets
    return Trace(
        flows,
        name=f"adversarial(ele={num_elephants},ramp={ramp_flows})",
    )


def bursty_trace(
    num_flows: int = 160,
    mean_bursts: float = 4.0,
    mean_burst_packets: float = 32.0,
    peak_length: int = 1500,
    idle_length: int = 40,
    rng: Union[None, int, random.Random] = None,
) -> Trace:
    """On/off traffic: trains of peak-size bursts separated by idle markers.

    Each flow emits ``~mean_bursts`` bursts of ``~mean_burst_packets``
    back-to-back ``peak_length``-byte packets, each burst closed by one
    ``idle_length``-byte packet (the off-gap marker).  Replayed with
    ``order="sequential"`` — or streamed, which consumes compiled
    flow-major chunks — burst adjacency is preserved, so per-epoch
    volume swings between peak and idle instead of averaging out.
    """
    if num_flows < 1:
        raise ParameterError(f"num_flows must be >= 1, got {num_flows!r}")
    if not (mean_bursts >= 1) or not (mean_burst_packets >= 1):
        raise ParameterError("mean_bursts and mean_burst_packets must be >= 1")
    if peak_length < 1 or idle_length < 1:
        raise ParameterError("packet lengths must be >= 1")
    rand = _as_rng(rng)
    flows: Dict[Hashable, List[int]] = {}
    for i in range(num_flows):
        bursts = 1 + int(rand.expovariate(1.0 / mean_bursts))
        packets: List[int] = []
        for _ in range(bursts):
            on = 1 + int(rand.expovariate(1.0 / mean_burst_packets))
            packets.extend([peak_length] * on)
            packets.append(idle_length)
        flows[f"burst/{i}"] = packets
    return Trace(flows, name=f"bursty(n={num_flows})")


# -- the chunk-only big trace --------------------------------------------------

#: Domain-separation tags for the per-purpose NumPy seed sequences, so
#: flow sizes and per-segment packet lengths draw from independent streams.
_SIZES_TAG = 0x5123
_SEGMENT_TAG = 0x5E65

_PROFILES = ("constant", "bimodal", "jittered")
_PROFILE_CDF = np.cumsum([NLANR_PROFILE_MIX[p] for p in _PROFILES])


class BigTrace:
    """An NLANR-like workload that exists only as compiled chunks.

    Flow volumes are heavy-tailed (Pareto over packet counts) and packet
    lengths follow the same three empirical profiles as
    :func:`~repro.traces.nlanr.nlanr_like` (constant / bimodal /
    jittered), but nothing list-shaped is ever built: flows are cut into
    ``segment_flows``-sized groups, each group is synthesised directly
    as a :class:`~repro.traces.compiled.CompiledTrace` when needed, and
    :meth:`iter_chunks` stitches the segments into the same canonical
    chunk boundaries a compiled trace would produce.  Peak RSS is
    bounded by one segment's arrays, independent of ``num_flows``.

    The surface is deliberately the *streaming* subset of the trace
    contract — ``iter_chunks`` / ``num_packets`` / ``true_totals`` —
    so :meth:`repro.streaming.StreamSession.consume` (and therefore
    :func:`repro.facade.stream`) accepts one directly.  The one-shot
    :func:`repro.facade.replay` path needs a materialised trace; use
    :meth:`materialize` for test-sized instances.
    """

    def __init__(
        self,
        num_flows: int = 100_000,
        mean_flow_packets: float = 40.0,
        pareto_shape: float = 1.2,
        seed: Optional[int] = 0,
        segment_flows: int = 8192,
        max_flow_packets: int = 50_000,
    ) -> None:
        if num_flows < 1:
            raise ParameterError(f"num_flows must be >= 1, got {num_flows!r}")
        if not (mean_flow_packets >= 1):
            raise ParameterError(
                f"mean_flow_packets must be >= 1, got {mean_flow_packets!r}")
        if not (pareto_shape > 1.0):
            raise ParameterError(
                f"pareto_shape must be > 1, got {pareto_shape!r}")
        if segment_flows < 1:
            raise ParameterError(
                f"segment_flows must be >= 1, got {segment_flows!r}")
        if max_flow_packets < 1:
            raise ParameterError(
                f"max_flow_packets must be >= 1, got {max_flow_packets!r}")
        self.seed = 0 if seed is None else int(seed)
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed!r}")
        self.segment_flows = int(segment_flows)
        self.mean_flow_packets = float(mean_flow_packets)
        self.pareto_shape = float(pareto_shape)
        self.max_flow_packets = int(max_flow_packets)
        # Per-flow packet counts: the only O(num_flows) state held for
        # the trace's lifetime (int64 — 0.8 MB per 100k flows).
        rng = np.random.default_rng(
            np.random.SeedSequence([_SIZES_TAG, self.seed, num_flows]))
        scale = mean_flow_packets * (pareto_shape - 1.0) / pareto_shape
        u = rng.random(num_flows)
        sizes = np.ceil(scale / u ** (1.0 / pareto_shape)).astype(np.int64)
        np.clip(sizes, 1, self.max_flow_packets, out=sizes)
        self._sizes = sizes
        self._total = int(sizes.sum())
        self._volumes: Optional[np.ndarray] = None
        self.name = f"big-trace(n={num_flows},seed={self.seed})"

    # -- streaming-surface properties ---------------------------------------

    @property
    def num_flows(self) -> int:
        return len(self._sizes)

    @property
    def num_packets(self) -> int:
        return self._total

    @property
    def num_segments(self) -> int:
        return -(-self.num_flows // self.segment_flows)

    def __len__(self) -> int:
        return self.num_flows

    def __repr__(self) -> str:
        return (f"BigTrace(name={self.name!r}, flows={self.num_flows}, "
                f"packets={self.num_packets}, segments={self.num_segments})")

    # -- segment synthesis ---------------------------------------------------

    def flow_key(self, flow_id: int) -> str:
        return f"big/{flow_id}"

    def _segment(self, index: int) -> Tuple[CompiledTrace, np.ndarray]:
        """Synthesise segment ``index`` (flows ``[lo, hi)`` by flow id).

        Returns the segment as a compiled trace (rows sorted by
        descending packet count, per the compiled contract) plus the
        flow-id array aligned with its rows.  Regenerating the same
        index always yields bit-identical arrays — each segment owns a
        seed-sequence child keyed by ``(seed, index)``.
        """
        lo = index * self.segment_flows
        hi = min(lo + self.segment_flows, self.num_flows)
        if not (0 <= lo < hi):
            raise ParameterError(f"segment index {index!r} out of range")
        counts = self._sizes[lo:hi]
        order = np.argsort(-counts, kind="stable")
        counts = counts[order]
        ids = (lo + order).astype(np.int64)
        n = len(counts)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        rng = np.random.default_rng(
            np.random.SeedSequence([_SEGMENT_TAG, self.seed, index]))
        # Per-flow profile draws (one uniform each), then one uniform per
        # packet: the draw schedule is fixed, so content never depends on
        # chunking or how often a segment is regenerated.
        profile = np.searchsorted(_PROFILE_CDF, rng.random(n))
        const_len = np.asarray(_CONSTANT_LENGTH_CHOICES, dtype=np.float64)[
            rng.integers(0, len(_CONSTANT_LENGTH_CHOICES), n)]
        data_frac = rng.uniform(0.3, 0.9, n)
        base = np.asarray(_JITTER_BASE_CHOICES, dtype=np.float64)[
            rng.integers(0, len(_JITTER_BASE_CHOICES), n)]
        jitter = np.maximum(4.0, np.floor(base / 8.0))
        row = np.repeat(np.arange(n), counts)
        u = rng.random(total)
        lengths = np.where(
            profile[row] == 0,
            const_len[row],
            np.where(
                profile[row] == 1,
                np.where(u < data_frac[row], 1500.0, 40.0),
                np.clip(np.rint(base[row] + (2.0 * u - 1.0) * jitter[row]),
                        40.0, 1500.0),
            ),
        )
        volumes = (np.add.reduceat(lengths, offsets[:-1]).astype(np.int64)
                   if n else np.zeros(0, dtype=np.int64))
        keys = [self.flow_key(int(i)) for i in ids]
        compiled = CompiledTrace(name=f"{self.name}#seg{index}", keys=keys,
                                 lengths=lengths, offsets=offsets,
                                 sizes=counts, volumes=volumes)
        return compiled, ids

    # -- the chunk stream ----------------------------------------------------

    def iter_chunks(self, chunk_packets: int,
                    start: int = 0) -> Iterator[TraceChunk]:
        """Yield :class:`TraceChunk` windows of ``chunk_packets`` packets.

        Boundaries are canonical — chunk ``k`` covers global packets
        ``[start + k * chunk_packets, ...)`` exactly as
        :meth:`CompiledTrace.iter_chunks` would cut them — stitched
        across segment boundaries, so a stream resume (which passes the
        consumed prefix as ``start``) reproduces the uninterrupted run's
        chunks bit for bit.  Only the segment under the cursor is
        materialised.
        """
        if chunk_packets < 1:
            raise ParameterError(
                f"chunk_packets must be >= 1, got {chunk_packets!r}")
        total = self.num_packets
        if start < 0 or start > total:
            raise ParameterError(
                f"start must be in [0, {total}], got {start!r}")
        index = start // chunk_packets
        chunk_start = start
        budget = chunk_packets
        keys: List[Hashable] = []
        lens: List[np.ndarray] = []
        pos = 0
        for seg_index in range(self.num_segments):
            seg_packets = int(
                self._sizes[seg_index * self.segment_flows:
                            (seg_index + 1) * self.segment_flows].sum())
            if pos + seg_packets <= start:
                pos += seg_packets
                continue
            seg, _ = self._segment(seg_index)
            offsets = seg.offsets
            for i, key in enumerate(seg.keys):
                glo = pos + int(offsets[i])
                ghi = pos + int(offsets[i + 1])
                if ghi <= start:
                    continue
                lo = max(glo, start)
                while lo < ghi:
                    take = min(budget, ghi - lo)
                    keys.append(key)
                    lens.append(seg.lengths[lo - pos:lo - pos + take])
                    budget -= take
                    lo += take
                    if budget == 0:
                        yield TraceChunk(index=index, start=chunk_start,
                                         packets=chunk_packets, keys=keys,
                                         lengths=lens)
                        index += 1
                        chunk_start += chunk_packets
                        keys, lens, budget = [], [], chunk_packets
            pos += seg_packets
        if budget < chunk_packets:
            yield TraceChunk(index=index, start=chunk_start,
                             packets=chunk_packets - budget, keys=keys,
                             lengths=lens)

    # -- ground truth and test escape hatch ----------------------------------

    def true_totals_array(self, mode: str) -> np.ndarray:
        """Ground truth as ``int64``, indexed by flow id (``big/<id>``)."""
        if mode == "size":
            return self._sizes
        if mode == "volume":
            if self._volumes is None:
                volumes = np.zeros(self.num_flows, dtype=np.int64)
                for seg_index in range(self.num_segments):
                    seg, ids = self._segment(seg_index)
                    volumes[ids] = seg.volumes
                self._volumes = volumes
            return self._volumes
        raise ParameterError(f"mode must be 'size' or 'volume', got {mode!r}")

    def true_totals(self, mode: str) -> Dict[Hashable, int]:
        """Per-flow ground truth, same contract as :meth:`Trace.true_totals`."""
        totals = self.true_totals_array(mode)
        return {self.flow_key(i): int(t) for i, t in enumerate(totals)}

    def materialize(self, max_packets: int = 2_000_000) -> Trace:
        """Decompress into a :class:`Trace` — test-sized instances only.

        The whole point of a big trace is never holding it in one piece,
        so this refuses beyond ``max_packets``; it exists so tests can
        compare a streamed run against a one-shot replay of the same
        chunks.
        """
        if self.num_packets > max_packets:
            raise ParameterError(
                f"{self.name} has {self.num_packets} packets "
                f"(> {max_packets}); big traces are streaming-only — "
                f"consume via iter_chunks()/stream()"
            )
        flows: Dict[Hashable, List[int]] = {}
        for seg_index in range(self.num_segments):
            seg, _ = self._segment(seg_index)
            for i, key in enumerate(seg.keys):
                flows[key] = [
                    int(l) for l in
                    seg.lengths[seg.offsets[i]:seg.offsets[i + 1]]
                ]
        return Trace(flows, name=self.name)


def big_trace(
    num_flows: int = 100_000,
    mean_flow_packets: float = 40.0,
    pareto_shape: float = 1.2,
    seed: Optional[int] = 0,
    segment_flows: int = 8192,
    max_flow_packets: int = 50_000,
) -> BigTrace:
    """Build a :class:`BigTrace` — the NLANR-class chunk-only workload.

    At the defaults (100k flows, ~40 packets per flow) the stream is a
    few million packets, generated segment by segment; RSS stays bounded
    by ``segment_flows`` regardless of ``num_flows``.
    """
    return BigTrace(num_flows=num_flows, mean_flow_packets=mean_flow_packets,
                    pareto_shape=pareto_shape, seed=seed,
                    segment_flows=segment_flows,
                    max_flow_packets=max_flow_packets)
