"""The in-memory trace representation used by every experiment.

A :class:`Trace` is an immutable mapping from flow ID to that flow's
packet-length sequence, plus helpers for the statistics the paper
reports about its traces (flow counts, average flow size/volume,
intra-flow packet-length variance — the quantity Table III blames for
ANLS-I's failure) and for replaying the packets in different arrival
orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.errors import ParameterError
from repro.flows.packet import FlowKey, Packet

__all__ = ["Trace", "TraceStats"]


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics in the shape the paper reports them.

    ``length_variance_over_10_fraction`` is the fraction of flows whose
    intra-flow packet-length variance exceeds 10 (Table III's predictor of
    ANLS-I failure); ``mean_length_variance`` is its mean over flows.
    """

    num_flows: int
    num_packets: int
    total_bytes: int
    mean_flow_packets: float
    mean_flow_bytes: float
    mean_packet_length: float
    length_variance_over_10_fraction: float
    mean_length_variance: float


class Trace:
    """A set of flows with their packet-length sequences.

    A :class:`Trace` cannot be changed after it is built: :attr:`flows`
    is a read-only view whose values are tuples, and :attr:`name` has no
    setter.  To derive a different workload, build a new trace, e.g.
    ``Trace({**trace.flows, key: lengths}, name=...)``.  That is what
    lets :func:`~repro.traces.compiled.compile_trace` compile each trace
    object once and find it again by identity.

    Parameters
    ----------
    flows:
        Mapping of flow key to sequence of packet lengths (bytes).
    name:
        Label used in experiment reports.
    """

    def __init__(self, flows: Mapping[FlowKey, Sequence[int]], name: str = "trace") -> None:
        for flow, lengths in flows.items():
            if not lengths:
                raise ParameterError(f"flow {flow!r} has no packets")
        # The dict, not a proxy over it, is the state: a mappingproxy
        # attribute would make the trace unpicklable.
        self._flows: Dict[FlowKey, Tuple[int, ...]] = {
            f: tuple(ls) for f, ls in flows.items()}
        self._name = name

    @property
    def flows(self) -> Mapping[FlowKey, Tuple[int, ...]]:
        """Read-only view: flow key -> tuple of packet lengths."""
        return MappingProxyType(self._flows)

    @property
    def name(self) -> str:
        return self._name

    # -- truth -------------------------------------------------------------

    def true_size(self, flow: FlowKey) -> int:
        """Number of packets in the flow."""
        return len(self._flows[flow])

    def true_volume(self, flow: FlowKey) -> int:
        """Number of bytes in the flow."""
        return sum(self._flows[flow])

    def true_totals(self, mode: str) -> Dict[FlowKey, int]:
        """Per-flow ground truth for the given counting mode."""
        if mode == "size":
            return {f: len(ls) for f, ls in self._flows.items()}
        if mode == "volume":
            return {f: sum(ls) for f, ls in self._flows.items()}
        raise ParameterError(f"mode must be 'size' or 'volume', got {mode!r}")

    def __len__(self) -> int:
        return len(self._flows)

    def __contains__(self, flow: FlowKey) -> bool:
        return flow in self._flows

    @property
    def num_packets(self) -> int:
        return sum(len(ls) for ls in self._flows.values())

    # -- replay --------------------------------------------------------------

    def packets(
        self,
        order: str = "shuffled",
        rng: Union[None, int, random.Random] = None,
    ) -> Iterator[Packet]:
        """Yield the trace's packets as :class:`~repro.flows.Packet`.

        ``order`` controls interleaving across flows:

        * ``"shuffled"`` — uniformly random global order (burst length 1 in
          expectation, matching the paper's non-bursty arrival pattern);
        * ``"sequential"`` — all packets of a flow back-to-back (maximum
          burstiness; exercises burst aggregation);
        * ``"asis"`` — the trace's stored order, verbatim.  For this
          flow-keyed representation that coincides with ``"sequential"``,
          but it never buffers: packets stream straight out of the flow
          lists, which is what large replays want;
        * ``"roundrobin"`` — one packet per flow per round.
        """
        if order in ("sequential", "asis"):
            for flow, lengths in self._flows.items():
                for length in lengths:
                    yield Packet(flow=flow, length=length)
            return
        if order == "shuffled":
            rand = rng if isinstance(rng, random.Random) else random.Random(rng)
            pairs: List[Tuple[FlowKey, int]] = [
                (flow, length)
                for flow, lengths in self._flows.items()
                for length in lengths
            ]
            rand.shuffle(pairs)
            for flow, length in pairs:
                yield Packet(flow=flow, length=length)
            return
        if order == "roundrobin":
            iterators = {flow: iter(lengths) for flow, lengths in self._flows.items()}
            while iterators:
                exhausted = []
                for flow, it in iterators.items():
                    try:
                        yield Packet(flow=flow, length=next(it))
                    except StopIteration:
                        exhausted.append(flow)
                for flow in exhausted:
                    del iterators[flow]
            return
        raise ParameterError(
            f"order must be 'shuffled', 'sequential', 'asis' or 'roundrobin', "
            f"got {order!r}"
        )

    def packet_pairs(
        self, order: str = "shuffled", rng: Union[None, int, random.Random] = None
    ) -> Iterator[Tuple[FlowKey, int]]:
        """Like :meth:`packets` but yields bare ``(flow, length)`` tuples."""
        for packet in self.packets(order=order, rng=rng):
            yield packet.flow, packet.length

    # -- statistics ----------------------------------------------------------

    def length_variance(self, flow: FlowKey) -> float:
        """Population variance of the flow's packet lengths."""
        lengths = self._flows[flow]
        n = len(lengths)
        mean = sum(lengths) / n
        return sum((l - mean) ** 2 for l in lengths) / n

    def stats(self) -> TraceStats:
        num_flows = len(self._flows)
        num_packets = self.num_packets
        total_bytes = sum(sum(ls) for ls in self._flows.values())
        variances = [self.length_variance(f) for f in self._flows]
        over_10 = sum(1 for v in variances if v > 10.0)
        return TraceStats(
            num_flows=num_flows,
            num_packets=num_packets,
            total_bytes=total_bytes,
            mean_flow_packets=num_packets / num_flows if num_flows else 0.0,
            mean_flow_bytes=total_bytes / num_flows if num_flows else 0.0,
            mean_packet_length=total_bytes / num_packets if num_packets else 0.0,
            length_variance_over_10_fraction=over_10 / num_flows if num_flows else 0.0,
            mean_length_variance=sum(variances) / num_flows if num_flows else 0.0,
        )

    def subsample(self, num_flows: int, rng: Union[None, int, random.Random] = None) -> "Trace":
        """A new trace containing a uniform sample of the flows."""
        if num_flows >= len(self._flows):
            return Trace(self._flows, name=self._name)
        rand = rng if isinstance(rng, random.Random) else random.Random(rng)
        chosen = rand.sample(list(self._flows), num_flows)
        return Trace({f: self._flows[f] for f in chosen}, name=f"{self._name}:sub{num_flows}")

    def __repr__(self) -> str:
        return f"Trace(name={self._name!r}, flows={len(self._flows)}, packets={self.num_packets})"
