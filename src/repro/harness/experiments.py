"""Experiment functions — one per table/figure of the evaluation section.

Each function returns plain data structures (lists of rows, series of
points) so benchmarks can both print the paper's rows and assert on the
qualitative shape.  ``b`` is always selected by
:func:`repro.core.analysis.choose_b` from the workload's actual maximum
flow length and the counter budget, which is the fair fixed-counter-size
comparison the paper runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis import choose_b, expected_counter_upper_bound
from repro.core.disco import DiscoSketch
from repro.core.functions import GeometricCountingFunction
from repro.counters.anls import AnlsBytesNaive, AnlsPerUnit
from repro.counters.sac import SmallActiveCounters
from repro.facade import replay
from repro.harness.runner import RunResult
from repro.metrics.errors import ErrorSummary, error_cdf as _error_cdf
from repro.metrics.memory import (
    disco_counter_bits,
    full_counter_bits,
    sac_counter_bits,
)
from repro.traces.trace import Trace

__all__ = [
    "SizeComparisonRow",
    "volume_error_vs_counter_size",
    "error_cdf_comparison",
    "counter_bits_vs_volume",
    "flow_size_per_flow_error",
    "table2",
    "table3",
    "table4",
    "bound_gap",
    "make_disco",
    "make_sac",
]

#: Headroom left above the largest flow when selecting ``b`` — the counter
#: value is random, so the capacity target sits above the observed maximum.
DEFAULT_SLACK = 1.5

#: SAC exponent-part width used throughout the evaluation (Section V-A).
SAC_MODE_BITS = 3


def make_disco(counter_bits: int, max_flow_length: float, mode: str,
               seed: Optional[int] = None, slack: float = DEFAULT_SLACK) -> DiscoSketch:
    """A DISCO sketch sized for the given counter budget."""
    b = choose_b(counter_bits, max_flow_length, slack=slack)
    return DiscoSketch(b=b, mode=mode, rng=seed, capacity_bits=counter_bits)


def make_sac(counter_bits: int, mode: str, seed: Optional[int] = None) -> SmallActiveCounters:
    """A SAC array with the evaluation's fixed 3-bit exponent part."""
    return SmallActiveCounters(
        total_bits=counter_bits, mode_bits=SAC_MODE_BITS, mode=mode, rng=seed
    )


@dataclass(frozen=True)
class SizeComparisonRow:
    """DISCO-vs-SAC error summaries at one counter size.

    ``ice`` and ``aee`` carry the beyond-the-paper comparators (ICE
    Buckets, AEE) when the sweep includes them; they default to ``None``
    so rows built by older callers stay valid.
    """

    counter_bits: int
    disco: ErrorSummary
    sac: ErrorSummary
    disco_b: float
    ice: Optional[ErrorSummary] = None
    aee: Optional[ErrorSummary] = None


def volume_error_vs_counter_size(
    trace: Trace,
    counter_sizes: Sequence[int] = (8, 9, 10, 11, 12),
    seed: int = 7,
    mode: str = "volume",
    engine: str = "auto",
) -> List[SizeComparisonRow]:
    """Figures 5-7 / Table II core: error vs counter size, DISCO vs SAC.

    ``engine`` selects the replay engine for *both* schemes — SAC has a
    columnar kernel too, so ``"vector"`` replays the whole comparison
    array-natively with the same update laws (statistically, not
    bit-for-bit, identical to the per-packet path); ``"python"`` forces
    the reference loops for auditing.
    """
    from repro.schemes import make_scheme

    truths = trace.true_totals(mode)
    max_length = max(truths.values())
    rows: List[SizeComparisonRow] = []
    for bits in counter_sizes:
        b = choose_b(bits, max_length, slack=DEFAULT_SLACK)
        disco = DiscoSketch(b=b, mode=mode, rng=seed, capacity_bits=bits)
        sac = make_sac(bits, mode, seed=seed + 1)
        ice = make_scheme("ice", bits=bits, mode=mode, seed=seed + 3)
        aee = make_scheme("aee", bits=bits, mode=mode, seed=seed + 4,
                          max_length=max_length)
        disco_result = replay(disco, trace, rng=seed + 2, engine=engine)
        sac_result = replay(sac, trace, rng=seed + 2, engine=engine)
        ice_result = replay(ice, trace, rng=seed + 2, engine=engine)
        aee_result = replay(aee, trace, rng=seed + 2, engine=engine)
        rows.append(
            SizeComparisonRow(
                counter_bits=bits,
                disco=disco_result.summary,
                sac=sac_result.summary,
                disco_b=b,
                ice=ice_result.summary,
                aee=aee_result.summary,
            )
        )
    return rows


def error_cdf_comparison(
    trace: Trace,
    counter_bits: int = 10,
    seed: int = 7,
    points: int = 200,
    mode: str = "volume",
    engine: str = "auto",
) -> Dict[str, List[Tuple[float, float]]]:
    """Figure 8: empirical CDF of relative error at a fixed counter size.

    ``engine`` applies to both schemes (both have columnar kernels).
    """
    from repro.schemes import make_scheme

    truths = trace.true_totals(mode)
    max_length = max(truths.values())
    disco = make_disco(counter_bits, max_length, mode, seed=seed)
    sac = make_sac(counter_bits, mode, seed=seed + 1)
    ice = make_scheme("ice", bits=counter_bits, mode=mode, seed=seed + 3)
    aee = make_scheme("aee", bits=counter_bits, mode=mode, seed=seed + 4,
                      max_length=max_length)
    disco_result = replay(disco, trace, rng=seed + 2, engine=engine)
    sac_result = replay(sac, trace, rng=seed + 2, engine=engine)
    ice_result = replay(ice, trace, rng=seed + 2, engine=engine)
    aee_result = replay(aee, trace, rng=seed + 2, engine=engine)
    return {
        "disco": _error_cdf(disco_result.errors, points=points),
        "sac": _error_cdf(sac_result.errors, points=points),
        "ice": _error_cdf(ice_result.errors, points=points),
        "aee": _error_cdf(aee_result.errors, points=points),
        "disco_errors": disco_result.errors,
        "sac_errors": sac_result.errors,
        "ice_errors": ice_result.errors,
        "aee_errors": aee_result.errors,
    }


def counter_bits_vs_volume(
    volumes: Sequence[float],
    b: float = 1.002,
    sac_estimation_bits: int = 5,
) -> List[Dict[str, float]]:
    """Figure 9: counter bits required by SD, SAC and DISCO per flow volume."""
    rows = []
    for n in volumes:
        rows.append(
            {
                "volume": float(n),
                "sd_bits": full_counter_bits(n),
                "sac_bits": sac_counter_bits(n, estimation_bits=sac_estimation_bits),
                "disco_bits": disco_counter_bits(n, b),
                "disco_counter_value": expected_counter_upper_bound(b, n),
            }
        )
    return rows


def flow_size_per_flow_error(
    trace: Trace,
    counter_bits: int = 10,
    seed: int = 7,
    engine: str = "auto",
) -> Dict[str, List[Tuple[int, float]]]:
    """Figure 10: per-flow relative error for flow **size** counting.

    Returns, for each scheme, ``(true_flow_size, relative_error)`` pairs —
    the scatter the figure plots.
    """
    truths = trace.true_totals("size")
    max_length = max(truths.values())
    disco = make_disco(counter_bits, max_length, "size", seed=seed)
    sac = make_sac(counter_bits, "size", seed=seed + 1)
    disco_result = replay(disco, trace, rng=seed + 2, engine=engine)
    sac_result = replay(sac, trace, rng=seed + 2, engine=engine)

    def scatter(result: RunResult) -> List[Tuple[int, float]]:
        pairs = []
        for (flow, truth), err in zip(result.truths.items(), result.errors):
            pairs.append((int(truth), err))
        pairs.sort()
        return pairs

    return {"disco": scatter(disco_result), "sac": scatter(sac_result)}


def table2(
    traces: Dict[str, Trace],
    counter_sizes: Sequence[int] = (8, 9, 10),
    seed: int = 7,
    engine: str = "auto",
) -> List[Dict[str, object]]:
    """Table II: average relative error per scenario and counter size."""
    rows: List[Dict[str, object]] = []
    for name, trace in traces.items():
        comparison = volume_error_vs_counter_size(
            trace, counter_sizes=counter_sizes, seed=seed, engine=engine
        )
        for row in comparison:
            rows.append(
                {
                    "scenario": name,
                    "counter_bits": row.counter_bits,
                    "sac_avg_error": row.sac.average,
                    "disco_avg_error": row.disco.average,
                    "ice_avg_error": row.ice.average,
                    "aee_avg_error": row.aee.average,
                }
            )
    return rows


def table3(
    traces: Dict[str, Trace],
    counter_bits: int = 10,
    seed: int = 7,
) -> List[Dict[str, float]]:
    """Table III: ANLS-I average relative error plus length-variance stats."""
    rows = []
    for name, trace in traces.items():
        stats = trace.stats()
        truths = trace.true_totals("volume")
        max_length = max(truths.values())
        b = choose_b(counter_bits, max_length, slack=DEFAULT_SLACK)
        anls1 = AnlsBytesNaive(b=b, mode="volume", rng=seed)
        result = replay(anls1, trace, rng=seed + 2)
        rows.append(
            {
                "scenario": name,
                "length_variance_over_10_fraction": stats.length_variance_over_10_fraction,
                "mean_length_variance": stats.mean_length_variance,
                "anls1_avg_error": result.summary.average,
            }
        )
    return rows


def table4(
    traces: Dict[str, Trace],
    counter_bits: int = 10,
    seed: int = 7,
) -> List[Dict[str, float]]:
    """Table IV: execution-time ratio of ANLS-II over DISCO per trace.

    Both schemes process the identical packet sequence with the same ``b``
    on the per-packet ``"python"`` engine; the ratio grows with the traces'
    mean flow length because ANLS-II's per-packet cost is O(packet bytes).
    DISCO's Algorithm-1 decisions are memoized exactly (an
    :class:`~repro.core.fastpath.UpdateCache`, as the paper's IXP build
    reads them from its Log&Exp table), so its per-packet cost is a
    lookup plus one uniform draw.
    """
    rows = []
    for name, trace in traces.items():
        truths = trace.true_totals("volume")
        max_length = max(truths.values())
        b = choose_b(counter_bits, max_length, slack=DEFAULT_SLACK)
        disco = DiscoSketch(b=b, mode="volume", rng=seed)
        anls2 = AnlsPerUnit(b=b, mode="volume", rng=seed)
        disco_result = replay(disco, trace, rng=seed + 2, engine="python")
        anls2_result = replay(anls2, trace, rng=seed + 2, engine="python")
        ratio = (
            anls2_result.elapsed_seconds / disco_result.elapsed_seconds
            if disco_result.elapsed_seconds > 0
            else float("inf")
        )
        rows.append(
            {
                "scenario": name,
                "mean_flow_packets": trace.stats().mean_flow_packets,
                "mean_packet_length": trace.stats().mean_packet_length,
                "disco_seconds": disco_result.elapsed_seconds,
                "anls2_seconds": anls2_result.elapsed_seconds,
                "ratio": ratio,
            }
        )
    return rows


def bound_gap(
    b: float = 1.02,
    flow_lengths: Sequence[int] = (100, 300, 1000, 3000, 10_000, 30_000, 100_000),
    runs: int = 50,
    seed: int = 7,
    theta: float = 1.0,
) -> List[Dict[str, float]]:
    """Figure 4: gap between the Theorem-3 bound and the mean counter value.

    Runs DISCO ``runs`` times per flow length (the paper uses 50) and
    reports the absolute gap ``f^{-1}(n) - mean(c)`` and the relative gap
    (absolute gap over ``n``).
    """
    from repro.core.fastsim import simulate_uniform_stream

    fn = GeometricCountingFunction(b)
    rand = random.Random(seed)
    rows = []
    for n in flow_lengths:
        count = int(n / theta)
        finals = [
            simulate_uniform_stream(fn, theta, count, rng=rand) for _ in range(runs)
        ]
        mean_counter = sum(finals) / len(finals)
        bound = fn.inverse(count * theta)
        gap = bound - mean_counter
        rows.append(
            {
                "flow_length": float(n),
                "bound": bound,
                "mean_counter": mean_counter,
                "absolute_gap": gap,
                "relative_gap": gap / n,
            }
        )
    return rows
