"""The paper's primary contribution: the DISCO discount-counting scheme.

Submodules
----------
functions
    The counting-regulation function ``f(c) = (b^c-1)/(b-1)`` and the
    protocol for alternatives.
update
    The probabilistic counter-update rule (Algorithm 1, Eqs. 2-3).
disco
    :class:`DiscoCounter` (single counter) and :class:`DiscoSketch`
    (per-flow statistics with optional burst aggregation).
fastsim
    O(counter-value) geometric-jump simulation for uniform increments.
analysis
    Theorems 2-3, Corollary 1, and parameter selection.
"""

from repro.core.batchreplay import (
    BatchReplayResult,
    ReplicaReplayResult,
    run_kernel,
)
from repro.core.kernels import (
    KernelSpec,
    SchemeKernel,
    kernel_scheme_names,
    kernel_spec,
)
from repro.core.analysis import (
    b_for_cov_bound,
    choose_b,
    coefficient_of_variation,
    cov_bound,
    cov_for_traffic,
    expected_counter_upper_bound,
)
from repro.core.aging import AgingDiscoSketch, age_counter
from repro.core.checkpoint import load_sketch, save_sketch
from repro.core.confidence import (
    ConfidenceInterval,
    confidence_interval,
    counter_for_error,
    relative_stddev,
)
from repro.core.disco import DiscoCounter, DiscoSketch, counter_bits
from repro.core.fastpath import UpdateCache
from repro.core.functions import (
    CountingFunction,
    GeometricCountingFunction,
    LinearCountingFunction,
    geometric,
)
from repro.core.hybrid import HybridCountingFunction
from repro.core.merge import merge_counters, merge_sketches, merged_estimate
from repro.core.update import UpdateDecision, apply_update, compute_update, expected_increment

__all__ = [
    "CountingFunction",
    "GeometricCountingFunction",
    "LinearCountingFunction",
    "HybridCountingFunction",
    "geometric",
    "UpdateDecision",
    "compute_update",
    "apply_update",
    "expected_increment",
    "DiscoCounter",
    "DiscoSketch",
    "counter_bits",
    "coefficient_of_variation",
    "cov_for_traffic",
    "cov_bound",
    "b_for_cov_bound",
    "choose_b",
    "expected_counter_upper_bound",
    "ConfidenceInterval",
    "confidence_interval",
    "counter_for_error",
    "relative_stddev",
    "save_sketch",
    "load_sketch",
    "merge_counters",
    "merge_sketches",
    "merged_estimate",
    "UpdateCache",
    "AgingDiscoSketch",
    "age_counter",
    "BatchReplayResult",
    "ReplicaReplayResult",
    "run_kernel",
    "KernelSpec",
    "SchemeKernel",
    "kernel_spec",
    "kernel_scheme_names",
]
