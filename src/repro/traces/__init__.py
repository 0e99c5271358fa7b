"""Workload substrate: distributions, synthetic scenarios, NLANR-like trace, I/O.

Workloads are built by name through the public registry —
:func:`make_trace` / :func:`trace_factory` mirror
:func:`repro.make_scheme` / :func:`repro.scheme_factory` — and composed
or stressed through the :mod:`repro.traces.toolkit` helpers
(:func:`merge_traces`, :func:`renormalize`, churn / adversarial / burst
generators, and the chunk-only :func:`big_trace`).
"""

from repro.traces.distributions import (
    Constant,
    Exponential,
    Pareto,
    Sampler,
    TruncatedExponential,
    UniformInt,
)
from repro.traces.arrival import constant_rate, on_off, poisson
from repro.traces.compiled import CompiledTrace, clear_compile_cache, compile_trace
from repro.traces.nlanr import NLANR_PROFILE_MIX, nlanr_like
from repro.traces.pcap import iter_pcap_packets, read_pcap, write_pcap
from repro.traces.synthetic import (
    generate_flows,
    packet_length_sampler,
    scenario1,
    scenario2,
    scenario3,
)
from repro.traces.registry import (
    TraceFactory,
    TraceSpec,
    make_trace,
    register_trace,
    trace_factory,
    trace_names,
    trace_spec,
)
from repro.traces.toolkit import (
    BigTrace,
    adversarial_trace,
    big_trace,
    bursty_trace,
    churn_trace,
    merge_traces,
    renormalize,
)
from repro.traces.trace import Trace, TraceStats
from repro.traces.zipf import ZipfPopularity, zipf_packets, zipf_trace
from repro.traces.trace_io import iter_trace_packets, read_trace, write_trace

__all__ = [
    "Trace",
    "TraceStats",
    "CompiledTrace",
    "compile_trace",
    "clear_compile_cache",
    "TraceSpec",
    "TraceFactory",
    "make_trace",
    "trace_factory",
    "trace_names",
    "trace_spec",
    "register_trace",
    "merge_traces",
    "renormalize",
    "churn_trace",
    "adversarial_trace",
    "bursty_trace",
    "big_trace",
    "BigTrace",
    "Pareto",
    "Exponential",
    "UniformInt",
    "TruncatedExponential",
    "Constant",
    "Sampler",
    "generate_flows",
    "scenario1",
    "scenario2",
    "scenario3",
    "packet_length_sampler",
    "nlanr_like",
    "NLANR_PROFILE_MIX",
    "read_trace",
    "write_trace",
    "iter_trace_packets",
    "constant_rate",
    "poisson",
    "on_off",
    "ZipfPopularity",
    "zipf_packets",
    "zipf_trace",
    "write_pcap",
    "read_pcap",
    "iter_pcap_packets",
]
