"""Replay driver: push a trace through a counting scheme and score it.

Four engines drive the same replay contract:

``"python"``
    The reference per-packet ``observe()`` loop.  Works for every scheme.
    DISCO sketches replay it with Algorithm-1 decisions memoized behind an
    exact :class:`~repro.core.fastpath.UpdateCache`
    (``enable_update_cache``): the decision depends only on ``(c, l)``, so
    the trajectory is bit-for-bit the uncached one with the transcendental
    math skipped on repeats.
``"vector"``
    The array-native engine (:mod:`repro.core.batchreplay`): the trace is
    compiled to struct-of-arrays form once and all flows advance in
    lockstep NumPy column steps, driven through the scheme's columnar
    kernel (:mod:`repro.core.kernels` — DISCO, SAC, the ANLS family, SD
    and exact counters all expose one).  Distributionally equivalent to
    the scalar engine (same update law, hence the same estimator
    moments) but in general *not* bit-identical: it consumes a NumPy
    random stream column-major.  Fresh schemes only; arrival ``order``
    is ignored because per-flow counters are order-independent across
    flows.
``"native"``
    The vector engine's law with its per-kernel inner loops lowered to
    compiled code (:mod:`repro.core.native`): the same CSR-compiled
    trace arrays and, where the kernel pre-draws explicit uniforms, the
    same random stream, consumed by gcc-built C through ctypes.
    Bit-identical to ``"vector"`` for exact counters and the ANLS
    family's uniform-stream kernels; distributionally equivalent
    elsewhere.  Falls back to ``"vector"`` with a one-time warning when
    the C provider is unavailable (or ``REPRO_DISABLE_NATIVE=1``).
``"auto"``
    For schemes whose kernel is provably *bit-identical* to the reference
    loop (deterministic kernels such as exact counters), ``"native"``
    when the capability probe succeeds, degrading to ``"vector"``; else
    ``"python"`` (DISCO included).  Randomised kernels are never picked
    silently, so seeded results stay reproducible unless a caller opts
    in.

The documented entrypoint for all of this is the :func:`repro.replay`
facade; this module holds the engine implementations, the strict
engine resolver, and the replica/stream drivers.  (The historical
module-level ``replay()`` wrapper has been removed — call
:func:`repro.replay`; see ``docs/api.md`` for the migration.)
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Union

import numpy as np

from repro import obs
from repro.errors import ParameterError
from repro.metrics.errors import (
    ErrorSummary,
    relative_errors,
    relative_errors_array,
    summarize_errors,
    summarize_errors_array,
)
from repro.traces.compiled import CompiledTrace
from repro.traces.trace import Trace

__all__ = ["RunResult", "replay_replicas", "replay_stream",
           "resolve_engine", "ENGINES"]

#: Valid values of the ``engine`` parameter.
ENGINES = ("auto", "python", "vector", "native")

AnyTrace = Union[Trace, CompiledTrace]


@dataclass
class RunResult:
    """Outcome of replaying one trace through one scheme."""

    scheme_name: str
    trace_name: str
    mode: str
    errors: List[float]
    summary: ErrorSummary
    estimates: Dict[Hashable, float]
    truths: Dict[Hashable, int]
    max_counter_bits: int
    elapsed_seconds: float
    packets: int
    engine: str = "python"
    #: Per-call telemetry snapshot (:meth:`repro.obs.Telemetry.snapshot`)
    #: when the replay recorded events; ``None`` otherwise.
    telemetry: Optional[Dict[str, dict]] = None

    def estimates_dict(self) -> Dict[Hashable, float]:
        """Per-flow estimates (:class:`repro.results.MeasurementResult`)."""
        return dict(self.estimates)

    def to_json(self) -> Dict[str, object]:
        """JSON-ready summary (:class:`repro.results.MeasurementResult`)."""
        from dataclasses import asdict

        from repro.results import estimates_json

        return {
            "type": "run",
            "scheme": self.scheme_name,
            "trace": self.trace_name,
            "mode": self.mode,
            "engine": self.engine,
            "packets": int(self.packets),
            "elapsed_seconds": float(self.elapsed_seconds),
            "max_counter_bits": int(self.max_counter_bits),
            "summary": asdict(self.summary),
            "estimates": estimates_json(self.estimates),
            "telemetry": self.telemetry,
        }


def resolve_engine(engine: str, scheme) -> str:
    """Map an ``engine`` request to the concrete engine used for ``scheme``.

    ``"auto"`` degrades gracefully; explicit requests are strict — asking
    for ``"vector"`` or ``"native"`` with an unsupported scheme raises, so
    a benchmark never silently times the wrong path.  The scheme list in
    the ``"vector"`` error is sorted, so the message is deterministic.
    """
    from repro.core import native
    from repro.core.kernels import kernel_scheme_names, kernel_spec

    if engine not in ENGINES:
        raise ParameterError(
            f"engine must be one of {', '.join(ENGINES)}, got {engine!r}"
        )
    if engine == "auto":
        spec = kernel_spec(scheme)
        if spec is not None and spec.bit_identical:
            # Same trajectories either way (bit-identical kernels), so
            # auto may take the compiled path when the probe passes.
            return "native" if native.available() else "vector"
        return "python"
    if engine in ("vector", "native") and kernel_spec(scheme) is None:
        raise ParameterError(
            f"engine={engine!r} needs a fresh scheme with a columnar kernel; "
            f"{type(scheme).__name__} in its current configuration has none "
            f"(pre-observed flows, custom counting functions, burst "
            f"aggregation, variance tracking and custom CMAs are "
            f"scalar-only). Schemes with kernels: "
            f"{', '.join(kernel_scheme_names())}"
        )
    if engine == "native" and not native.available():
        native.warn_fallback("engine='native'")
        return "vector"
    return engine


def _replay_scalar(
    scheme,
    trace: AnyTrace,
    order: str,
    rng: Union[None, int, random.Random],
    telemetry: obs.Telemetry,
) -> RunResult:
    """The per-packet ``python`` engine.

    Schemes with an exact decision memo (``enable_update_cache``) replay
    through it.  The scheme's ``mode`` attribute picks the matching
    ground truth (packets for ``"size"``, bytes for ``"volume"``).
    Wall-clock time covers only the per-packet update loop — the quantity
    Table IV compares.
    """
    if hasattr(scheme, "enable_update_cache"):
        scheme.enable_update_cache()

    if order == "shuffled":
        # Materialised up front so shuffle cost stays out of the timing.
        telemetry.count("replay.order.shuffled")
        packets = list(trace.packet_pairs(order=order, rng=rng))
        count = len(packets)
    else:
        # Order-preserving iterations ("asis"/"sequential"/"roundrobin")
        # stream straight off the trace: no second copy of the packet
        # list, which halves peak memory on full-scale replays.
        telemetry.count("replay.order.streamed")
        packets = trace.packet_pairs(order=order, rng=rng)
        count = None
    start = time.perf_counter()
    observe = scheme.observe
    n = 0
    for flow, length in packets:
        observe(flow, length)
        n += 1
    if hasattr(scheme, "flush"):
        scheme.flush()
    elapsed = time.perf_counter() - start
    telemetry.timing("replay.update", elapsed)

    truths = trace.true_totals(scheme.mode)
    estimates = {flow: scheme.estimate(flow) for flow in truths}
    errors = relative_errors(estimates, truths)
    return RunResult(
        scheme_name=getattr(scheme, "name", type(scheme).__name__),
        trace_name=trace.name,
        mode=scheme.mode,
        errors=errors,
        summary=summarize_errors(errors),
        estimates=estimates,
        truths=truths,
        max_counter_bits=scheme.max_counter_bits(),
        elapsed_seconds=elapsed,
        packets=count if count is not None else n,
        engine="python",
    )


def _replay_vector(
    scheme,
    trace: AnyTrace,
    rng=None,
    telemetry: obs.Telemetry = obs.NULL_TELEMETRY,
    engine: str = "vector",
    store: Optional[str] = None,
) -> RunResult:
    """Array-native replay; leaves ``scheme`` holding the final state.

    ``rng=None`` preserves the historical contract: the update stream
    comes from the scheme's own generator.  ``engine`` is the resolved
    columnar backend (``"vector"`` or ``"native"``); ``store`` the
    counter-store backend the final state round-trips through
    (:mod:`repro.core.stores`).
    """
    from repro.core.batchreplay import run_kernel
    from repro.core.kernels import kernel_spec

    spec = kernel_spec(scheme)
    result = run_kernel(
        trace,
        spec.factory,
        mode=spec.mode,
        rng=rng if rng is not None else scheme._rng,
        telemetry=telemetry,
        engine=engine,
        store=store,
    )
    telemetry.timing("replay.update", result.elapsed_seconds)
    # Hand the state back so the scheme's read-out surface (estimate /
    # flows / max_counter_bits) reflects the replay, as it would have
    # after a per-packet run.
    result.kernel.writeback(scheme, result.compiled.keys, result.packets)

    errors_arr = relative_errors_array(result.estimates, result.truths)
    estimates = result.estimates_dict()
    truths = dict(zip(result.keys, result.truths.tolist()))
    return RunResult(
        scheme_name=getattr(scheme, "name", type(scheme).__name__),
        trace_name=trace.name,
        mode=spec.mode,
        errors=errors_arr.tolist(),
        summary=summarize_errors_array(errors_arr),
        estimates=estimates,
        truths=truths,
        max_counter_bits=scheme.max_counter_bits(),
        elapsed_seconds=result.elapsed_seconds,
        packets=result.packets,
        engine=engine,
    )


def replay_replicas(
    scheme,
    trace: AnyTrace,
    replicas: int,
    rng=None,
    telemetry: Optional[obs.Telemetry] = None,
    *,
    chunked: bool = True,
    store: Optional[str] = None,
) -> List[RunResult]:
    """Replay ``replicas`` independent copies of ``scheme`` columnar.

    Each replica behaves exactly like a separately-seeded ``engine=
    "vector"`` replay of a fresh copy of ``scheme`` — replicas share
    columnar sweeps over the compiled trace, so R replays cost barely
    more than one.  Returns one :class:`RunResult` per replica (engine
    ``"vector"``, ``elapsed_seconds`` = total / R); replica 0's final
    state is written back into ``scheme``.  Equivalent to
    ``repro.replay(..., replicas=R)``.

    ``rng`` seeds the replica streams (any :func:`repro.seed_streams`
    convention, including ``random.Random`` and NumPy generators);
    ``None`` falls back to the scheme's own generator in a single pass,
    matching ``replay(..., engine="vector")``.  A seeded replay is split
    into chunks of :data:`repro.facade.REPLICA_CHUNK` replicas, one
    independent child stream per chunk via
    :func:`repro.facade.replica_chunks` — the same schedule
    :func:`~repro.harness.parallel.replay_parallel` distributes over its
    worker pool, so pooled and serial replica results are bit-identical
    for the same seed.  ``chunked=False`` runs ``rng`` as one
    already-derived chunk stream in a single pass (the parallel driver's
    worker-side entry; the chunk seeds were derived in the parent).
    ``telemetry`` scopes event recording as on the facade.
    """
    from repro.core.batchreplay import run_kernel
    from repro.core.kernels import kernel_spec
    from repro.facade import replica_chunks

    resolve_engine("vector", scheme)  # strict: raises if no kernel
    if replicas < 1:
        raise ParameterError(f"replicas must be >= 1, got {replicas!r}")
    session = obs.resolve(telemetry)
    tel = obs.Telemetry() if session.enabled else obs.NULL_TELEMETRY
    tel.count("replay.calls")
    tel.count("replay.engine.vector")
    tel.count("replay.replicas", replicas)
    spec = kernel_spec(scheme)
    if rng is None or not chunked:
        plan = [(replicas, rng if rng is not None else scheme._rng)]
    else:
        plan = replica_chunks(replicas, rng)
    if len(plan) > 1:
        tel.count("replay.replica_chunks", len(plan))

    first = None
    estimate_rows = []
    total_elapsed = 0.0
    for size, chunk_rng in plan:
        result = run_kernel(
            trace,
            spec.factory,
            mode=spec.mode,
            rng=chunk_rng,
            replicas=size,
            telemetry=tel,
            store=store,
        )
        tel.timing("replay.update", result.elapsed_seconds)
        total_elapsed += result.elapsed_seconds
        estimates = result.estimates
        if size == 1:
            estimates = estimates.reshape(1, -1)
        estimate_rows.append(estimates)
        if first is None:
            first = result
    # Replica 0 lives in the first chunk; its state becomes the scheme's.
    first.kernel.writeback(scheme, first.compiled.keys, first.packets)
    all_estimates = (estimate_rows[0] if len(estimate_rows) == 1
                     else np.vstack(estimate_rows))
    snap = None
    if tel.enabled:
        snap = tel.snapshot()
        session.merge(snap)

    truths = dict(zip(first.keys, first.truths.tolist()))
    scheme_name = getattr(scheme, "name", type(scheme).__name__)
    max_bits = scheme.max_counter_bits()
    per_replica_elapsed = total_elapsed / replicas
    out: List[RunResult] = []
    for r in range(replicas):
        errors_arr = relative_errors_array(all_estimates[r], first.truths)
        out.append(RunResult(
            scheme_name=scheme_name,
            trace_name=trace.name,
            mode=spec.mode,
            errors=errors_arr.tolist(),
            summary=summarize_errors_array(errors_arr),
            estimates=dict(zip(first.keys, all_estimates[r].tolist())),
            truths=truths,
            max_counter_bits=max_bits,
            elapsed_seconds=per_replica_elapsed,
            packets=first.packets,
            engine="vector",
            telemetry=snap,
        ))
    return out


def replay_stream(scheme, packets, trace_name: str = "stream") -> RunResult:
    """Feed a ``(flow, length)`` iterable to ``scheme`` without a Trace.

    For trace files too large to hold in memory: pair it with
    :func:`repro.traces.trace_io.iter_trace_packets`.  Packets are
    consumed strictly one at a time — nothing is buffered — and ground
    truth is accumulated on the fly, so the memory footprint is one
    counter plus one truth integer per *flow*, never per packet.
    """
    truths: Dict[Hashable, int] = {}
    count = 0
    observe = scheme.observe
    start = time.perf_counter()
    for flow, length in packets:
        observe(flow, length)
        amount = 1 if scheme.mode == "size" else int(length)
        truths[flow] = truths.get(flow, 0) + amount
        count += 1
    if hasattr(scheme, "flush"):
        scheme.flush()
    elapsed = time.perf_counter() - start
    estimates = {flow: scheme.estimate(flow) for flow in truths}
    errors = relative_errors(estimates, truths)
    return RunResult(
        scheme_name=getattr(scheme, "name", type(scheme).__name__),
        trace_name=trace_name,
        mode=scheme.mode,
        errors=errors,
        summary=summarize_errors(errors),
        estimates=estimates,
        truths=truths,
        max_counter_bits=scheme.max_counter_bits(),
        elapsed_seconds=elapsed,
        packets=count,
        engine="python",
    )
