"""Streaming-subsystem throughput: epoch-sharded stream vs one-shot replay.

The streaming path (:func:`repro.stream`) re-feeds every chunk through
the columnar kernels with carried state, so it cannot be free — but it
must stay within a constant factor of the one-shot vector replay or the
epoch/shard machinery is overhead-dominated.  :func:`measure_stream`
times both sides wall-clock on the same compiled trace and reports

* ``perf_stream_pps`` — streamed packets/second (4 shards, ~4 epochs),
* ``perf_vector_ref_pps`` — the one-shot ``engine="vector"`` reference,
* ``perf_stream_vs_vector`` — their ratio,
* ``perf_stream_native_pps`` / ``perf_stream_native_vs_vector`` — the
  same stream with ``engine="native"`` shard chunks, against the same
  one-shot vector reference (only when the native backend is available).

``benchmarks/perf_gate.py`` enforces ``perf_stream_vs_vector`` and
``perf_stream_native_vs_vector`` as absolute floors
(:data:`perf_gate.STREAM_FLOOR` / :data:`perf_gate.STREAM_NATIVE_FLOOR`):
unlike the speedup ratios they are not baselined, because each floor is
a structural claim ("chunked streaming costs at most ~2x a monolithic
replay"; "native chunks recover the chunking overhead"), not a
machine-relative one.  The pytest-benchmark test below times the same
stream call for the trajectory record.
"""

import time

STREAM_FLOWS = 2000
STREAM_MEAN_BYTES = 120_000
STREAM_MAX_BYTES = 6_000_000
STREAM_SEED = 20100622
STREAM_SHARDS = 4
STREAM_EPOCHS = 4
DISCO_B = 1.02
REPEATS = 3


def build_stream_trace():
    from repro.traces import make_trace

    return make_trace("nlanr", num_flows=STREAM_FLOWS,
                      mean_flow_bytes=STREAM_MEAN_BYTES,
                      max_flow_bytes=STREAM_MAX_BYTES,
                      seed=STREAM_SEED)


def measure_stream(trace=None, repeats=REPEATS):
    """Time the sharded stream against the one-shot vector replay.

    Both sides are wall-clock over the whole entrypoint (compile
    excluded — the compiled trace is built once outside both timed
    regions), best-of-``repeats``.
    """
    from repro.facade import replay, stream
    from repro.schemes import make_scheme, scheme_factory
    from repro.traces.compiled import compile_trace

    if trace is None:
        trace = build_stream_trace()
    compiled = compile_trace(trace)
    packets = compiled.num_packets
    epoch_packets = max(1, packets // STREAM_EPOCHS)
    factory = scheme_factory("disco", b=DISCO_B, seed=0)

    vector_s = float("inf")
    for seed in range(repeats):
        scheme = make_scheme("disco", b=DISCO_B, seed=seed)
        start = time.perf_counter()
        replay(scheme, compiled, order="asis", engine="vector")
        vector_s = min(vector_s, time.perf_counter() - start)

    stream_s = float("inf")
    epochs = 0
    for seed in range(repeats):
        start = time.perf_counter()
        result = stream(factory, compiled, shards=STREAM_SHARDS,
                        epoch_packets=epoch_packets,
                        chunk_packets=epoch_packets, rng=seed)
        stream_s = min(stream_s, time.perf_counter() - start)
        epochs = result.epochs

    metrics = {
        "perf_stream_packets": float(packets),
        "perf_stream_epochs": float(epochs),
        "perf_stream_pps": packets / stream_s,
        "perf_vector_ref_pps": packets / vector_s,
        "perf_stream_vs_vector": vector_s / stream_s,
    }

    from repro.core import native

    if native.available():
        # Untimed warmup absorbs the one-off compile cost, so the
        # ratio measures steady-state chunk replays only.
        stream(factory, compiled, shards=STREAM_SHARDS,
               epoch_packets=epoch_packets, chunk_packets=epoch_packets,
               rng=0, engine="native")
        native_s = float("inf")
        for seed in range(repeats):
            start = time.perf_counter()
            stream(factory, compiled, shards=STREAM_SHARDS,
                   epoch_packets=epoch_packets,
                   chunk_packets=epoch_packets, rng=seed, engine="native")
            native_s = min(native_s, time.perf_counter() - start)
        metrics["perf_stream_native_pps"] = packets / native_s
        metrics["perf_stream_native_vs_vector"] = vector_s / native_s
    return metrics


def test_perf_stream_replay(benchmark):
    """Time one sharded, epoch-rotating stream of the gate trace."""
    from repro.facade import stream
    from repro.schemes import scheme_factory
    from repro.traces.compiled import compile_trace

    compiled = compile_trace(build_stream_trace())
    epoch_packets = max(1, compiled.num_packets // STREAM_EPOCHS)
    factory = scheme_factory("disco", b=DISCO_B, seed=0)

    def run():
        return stream(factory, compiled, shards=STREAM_SHARDS,
                      epoch_packets=epoch_packets,
                      chunk_packets=epoch_packets, rng=1)

    result = benchmark(run)
    assert result.packets == compiled.num_packets
    # Rotation is quantized to chunk boundaries, so the epoch count can
    # land one either side of the nominal STREAM_EPOCHS target.
    assert result.epochs >= 2
    assert result.shards == STREAM_SHARDS
