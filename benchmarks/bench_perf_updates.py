"""Performance microbenchmarks: per-packet update cost of each scheme.

Unlike the table/figure benches (which assert the paper's shapes), these
use pytest-benchmark's timing machinery for what it is for: the
per-operation cost of the schemes' hot paths in this implementation.
Useful when deciding how large a pure-Python replay is affordable, and as
a performance-regression tripwire.
"""

import random

from repro.core.disco import DiscoSketch
from repro.core.functions import GeometricCountingFunction
from repro.core.update import compute_update
from repro.counters.countmin import CountMin
from repro.counters.sac import SmallActiveCounters

PACKETS = 2000


def _packet_stream(seed=1):
    rand = random.Random(seed)
    return [(rand.randrange(16), rand.choice([40, 576, 1500]))
            for _ in range(PACKETS)]


def test_perf_compute_update(benchmark):
    fn = GeometricCountingFunction(1.002)
    rand = random.Random(0)
    states = [(rand.randrange(0, 3000), float(rand.randint(40, 1500)))
              for _ in range(512)]

    def run():
        for c, l in states:
            compute_update(fn, c, l)

    benchmark(run)


def test_perf_disco_sketch_observe(benchmark):
    packets = _packet_stream()

    def run():
        sketch = DiscoSketch(b=1.002, mode="volume", rng=1)
        sketch.observe_many(packets)
        return sketch

    sketch = benchmark(run)
    assert len(sketch) == 16


def test_perf_cached_disco_sketch_observe(benchmark):
    """DiscoSketch with the exact decision cache — the engine='python' path."""
    packets = _packet_stream()

    def run():
        sketch = DiscoSketch(b=1.002, mode="volume", rng=1)
        sketch.enable_update_cache()
        sketch.observe_many(packets)
        return sketch

    sketch = benchmark(run)
    assert len(sketch) == 16
    # Short stream: counters still climb often, so hits are moderate here;
    # long replays (see test_fastpath) reach >80%.
    stats = sketch.enable_update_cache().stats()
    assert stats["hit_rate"] > 0.1
    assert stats["clears"] == 0


def test_perf_vector_engine_replay(benchmark):
    """Whole-trace array-native replay (engine='vector'), per-packet cost.

    Unlike the observe() benches above this times a *batch* replay of the
    same packet multiset, compiled once outside the timed region — the
    fair comparison is per-packet cost against the loops, and the win
    grows with flow count (2000 packets over 16 flows is near worst case
    for the column engine).
    """
    from collections import defaultdict

    from repro.core.batchreplay import run_kernel
    from repro.core.kernels import DiscoKernel
    from repro.traces.compiled import compile_trace
    from repro.traces.trace import Trace

    flows = defaultdict(list)
    for flow, length in _packet_stream():
        flows[flow].append(length)
    compiled = compile_trace(Trace(dict(flows), name="perf"))

    def factory(lanes, gen, replicas):
        return DiscoKernel(lanes, gen, replicas, b=1.002)

    def run():
        return run_kernel(compiled, factory, mode="volume", rng=1)

    result = benchmark(run)
    assert result.packets == PACKETS
    assert result.counters.min() > 0


def test_perf_sac_observe(benchmark):
    packets = _packet_stream()

    def run():
        sac = SmallActiveCounters(total_bits=10, mode="volume", rng=1)
        sac.observe_many(packets)
        return sac

    benchmark(run)


def test_perf_countmin_observe(benchmark):
    packets = _packet_stream()

    def run():
        cm = CountMin(width=256, depth=3, mode="volume", rng=1)
        cm.observe_many(packets)
        return cm

    benchmark(run)
