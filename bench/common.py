"""Paths, bootstrap and result plumbing shared by the benchmark scripts.

Only the standard library is imported here: ``import repro`` (and the
NumPy it pulls in) is part of the measured set-up time, so nothing may
load it before :func:`import_repro` starts its clock.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
#: Scratch space for the program's own temp files (the native ``.so``
#: cache, serve checkpoints) so a run writes only inside its checkout.
TMP = os.path.join(ROOT, ".bench_build", "tmp")

WORKLOADS = ("replay-nlanr", "stream-elephants", "stream-churn", "serve-mixed")


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, bad config)."""


def child_env() -> dict:
    """Environment for interpreters the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = TMP
    return env


def bootstrap() -> None:
    """Point this interpreter at the checkout's ``src`` tree and scratch dir.

    Raises :class:`BenchError` when the checkout holds no program: the
    benchmark must fail rather than measure some other installed copy.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"no program sources at {SRC}")
    os.makedirs(TMP, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    import tempfile
    tempfile.tempdir = None  # re-read TMPDIR on next use
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def import_repro() -> float:
    """Import the program cold; returns the seconds it took."""
    start = time.perf_counter()
    import repro
    elapsed = time.perf_counter() - start
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")
    return elapsed


def peak_rss_mb() -> float:
    """This process's peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Outcome:
    """What one workload run measured and checked."""

    def __init__(self) -> None:
        self.metrics = {}      # end-to-end, name -> (value, unit)
        self.layers = {}       # per-layer, name -> (value, unit)
        self.details = {}      # printed only: layer numbers one workload lacks
        self.checks = []       # (name, ok, detail)
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += 1
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0

    def result(self, trace: bool) -> dict:
        """The object run.py prints as its last line."""
        chosen = self.layers if trace else self.metrics
        return {
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in chosen.items()},
        }

    def report(self, workload: str, trace: bool) -> None:
        """Human-readable lines; the JSON result line follows them."""
        print(f"workload {workload}")
        for name, ok, detail in self.checks:
            print(f"  check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
        for title, table in (("metric", self.metrics), ("layer", self.layers),
                             ("detail", self.details)):
            if trace and title == "metric":
                continue
            for name, (value, unit) in table.items():
                print(f"  {title} {name} {value:.6g} {unit}")
        sys.stdout.flush()
