"""Tests of the benchmark itself: ``python -m pytest bench/test_bench.py``.

Runs every workload scaled down (``--quick``) untraced and traced, and
checks the result lines against BENCHMARK.json, the traced pass's span
coverage, the correctness oracle on a corrupted truth table, the
failure path in a checkout without the program, and compare.py's rules.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from common import BENCH, OUT, ROOT, WORKLOADS, Outcome, bootstrap, \
    load_benchmark

RUN = os.path.join(BENCH, "run.py")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=170)


@pytest.fixture(scope="module")
def results():
    """``{(workload, trace): result}`` from one quick run of each."""
    out = {}
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            proc = run("--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", trace, "--quick")
            assert proc.returncode == 0, proc.stderr[-2000:]
            out[(workload, trace)] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_metrics_match_benchmark_json(results, workload, trace, section):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in load_benchmark()[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if section == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_cover_measured_time(results, workload):
    coverage = results[(workload, "1")]["metrics"]["trace.coverage_pct"]
    assert coverage["value"] >= 90.0
    path = os.path.join(OUT, f"{workload}.trace.json")
    if workload == "serve-mixed":
        path = os.path.join(OUT, "serve-mixed.daemon.trace.json")
    with open(path, encoding="utf-8") as fh:
        assert json.load(fh)["spans"]


def test_corrupted_truth_table_fails_the_oracle():
    bootstrap()
    import oracle
    import repro
    import workloads
    from repro.streaming import StreamSession

    session = StreamSession(repro.scheme_factory("exact", mode="volume"),
                            shards=workloads.SHARDS)
    truth = {}
    for i in range(3):
        chunk = workloads.churn_chunk(7, i)
        session.ingest_chunk(chunk.keys, chunk.lengths)
        workloads.add_truth(truth, chunk)
    estimates = session.finish().estimates_dict()

    good = Outcome()
    assert oracle.check_exact(good, "exact", estimates, truth)
    assert good.correct

    corrupted = dict(truth)
    key = next(iter(corrupted))
    corrupted[key] += 1
    bad = Outcome()
    assert not oracle.check_exact(bad, "exact", estimates, corrupted)
    assert not bad.correct and bad.failed == 1


def test_checkout_without_program_fails(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay-nlanr",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, text=True, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_rules():
    import compare

    base = [(s, 100.0 + s % 3) for s in range(10)]
    faster = [(s, 120.0 + s % 3) for s in range(10)]
    slower = [(s, 80.0 + s % 3) for s in range(10)]
    level = [(s, 100.5 + s % 3) for s in range(10)]
    noisy = [(s, 100.0 * (1 + (s % 2))) for s in range(10)]
    assert compare.verdict(base, faster, "higher", 0.1)[2] == "improved"
    assert compare.verdict(base, slower, "higher", 0.1)[2] == "regressed"
    assert compare.verdict(base, level, "higher", 0.1)[2] == "in-bound"
    assert compare.verdict(base, noisy, "higher", 0.1)[2] == "unresolved"
    assert compare.verdict(base, slower, "lower", 0.1)[2] == "improved"
