"""Benchmark the DISCO reproduction end to end: replay, stream and serve.

One workload:
    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
runs it in this interpreter, prints each check and metric, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones (and the spans go to
``bench/out/<workload>.trace.json``).

All workloads:
    python bench/run.py [--seed N] [--trace] [--save FILE]
runs each workload in a fresh interpreter, one after another, prints a
summary table, appends every result to FILE (JSON lines, read by
``bench/compare.py``) and exits non-zero if any run failed.

Exits non-zero without a result line when the checkout holds no
program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import BENCH, OUT, WORKLOADS, BenchError, Outcome, bootstrap, \
    child_env, import_repro, load_benchmark


def parse(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this interpreter")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per run (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1 = traced pass reporting per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="inputs scaled down about 20x (tests)")
    parser.add_argument("--save", help="all-workload mode: append results "
                                       "to this JSON-lines file")
    return parser.parse_args(argv)


def run_one(args) -> int:
    """Measure one workload here; the last stdout line is the result."""
    import_s = import_repro()
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ctx = workloads.Context(
        seed=args.seed, seconds=args.seconds,
        sizes=workloads.QUICK if args.quick else workloads.FULL,
        import_s=import_s, tracer=tracer, quick=args.quick)
    outcome = Outcome()
    workloads.WORKLOAD_RUNNERS[args.workload](ctx, outcome)
    if tracer is not None:
        tracer.uninstall()
        tracer.dump(os.path.join(OUT, f"{args.workload}.trace.json"),
                    {"layers": outcome.layers, "details": outcome.details})
    outcome.report(args.workload, bool(args.trace))
    print(json.dumps(outcome.result(bool(args.trace))), flush=True)
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh interpreter; summary table; exit status."""
    failures = 0
    rows = {}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.join(BENCH, "run.py"),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.quick:
            argv.append("--quick")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              env=child_env())
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            failures += 1
            print(f"FAILED {workload} (exit {proc.returncode})", flush=True)
        if result is None:
            continue
        rows[workload] = result
        if args.save:
            with open(args.save, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": workload, "seed": args.seed,
                                     "trace": args.trace,
                                     "result": result}) + "\n")
    names = sorted({name for r in rows.values() for name in r["metrics"]})
    print(f"\n{'metric':40s}" + "".join(f"{w:>18s}" for w in rows))
    for name in names:
        cells = "".join(
            f"{rows[w]['metrics'][name]['value']:18.6g}"
            if name in rows[w]["metrics"] else f"{'-':>18s}" for w in rows)
        unit = next(r["metrics"][name]["unit"] for r in rows.values()
                    if name in r["metrics"])
        print(f"{name + ' [' + unit + ']':40s}{cells}")
    return 1 if failures else 0


def main(argv=None) -> int:
    args = parse(argv)
    try:
        bootstrap()
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        if args.workload is None:
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
