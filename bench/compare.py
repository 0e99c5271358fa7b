"""Compare benchmark result sets: medians, quartiles, pairs won, verdicts.

    python bench/compare.py BASE.jsonl [OTHER.jsonl ...]

Each file holds JSON lines written by ``python bench/run.py --save FILE``
(``{"workload", "seed", "trace", "result"}``).  With one file, prints
each metric's median, quartiles and spread (interquartile range over
median) per workload and marks spreads wider than the metric's bound.
With more, compares every other file against the first (the parent), per
workload and metric, pairing runs by seed, under these rules:

* ``improved``: the other side wins at least 9/10 of the pairs (ties
  count for neither) and the medians differ by more than the parent's
  interquartile range;
* ``unresolved``: either side's spread is wider than the bound, unless
  every run of the other side beats every run of the parent;
* ``regressed``: the other side's median is worse than the parent's by
  more than the bound (a share of the parent's median);
* ``in-bound``: none of the above.

Bounds and directions come from BENCHMARK.json; per-layer metrics
(traced runs) have no bound and get only ``improved`` or ``-``.  Exits
1 when any metric regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

BENCH = os.path.dirname(os.path.abspath(__file__))


def load_runs(path: str):
    """``{(trace, workload): [(seed, metrics), ...]}`` in file order."""
    runs = defaultdict(list)
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                metrics = {name: m["value"]
                           for name, m in record["result"]["metrics"].items()}
                runs[(record["trace"], record["workload"])].append(
                    (record["seed"], metrics))
    return runs


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def pairs(base, other):
    """Values paired by seed; repeated seeds pair in file order."""
    queue = defaultdict(list)
    for seed, value in other:
        queue[seed].append(value)
    paired = []
    for seed, value in base:
        if queue[seed]:
            paired.append((value, queue[seed].pop(0)))
    return paired


def verdict(base, other, better: str, bound):
    """One metric on one workload: the rule of the module docstring."""
    sign = 1.0 if better == "higher" else -1.0
    a = [v for _, v in base]
    b = [v for _, v in other]
    paired = pairs(base, other)
    wins = sum(1 for x, y in paired if sign * (y - x) > 0)
    a_q1, a_med, a_q3 = quartiles(a)
    b_med = statistics.median(b)
    won = wins / len(paired) if paired else 0.0
    if won >= 0.9 and abs(b_med - a_med) > a_q3 - a_q1:
        label = "improved"
    elif bound is None:
        label = "-"
    elif (max(spread(a), spread(b)) > bound
          and not all(sign * (y - x) > 0 for x in a for y in b)):
        label = "unresolved"
    elif sign * (a_med - b_med) / abs(a_med) > bound:
        label = "regressed"
    else:
        label = "in-bound"
    return wins, len(paired), label


def fmt(value: float) -> str:
    return f"{value:.5g}"


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__)
        return 2
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"),
              encoding="utf-8") as fh:
        config = json.load(fh)
    specs = {0: {m["name"]: m for m in config["end_to_end"]},
             1: {m["name"]: m for m in config["per_layer"]}}
    sides = [load_runs(path) for path in paths]
    base = sides[0]
    regressed = False
    for trace, workload in sorted(base):
        for name, spec in specs[trace].items():
            bound = spec.get("bound")
            a = [(s, m[name]) for s, m in base[(trace, workload)] if name in m]
            if not a:
                continue
            values = [v for _, v in a]
            q1, med, q3 = quartiles(values)
            row = (f"{workload:17s} {name:42s} n={len(values):<3d} "
                   f"median {fmt(med):>10s} [{fmt(q1)}, {fmt(q3)}]")
            if len(sides) == 1:
                s = spread(values)
                mark = ("" if bound is None
                        else " WIDER THAN BOUND" if s > bound else "")
                print(f"{row} spread {s:.4f}"
                      + (f" bound {bound}" if bound is not None else "")
                      + mark)
                continue
            for path, other in zip(paths[1:], sides[1:]):
                b = [(s, m[name]) for s, m in other.get((trace, workload), [])
                     if name in m]
                if not b:
                    continue
                wins, count, label = verdict(a, b, spec["better"], bound)
                regressed |= label == "regressed"
                bq1, bmed, bq3 = quartiles([v for _, v in b])
                print(f"{row} | {os.path.basename(path)} median "
                      f"{fmt(bmed):>10s} [{fmt(bq1)}, {fmt(bq3)}] "
                      f"won {wins}/{count} {label}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
