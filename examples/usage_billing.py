#!/usr/bin/env python3
"""Usage-based billing with error bars, straight off DISCO counters.

Maps flows to customers, replays a mixed workload, and produces
per-customer bills with 95% confidence bands — the "subpopulation"
query the paper's introduction motivates.  Also demonstrates on-line
heavy-hitter detection and epoch-to-epoch change reports.

Run:  python examples/usage_billing.py
"""

import random

from repro import DiscoSketch, StreamSession, choose_b, scheme_factory
from repro.apps import ChangeDetector, HeavyHitterDetector, UsageAccountant
from repro.harness import render_table

CUSTOMERS = ("acme", "globex", "initech")
rand = random.Random(2024)

# Build a workload: each customer owns flows "<customer>/<i>"; acme runs a
# bulk transfer mid-way through.
packets = []
for customer, flows, pkts in (("acme", 8, 300), ("globex", 12, 200),
                              ("initech", 4, 150)):
    for i in range(flows):
        for _ in range(pkts):
            packets.append((f"{customer}/{i}", rand.randint(40, 1500)))
rand.shuffle(packets)
# The bulk transfer starts mid-stream (so the epoch diff below shows it).
packets += [("acme/bulk", 1500)] * 4000

truth = {}
for flow, length in packets:
    truth[flow] = truth.get(flow, 0) + length

b = choose_b(counter_bits=12, max_flow_length=max(truth.values()), slack=1.5)
sketch = DiscoSketch(b=b, mode="volume", rng=1)

# Heavy-hitter detector rides along while we ingest.
detector = HeavyHitterDetector(sketch, threshold=1_000_000, policy="confident")
for flow, length in packets:
    detection = detector.observe(flow, length)
    if detection:
        print(f"[online] heavy hitter: {detection.flow} crossed 1 MB at "
              f"packet {detection.packet_index} "
              f"(estimate {detection.estimate / 1e6:.2f} MB)")
print()

# Bills with 95% bands.
accountant = UsageAccountant(sketch, account_of=lambda f: f.split("/")[0])
bills = accountant.bill_all(level=0.95)
true_usage = {c: sum(v for f, v in truth.items() if f.startswith(c))
              for c in CUSTOMERS}
print("Customer bills (95% confidence)")
print(render_table(
    ["customer", "billed MB", "band MB", "true MB", "flows", "rel band"],
    [
        [bill.account, bill.usage / 1e6,
         f"{bill.low / 1e6:.2f}..{bill.high / 1e6:.2f}",
         true_usage[bill.account] / 1e6, bill.flows,
         bill.relative_half_width]
        for bill in bills
    ],
))
total = accountant.total_traffic()
print(f"\nLink total: {total.usage / 1e6:.2f} MB "
      f"(true {sum(truth.values()) / 1e6:.2f} MB)")

# Epoch rotation: stream the same packets as two half-length epochs and
# report the changes that stand out from DISCO's own error bars.
print()
print("Epoch change report (two halves of the stream)")
half = len(packets) // 2
session = StreamSession(scheme_factory("disco", b=b, mode="volume"),
                        epoch_packets=half, chunk_packets=half // 10, rng=3)
session.extend(packets)
first, second = session.finish().snapshots[:2]
changes = ChangeDetector(b=b, min_change=200_000).compare_records(first,
                                                                  second)
print(render_table(
    ["flow", "before MB", "after MB", "change MB", "z"],
    [[c.flow, c.before / 1e6, c.after / 1e6, c.change / 1e6, c.z_score]
     for c in changes[:5]],
))
