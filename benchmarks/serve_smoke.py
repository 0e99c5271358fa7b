"""End-to-end smoke test for ``python -m repro serve`` (< 30 s).

Exercises the daemon exactly the way an operator would — as a
subprocess on an ephemeral port — and checks the three serve
guarantees:

1. **live queries are truthful**: after the trace feed drains,
   ``GET /flows/{id}`` and ``GET /topk`` agree with an offline
   :func:`repro.stream` of the same trace with the same parameters;
2. **clean shutdown**: ``POST /control/drain`` ends the process with
   exit code 0 and the ``drained:`` summary line;
3. **crash safety**: an injected ``serve.checkpoint`` fault (via
   ``REPRO_FAULTS``) kills the daemon with exit code 1, the previous
   checkpoint survives, and a ``--resume`` rerun answers every query
   bit-identically to an uninterrupted run;
4. **malformed input is never fatal**: a ``--feed socket`` daemon sent
   good lines plus one ``nan`` length counts the bad line in
   ``/healthz``, ingests every good packet, and still drains cleanly.

Run directly (``make serve-smoke``)::

    PYTHONPATH=src python benchmarks/serve_smoke.py
"""

import os
import re
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
sys.path.insert(0, SRC)

from repro import scheme_factory, stream  # noqa: E402
from repro.cli import _read_any_trace  # noqa: E402
from repro.serve import ServeClient  # noqa: E402

BANNER = re.compile(r"serving on http://([\d.]+):(\d+)")
SOCKET_FEED = re.compile(r"socket:([\d.]+):(\d+)")
DEADLINE_S = 30.0
SERVE_ARGS = ["--feed", "trace", "--scheme", "disco", "--seed", "2",
              "--shards", "2", "--epoch-packets", "1200",
              "--chunk-packets", "256"]


class ServeProcess:
    """One ``repro serve`` subprocess: banner parse, client, shutdown."""

    def __init__(self, extra_args, env=None):
        cmd = [sys.executable, "-m", "repro", "serve"] + extra_args
        full_env = dict(os.environ,
                        PYTHONPATH=SRC + os.pathsep
                        + os.environ.get("PYTHONPATH", ""))
        full_env.update(env or {})
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE, text=True,
                                     env=full_env)
        self.client = None

    def wait_ready(self):
        for _ in range(50):
            line = self.proc.stdout.readline()
            match = BANNER.search(line)
            if match:
                self.client = ServeClient(match.group(1),
                                          int(match.group(2)))
                return self
        raise SystemExit("FAIL: serve banner never appeared")

    def wait_ingested(self, packets):
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            if self.client.healthz()["packets_consumed"] >= packets:
                return
            time.sleep(0.02)
        raise SystemExit(f"FAIL: daemon never ingested {packets} packets")

    def wait_feed_bound(self):
        """The ``(host, port)`` a socket feed bound, read from ``/healthz``."""
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            match = SOCKET_FEED.fullmatch(self.client.healthz()["feed"])
            if match:
                return match.group(1), int(match.group(2))
            time.sleep(0.02)
        raise SystemExit("FAIL: socket feed never bound")

    def finish(self, expect_code):
        out, err = self.proc.communicate(timeout=DEADLINE_S)
        if self.proc.returncode != expect_code:
            raise SystemExit(
                f"FAIL: serve exited {self.proc.returncode}, expected "
                f"{expect_code}\nstdout:\n{out}\nstderr:\n{err}")
        return out, err


def check(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def query_answers(client, flows):
    """The full query surface, minus fields that legitimately vary."""
    epochs = client.epochs()
    for epoch in epochs["epochs"]:
        epoch.pop("telemetry", None)  # timings differ run to run
    return {
        "topk": client.topk(10),
        "flows": {flow: client.flow(flow) for flow in flows},
        "epochs": epochs,
    }


def main():
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="serve_smoke_") as tmp:
        trace_path = str(Path(tmp) / "smoke.trace")
        subprocess.run(
            [sys.executable, "-m", "repro", "gen-trace", "--kind",
             "scenario3", "--flows", "60", "--seed", "1", "--out",
             trace_path],
            check=True, env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.DEVNULL)
        trace = _read_any_trace(trace_path)
        truths = trace.true_totals("volume")
        packets = sum(len(lens) for lens in trace.flows.values())
        top_flows = sorted(truths, key=truths.get, reverse=True)[:3]
        print(f"trace: {len(truths)} flows, {packets} packets")

        # -- leg 1: live queries + clean drain --------------------------
        print("leg 1: ingest, query, drain")
        serve = ServeProcess(SERVE_ARGS + ["--trace", trace_path]
                             ).wait_ready()
        serve.wait_ingested(packets)
        health = serve.client.healthz()
        check(health["scheme"] == "disco" and health["epochs"] >= 2,
              f"healthz: scheme=disco, {health['epochs']} epochs rotated")

        factory = scheme_factory("disco", bits=10, mode="volume", seed=2,
                                 max_length=max(truths.values()))
        offline = stream(factory, trace, shards=2, epoch_packets=1200,
                         chunk_packets=256, rng=3, engine="vector")
        expected = {str(k): v for k, v in offline.estimates_dict().items()}

        top = serve.client.topk(5)
        check(len(top["flows"]) == 5, "topk answers 5 flows")
        for entry in top["flows"]:
            live, offline_est = entry["estimate"], expected[entry["flow"]]
            check(abs(live - offline_est) <= 1e-6 * max(1.0, offline_est),
                  f"topk {entry['flow']}: live {live:.1f} == offline "
                  f"{offline_est:.1f}")
        answer = serve.client.flow(str(top_flows[0]))
        check(answer["found"]
              and abs(answer["total"] - expected[str(top_flows[0])]) <= 1e-6
              * max(1.0, expected[str(top_flows[0])]),
              f"flow {top_flows[0]}: found, total {answer['total']:.1f} "
              f"matches offline")
        confidence = answer["confidence"]
        if confidence is not None:  # only when the open epoch holds the flow
            check(confidence["low"] <= confidence["estimate"]
                  <= confidence["high"],
                  f"flow {top_flows[0]}: confidence interval well-formed")

        serve.client.drain()
        out, _err = serve.finish(expect_code=0)
        check("drained: scheme=disco" in out, "clean drain summary printed")

        # -- leg 2: crash via injected fault ----------------------------
        print("leg 2: injected serve.checkpoint fault")
        ckpt = str(Path(tmp) / "smoke.ckpt")
        crash_args = SERVE_ARGS + ["--trace", trace_path, "--checkpoint",
                                   ckpt, "--checkpoint-every", "1"]
        crashed = ServeProcess(
            crash_args,
            env={"REPRO_FAULTS":
                 "serve.checkpoint:raise:after=2:times=1"}).wait_ready()
        _out, err = crashed.finish(expect_code=1)
        check("serve daemon crashed" in err, "crash reported on stderr")
        check(Path(ckpt).exists(), "previous checkpoint survived the crash")

        # -- leg 3: resume, bit-identical answers -----------------------
        print("leg 3: --resume equals an uninterrupted run")
        resumed = ServeProcess(crash_args + ["--resume"]).wait_ready()
        resumed.wait_ingested(packets)
        resumed_answers = query_answers(resumed.client, map(str, top_flows))
        resumed.client.drain()
        resumed.finish(expect_code=0)

        uninterrupted = ServeProcess(
            SERVE_ARGS + ["--trace", trace_path]).wait_ready()
        uninterrupted.wait_ingested(packets)
        baseline_answers = query_answers(uninterrupted.client,
                                         map(str, top_flows))
        uninterrupted.client.drain()
        uninterrupted.finish(expect_code=0)

        check(resumed_answers == baseline_answers,
              "resumed query answers bit-identical to uninterrupted run")

        # -- leg 4: socket feed, one malformed line ---------------------
        print("leg 4: socket feed skips a nan length")
        # No trace to size from: disco sizes b from the epoch watermark.
        fed = ServeProcess(["--feed", "socket", "--scheme", "disco",
                            "--seed", "2", "--shards", "2",
                            "--epoch-bytes", "1000000",
                            "--chunk-packets", "256"]).wait_ready()
        host, port = fed.wait_feed_bound()
        with socket.create_connection((host, port)) as conn:
            conn.sendall(b"f1 100\nf2 50\nf3 nan\nf1 25\n")
        fed.wait_ingested(3)
        health = fed.client.healthz()
        check(health["malformed_lines"] == 1,
              "healthz counts the nan line as malformed")
        check(health["packets_consumed"] == 3
              and health["volume_consumed"] == 175,
              "the 3 good packets (175 bytes) were ingested")
        fed.client.drain()
        out, _err = fed.finish(expect_code=0)
        check("drained: scheme=disco" in out and "packets=3" in out,
              "socket daemon drained cleanly")

    elapsed = time.monotonic() - start
    check(elapsed < DEADLINE_S, f"smoke finished in {elapsed:.1f}s (< 30s)")
    print("serve smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
