"""Blocking client + in-process harness for the serve daemon.

Two small pieces every consumer of the daemon shares — the test suite,
``benchmarks/serve_smoke.py`` and perf_gate's query-latency probe:

* :class:`ServeClient` — a synchronous JSON-over-HTTP client on
  :mod:`http.client` (one connection per request, matching the server's
  ``Connection: close``), with a helper per endpoint.
* :class:`DaemonHandle` — a context manager that runs a
  :class:`~repro.serve.daemon.ServeDaemon` on a background thread with
  its own event loop, waits for the listener to bind, and exposes a
  ready :class:`ServeClient`.  On exit it drains the daemon and joins
  the thread; a daemon crash (e.g. an armed ``serve.checkpoint`` fault)
  is captured on :attr:`DaemonHandle.error` instead of being swallowed,
  which is exactly what the crash-safety tests assert on.
"""

from __future__ import annotations

import http.client
import json
import threading
from typing import Optional, Tuple
from urllib.parse import quote

from repro.errors import ParameterError

__all__ = ["ServeClient", "DaemonHandle"]


class ServeClient:
    """Synchronous queries against a running daemon."""

    def __init__(self, host: str, port: int, timeout: float = 10.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout

    def request(self, method: str, path: str) -> Tuple[int, dict]:
        """One exchange; returns ``(status, decoded JSON body)``."""
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            conn.request(method, path)
            response = conn.getresponse()
            body = response.read()
            return response.status, json.loads(body)
        finally:
            conn.close()

    def get(self, path: str) -> Tuple[int, dict]:
        return self.request("GET", path)

    def post(self, path: str) -> Tuple[int, dict]:
        return self.request("POST", path)

    # -- one helper per endpoint --------------------------------------------

    def healthz(self) -> dict:
        return self._ok(*self.get("/healthz"))

    def flow(self, flow_id) -> dict:
        # Quoted whole: an id may hold '?', '#', '%' or '/'.
        status, payload = self.get(f"/flows/{quote(str(flow_id), safe='')}")
        if status not in (200, 404):  # 404 = flow unseen, still an answer
            raise ParameterError(f"GET /flows/{flow_id} -> {status}: "
                                 f"{payload.get('error', payload)}")
        return payload

    def topk(self, n: int = 10) -> dict:
        return self._ok(*self.get(f"/topk?n={int(n)}"))

    def epochs(self) -> dict:
        return self._ok(*self.get("/epochs"))

    def telemetry(self) -> dict:
        return self._ok(*self.get("/telemetry"))

    def rotate(self) -> dict:
        return self._ok(*self.post("/control/rotate"))

    def checkpoint(self) -> dict:
        return self._ok(*self.post("/control/checkpoint"))

    def drain(self) -> dict:
        return self._ok(*self.post("/control/drain"))

    @staticmethod
    def _ok(status: int, payload: dict) -> dict:
        if status != 200:
            raise ParameterError(
                f"daemon answered {status}: {payload.get('error', payload)}")
        return payload


class DaemonHandle:
    """Run a daemon on a background thread; hand out a bound client.

    ``with DaemonHandle(daemon) as handle: handle.client.topk(5)``.
    The thread runs ``asyncio.run(daemon.run())``; :attr:`result` holds
    the final :class:`~repro.streaming.StreamResult` after a clean
    drain, :attr:`error` the exception if the daemon died.  ``__exit__``
    drains (when still alive) and joins.
    """

    def __init__(self, daemon, start_timeout: float = 15.0) -> None:
        self.daemon = daemon
        self.start_timeout = start_timeout
        self.client: Optional[ServeClient] = None
        self.result = None
        self.error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None

    def _run(self) -> None:
        try:
            self.result = self.daemon.serve_forever()
        except BaseException as exc:  # captured for the crash tests
            self.error = exc

    def __enter__(self) -> "DaemonHandle":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        if not self.daemon.started.wait(self.start_timeout):
            self._thread.join(timeout=1.0)
            raise RuntimeError(
                f"serve daemon did not bind within {self.start_timeout}s"
                + (f": {self.error!r}" if self.error else ""))
        self.client = ServeClient(self.daemon.bound_host,
                                  self.daemon.bound_port)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._thread is not None and self._thread.is_alive():
            try:
                self.client.drain()
            except Exception:
                pass  # daemon already dying; join below tells the truth
            self._thread.join(timeout=self.start_timeout)

    def join(self, timeout: float = 30.0) -> "DaemonHandle":
        """Wait for the daemon thread to exit (crash tests use this)."""
        if self._thread is not None:
            self._thread.join(timeout)
        return self
