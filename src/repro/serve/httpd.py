"""A minimal JSON-over-HTTP/1.1 listener on raw asyncio streams.

The daemon's query surface is deliberately tiny — five ``GET`` routes
and three ``POST`` verbs, every body JSON — so it runs on
``asyncio.start_server`` directly rather than pulling in an HTTP
framework (the repo installs nothing).  The subset implemented:

* request line + headers parsed, ``Content-Length`` bodies read;
* every response is ``Connection: close`` (one exchange per
  connection), which sidesteps keep-alive state entirely;
* handler exceptions map to status codes:
  :class:`~repro.errors.ParameterError` → 400, unknown route → 404,
  anything else → 500 with the error text in the JSON body — a broken
  query must never take the measurement loop down with it.

The handler contract is synchronous on purpose: the daemon's whole
consistency story is that queries run *between* chunk ingests on one
event loop, so a handler observing the session always sees
chunk-boundary state.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.errors import ParameterError

__all__ = ["HttpServer", "Request"]

_MAX_REQUEST_BYTES = 1 << 20  # plenty for control verbs; queries have no body

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 500: "Internal Server Error"}


class Request:
    """One parsed HTTP exchange: method, path, query params, JSON body."""

    __slots__ = ("method", "path", "params", "body")

    def __init__(self, method: str, path: str, params: Dict[str, str],
                 body: Optional[dict]) -> None:
        self.method = method
        self.path = path
        self.params = params
        self.body = body

    def param(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.params.get(name, default)

    def int_param(self, name: str, default: int) -> int:
        raw = self.params.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ParameterError(
                f"query parameter {name}= must be an integer, got {raw!r}"
            ) from None


#: Handler signature: request in, ``(status, JSON-able payload)`` out.
Handler = Callable[[Request], Tuple[int, object]]


class HttpServer:
    """Serve a synchronous handler over asyncio; one response per connection."""

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0,
                 telemetry: Optional[obs.Telemetry] = None) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self._tel = telemetry if telemetry is not None else obs.NULL_TELEMETRY
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- the wire ------------------------------------------------------------

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        parse_s = 0.0
        try:
            status, payload, parse_s = await self._exchange(reader)
        except Exception as exc:  # parse failure, client went away, ...
            status, payload = 400, {"error": str(exc)}
        began = time.perf_counter()
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            writer.close()
        self._tel.timing("serve.stage.http",
                         parse_s + time.perf_counter() - began)

    async def _exchange(self, reader: asyncio.StreamReader
                        ) -> Tuple[int, object, float]:
        """Read, parse and answer one request.

        Returns ``(status, payload, parse seconds)``; parsing is timed
        from the request line's arrival to the handler call.
        """
        request_line = await reader.readline()
        began = time.perf_counter()
        if not request_line:
            return 400, {"error": "empty request"}, 0.0
        try:
            method, target, _version = (
                request_line.decode("ascii").strip().split(" ", 2))
        except ValueError:
            return (400, {"error": f"malformed request line {request_line!r}"},
                    0.0)
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_REQUEST_BYTES:
            return (400, {"error": f"request body too large ({length} bytes)"},
                    0.0)
        body: Optional[dict] = None
        if length:
            raw = await reader.readexactly(length)
            try:
                body = json.loads(raw)
            except ValueError:
                return 400, {"error": "request body is not valid JSON"}, 0.0

        split = urlsplit(target)
        params = {name: values[-1]
                  for name, values in parse_qs(split.query).items()}
        request = Request(method.upper(), split.path, params, body)
        parse_s = time.perf_counter() - began

        self._tel.count("serve.http.requests")
        start = asyncio.get_event_loop().time()
        try:
            status, payload = self.handler(request)
        except ParameterError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # keep the daemon alive; report the query
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        finally:
            self._tel.timing("serve.request",
                             asyncio.get_event_loop().time() - start)
        if status >= 400:
            self._tel.count("serve.http.errors")
        return status, payload, parse_s
