"""The HTTP layer of the JSON service: request handler and bounded threading server.

``server`` imports this module only when it builds a server, so http.server
(with http.client and ssl) stays out of every process that does not serve.
Settings and payload functions are read from ``server`` at call time, where
tests and the benchmark tracer replace them.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import server
from .errors import NumericalDomainError, UndefinedFidelityError
from .memory import DEFAULT_CLICK_PATTERN
from .server import ENGINE_VERSION, RequestError

_BUSY_BODY = b'{"code": "busy", "field": "", "message": "every request handler is in use"}'
_BUSY_REPLY = (
    b"HTTP/1.0 503 Service Unavailable\r\n"
    b"Content-Type: application/json; charset=utf-8\r\n"
    b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(_BUSY_BODY), _BUSY_BODY)
)


class _Handler(BaseHTTPRequestHandler):
    server_version = f"zalmsim/{ENGINE_VERSION}"
    timeout = server.SOCKET_TIMEOUT_S

    def _send_json(self, status: int, payload: dict) -> None:
        try:
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        except ValueError as exc:
            # NaN and Infinity are not JSON; refuse the reply instead of emitting them.
            raise NumericalDomainError(f"non-finite value in the reply: {exc}") from exc
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, data_fn) -> None:
        try:
            self._send_json(200, data_fn())
        except RequestError as exc:
            self._send_json(exc.status, exc.payload)
        except (NumericalDomainError, UndefinedFidelityError) as exc:
            self._send_json(500, {"code": "numerical_domain", "field": "", "message": str(exc)})
        except Exception as exc:  # noqa: BLE001
            self._send_json(500, {"code": "internal", "field": "", "message": str(exc)})

    def do_GET(self):  # noqa: N802 - http.server API
        parsed = urllib.parse.urlparse(self.path)
        if parsed.path == "/v1/health":
            self._handle(server.health_payload)
        elif parsed.path == "/v1/spin_dm":
            data = server._coerce_query(parsed.query)
            data.setdefault("click_pattern", list(DEFAULT_CLICK_PATTERN))

            def spin_only():
                payload = server.compute_metrics_response(data)
                return {
                    "spin_dm": payload["spin_dm"],
                    "trace": payload["trace"],
                    "engine_version": ENGINE_VERSION,
                }

            self._handle(spin_only)
        else:
            self._send_json(404, {"code": "not_found", "field": "", "message": self.path})

    def do_POST(self):  # noqa: N802
        parsed = urllib.parse.urlparse(self.path)
        if parsed.path != "/v1/metrics":
            self._send_json(404, {"code": "not_found", "field": "", "message": self.path})
            return
        self._handle(lambda: server.compute_metrics_response(self._read_json()))

    def _read_json(self):
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise RequestError(400, "malformed", "Content-Length", f"Content-Length must be a nonnegative integer, got {raw!r}")
        length = int(raw)
        if length > server.MAX_BODY_BYTES:
            raise RequestError(413, "too_large", "Content-Length", f"body of {length} bytes exceeds the cap of {server.MAX_BODY_BYTES}")
        try:
            body = self.rfile.read(length)
        except TimeoutError as exc:
            raise RequestError(408, "timeout", "", f"body shorter than its Content-Length of {length} bytes") from exc
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(400, "malformed", "", f"invalid JSON: {exc}") from exc

    def log_message(self, fmt, *args):  # silence per-request stderr noise
        pass


class BoundedHTTPServer(ThreadingHTTPServer):
    """One thread per connection, at most server.MAX_CONCURRENT_HANDLERS of them at once."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(server.MAX_CONCURRENT_HANDLERS)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            self._refuse(request)
            return
        try:
            super().process_request(request, client_address)
        except BaseException:
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()

    def _refuse(self, request) -> None:
        """Answer 503 unread, then drain until the client closes (at most server.BUSY_LINGER_S), so close() sends no reset."""
        deadline = time.monotonic() + server.BUSY_LINGER_S
        try:
            request.sendall(_BUSY_REPLY)
            request.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                request.settimeout(left)
                if not request.recv(server.MAX_BODY_BYTES):
                    break
        except OSError:
            pass
        self.close_request(request)
