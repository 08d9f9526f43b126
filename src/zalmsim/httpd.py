"""The HTTP layer of the JSON service: an HTTP/1.0 handler and a server on socketserver with a bounded pool of handler threads.

``server`` imports this module only when it builds a server.  The handler parses
the request itself and answers it, protocol errors included, with one JSON reply
in one write, so no process loads http.server, http.client, email or ssl.  The
pool is a queue and plain threads, not concurrent.futures, which would load
logging into the serving process.

Payload functions and settings are read from ``server`` where they are used,
so tests and the benchmark tracer can replace them, with two exceptions:
MAX_CONCURRENT_HANDLERS is read when a server is built, and
``_Handler.timeout`` is bound to SOCKET_TIMEOUT_S when this module is
imported, so a later change of SOCKET_TIMEOUT_S is not seen: set
``_Handler.timeout`` instead.
"""

from __future__ import annotations

import queue
import socket
import socketserver
import threading
import time
import urllib.parse
from http import HTTPStatus

from . import server
from .errors import NumericalDomainError
from .server import ENGINE_VERSION, RequestError

# Caps on a request line or header line, in bytes, and on the header count: http.server's.
MAX_LINE_BYTES = 1 << 16
MAX_HEADERS = 100
# RFC 9110 dates are English whatever the locale: Monday is tm_wday 0, January tm_mon 1.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


def _http_date() -> str:
    t = time.gmtime()
    return f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT"


def _reply(status: int, payload: dict) -> bytes:
    """The whole reply, status line to body; NaN or Infinity in the payload raise NumericalDomainError."""
    body = server.reply_json(payload).encode("utf-8")
    allow = "Allow: GET, POST\r\n" if status == 405 else ""
    head = (
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\nServer: zalmsim/{ENGINE_VERSION}\r\nDate: {_http_date()}\r\n"
        f"Content-Type: application/json; charset=utf-8\r\nContent-Length: {len(body)}\r\n{allow}Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _send_and_linger(sock: socket.socket, reply: bytes) -> None:
    """Send a reply to a request not read to its end, then drain until the client closes (at most server.BUSY_LINGER_S).

    A socket closed with unread bytes sends a reset, which can destroy the
    reply before the client reads it; shutting down writing first and
    draining lets a client still sending its body read the reply.
    """
    deadline = time.monotonic() + server.BUSY_LINGER_S
    sock.sendall(reply)
    sock.shutdown(socket.SHUT_WR)
    while (left := deadline - time.monotonic()) > 0:
        sock.settimeout(left)
        if not sock.recv(server.MAX_BODY_BYTES):
            break


class _Handler(socketserver.StreamRequestHandler):
    """One request per connection, answered with one write."""

    timeout = server.SOCKET_TIMEOUT_S

    def handle(self) -> None:
        self.body_read = False
        try:
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if not line:
                return  # the client closed before sending a request
            reply = self._answer(line)
            if self.body_read:
                self.wfile.write(reply)
            else:  # refused before its body was read, or a GET: the client may still be sending
                _send_and_linger(self.connection, reply)
        except OSError:
            pass  # the client closed, reset or fell silent before its request was read or its reply written

    def _answer(self, line: bytes) -> bytes:
        try:
            return _reply(200, self._dispatch(line))
        except RequestError as exc:
            return _reply(exc.status, exc.payload)
        except NumericalDomainError as exc:
            return _reply(500, {"code": "numerical_domain", "field": "", "message": str(exc)})
        except OSError:  # the client failed, not the request: handle() answers nothing
            raise
        except Exception as exc:  # noqa: BLE001 - the service answers every request
            return _reply(500, {"code": "internal", "field": "", "message": str(exc)})

    def _dispatch(self, line: bytes) -> dict:
        if len(line) > MAX_LINE_BYTES:
            raise RequestError(414, "too_large", "", f"request line over {MAX_LINE_BYTES} bytes")
        text = line.decode("latin-1")
        words = text.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise RequestError(400, "malformed", "", f"request line must be 'METHOD TARGET HTTP/x.y', got {text[:200].strip()!r}")
        method, target, _ = words
        headers = self._read_headers()
        if method not in ("GET", "POST"):
            raise RequestError(405, "method_not_allowed", "", f"method {method} is not allowed; use GET or POST")
        parsed = urllib.parse.urlparse(target)
        if method == "GET" and parsed.path == "/v1/health":
            return server.health_payload()
        if method == "GET" and parsed.path == "/v1/spin_dm":
            return server.spin_dm_response(server._coerce_query(parsed.query))
        if method == "POST" and parsed.path == "/v1/metrics":
            return server.compute_metrics_response(self._read_json(headers))
        raise RequestError(404, "not_found", "", target)

    def _read_headers(self) -> dict[str, list[str]]:
        """Header values by lower-case name, each repeat kept; a blank line or the end of the stream ends them."""
        headers: dict[str, list[str]] = {}
        count = 0
        while (line := self.rfile.readline(MAX_LINE_BYTES + 1)) not in (b"\r\n", b"\n", b""):
            count += 1
            if len(line) > MAX_LINE_BYTES or count > MAX_HEADERS:
                raise RequestError(431, "too_large", "", f"headers are capped at {MAX_HEADERS} lines of {MAX_LINE_BYTES} bytes")
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon:
                raise RequestError(400, "malformed", "", f"header line without a colon: {name[:200].strip()!r}")
            headers.setdefault(name.strip().lower(), []).append(value.strip())
        return headers

    def _read_json(self, headers: dict[str, list[str]]):
        """The body, framed by exactly one Content-Length (none reads as 0), as strict JSON."""
        if "transfer-encoding" in headers:
            raise RequestError(400, "malformed", "Transfer-Encoding", "send the body with a Content-Length")
        lengths = headers.get("content-length", ["0"])
        if len(lengths) > 1:
            raise RequestError(400, "malformed", "Content-Length", f"one Content-Length header allowed, got {len(lengths)}")
        raw = lengths[0]
        if not (raw.isascii() and raw.isdigit()):
            raise RequestError(400, "malformed", "Content-Length", f"Content-Length must be a nonnegative integer, got {raw!r}")
        length = int(raw)
        if length > server.MAX_BODY_BYTES:
            raise RequestError(413, "too_large", "Content-Length", f"body of {length} bytes exceeds the cap of {server.MAX_BODY_BYTES}")
        self.body_read = True
        try:
            body = self.rfile.read(length)
        except TimeoutError as exc:
            raise RequestError(408, "timeout", "", f"body shorter than its Content-Length of {length} bytes") from exc
        try:
            return server.read_json(body.decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise RequestError(400, "malformed", "", f"invalid JSON: {exc}") from exc


class BoundedHTTPServer(socketserver.TCPServer):
    """Connections handled by a pool of reused threads, at most server.MAX_CONCURRENT_HANDLERS of them at once.

    The accept loop takes a slot for each connection, then hands it to an idle
    thread through a queue, starting a thread only when none is idle.  A thread
    marks itself idle before it frees its slot, so whoever takes the slot finds
    it: the pool never outgrows the slots.
    """

    allow_reuse_address = True

    def __init__(self, address, handler):
        # Set before the bind: TCPServer.__init__ calls server_close() when the bind fails.
        self._slots = threading.BoundedSemaphore(server.MAX_CONCURRENT_HANDLERS)
        self._idle = threading.Semaphore(0)
        self._connections: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = 0
        super().__init__(address, handler)

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            self._refuse(request)
            return
        if not self._idle.acquire(blocking=False):
            try:
                threading.Thread(target=self._handle_connections, daemon=True).start()
            except BaseException:
                self._slots.release()
                raise
            self._threads += 1
        self._connections.put((request, client_address))

    def _handle_connections(self) -> None:
        """A pool thread: handle queued connections until server_close queues None for it."""
        while (connection := self._connections.get()) is not None:
            try:
                try:
                    self.finish_request(*connection)
                except Exception:
                    self.handle_error(*connection)
                finally:
                    self.shutdown_request(connection[0])
            except BaseException:
                self._slots.release()  # the thread dies without marking itself idle, so no connection waits on it
                raise
            self._idle.release()
            self._slots.release()

    def server_close(self) -> None:
        super().server_close()
        for _ in range(self._threads):
            self._connections.put(None)

    def _refuse(self, request) -> None:
        """Answer 503 with the request unread."""
        try:
            _send_and_linger(request, _reply(503, {"code": "busy", "field": "", "message": "every request handler is in use"}))
        except OSError:
            pass
        self.close_request(request)
