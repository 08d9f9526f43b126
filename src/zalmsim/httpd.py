"""The HTTP layer of the JSON service: an HTTP/1.0 handler and a server on socketserver with a bounded pool of handler threads.

``server`` imports this module only when it builds a server.  The handler
``recv``s each request into one buffer and cuts the request line, the headers
and the body from it, every ``recv`` bounded by the socket timeout and the
request's deadline.  It answers, protocol errors included, with one JSON reply
in one ``sendall``, so no process loads http.server, http.client, email or ssl.
The pool is a queue and plain threads, not concurrent.futures, which would load
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
import re
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
_HEADERS_CAPPED = f"headers are capped at {MAX_HEADERS} lines of {MAX_LINE_BYTES} bytes"
# Bytes asked of one recv: a request's head and body usually arrive in one.
RECV_BYTES = 1 << 16
# The line feed ending the head's last line, then the blank line.
_HEAD_END = re.compile(rb"\n\r?\n")
_PHRASES = {status.value: status.phrase for status in HTTPStatus}
# RFC 9110 dates are English whatever the locale: Monday is tm_wday 0, January tm_mon 1.
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
# (second since the epoch, its date): replaced whole, under the lock, so a reader sees a matching pair.
_date, _date_lock = (-1, ""), threading.Lock()


def _http_date() -> str:
    """The current time as an RFC 9110 date, formatted at most once per second."""
    global _date
    now = int(time.time())
    if _date[0] != now:
        with _date_lock:
            if _date[0] != now:
                t = time.gmtime(now)
                _date = (now, f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} {t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT")
    return _date[1]


def _reply(status: int, payload: dict) -> bytes:
    """The whole reply, status line to body; NaN or Infinity in the payload raise NumericalDomainError."""
    body = server.reply_json(payload).encode("utf-8")
    allow = "Allow: GET, POST\r\n" if status == 405 else ""
    head = (
        f"HTTP/1.0 {status} {_PHRASES[status]}\r\nServer: zalmsim/{ENGINE_VERSION}\r\nDate: {_http_date()}\r\n"
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


def _add_header(headers: dict[str, list[str]], line: str, size: int, number: int) -> None:
    """Add the number-th header line, of size bytes as sent (with its line feed), to the values by lower-case name."""
    if size > MAX_LINE_BYTES or number > MAX_HEADERS:
        raise RequestError(431, "too_large", "", _HEADERS_CAPPED)
    name, colon, value = line.partition(":")
    if not colon:
        raise RequestError(400, "malformed", "", f"header line without a colon: {name[:200].strip()!r}")
    headers.setdefault(name.strip().lower(), []).append(value.strip())


class _Handler(socketserver.BaseRequestHandler):
    """One request per connection, read from one receive buffer and answered with one write."""

    timeout = server.SOCKET_TIMEOUT_S

    def handle(self) -> None:
        self.deadline = time.monotonic() + server.REQUEST_DEADLINE_S
        self.buffer = bytearray()
        self.body_read = False
        try:
            if not self._receive():
                return  # the client closed before sending a request
            reply = self._answer()
            self.request.settimeout(self.timeout)  # not what was left of the deadline at the last recv
            if self.body_read:
                self.request.sendall(reply)
            else:  # refused before its body was read, or a GET: the client may still be sending
                _send_and_linger(self.request, reply)
        except OSError:
            pass  # the client closed, reset or fell silent before its request began or its reply was written

    def _receive(self, missing: str = "request head not complete") -> bool:
        """Append what the client sends next to the buffer; False at the end of its stream.

        A wait past the socket timeout, or past the deadline that handle() set on
        taking the connection, raises TimeoutError on an empty buffer, else 408.
        """
        left = self.deadline - time.monotonic()
        self.request.settimeout(max(min(self.timeout, left), 1e-6))
        try:
            chunk = self.request.recv(RECV_BYTES)
        except TimeoutError:
            if not self.buffer:
                raise
            if left <= self.timeout:
                missing = f"request not received within its deadline of {server.REQUEST_DEADLINE_S} s"
            raise RequestError(408, "timeout", "", missing) from None
        self.buffer += chunk
        return bool(chunk)

    def _answer(self) -> bytes:
        try:
            return _reply(200, self._dispatch())
        except RequestError as exc:
            return _reply(exc.status, exc.payload)
        except NumericalDomainError as exc:
            return _reply(500, {"code": "numerical_domain", "field": "", "message": str(exc)})
        except OSError:  # the client failed, not the request: handle() answers nothing
            raise
        except Exception as exc:  # noqa: BLE001 - the service answers every request
            return _reply(500, {"code": "internal", "field": "", "message": str(exc)})

    def _dispatch(self) -> dict:
        method, target, headers, body_start = self._read_head()
        if method not in ("GET", "POST"):
            raise RequestError(405, "method_not_allowed", "", f"method {method} is not allowed; use GET or POST")
        parsed = urllib.parse.urlparse(target)
        if method == "GET" and parsed.path == "/v1/health":
            return server.health_payload()
        if method == "GET" and parsed.path == "/v1/spin_dm":
            return server.spin_dm_response(server._coerce_query(parsed.query))
        if method == "POST" and parsed.path == "/v1/metrics":
            return server.compute_metrics_response(self._read_json(headers, body_start))
        raise RequestError(404, "not_found", "", target)

    def _read_head(self) -> tuple[str, str, dict[str, list[str]], int]:
        """Method, target, header values by lower-case name (each repeat kept), and where the body starts in the buffer.

        Each line is checked in the order sent, once it has ended, and a blank line or the end of the stream
        ends the head; the lines that came with the blank line are split as one block.
        """
        buf = self.buffer
        while (end := buf.find(b"\n")) < 0 and len(buf) <= MAX_LINE_BYTES and self._receive():
            pass
        size = end + 1 if end >= 0 else len(buf)  # the request line's bytes, with its line feed
        if size > MAX_LINE_BYTES:
            raise RequestError(414, "too_large", "", f"request line over {MAX_LINE_BYTES} bytes")
        text = buf[:size].decode("latin-1")
        words = text.split()
        if len(words) != 3 or not words[2].startswith("HTTP/"):
            raise RequestError(400, "malformed", "", f"request line must be 'METHOD TARGET HTTP/x.y', got {text[:200].strip()!r}")
        headers: dict[str, list[str]] = {}
        count, start = 0, size  # header lines read, and where the next one starts
        while True:
            blank = _HEAD_END.search(buf, start - 1)
            last = blank.start() if blank else buf.rfind(b"\n")  # the line feed ending the last whole line
            if last >= start:
                for line in buf[start:last].decode("latin-1").split("\n"):
                    count += 1
                    _add_header(headers, line, len(line) + 1, count)
                start = last + 1
            if blank:
                return words[0], words[1], headers, blank.end()
            if len(buf) - start > MAX_LINE_BYTES:  # the line not yet ended is over the cap already
                raise RequestError(431, "too_large", "", _HEADERS_CAPPED)
            if not self._receive():
                if start < len(buf):  # a last line that the end of the stream ended
                    _add_header(headers, buf[start:].decode("latin-1"), len(buf) - start, count + 1)
                return words[0], words[1], headers, len(buf)

    def _read_json(self, headers: dict[str, list[str]], start: int):
        """The body, from start in the buffer and framed by exactly one Content-Length (none reads as 0), as strict JSON."""
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
        buf = self.buffer
        while len(buf) - start < length and self._receive(f"body shorter than its Content-Length of {length} bytes"):
            pass
        try:
            return server.read_json(buf[start : start + length].decode("utf-8"))
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
