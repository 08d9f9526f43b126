"""Stateless JSON-over-HTTP service exposing the source metrics.

Mock-hardware style endpoint: every response is reproducible bit-exactly by
the corresponding library call.  Loopback bind, no authentication.
"""

from __future__ import annotations

import hashlib
import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from . import __version__ as ENGINE_VERSION
from .errors import NumericalDomainError, UndefinedFidelityError
from .kfunction import COVARIANCE_PRESCALE
from .memory import DEFAULT_CLICK_PATTERN, spin_spin_dm, validate_click_pattern
from .metrics import fidelity, pgen, photonic_trace
from .sources import PARAM_FIELDS, SourceParams, params_from_external

_REQUEST_FIELDS = {**dict.fromkeys(PARAM_FIELDS, float), "herald_pattern": list, "click_pattern": list}
# A request body is a few hundred bytes; the cap bounds what one request may make the server read.
MAX_BODY_BYTES = 1 << 16
# Seconds a handler waits on its socket, so a client that sends less than it announced frees the thread.
SOCKET_TIMEOUT_S = 2.0
# Handlers that may run at once; a connection beyond them is answered 503 "busy" and closed.
MAX_CONCURRENT_HANDLERS = 32
# Seconds a refused connection may hold the accept loop while the client takes its 503.
BUSY_LINGER_S = 0.2
_BUSY_BODY = b'{"code": "busy", "field": "", "message": "every request handler is in use"}'
_BUSY_REPLY = (
    b"HTTP/1.0 503 Service Unavailable\r\n"
    b"Content-Type: application/json; charset=utf-8\r\n"
    b"Content-Length: %d\r\nConnection: close\r\n\r\n%s" % (len(_BUSY_BODY), _BUSY_BODY)
)


class RequestError(Exception):
    def __init__(self, status: int, code: str, field: str, message: str):
        super().__init__(message)
        self.status = status
        self.payload = {"code": code, "field": field, "message": message}


def _parse_request(data: dict) -> tuple[SourceParams, tuple[int, ...] | None]:
    if not isinstance(data, dict):
        raise RequestError(400, "malformed", "", "request body must be a JSON object")
    if "mean_photon" not in data:
        raise RequestError(400, "missing_field", "mean_photon", "mean_photon is required")
    clean: dict = {}
    for field, value in data.items():
        if field not in _REQUEST_FIELDS:
            raise RequestError(400, "unknown_field", field, f"unknown field {field!r}")
        kind = _REQUEST_FIELDS[field]
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise RequestError(400, "bad_type", field, f"{field} must be a number")
            clean[field] = float(value)
        else:
            if not isinstance(value, list) or not all(isinstance(v, int) for v in value):
                raise RequestError(400, "bad_type", field, f"{field} must be a list of integers")
            clean[field] = value
    click = clean.pop("click_pattern", None)
    try:
        params = params_from_external(clean)
        if click is not None:
            click = validate_click_pattern(click)
    except ValueError as exc:
        raise RequestError(422, "out_of_range", "", str(exc)) from exc
    return params, click


def _spin_dm_wire(entries) -> list:
    return [[[float(entries[i, j].real), float(entries[i, j].imag)] for j in range(4)] for i in range(4)]


def compute_metrics_response(data: dict) -> dict:
    """The full metrics payload for one request; shared by POST and GET paths."""
    params, click = _parse_request(data)
    residuals: dict = {}
    trace = photonic_trace(params)
    residuals["trace"] = trace.imag_residual
    p = pgen(params)
    residuals["pgen"] = p.imag_residual
    payload = {
        "pgen": p.value,
        "trace": trace.value,
        "fidelity": None,
        "imag_residuals": residuals,
        "engine_version": ENGINE_VERSION,
    }
    if params.mean_photon > 0.0 and sorted(params.herald_pattern) == [0, 0, 1, 1]:
        f = fidelity(params)
        payload["fidelity"] = f.value
        residuals["fidelity"] = f.imag_residual
    if click is not None:
        dm = spin_spin_dm(params, click)
        payload["spin_dm"] = _spin_dm_wire(dm.entries)
    return payload


def health_payload() -> dict:
    probe = pgen(SourceParams(mean_photon=0.1))
    checksum = hashlib.sha256(repr(probe.value).encode()).hexdigest()[:16]
    return {
        "engine_version": ENGINE_VERSION,
        "convention_scale": COVARIANCE_PRESCALE,
        "self_test_checksum": checksum,
    }


def _coerce_query(query: str) -> dict:
    data: dict = {}
    for field, values in urllib.parse.parse_qs(query).items():
        raw = values[-1]
        if field in ("herald_pattern", "click_pattern"):
            data[field] = [int(x) for x in raw.split(",") if x != ""]
        else:
            try:
                data[field] = float(raw)
            except ValueError:
                data[field] = raw
    return data


class _Handler(BaseHTTPRequestHandler):
    server_version = f"zalmsim/{ENGINE_VERSION}"
    timeout = SOCKET_TIMEOUT_S

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
            self._handle(health_payload)
        elif parsed.path == "/v1/spin_dm":
            data = _coerce_query(parsed.query)
            data.setdefault("click_pattern", list(DEFAULT_CLICK_PATTERN))

            def spin_only():
                payload = compute_metrics_response(data)
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
        self._handle(lambda: compute_metrics_response(self._read_json()))

    def _read_json(self):
        raw = self.headers.get("Content-Length", "0").strip()
        if not (raw.isascii() and raw.isdigit()):
            raise RequestError(400, "malformed", "Content-Length", f"Content-Length must be a nonnegative integer, got {raw!r}")
        length = int(raw)
        if length > MAX_BODY_BYTES:
            raise RequestError(413, "too_large", "Content-Length", f"body of {length} bytes exceeds the cap of {MAX_BODY_BYTES}")
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
    """One thread per connection, at most MAX_CONCURRENT_HANDLERS of them at once."""

    def __init__(self, address, handler):
        super().__init__(address, handler)
        self._slots = threading.BoundedSemaphore(MAX_CONCURRENT_HANDLERS)

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
        """Answer 503 unread, then drain until the client closes (at most BUSY_LINGER_S), so close() sends no reset."""
        deadline = time.monotonic() + BUSY_LINGER_S
        try:
            request.sendall(_BUSY_REPLY)
            request.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                request.settimeout(left)
                if not request.recv(MAX_BODY_BYTES):
                    break
        except OSError:
            pass
        self.close_request(request)


def build_server(bind: str = "127.0.0.1", port: int = 8791) -> BoundedHTTPServer:
    return BoundedHTTPServer((bind, port), _Handler)


def serve(bind: str = "127.0.0.1", port: int = 8791) -> None:
    """Run the JSON service until interrupted."""
    httpd = build_server(bind, port)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
