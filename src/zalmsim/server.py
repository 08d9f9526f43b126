"""Stateless JSON-over-HTTP service exposing the source metrics.

Mock-hardware style endpoint: every response is reproducible bit-exactly by
the corresponding library call.  Loopback bind, no authentication.

This module holds the request and reply logic.  The HTTP layer (``httpd``:
the handler and the bounded threading server) and hashlib are imported only
when a server is built or the health payload is made, so importing the CLI
or this module for its payload functions loads neither http.server nor ssl.
"""

from __future__ import annotations

import urllib.parse

from . import __version__ as ENGINE_VERSION
from .kfunction import COVARIANCE_PRESCALE
from .memory import spin_spin_dm, validate_click_pattern
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
    import hashlib

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


def __getattr__(name: str):
    # The HTTP classes live in httpd, imported on first use.
    if name in ("_Handler", "BoundedHTTPServer"):
        from . import httpd

        return getattr(httpd, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build_server(bind: str = "127.0.0.1", port: int = 8791):
    """A BoundedHTTPServer serving the JSON API on (bind, port)."""
    from .httpd import BoundedHTTPServer, _Handler

    return BoundedHTTPServer((bind, port), _Handler)


def serve(bind: str = "127.0.0.1", port: int = 8791) -> None:
    """Run the JSON service until interrupted."""
    httpd = build_server(bind, port)
    try:
        httpd.serve_forever()
    finally:
        httpd.server_close()
