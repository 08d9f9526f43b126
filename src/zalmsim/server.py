"""Stateless JSON-over-HTTP service exposing the source metrics.

Mock-hardware style endpoint: every response is reproducible bit-exactly by
the corresponding library call.  Loopback bind, no authentication.

This is where evaluation is scoped.  Each metrics or spin-matrix request is
evaluated in one chain-moment scope (metrics.moment_scope), so its metrics
evaluate each distinct chain moment once.  The values of a metrics reply
(floats and tuples) are kept for the last REPLY_CACHE_SIZE distinct parsed
requests (SourceParams and click pattern), so a repeated request is answered
from the cache, in a payload built for that request.

This module holds the request and reply logic, JSON decoding and encoding
included: read_json and reply_json each reuse one strict coder built at
import.  The HTTP layer (``httpd``: the socketserver handler, which reads each
request from one receive buffer within REQUEST_DEADLINE_S, and the server with
its pool of at most MAX_CONCURRENT_HANDLERS reused handler threads) is
imported only when a server is built, so importing the CLI or this module for
its payload functions loads no socket server.  No process of the package, a
serving one included, loads http.server, http.client, email, ssl or hashlib.
"""

from __future__ import annotations

import functools
import json
import struct
import urllib.parse

from . import __version__ as ENGINE_VERSION
from .errors import NumericalDomainError, OutOfRangeError
from .memory import DEFAULT_CLICK_PATTERN, spin_spin_dm_dark, validate_click_pattern
from .memory import spin_spin_dm  # noqa: F401 - unused here, but perfbench/tracing.py patches server.spin_spin_dm
from .metrics import FIDELITY_PATTERNS, fidelity, moment_scope, pgen, pgen_with_dark, photonic_trace
from .sources import COVARIANCE_PRESCALE, PARAM_FIELDS, SourceParams, as_count

_REQUEST_FIELDS = {**dict.fromkeys(PARAM_FIELDS, float), "herald_pattern": list, "click_pattern": list}
# The spin-matrix request's heralds are modes 3-6 of its click pattern, so it has no herald_pattern.
_SPIN_DM_FIELDS = {field: kind for field, kind in _REQUEST_FIELDS.items() if field != "herald_pattern"}
# The request's name of each SourceParams field, for the errors SourceParams words under its own names.
_REQUEST_NAMES = {param: field for field, param in PARAM_FIELDS.items()}
# A request body is a few hundred bytes; the cap bounds what one request may make the server read.
MAX_BODY_BYTES = 1 << 16
# Seconds a handler waits on its socket, so a client that sends less than it announced frees the thread.
# httpd._Handler.timeout binds it when httpd is imported.
SOCKET_TIMEOUT_S = 2.0
# Seconds from a connection's accept to its request's last byte, so that a client trickling bytes cannot
# hold a handler either; a request not in by then is answered 408 "timeout".  Read by each handler.
REQUEST_DEADLINE_S = 5.0
# Handlers that may run at once, and the most handler threads a server keeps; a connection beyond them
# is answered 503 "busy" and closed.  Read when a server is built.
MAX_CONCURRENT_HANDLERS = 32
# Seconds a refused connection may hold the accept loop while the client takes its 503.
BUSY_LINGER_S = 0.2
# Distinct parsed requests whose metrics reply values are kept, as many as metrics._a_variant keeps exponent matrices.
REPLY_CACHE_SIZE = 256


class RequestError(Exception):
    def __init__(self, status: int, code: str, field: str, message: str):
        super().__init__(message)
        self.status = status
        self.payload = {"code": code, "field": field, "message": message}


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not JSON")


# The coders of read_json and reply_json, built once: neither keeps state from one call to the next, so threads share them.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)
_ENCODER = json.JSONEncoder(allow_nan=False)


def read_json(text: str):
    """The one JSON reader, reply_json's input twin: strict JSON, so NaN, Infinity and nesting too deep to read raise ValueError.

    As json.loads does, it refuses text that starts with a byte order mark.
    """
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def read_fields(texts: dict) -> dict:
    """Request fields from their texts (query values, CLI flags), each read as JSON, a count list as the items of a JSON array.

    Text that is not JSON, empty text included, stays a string, which _parse_request refuses with 400 bad_type.
    """
    data: dict = {}
    for field, text in texts.items():
        try:
            data[field] = read_json(f"[{text}]" if text and _REQUEST_FIELDS.get(field) is list else text)
        except ValueError:
            data[field] = text
    return data


def _parse_request(data: dict, fields: dict = _REQUEST_FIELDS) -> tuple[SourceParams, tuple[int, ...] | None]:
    """The parameters and click pattern of a request that may hold the given fields, else a RequestError naming the field sent."""
    if not isinstance(data, dict):
        raise RequestError(400, "malformed", "", "request body must be a JSON object")
    if "mean_photon" not in data:
        raise RequestError(400, "missing_field", "mean_photon", "mean_photon is required")
    clean: dict = {}
    for field, value in data.items():
        if field not in fields:
            raise RequestError(400, "unknown_field", field, f"unknown field {field!r}")
        kind = fields[field]
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise RequestError(400, "bad_type", field, f"{field} must be a number")
            try:
                clean[field] = float(value)
            except OverflowError:
                raise RequestError(422, "out_of_range", field, f"{field} is too large for a float") from None
        else:
            try:
                if not isinstance(value, list):
                    raise TypeError(f"{field} is not a list")
                clean[field] = [as_count(v) for v in value]
            except TypeError:
                raise RequestError(400, "bad_type", field, f"{field} must be a list of integers") from None
    click = clean.pop("click_pattern", None)
    try:
        params = SourceParams(**{PARAM_FIELDS.get(field, field): value for field, value in clean.items()})
    except OutOfRangeError as exc:
        field = _REQUEST_NAMES.get(exc.field, exc.field)
        raise RequestError(422, "out_of_range", field, f"{field} {exc.rule}") from exc
    if click is not None:
        try:
            click = validate_click_pattern(click)
        except ValueError as exc:
            raise RequestError(422, "out_of_range", "click_pattern", str(exc)) from exc
    return params, click


def _spin_dm_wire(rows) -> list:
    """The matrix rows as [re, im] pairs; the entries are real, so each im is 0.0, kept for the schema."""
    return [[[value, 0.0] for value in row] for row in rows]


def reply_json(payload, indent: int | None = None) -> str:
    """The JSON text of every reply; NaN and Infinity are not JSON, so they raise NumericalDomainError."""
    try:
        return _ENCODER.encode(payload) if indent is None else json.dumps(payload, allow_nan=False, indent=indent)
    except ValueError as exc:
        raise NumericalDomainError(f"non-finite value in the reply: {exc}") from exc


def spin_dm_response(data: dict) -> dict:
    """The spin-matrix reply for one request, its dark counts mixed in: GET /v1/spin_dm and `zalmsim spin-dm`.

    Its trace is the click pattern's probability.  The mixture's spin matrices
    share one chain-moment scope.
    """
    params, click = _parse_request({"click_pattern": list(DEFAULT_CLICK_PATTERN), **data}, _SPIN_DM_FIELDS)
    with moment_scope():
        dm = spin_spin_dm_dark(params, click)
    return {"click_pattern": list(click), "trace": dm.trace, "spin_dm": _spin_dm_wire(dm.entries.tolist()), "engine_version": ENGINE_VERSION}


@functools.lru_cache(maxsize=REPLY_CACHE_SIZE)
def _metrics_values(params: SourceParams, click: tuple[int, ...] | None) -> tuple:
    """pgen, trace, fidelity (None outside its domain) and spin-matrix rows (None without a click pattern) of one parsed request.

    Floats and tuples only, so the cache shares nothing that a caller can change.
    """
    has_fidelity = params.mean_photon > 0.0 and params.herald_pattern in FIDELITY_PATTERNS
    return (
        pgen_with_dark(params),
        photonic_trace(params),
        fidelity(params) if has_fidelity else None,
        None if click is None else tuple(map(tuple, spin_spin_dm_dark(params, click).entries.tolist())),
    )


def compute_metrics_response(data: dict) -> dict:
    """The full metrics payload for one request: POST /v1/metrics and `zalmsim metrics`.

    pgen and spin_dm mix in dark counts at dark_click_prob; the fidelity is the photonic state's, with none.
    The metrics share one chain-moment scope.  A request equal, once parsed,
    to one of the last REPLY_CACHE_SIZE distinct requests is answered from
    that request's cached values; every call builds its own payload, which
    the caller may change.
    """
    params, click = _parse_request(data)
    with moment_scope():
        pgen_value, trace, fidelity_value, spin_rows = _metrics_values(params, click)
    payload = {
        "pgen": pgen_value,
        "trace": trace,
        "fidelity": fidelity_value,
        # The values are real, so each imaginary residual is 0.0, kept for the schema.
        "imag_residuals": dict.fromkeys(("trace", "pgen") if fidelity_value is None else ("trace", "pgen", "fidelity"), 0.0),
        "engine_version": ENGINE_VERSION,
    }
    if spin_rows is not None:
        payload["spin_dm"] = _spin_dm_wire(spin_rows)
    return payload


def health_payload() -> dict:
    """GET /v1/health; the checksum is the exact IEEE-754 bits of pgen at mean_photon 0.1, as 16 hex digits."""
    return {
        "engine_version": ENGINE_VERSION,
        "convention_scale": COVARIANCE_PRESCALE,
        "self_test_checksum": struct.pack(">d", pgen(SourceParams(mean_photon=0.1))).hex(),
    }


def _coerce_query(query: str) -> dict:
    return read_fields({field: values[-1] for field, values in urllib.parse.parse_qs(query, keep_blank_values=True).items()})


def build_server(bind: str = "127.0.0.1", port: int = 8791):
    """A BoundedHTTPServer serving the JSON API on (bind, port)."""
    from .httpd import BoundedHTTPServer, _Handler

    return BoundedHTTPServer((bind, port), _Handler)
