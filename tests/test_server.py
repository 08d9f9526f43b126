import datetime
import email.utils
import http.client
import json
import math
import random
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from zalmsim import (
    DEFAULT_CLICK_PATTERN,
    SourceParams,
    UndefinedFidelityError,
    fidelity,
    metrics,
    pgen,
    pgen_with_dark,
    photonic_trace,
    server,
    spin_spin_dm,
    spin_spin_dm_dark,
)
from zalmsim.httpd import MAX_HEADERS, MAX_LINE_BYTES
from zalmsim.moments import MAX_REQUEST_CARDINALITY
from zalmsim.sweep import SweepConfig, run_sweep
from zalmsim.server import (
    MAX_BODY_BYTES,
    SOCKET_TIMEOUT_S,
    RequestError,
    build_server,
    compute_metrics_response,
    reply_json,
    spin_dm_response,
)
from zalmsim.sources import MAX_MEAN_PHOTON

# ROADMAP item 4.  The heralding moments (~ mean_photon^2) leave the normal floats a little below
# UNDERFLOW_MEAN_PHOTON.  At efficiencies near 0 nothing damps a chain moment of 16 forms
# (~ 15!! mean_photon^8), which overflows above OVERFLOW_MEAN_PHOTON.
UNDERFLOW_MEAN_PHOTON = 1e-150
OVERFLOW_MEAN_PHOTON = 1e37


@pytest.fixture(scope="module")
def server_url():
    httpd = build_server("127.0.0.1", 0)
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture
def cold_replies():
    """An empty metrics reply cache, so the next request of every body is evaluated."""
    server._metrics_values.cache_clear()
    yield
    server._metrics_values.cache_clear()


@pytest.fixture
def wick_calls(monkeypatch):
    """Every metrics.wick_moment call as (id of B, forms); B is held so that its id stays its own."""
    calls, held, wick_moment = [], [], metrics.wick_moment

    def counted(a, req):
        held.append(a)
        calls.append((id(a), req.forms))
        return wick_moment(a, req)

    monkeypatch.setattr(metrics, "wick_moment", counted)
    return calls


def post(url: str, payload) -> tuple[int, dict]:
    body = json.dumps(payload).encode() if not isinstance(payload, bytes) else payload
    req = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def raw_reply(url: str, *pieces: bytes, pause: float = 0.0) -> bytes:
    """Send the request bytes as written, each piece as its own segment after a pause; the whole reply."""
    parts = urllib.parse.urlsplit(url)
    with socket.create_connection((parts.hostname, parts.port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for piece in pieces:
            time.sleep(pause)
            sock.sendall(piece)
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:  # the server closed with part of a refused request unread
            pass
    return reply


def raw_request(url: str, request: bytes) -> tuple[bytes, dict, dict]:
    """Send request bytes as written; (status line, headers by lower-case name, reply body read as strict JSON)."""
    head, _, body = raw_reply(url, request).partition(b"\r\n\r\n")
    status_line, *lines = head.decode("latin-1").split("\r\n")
    headers = {name.lower(): value.strip() for name, _, value in (line.partition(":") for line in lines)}
    assert int(headers["content-length"]) == len(body)
    return status_line.encode("latin-1"), headers, server.read_json(body.decode("utf-8"))


def raw_post(url: str, content_length: str, body: bytes = b"") -> tuple[int, dict, float]:
    """POST /v1/metrics with a hand-written Content-Length; (status, JSON reply, seconds to the reply)."""
    head = f"POST /v1/metrics HTTP/1.1\r\nHost: x\r\nContent-Length: {content_length}\r\n\r\n"
    started = time.perf_counter()
    status_line, _, payload = raw_request(url, head.encode() + body)
    return int(status_line.split()[1]), payload, time.perf_counter() - started


class TestHealth:
    def test_health_reports_version_and_convention(self, server_url):
        status, payload = get(f"{server_url}/v1/health")
        assert status == 200
        assert payload["engine_version"]
        assert payload["convention_scale"] == 0.5
        assert payload["self_test_checksum"] == struct.pack(">d", pgen(SourceParams(mean_photon=0.1))).hex()

    def test_reply_headers(self, server_url):
        status_line, headers, _ = raw_request(server_url, b"GET /v1/health HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status_line == b"HTTP/1.0 200 OK"
        assert headers["server"] == "zalmsim/0.1.0"
        assert headers["content-type"] == "application/json; charset=utf-8"
        assert headers["connection"] == "close"
        sent = email.utils.parsedate_to_datetime(headers["date"])
        assert abs((sent - datetime.datetime.now(datetime.timezone.utc)).total_seconds()) < 60
        assert headers["date"] == email.utils.format_datetime(sent, usegmt=True)


class TestMetricsEndpoint:
    def test_matches_library_bit_exactly(self, server_url):
        status, payload = post(
            f"{server_url}/v1/metrics",
            {"mean_photon": 0.1, "bsm_efficiency": 1, "outcoupling_efficiency": 1, "detection_efficiency": 1, "dark_click_prob": 0},
        )
        assert status == 200
        params = SourceParams(mean_photon=0.1)
        assert payload["pgen"] == pgen(params)
        assert payload["trace"] == photonic_trace(params)
        assert payload["engine_version"] == "0.1.0"

    def test_random_tuples_bit_exact(self, server_url):
        rng = np.random.default_rng(21)
        for _ in range(5):
            req = {
                "mean_photon": float(rng.uniform(0.01, 0.5)),
                "bsm_efficiency": float(rng.uniform(0.3, 1.0)),
                "outcoupling_efficiency": float(rng.uniform(0.3, 1.0)),
                "detection_efficiency": float(rng.uniform(0.3, 1.0)),
            }
            status, payload = post(f"{server_url}/v1/metrics", req)
            assert status == 200
            params = SourceParams(
                mean_photon=req["mean_photon"],
                eta_b=req["bsm_efficiency"],
                eta_t=req["outcoupling_efficiency"],
                eta_d=req["detection_efficiency"],
            )
            assert payload["pgen"] == pgen(params)

    def test_dark_counts_mix_into_pgen_and_spin_dm(self, server_url):
        click = [1, 0, 1, 1, 0, 0, 1, 0]
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, "dark_click_prob": 1e-3, "click_pattern": click})
        assert status == 200
        params = SourceParams(mean_photon=0.1, dark_click_prob=1e-3)
        assert payload["pgen"] == pgen_with_dark(params) != pgen(params)
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, spin_spin_dm_dark(params, tuple(click)).entries)
        # the fidelity is the photonic state's, with no dark-count model
        assert payload["fidelity"] == fidelity(params)

    def test_spin_dm_present_iff_click_pattern_given(self, server_url):
        status, without = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1})
        assert status == 200 and "spin_dm" not in without
        status, with_dm = post(
            f"{server_url}/v1/metrics",
            {"mean_photon": 0.1, "click_pattern": [1, 0, 1, 1, 0, 0, 1, 0]},
        )
        assert status == 200
        dm = spin_spin_dm(SourceParams(mean_photon=0.1))
        assert with_dm["spin_dm"][0][0][0] == dm.entries[0, 0].real

    def test_malformed_body_is_400(self, server_url):
        status, payload = post(f"{server_url}/v1/metrics", b"{not json")
        assert status == 400
        assert payload["code"] == "malformed"

    @pytest.mark.parametrize(
        "body",
        [b"[" * 60_000, b'{"mean_photon": NaN}', b'{"mean_photon": Infinity}', b'{"mean_photon": -Infinity}',
         b'\xef\xbb\xbf{"mean_photon": 0.1}'],
        ids=["nested-past-the-recursion-limit", "nan-token", "infinity-token", "minus-infinity-token", "byte-order-mark"],
    )
    def test_body_that_strict_json_cannot_read_is_400(self, server_url, body):
        status, payload = post(f"{server_url}/v1/metrics", body)
        assert (status, payload["code"]) == (400, "malformed")

    def test_integer_too_large_for_a_float_is_422(self, server_url):
        # as 1e400 is: a number out of every field's range
        for text in ("1" + "0" * 400, "1e400"):
            status, payload = post(f"{server_url}/v1/metrics", b'{"mean_photon": %s}' % text.encode())
            assert (status, payload["code"]) == (422, "out_of_range")

    def test_integer_past_the_digit_limit_is_not_500(self, server_url):
        # 400 malformed where the interpreter limits integer digits, 422 out_of_range where it does not
        status, payload = post(f"{server_url}/v1/metrics", b'{"mean_photon": 1%s}' % (b"0" * 5000))
        assert status in (400, 422)
        assert payload["code"] in ("malformed", "out_of_range")

    def test_missing_required_field_is_400(self, server_url):
        status, payload = post(f"{server_url}/v1/metrics", {"bsm_efficiency": 0.5})
        assert status == 400
        assert payload["field"] == "mean_photon"

    def test_out_of_range_is_422(self, server_url):
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, "bsm_efficiency": 1.5})
        assert status == 422
        assert payload["code"] == "out_of_range"
        # the reply names the field the client sent, in the field and in the message
        for field, value, message in [
            ("bsm_efficiency", 1.5, "bsm_efficiency must lie in [0, 1], got 1.5"),
            ("outcoupling_efficiency", -0.5, "outcoupling_efficiency must lie in [0, 1], got -0.5"),
            ("detection_efficiency", 2, "detection_efficiency must lie in [0, 1], got 2.0"),
            ("dark_click_prob", 1, "dark_click_prob must lie in [0, 1), got 1.0"),
            ("mean_photon", 1e78, "mean_photon must lie in [0, 1e+77], got 1e+78"),
            ("herald_pattern", [5, 5, 0, 0], "herald_pattern exceeds the total click cap of 8"),
            ("herald_pattern", [1, 1], "herald_pattern must be 4 nonnegative integer counts, got (1, 1)"),
            ("click_pattern", [1, 1, 1, 1, 0, 0, 1, 0], "memory pair (1, 2) allows at most one click, got (1, 1)"),
        ]:
            status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, field: value})
            assert (status, payload) == (422, {"code": "out_of_range", "field": field, "message": message})

    @pytest.mark.parametrize("mean_photon, status", [(1e6, 200), (1e77, 200), (1e78, 422)])
    def test_mean_photon_bound(self, server_url, mean_photon, status):
        # above MAX_MEAN_PHOTON = 1e77 the heralding probability leaves the normal floats
        got, payload = post(f"{server_url}/v1/metrics", {"mean_photon": mean_photon})
        assert got == status
        if status == 422:
            assert payload["code"] == "out_of_range"
        else:
            assert abs(payload["trace"] - 1.0) < 1e-9

    def test_click_pattern_split_over_chains_is_200(self, server_url):
        click = [1, 0, 4, 4, 0, 0, 1, 0]
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, "click_pattern": click})
        assert status == 200
        dm = spin_spin_dm(SourceParams(mean_photon=0.1), tuple(click))
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, dm.entries)

    def test_click_pattern_over_chain_cap_is_fast_422(self, server_url):
        started = time.perf_counter()
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, "click_pattern": [1, 0, 8, 0, 0, 0, 1, 0]})
        assert time.perf_counter() - started < 0.1
        assert status == 422
        assert payload["code"] == "out_of_range"

    def test_double_clicked_memory_pair_is_422(self, server_url):
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, "click_pattern": [1, 1, 1, 1, 0, 0, 1, 0]})
        assert (status, payload["code"]) == (422, "out_of_range")
        status, payload = get(f"{server_url}/v1/spin_dm?mean_photon=0.1&click_pattern=1,1,1,1,0,0,1,0")
        assert (status, payload["code"]) == (422, "out_of_range")

    def test_herald_pattern_without_fidelity_is_200(self, server_url):
        body = {"mean_photon": 0.1, "bsm_efficiency": 0.7, "herald_pattern": [1, 0, 1, 0]}
        status, payload = post(f"{server_url}/v1/metrics", body)
        assert status == 200
        assert payload["fidelity"] is None
        assert payload["pgen"] == pgen(SourceParams(mean_photon=0.1, eta_b=0.7, herald_pattern=(1, 0, 1, 0)))

    def test_undefined_fidelity_is_numerical_domain(self, server_url, monkeypatch):
        def undefined(data):
            raise UndefinedFidelityError("heralding probability vanished")

        monkeypatch.setattr(server, "compute_metrics_response", undefined)
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1})
        assert (status, payload["code"]) == (500, "numerical_domain")

    def test_boolean_count_is_400(self, server_url):
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, "herald_pattern": [True, True, False, False]})
        assert (status, payload["code"], payload["field"]) == (400, "bad_type", "herald_pattern")
        status, payload = get(f"{server_url}/v1/spin_dm?mean_photon=0.1&click_pattern=1,0,1,1,0,0,1,false")
        assert (status, payload["code"], payload["field"]) == (400, "bad_type", "click_pattern")

    def test_unknown_path_is_404(self, server_url):
        status, _ = post(f"{server_url}/v1/other", {"mean_photon": 0.1})
        assert status == 404


class TestRequestBody:
    def test_non_integer_content_length_is_400(self, server_url):
        status, payload, elapsed = raw_post(server_url, "abc")
        assert elapsed < 1.0
        assert status == 400
        assert payload["code"] == "malformed" and payload["field"] == "Content-Length"

    def test_negative_content_length_is_400(self, server_url):
        status, payload, elapsed = raw_post(server_url, "-1", b'{"mean_photon": 0.1}')
        assert elapsed < 1.0
        assert status == 400
        assert payload["code"] == "malformed" and payload["field"] == "Content-Length"

    def test_body_over_the_cap_is_413(self, server_url):
        status, payload, elapsed = raw_post(server_url, str(MAX_BODY_BYTES + 1))
        assert elapsed < 1.0
        assert status == 413
        assert payload["code"] == "too_large" and payload["field"] == "Content-Length"

    def test_large_body_still_reads_its_413(self, server_url):
        # The client is still sending its body when the 413 goes out; the server drains it rather than
        # closing on unread bytes, whose reset would break the client's send before it reads the reply.
        parts = urllib.parse.urlsplit(server_url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
        try:
            conn.request("POST", "/v1/metrics", body=b" " * 4_000_000, headers={"Content-Type": "application/json"})
            reply = conn.getresponse()
            assert reply.status == 413
            assert server.read_json(reply.read().decode("utf-8"))["code"] == "too_large"
        finally:
            conn.close()

    def test_short_body_times_out_with_408(self, server_url):
        body = b'{"mean_photon": 0.1}'
        status, payload, elapsed = raw_post(server_url, str(len(body) + 10), body)
        assert SOCKET_TIMEOUT_S - 0.5 < elapsed < SOCKET_TIMEOUT_S + 2.0
        assert status == 408
        assert payload["code"] == "timeout"


    @pytest.mark.parametrize("lengths", [("20", "2"), ("20", "20")], ids=["differing", "repeated"])
    def test_more_than_one_content_length_is_400(self, server_url, lengths):
        body = b'{"mean_photon": 0.1}'
        head = "".join(f"Content-Length: {length}\r\n" for length in lengths)
        status_line, _, payload = raw_request(server_url, f"POST /v1/metrics HTTP/1.1\r\n{head}\r\n".encode() + body)
        assert b" 400 " in status_line
        assert (payload["code"], payload["field"]) == ("malformed", "Content-Length")

    def test_transfer_encoding_is_400(self, server_url):
        body = b'{"mean_photon": 0.1}'
        chunked = b"POST /v1/metrics HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n14\r\n" + body + b"\r\n0\r\n\r\n"
        status_line, _, payload = raw_request(server_url, chunked)
        assert b" 400 " in status_line
        assert payload == {"code": "malformed", "field": "Transfer-Encoding", "message": "send the body with a Content-Length"}


class TestProtocolErrors:
    """Whatever arrives, the reply is a status line and a {code, field, message} JSON body."""

    @pytest.mark.parametrize("line", [b"GARBAGE", b"GET /v1/health", b""], ids=["one-word", "http-0.9", "blank"])
    def test_request_line_that_is_not_three_words_is_400(self, server_url, line):
        status_line, _, payload = raw_request(server_url, line + b"\r\n\r\n")
        assert status_line == b"HTTP/1.0 400 Bad Request"
        assert payload["code"] == "malformed"

    def test_request_line_over_the_cap_is_414(self, server_url):
        status_line, _, payload = raw_request(server_url, b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n")
        assert b" 414 " in status_line
        assert payload["code"] == "too_large"

    @pytest.mark.parametrize(
        "headers",
        [b"".join(b"X-%d: y\r\n" % i for i in range(MAX_HEADERS + 1)), b"X-Long: " + b"y" * MAX_LINE_BYTES + b"\r\n"],
        ids=["too-many", "too-long"],
    )
    def test_headers_over_the_caps_are_431(self, server_url, headers):
        status_line, _, payload = raw_request(server_url, b"GET /v1/health HTTP/1.1\r\n" + headers + b"\r\n")
        assert b" 431 " in status_line
        assert payload["code"] == "too_large"

    def test_headers_up_to_the_cap_are_read(self, server_url):
        headers = b"".join(b"X-%d: y\r\n" % i for i in range(MAX_HEADERS))
        status_line, _, _ = raw_request(server_url, b"GET /v1/health HTTP/1.1\r\n" + headers + b"\r\n")
        assert status_line == b"HTTP/1.0 200 OK"

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "HEAD"])
    def test_other_method_is_405(self, server_url, method):
        body = b'{"mean_photon": 0.1}'
        request = f"{method} /v1/metrics HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode() + body
        status_line, headers, payload = raw_request(server_url, request)
        assert b" 405 " in status_line
        assert headers["allow"] == "GET, POST"
        assert payload["code"] == "method_not_allowed"

    def test_client_that_leaves_before_its_request_gets_no_reply(self, monkeypatch, capsys):
        # One handler slot: the next request is answered only once the departed client's handler has finished.
        monkeypatch.setattr(server, "MAX_CONCURRENT_HANDLERS", 1)
        httpd = build_server("127.0.0.1", 0)
        port = httpd.server_address[1]
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(65536) == b""
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                # close with a reset, as a client that crashed does
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            deadline = time.perf_counter() + 5.0
            while (status := get(f"http://127.0.0.1:{port}/v1/health")[0]) == 503 and time.perf_counter() < deadline:
                time.sleep(0.02)
            assert status == 200
        finally:
            httpd.shutdown()
            httpd.server_close()
        assert capsys.readouterr().err == ""


class TestRequestReader:
    """The handler reads a request from one receive buffer, however its bytes arrive."""

    BODY = {"mean_photon": 0.1, "bsm_efficiency": 0.8, "click_pattern": [1, 0, 1, 1, 0, 0, 1, 0]}

    def test_post_sent_in_pieces_is_answered_as_one(self, server_url):
        body = json.dumps(self.BODY).encode()
        head = f"Host: x\r\nContent-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        # the request line, the headers cut inside a line, then the body
        reply = raw_reply(server_url, b"POST /v1/metrics HTTP/1.1\r\n", head[:20], head[20:], body, pause=0.05)
        status_line, _, payload = reply.partition(b"\r\n\r\n")
        assert status_line.startswith(b"HTTP/1.0 200 OK\r\n")
        assert payload == reply_json(compute_metrics_response(self.BODY)).encode()

    def test_bytes_after_the_body_leave_the_reply_unchanged(self, server_url):
        body = json.dumps(self.BODY).encode()
        head = f"POST /v1/metrics HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        alone = raw_reply(server_url, head + body).partition(b"\r\n\r\n")[2]
        followed = raw_reply(server_url, head + body + b'{"mean_photon": 0.5}\r\n\r\n').partition(b"\r\n\r\n")[2]
        assert followed == alone == reply_json(compute_metrics_response(self.BODY)).encode()

    def test_head_that_stops_gets_408_after_the_socket_timeout(self, server_url, monkeypatch):
        from zalmsim.httpd import _Handler

        monkeypatch.setattr(_Handler, "timeout", 0.3)
        started = time.perf_counter()
        head, _, body = raw_reply(server_url, b"GET /v1/health HTTP/1.1\r\nX-Cut: ").partition(b"\r\n\r\n")
        assert 0.25 < time.perf_counter() - started < 0.3 + 2.0
        assert head.startswith(b"HTTP/1.0 408 Request Timeout\r\n")
        assert server.read_json(body.decode()) == {"code": "timeout", "field": "", "message": "request head not complete"}

    def test_trickled_head_gets_408_at_the_deadline(self, server_url, monkeypatch):
        # One byte every 0.1 s never leaves the socket silent for its timeout: only the deadline ends the wait.
        deadline = 0.5
        monkeypatch.setattr(server, "REQUEST_DEADLINE_S", deadline)
        parts = urllib.parse.urlsplit(server_url)
        with socket.create_connection((parts.hostname, parts.port), timeout=30) as sock:
            started = time.perf_counter()
            sock.sendall(b"GET /v1/health HTTP/1.1\r\nX-Slow: ")
            sock.settimeout(0.1)
            reply, answered = b"", None
            while time.perf_counter() - started < deadline + SOCKET_TIMEOUT_S + 5.0:
                try:
                    chunk = sock.recv(65536)
                except TimeoutError:
                    sock.sendall(b"y")
                    continue
                answered = answered or time.perf_counter()
                if not chunk:
                    break
                reply += chunk
        assert answered is not None, "no reply"
        assert deadline - 0.05 < answered - started < deadline + SOCKET_TIMEOUT_S
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 408 Request Timeout\r\n")
        assert server.read_json(body.decode())["code"] == "timeout"


def _masked_date(reply: bytes) -> bytes:
    head, sep, body = reply.partition(b"\r\n\r\n")
    lines = [b"Date: *" if line.startswith(b"Date: ") else line for line in head.split(b"\r\n")]
    return b"\r\n".join(lines) + sep + body


def _pinned_reply(status: int, payload: dict, allow: bool = False) -> bytes:
    """A reply byte for byte, its Date masked; the status phrase is the standard library's."""
    body = json.dumps(payload, allow_nan=False).encode()
    allow_line = "Allow: GET, POST\r\n" if allow else ""
    return (
        f"HTTP/1.0 {status} {http.HTTPStatus(status).phrase}\r\nServer: zalmsim/{server.ENGINE_VERSION}\r\nDate: *\r\n"
        f"Content-Type: application/json; charset=utf-8\r\nContent-Length: {len(body)}\r\n{allow_line}Connection: close\r\n\r\n"
    ).encode() + body


class TestReplyBytes:
    """Every reply's head, pinned byte for byte but for its Date value."""

    @pytest.mark.parametrize(
        "request_bytes, status, payload",
        [
            (b"GET /v1/health HTTP/1.1\r\n\r\n", 200, None),
            (b"GARBAGE\r\n\r\n", 400, {"code": "malformed", "field": "", "message": "request line must be 'METHOD TARGET HTTP/x.y', got 'GARBAGE'"}),
            (b"GET /v1/other HTTP/1.1\r\n\r\n", 404, {"code": "not_found", "field": "", "message": "/v1/other"}),
            (b"PUT /v1/metrics HTTP/1.1\r\n\r\n", 405, {"code": "method_not_allowed", "field": "", "message": "method PUT is not allowed; use GET or POST"}),
            (
                b"POST /v1/metrics HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1),
                413,
                {"code": "too_large", "field": "Content-Length", "message": f"body of {MAX_BODY_BYTES + 1} bytes exceeds the cap of {MAX_BODY_BYTES}"},
            ),
            (
                b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n",
                414,
                {"code": "too_large", "field": "", "message": f"request line over {MAX_LINE_BYTES} bytes"},
            ),
            (
                b"GET /v1/health HTTP/1.1\r\n" + b"".join(b"X-%d: y\r\n" % i for i in range(MAX_HEADERS + 1)) + b"\r\n",
                431,
                {"code": "too_large", "field": "", "message": f"headers are capped at {MAX_HEADERS} lines of {MAX_LINE_BYTES} bytes"},
            ),
        ],
        ids=["200", "400", "404", "405", "413", "414", "431"],
    )
    def test_reply_is_pinned(self, server_url, request_bytes, status, payload):
        payload = server.health_payload() if payload is None else payload
        assert _masked_date(raw_reply(server_url, request_bytes)) == _pinned_reply(status, payload, allow=status == 405)

    def test_busy_reply_is_pinned(self, monkeypatch):
        from zalmsim.httpd import _Handler

        monkeypatch.setattr(server, "MAX_CONCURRENT_HANDLERS", 1)
        monkeypatch.setattr(_Handler, "timeout", 1.0)
        httpd = build_server("127.0.0.1", 0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        try:
            # One connection that sends nothing holds the only handler until its socket timeout.
            with socket.create_connection(httpd.server_address, timeout=30):
                time.sleep(0.1)
                reply = raw_reply(url, b"GET /v1/health HTTP/1.1\r\n\r\n")
        finally:
            httpd.shutdown()
            httpd.server_close()
        expected = _pinned_reply(503, {"code": "busy", "field": "", "message": "every request handler is in use"})
        assert _masked_date(reply) == expected


class TestHandlerBound:
    def test_full_pool_answers_503_busy(self, monkeypatch):
        from zalmsim.httpd import _Handler

        monkeypatch.setattr(server, "MAX_CONCURRENT_HANDLERS", 2)
        monkeypatch.setattr(_Handler, "timeout", 1.0)
        httpd = build_server("127.0.0.1", 0)
        port = httpd.server_address[1]
        url = f"http://127.0.0.1:{port}/v1/metrics"
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        held = []
        try:
            # Two connections announce a body and send none: each holds a handler until its socket timeout.
            for _ in range(2):
                sock = socket.create_connection(("127.0.0.1", port), timeout=30)
                sock.sendall(b"POST /v1/metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 20\r\n\r\n")
                held.append(sock)
            started = time.perf_counter()
            status, payload = post(url, {"mean_photon": 0.1})
            assert time.perf_counter() - started < 0.5
            assert status == 503
            assert payload["code"] == "busy"
            for sock in held:
                assert b" 408 " in sock.recv(65536).partition(b"\r\n")[0]
            # A handler frees its slot just after its reply, so allow it a moment.
            deadline = time.perf_counter() + 5.0
            while (status := post(url, {"mean_photon": 0.1})[0]) == 503 and time.perf_counter() < deadline:
                time.sleep(0.05)
            assert status == 200
        finally:
            for sock in held:
                sock.close()
            httpd.shutdown()
            httpd.server_close()


class TestHandlerPool:
    @pytest.fixture
    def pooled(self, monkeypatch):
        """A server with four handler slots; (its health URL, its server, each handler's thread in call order)."""
        from zalmsim.httpd import _Handler

        # Four, not two: each of two clients can have a handler finishing its last reply while its next connection arrives.
        monkeypatch.setattr(server, "MAX_CONCURRENT_HANDLERS", 4)
        threads, handle = [], _Handler.handle  # the Thread objects are held, so that each keeps its own id

        def recorded(handler):
            threads.append(threading.current_thread())
            handle(handler)

        monkeypatch.setattr(_Handler, "handle", recorded)
        httpd = build_server("127.0.0.1", 0)
        threading.Thread(target=httpd.serve_forever, daemon=True).start()
        yield f"http://127.0.0.1:{httpd.server_address[1]}/v1/health", httpd, threads
        httpd.shutdown()
        httpd.server_close()

    def test_connections_reuse_at_most_the_slots_in_threads(self, pooled):
        url, _, threads = pooled
        statuses = [get(url)[0] for _ in range(40)]
        per_client = [[], []]

        def client(out):
            out.extend(get(url)[0] for _ in range(20))

        clients = [threading.Thread(target=client, args=(out,)) for out in per_client]
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=60)
            assert not c.is_alive()
        assert statuses + per_client[0] + per_client[1] == [200] * 80
        assert len(threads) == 80 and len(set(threads)) <= 4

    def test_more_clients_than_slots_stay_within_the_slots_in_threads(self, pooled):
        # A thread that freed its slot before marking itself idle would let the accept loop start a fifth;
        # slots that yield the processor as they are freed give the accept loop that moment.
        class YieldingSlots(threading.BoundedSemaphore):
            def release(self, n=1):
                super().release(n)
                time.sleep(1e-3)

        url, httpd, threads = pooled
        httpd._slots = YieldingSlots(server.MAX_CONCURRENT_HANDLERS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(lambda: [get(url)[0] for _ in range(15)]) for _ in range(8)]
                statuses = [status for future in futures for status in future.result(timeout=120)]
        finally:
            sys.setswitchinterval(interval)
        assert set(statuses) <= {200, 503} and 200 in statuses
        assert len(threads) == statuses.count(200) and len(set(threads)) <= 4

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")  # the SystemExit below
    def test_a_handler_thread_that_dies_is_handed_no_connection(self, pooled, monkeypatch):
        from zalmsim.httpd import _Handler

        url, _, threads = pooled
        handle = _Handler.handle

        def dies_first(handler):
            handle(handler)
            if len(threads) == 1:
                raise SystemExit  # ends the pool's only thread after its reply

        monkeypatch.setattr(_Handler, "handle", dies_first)
        assert [get(url)[0] for _ in range(3)] == [200] * 3
        threads[0].join(timeout=5.0)
        assert not threads[0].is_alive() and threads.count(threads[0]) == 1

    def test_closing_the_server_ends_its_handler_threads(self, pooled):
        url, httpd, threads = pooled
        for _ in range(3):
            assert get(url)[0] == 200
        kept = set(threads)
        assert all(t.is_alive() for t in kept)  # idle between connections, not ended after each
        httpd.shutdown()
        httpd.server_close()
        for t in kept:
            t.join(timeout=5.0)
        assert not any(t.is_alive() for t in kept)


class TestReplyJson:
    def test_non_finite_value_is_numerical_domain_error(self, server_url, monkeypatch):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        monkeypatch.setattr(server, "compute_metrics_response", lambda data: {"pgen": float("nan")})
        req = urllib.request.Request(f"{server_url}/v1/metrics", data=b'{"mean_photon": 0.1}', method="POST")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=60)
        payload = json.loads(info.value.read(), parse_constant=reject)
        assert info.value.code == 500
        assert payload["code"] == "numerical_domain"


class TestConcurrentRequests:
    def test_parallel_posts_all_match_library(self, server_url):
        import concurrent.futures

        mus = [0.02 * (i + 1) for i in range(8)]

        def call(mu: float):
            return post(f"{server_url}/v1/metrics", {"mean_photon": mu})

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(call, mus))
        for mu, (status, payload) in zip(mus, results):
            assert status == 200
            assert payload["pgen"] == pgen(SourceParams(mean_photon=mu))


class TestSpinDmEndpoint:
    def test_query_parameters(self, server_url):
        status, payload = get(
            f"{server_url}/v1/spin_dm?mean_photon=0.05&outcoupling_efficiency=0.8"
        )
        assert status == 200
        dm = spin_spin_dm(SourceParams(mean_photon=0.05, eta_t=0.8))
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, dm.entries)

    def test_herald_pattern_is_an_unknown_field(self, server_url):
        # the spin matrix's heralds are modes 3-6 of its click pattern
        status, payload = get(f"{server_url}/v1/spin_dm?mean_photon=0.1&herald_pattern=0,0,1,1")
        assert (status, payload["code"], payload["field"]) == (400, "unknown_field", "herald_pattern")

    def test_fractional_query_count_is_400(self, server_url):
        status, payload = get(f"{server_url}/v1/spin_dm?mean_photon=0.1&click_pattern=1.5,0,1,1,0,0,1,0")
        assert (status, payload["code"], payload["field"]) == (400, "bad_type", "click_pattern")

    def test_explicit_click_pattern(self, server_url):
        status, payload = get(
            f"{server_url}/v1/spin_dm?mean_photon=0.05&click_pattern=0,1,1,1,0,0,1,0"
        )
        assert status == 200
        dm = spin_spin_dm(SourceParams(mean_photon=0.05), (0, 1, 1, 1, 0, 0, 1, 0))
        assert payload["spin_dm"][1][1][0] == dm.entries[1, 1].real

    @pytest.mark.parametrize(
        "click, dark",
        [(None, 0.0), ((0, 1, 1, 1, 0, 0, 1, 0), 0.0), (None, 0.01)],
        ids=["default-click", "explicit-click", "dark-counts"],
    )
    def test_reply_equals_the_cli_reply(self, server_url, click, dark, capsys):
        from zalmsim import DEFAULT_CLICK_PATTERN, cli

        query = "mean_photon=0.05&outcoupling_efficiency=0.8"
        flags = ["spin-dm", "--mean-photon", "0.05", "--outcoupling-efficiency", "0.8"]
        if click is not None:
            query += "&click_pattern=" + ",".join(map(str, click))
            flags += ["--click-pattern", ",".join(map(str, click))]
        if dark:
            query += f"&dark_click_prob={dark}"
            flags += ["--dark-click-prob", str(dark)]
        status, payload = get(f"{server_url}/v1/spin_dm?{query}")
        assert status == 200
        assert cli.main(flags) == 0
        assert payload == json.loads(capsys.readouterr().out)
        expected = click or DEFAULT_CLICK_PATTERN
        assert payload["click_pattern"] == list(expected)
        # the spin matrix's own trace: the click pattern's probability, not the photonic trace of 1
        params = SourceParams(mean_photon=0.05, eta_t=0.8, dark_click_prob=dark)
        assert payload["trace"] == spin_spin_dm_dark(params, expected).trace

    def test_dark_click_prob_mixes_dark_counts(self, server_url):
        status, payload = get(f"{server_url}/v1/spin_dm?mean_photon=0.1&dark_click_prob=0.01")
        assert status == 200
        dm = spin_spin_dm_dark(SourceParams(mean_photon=0.1, dark_click_prob=0.01))
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, dm.entries)
        assert payload["trace"] == dm.trace != spin_spin_dm(SourceParams(mean_photon=0.1)).trace

    @pytest.mark.parametrize(
        "query, field",
        [
            ("mean_photon=0.1&click_pattern=0_1,0,1,1,0,0,1,0", "click_pattern"),
            ("mean_photon=1_0e-1", "mean_photon"),
            ("mean_photon=nan", "mean_photon"),
            ("mean_photon=.5", "mean_photon"),
            ("mean_photon=0.1&click_pattern=%2B1,0,1,1,0,0,1,0", "click_pattern"),
            ("mean_photon=" + "[" * 5_000, "mean_photon"),
        ],
        ids=["underscore-count", "underscore-number", "nan", "leading-point", "plus-sign", "nested-past-the-recursion-limit"],
    )
    def test_value_that_is_not_json_is_400(self, server_url, query, field):
        # a query value is read as the same text in a JSON body would be
        status, payload = get(f"{server_url}/v1/spin_dm?{query}")
        assert (status, payload["code"], payload["field"]) == (400, "bad_type", field)

    def test_tiny_mean_photon_needs_no_fidelity(self, server_url):
        # The endpoint computes the spin matrix alone, so the fidelity's underflow (ROADMAP item 4) is not its failure.
        status, payload = get(f"{server_url}/v1/spin_dm?mean_photon=1e-170")
        assert status == 200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert server.spin_dm_response(server._coerce_query("mean_photon=1e-170")) == payload
        assert payload["trace"] == spin_spin_dm(SourceParams(mean_photon=1e-170)).trace

    @pytest.mark.parametrize(
        "query, field",
        [
            ("click_pattern=1,,0,1,1,0,0,1,0", "click_pattern"),
            ("click_pattern=1,0,1,1,0,0,1,0,", "click_pattern"),
            ("click_pattern=", "click_pattern"),
        ],
        ids=["inner-empty-field", "trailing-comma", "empty-value"],
    )
    def test_empty_count_field_is_400(self, server_url, query, field):
        status, payload = get(f"{server_url}/v1/spin_dm?mean_photon=0.1&{query}")
        assert (status, payload["code"], payload["field"]) == (400, "bad_type", field)


# Up to eight herald photons spread over modes 3-6; memory pairs (1, 2) and (7, 8) may click both detectors.
herald_counts = st.lists(st.integers(0, 3), max_size=8).map(lambda modes: [modes.count(m) for m in range(4)])
memory_pair = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1)])
# Half the draws in [0, 1], so that most bodies get past the efficiency checks to the patterns.
any_efficiency = st.one_of(st.floats(0.0, 1.0), st.floats())
typed_bodies = st.fixed_dictionaries(
    {"mean_photon": st.floats(0.0, MAX_MEAN_PHOTON, exclude_min=True)},
    optional={
        "bsm_efficiency": any_efficiency,
        "outcoupling_efficiency": any_efficiency,
        "detection_efficiency": any_efficiency,
        "dark_click_prob": any_efficiency,
        "herald_pattern": herald_counts,
        "click_pattern": st.builds(lambda a, heralds, b: [*a, *heralds, *b], memory_pair, herald_counts, memory_pair),
    },
)


class TestTypedBodies:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None, phases=(Phase.explicit, Phase.generate))
    @given(typed_bodies)
    @example({"mean_photon": 0.1, "click_pattern": [1, 1, 1, 1, 0, 0, 1, 0]})
    @example({"mean_photon": 0.1, "herald_pattern": [1, 0, 1, 0]})
    def test_answered_or_refused_with_a_request_error(self, body):
        # A ValueError escaping here is a rule that _parse_request does not check: the service would answer 500.
        # The two numerical defects of ROADMAP item 4 are allowed only where they occur; the xfail below keeps one visible.
        with mock.patch.object(metrics, "wick_moment", wraps=metrics.wick_moment) as wick:
            try:
                compute_metrics_response(body)
            except RequestError as exc:
                assert exc.status == 422
            except UndefinedFidelityError:
                assert body["mean_photon"] < UNDERFLOW_MEAN_PHOTON
            except RuntimeWarning:
                assert body["mean_photon"] > OVERFLOW_MEAN_PHOTON
        # The chain-moment core checks nothing: every request reaching it is within the bounds checked where the body entered.
        for (_, req), _ in wick.call_args_list:
            assert len(req.forms) <= MAX_REQUEST_CARDINALITY and all(0 <= i < 8 for i in req.forms), req.forms

    @pytest.mark.xfail(
        strict=True,
        raises=UndefinedFidelityError,
        reason="ROADMAP item 4: the heralding moments underflow, so the fidelity is undefined at mean_photon = 1e-170",
    )
    def test_tiny_mean_photon_has_a_fidelity(self):
        payload = compute_metrics_response({"mean_photon": 1e-170})
        assert 0.0 <= payload["fidelity"] <= 1.0

    def test_dead_heralding_arm_at_large_mean_photon_is_finite(self):
        # At eta_b = 0 nothing damps the 16 herald forms' moment, but a click there is exactly 0: it is not evaluated.
        payload = compute_metrics_response({"mean_photon": 1e40, "bsm_efficiency": 0.0, "herald_pattern": [8, 0, 0, 0]})
        json.dumps(payload, allow_nan=False)
        assert payload["pgen"] == 0.0


class TestRequestScope:
    """A request evaluates each distinct chain moment, a (B, chain request) pair, once."""

    @pytest.mark.parametrize("dark", [0.0, 1e-3])
    def test_metrics_reply_reaches_each_chain_moment_once(self, cold_replies, wick_calls, dark):
        body = {"mean_photon": 0.1, "bsm_efficiency": 0.8, "dark_click_prob": dark, "click_pattern": list(DEFAULT_CLICK_PATTERN)}
        payload = compute_metrics_response(body)
        assert payload["fidelity"] is not None and "spin_dm" in payload
        assert len(wick_calls) == len(set(wick_calls)) > 0

    def test_spin_dm_reply_shares_one_scope_over_the_dark_mixture(self, wick_calls):
        payload = spin_dm_response({"mean_photon": 0.1, "dark_click_prob": 1e-3})
        # 150 calls without a scope: the mixture's 16 spin matrices each evaluate their own moments.
        assert len(wick_calls) == 32
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, spin_spin_dm_dark(SourceParams(mean_photon=0.1, dark_click_prob=1e-3)).entries)


class TestReplyCache:
    def test_repeated_request_is_evaluated_once(self, cold_replies, wick_calls):
        body = {"mean_photon": 0.1, "bsm_efficiency": 0.8, "click_pattern": list(DEFAULT_CLICK_PATTERN)}
        first = reply_json(compute_metrics_response(body))
        evaluated = len(wick_calls)
        reordered = dict(reversed(list(body.items())))
        assert reply_json(compute_metrics_response(reordered)) == reply_json(compute_metrics_response(body)) == first
        assert len(wick_calls) == evaluated

    def test_changing_a_reply_leaves_the_next_reply_unchanged(self, cold_replies):
        body = {"mean_photon": 0.1, "dark_click_prob": 1e-3, "click_pattern": list(DEFAULT_CLICK_PATTERN)}
        payload = compute_metrics_response(body)
        first = reply_json(payload)
        payload["pgen"] = -1.0
        payload["imag_residuals"]["pgen"] = -1.0
        payload["imag_residuals"]["other"] = 0.0
        payload["spin_dm"][0][0][0] = -1.0
        payload["spin_dm"][1][2].append(0.0)
        payload["spin_dm"][3].clear()
        payload["spin_dm"].append([])
        payload["extra"] = True
        assert reply_json(compute_metrics_response(body)) == first

    @pytest.mark.parametrize("field", ["mean_photon", "bsm_efficiency", "outcoupling_efficiency", "detection_efficiency", "dark_click_prob"])
    @pytest.mark.parametrize(
        "extra",
        [{}, {"herald_pattern": [1, 0, 1, 0]}, {"click_pattern": list(DEFAULT_CLICK_PATTERN)}],
        ids=["default", "no-fidelity", "click"],
    )
    def test_negative_zero_gets_the_reply_of_zero(self, cold_replies, field, extra):
        # SourceParams(-0.0) == SourceParams(0.0), so both share one cache entry; each must be the other's cold reply.
        def body(zero):
            return {"mean_photon": 0.1, **extra, field: zero}

        cold = []
        for zero in (0.0, -0.0):
            server._metrics_values.cache_clear()
            cold.append(reply_json(compute_metrics_response(body(zero))))
            assert reply_json(compute_metrics_response(body(-zero))) == cold[-1]
        assert cold[0] == cold[1]


def _service_mix_bodies(seed: int, count: int) -> list[dict]:
    """Bodies drawn as the benchmark's service_mix draws them, with dark counts and herald patterns added."""
    rng = random.Random(seed)
    clicks = [DEFAULT_CLICK_PATTERN] + [
        tuple(0 if i == j else c for i, c in enumerate(DEFAULT_CLICK_PATTERN)) for j, c in enumerate(DEFAULT_CLICK_PATTERN) if c
    ]
    bodies = []
    for _ in range(count):
        body = {
            "mean_photon": math.exp(rng.uniform(math.log(1e-3), math.log(2.0))),
            "bsm_efficiency": rng.uniform(0.3, 1.0),
            "outcoupling_efficiency": rng.uniform(0.5, 1.0),
            "detection_efficiency": rng.uniform(0.5, 1.0),
            "dark_click_prob": rng.choice([0.0, 1e-5, 1e-3]),
            "click_pattern": list(rng.choice(clicks)),
        }
        if rng.random() < 0.3:
            body["herald_pattern"] = rng.choice([[0, 0, 1, 1], [1, 0, 1, 0]])
        bodies.append(body)
    return bodies


def _positive_zero(x) -> bool:
    return x == 0.0 and math.copysign(1.0, x) == 1.0


class TestRealWire:
    """The engine is real: every imaginary part and residual on the wire is +0.0, kept for the schema."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_replies_carry_positive_zero_imaginary_parts(self, cold_replies, seed):
        for body in _service_mix_bodies(seed, 20):
            payload = compute_metrics_response(body)
            fidelity = set() if payload["fidelity"] is None else {"fidelity"}
            assert set(payload["imag_residuals"]) == {"trace", "pgen"} | fidelity
            assert all(_positive_zero(x) for x in payload["imag_residuals"].values())
            spin = spin_dm_response({k: v for k, v in body.items() if k != "herald_pattern"})
            for reply in (payload, spin):
                assert all(_positive_zero(im) for row in reply["spin_dm"] for _, im in row)

    def test_sweep_imaginary_columns_are_positive_zero(self):
        config = SweepConfig("mean_photon", 1e-3, 2.0, 6, SourceParams(mean_photon=0.1, eta_b=0.7, dark_click_prob=1e-3),
                             scale="log", metrics=("pgen", "fidelity", "spin_dm"))
        rows = run_sweep(config)
        columns = [c for c in rows[0] if c.endswith("_im")] + ["imag_residual"]
        assert len(columns) == 17
        assert all(_positive_zero(row[c]) for row in rows for c in columns)
