import json
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from zalmsim import SourceParams, pgen, photonic_trace, spin_spin_dm
from zalmsim.server import MAX_BODY_BYTES, SOCKET_TIMEOUT_S, build_server


@pytest.fixture(scope="module")
def server_url():
    httpd = build_server("127.0.0.1", 0)
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}"
    httpd.shutdown()
    httpd.server_close()


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


def raw_post(url: str, content_length: str, body: bytes = b"") -> tuple[int, dict, float]:
    """POST /v1/metrics with a hand-written Content-Length; (status, JSON reply, seconds to the reply)."""
    parts = urllib.parse.urlsplit(url)
    head = f"POST /v1/metrics HTTP/1.1\r\nHost: {parts.netloc}\r\nContent-Length: {content_length}\r\n\r\n"
    started = time.perf_counter()
    with socket.create_connection((parts.hostname, parts.port), timeout=30) as sock:
        sock.sendall(head.encode() + body)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    elapsed = time.perf_counter() - started
    status_line, _, rest = reply.partition(b"\r\n")
    return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2]), elapsed


class TestHealth:
    def test_health_reports_version_and_convention(self, server_url):
        status, payload = get(f"{server_url}/v1/health")
        assert status == 200
        assert payload["engine_version"]
        assert payload["convention_scale"] == 0.5
        assert len(payload["self_test_checksum"]) == 16


class TestMetricsEndpoint:
    def test_matches_library_bit_exactly(self, server_url):
        status, payload = post(
            f"{server_url}/v1/metrics",
            {"mean_photon": 0.1, "bsm_efficiency": 1, "outcoupling_efficiency": 1, "detection_efficiency": 1, "dark_click_prob": 0},
        )
        assert status == 200
        params = SourceParams(mean_photon=0.1)
        assert payload["pgen"] == pgen(params).value
        assert payload["trace"] == photonic_trace(params).value
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
            assert payload["pgen"] == pgen(params).value

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

    def test_missing_required_field_is_400(self, server_url):
        status, payload = post(f"{server_url}/v1/metrics", {"bsm_efficiency": 0.5})
        assert status == 400
        assert payload["field"] == "mean_photon"

    def test_out_of_range_is_422(self, server_url):
        status, payload = post(f"{server_url}/v1/metrics", {"mean_photon": 0.1, "bsm_efficiency": 1.5})
        assert status == 422
        assert payload["code"] == "out_of_range"

    @pytest.mark.parametrize("mean_photon, status", [(1e6, 200), (1e10, 422), (1e17, 422)])
    def test_mean_photon_bound(self, server_url, mean_photon, status):
        # above MAX_MEAN_PHOTON = 1e6 double precision no longer keeps the trace within 1e-9
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

    def test_short_body_times_out_with_408(self, server_url):
        body = b'{"mean_photon": 0.1}'
        status, payload, elapsed = raw_post(server_url, str(len(body) + 10), body)
        assert SOCKET_TIMEOUT_S - 0.5 < elapsed < SOCKET_TIMEOUT_S + 2.0
        assert status == 408
        assert payload["code"] == "timeout"


class TestHandlerBound:
    def test_full_pool_answers_503_busy(self, monkeypatch):
        from zalmsim import server

        monkeypatch.setattr(server, "MAX_CONCURRENT_HANDLERS", 2)
        monkeypatch.setattr(server._Handler, "timeout", 1.0)
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


class TestReplyJson:
    def test_non_finite_value_is_numerical_domain_error(self, server_url, monkeypatch):
        from zalmsim import server

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
            assert payload["pgen"] == pgen(SourceParams(mean_photon=mu)).value


class TestSpinDmEndpoint:
    def test_query_parameters(self, server_url):
        status, payload = get(
            f"{server_url}/v1/spin_dm?mean_photon=0.05&outcoupling_efficiency=0.8"
        )
        assert status == 200
        dm = spin_spin_dm(SourceParams(mean_photon=0.05, eta_t=0.8))
        got = np.array([[complex(re, im) for re, im in row] for row in payload["spin_dm"]])
        assert np.array_equal(got, dm.entries)

    def test_explicit_click_pattern(self, server_url):
        status, payload = get(
            f"{server_url}/v1/spin_dm?mean_photon=0.05&click_pattern=0,1,1,1,0,0,1,0"
        )
        assert status == 200
        dm = spin_spin_dm(SourceParams(mean_photon=0.05), (0, 1, 1, 1, 0, 0, 1, 0))
        assert payload["spin_dm"][1][1][0] == dm.entries[1, 1].real
