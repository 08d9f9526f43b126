"""The metric functions are pure, and their caches and the service's reply cache race-free."""

import http.client
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from zalmsim import DEFAULT_CLICK_PATTERN, SourceParams, pgen, photonic_trace, server, spin_spin_dm
from zalmsim.server import build_server, compute_metrics_response, read_json, reply_json


def test_concurrent_evaluations_match_serial():
    grid = [
        SourceParams(mean_photon=mu, eta_b=eta_b, eta_t=0.9)
        for mu in (0.02, 0.07, 0.13, 0.21)
        for eta_b in (1.0, 0.6)
    ]

    def evaluate(params):
        return (
            pgen(params),
            photonic_trace(params),
            spin_spin_dm(params).entries.copy(),
        )

    serial = [evaluate(p) for p in grid]
    with ThreadPoolExecutor(max_workers=8) as pool:
        # hammer the shared caches from many threads at once
        threaded = list(pool.map(evaluate, grid * 4))
    for i, params in enumerate(grid * 4):
        ref = serial[i % len(grid)]
        got = threaded[i]
        assert got[0] == ref[0]
        assert got[1] == ref[1]
        assert np.array_equal(got[2], ref[2])


def test_concurrent_requests_match_serial_bytes():
    # Repeated and distinct bodies, with and without click patterns, so that threads share the reply
    # cache's entries and race to fill them, each request in its own chain-moment scope.
    repeated = {"mean_photon": 0.11, "bsm_efficiency": 0.7, "dark_click_prob": 1e-3}
    clicked = {**repeated, "click_pattern": list(DEFAULT_CLICK_PATTERN)}
    distinct = [
        {"mean_photon": mu, "outcoupling_efficiency": 0.9, **({"click_pattern": [0, 1, 1, 1, 0, 0, 0, 1]} if i % 2 else {})}
        for i, mu in enumerate((0.03, 0.05, 0.08, 0.13, 0.21, 0.34))
    ]
    bodies = [repeated, clicked] * 6 + distinct
    server._metrics_values.cache_clear()
    serial = [reply_json(compute_metrics_response(body)).encode() for body in bodies]
    server._metrics_values.cache_clear()

    httpd = build_server("127.0.0.1", 0)
    port = httpd.server_address[1]
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()

    def send(order):
        replies = {}
        for i in order:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            try:
                conn.request("POST", "/v1/metrics", body=reply_json(bodies[i]))
                reply = conn.getresponse()
                replies[i] = (reply.status, reply.read())
            finally:
                conn.close()
        return replies

    orders = [random.Random(seed).sample(range(len(bodies)), len(bodies)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(send, order) for order in orders]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    for replies in results:
        assert sorted(replies) == list(range(len(bodies)))
        for i, (status, body) in replies.items():
            assert status == 200, read_json(body.decode())
            assert body == serial[i]
