"""Names the benchmark in perfbench/ looks up in the package, and the import footprint it measures.

perfbench/tracing.py wraps layer functions at their module attributes and
perfbench/worker.py clears the lru_caches between passes, so a refactor that
unbinds one of those names must fail here rather than only in a traced run.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_site():
    tracing = load_tracing()
    sites = [
        (importlib.import_module(f"zalmsim.{mod}"), name.split(".", 1)[1])
        for name, modules in tracing.SITES
        for mod in modules
    ]
    originals = [getattr(module, attr) for module, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr), original in zip(sites, originals):
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.restore()
    for (module, attr), original in zip(sites, originals):
        assert getattr(module, attr) is original


def test_worker_names_stay_bound():
    from zalmsim import memory, metrics, oracle

    for cached in (metrics._kernel_for, metrics._a_variant, oracle._bs_sector):
        assert callable(cached.cache_clear)
    assert len(memory.DEFAULT_CLICK_PATTERN) == 8
    assert sorted(memory.SIGMA_PATTERNS) == [1, 2, 3, 4]


def test_import_leaves_scipy_unloaded():
    # neither the engine nor the oracle needs scipy
    code = (
        "import sys, zalmsim; "
        "zalmsim.oracle_pgen(0.1, 0.8); zalmsim.oracle_pgen_filtered(0.1, 0.8, cutoff=2); "
        "print('scipy' in sys.modules)"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


HTTP_STACK = ("http.server", "http.client", "email.parser", "ssl", "hashlib", "_hashlib")


def test_import_leaves_the_http_stack_unloaded():
    # importing the CLI or the request layer loads no socket server at all
    code = (
        "import sys, zalmsim.cli, zalmsim.server; "
        f"print(sorted(m for m in {HTTP_STACK + ('socketserver',)} if m in sys.modules))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_serving_leaves_the_http_stack_unloaded():
    # the service answers on socketserver alone: http.server would bring http.client, email and ssl,
    # and hashlib OpenSSL's libcrypto
    code = (
        "import socket, sys, threading\n"
        "from zalmsim.server import build_server\n"
        "httpd = build_server('127.0.0.1', 0)\n"
        "threading.Thread(target=httpd.serve_forever, daemon=True).start()\n"
        "body = b'{\"mean_photon\": 0.1}'\n"
        "for request in (b'GET /v1/health HTTP/1.0\\r\\n\\r\\n',\n"
        "                b'POST /v1/metrics HTTP/1.0\\r\\nContent-Length: %d\\r\\n\\r\\n%s' % (len(body), body)):\n"
        "    with socket.create_connection(httpd.server_address, timeout=30) as sock:\n"
        "        sock.sendall(request)\n"
        "        assert sock.makefile('rb').readline().split()[1] == b'200'\n"
        "httpd.shutdown()\n"
        "httpd.server_close()\n"
        f"print(sorted(m for m in {HTTP_STACK} if m in sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_tracer_sees_every_engine_stage():
    # A name the tracer patches but the engine no longer calls would read as a
    # per-layer zero in a benchmark run; here it fails.
    from zalmsim import SourceParams, fidelity, memory, metrics, pgen

    metrics._kernel_for.cache_clear()
    metrics._a_variant.cache_clear()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        params = SourceParams(mean_photon=0.123, eta_b=0.7)
        pgen(params)
        fidelity(params)
        memory.spin_spin_dm(params)
    finally:
        tracer.restore()
    calls = tracer.calls()
    for name in ("kfunction.k_data", "moments.assemble_a", "moments.wick_moment", "moments.hafnian"):
        assert calls[name] >= 1, name


def test_validate_leaves_numpy_random_unloaded():
    # validate draws its trace-check points from the stdlib generator: importing
    # numpy.random alone costs about a tenth of a validate run
    code = (
        "import contextlib, io, sys\n"
        "from zalmsim import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['validate'])\n"
        "print(status, 'numpy.random' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0 False"


def test_oracle_caches_are_bounded():
    # the chain states hold arrays that grow as cutoff^3, so no oracle cache may grow without bound
    from zalmsim import oracle

    caches = {name: obj for name, obj in vars(oracle).items() if hasattr(obj, "cache_info")}
    assert {"_bs_sector", "_bs_table", "_chain_state"} <= set(caches)
    for name, cached in caches.items():
        assert cached.cache_info().maxsize is not None, name
    assert callable(oracle._bs_sector.cache_clear)
