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
