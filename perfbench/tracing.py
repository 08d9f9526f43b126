"""Spans and counts around calls into each layer, recorded from outside the package.

The package is not changed.  Each layer function is replaced by a timing
wrapper at every place it is looked up at call time (``metrics``, ``memory``,
``sweep``, ``server`` and ``cli`` bind names at import, so their module
attributes are patched too), and restored afterwards.  Spans stay in memory
as ``[id, parent, name, start_ns, end_ns]`` until the run writes them out.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (span name, modules whose attribute of that name is the call-time lookup)
SITES = (
    ("sources.build_cascaded_cov", ("metrics",)),
    ("kfunction.k_data", ("metrics",)),
    ("moments.assemble_a", ("metrics",)),
    ("moments.wick_moment", ("metrics", "memory")),
    ("moments.hafnian", ("moments", "cli")),
    ("metrics.pgen", ("metrics", "sweep", "server", "cli")),
    ("metrics.pgen_with_dark", ("metrics", "sweep", "cli")),
    ("metrics.fidelity", ("metrics", "sweep", "server", "cli")),
    ("metrics.photonic_trace", ("metrics", "sweep", "server", "cli")),
    ("metrics.fock_element", ("metrics",)),
    ("memory.spin_spin_dm", ("memory", "sweep", "server", "cli")),
    ("memory.spin_spin_dm_dark", ("memory", "cli")),
    ("sweep.run_sweep", ("sweep", "cli")),
    ("server.compute_metrics_response", ("server", "cli")),
    ("oracle.oracle_pgen", ("oracle", "cli")),
    ("oracle.oracle_fidelity", ("oracle", "cli")),
    ("oracle.oracle_fock_element", ("oracle",)),
    ("oracle.oracle_spin_spin", ("oracle", "cli")),
    ("oracle.oracle_pgen_dark", ("oracle", "cli")),
    ("oracle.oracle_pgen_filtered", ("oracle", "cli")),
    ("oracle.oracle_build_cascaded", ("oracle",)),
    ("oracle.oracle_apply_loss", ("oracle",)),
    ("oracle.pattern_probability", ("oracle",)),
    ("cli.main", ("cli",)),
)
SPAN_NAMES = tuple(name for name, _ in SITES)
HAFNIAN_SIZES = tuple(range(0, 17, 2))
CACHES = (("metrics.kernel_cache", "metrics", "_kernel_for"), ("metrics.a_cache", "metrics", "_a_variant"))


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def matchings(n: int) -> int:
    """Perfect matchings of n indices, (n-1)!!, which the hafnian enumerates."""
    return _double_factorial(n - 1) if n else 1


def _cache_info(mod_name: str, attr: str):
    return getattr(importlib.import_module(f"zalmsim.{mod_name}"), attr).cache_info()


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["moments.hafnian.matchings"] = "count"
    for n in HAFNIAN_SIZES:
        units[f"moments.hafnian.calls_n{n}"] = "count"
    units["moments.wick_moment.forms"] = "count"
    for cache, _, _ in CACHES:
        units[f"{cache}.hits"] = "count"
        units[f"{cache}.misses"] = "count"
        units[f"{cache}.hit_ratio"] = "ratio"
    units["sweep.rows_flagged"] = "count"
    units["server.http_overhead_ms"] = "ms"
    units["bench.tracing_overhead_pct"] = "%"
    units["bench.error_rate"] = "ratio"
    return units


class Tracer:
    """Records spans and exact counts while installed; ``restore`` undoes every patch."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._cache_start: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if name == "moments.hafnian":
                n = len(args[0])
                counts[f"moments.hafnian.calls_n{n}"] += 1
                counts["moments.hafnian.matchings"] += matchings(n)
            elif name == "moments.wick_moment":
                counts["moments.wick_moment.forms"] += len(args[1].forms)
            span = [len(spans), stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, modules in SITES:
            attr = name.split(".", 1)[1]
            for mod_name in modules:
                module = importlib.import_module(f"zalmsim.{mod_name}")
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))
        for cache, mod_name, attr in CACHES:
            self._cache_start[cache] = _cache_info(mod_name, attr)

    def restore(self) -> None:
        for cache, mod_name, attr in CACHES:
            info = _cache_info(mod_name, attr)
            start = self._cache_start[cache]
            self.counts[f"{cache}.hits"] += info.hits - start.hits
            self.counts[f"{cache}.misses"] += info.misses - start.misses
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_ms(self) -> dict[str, float]:
        """Span duration minus the part of it covered by child spans, summed per name."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start - child_ns[sid]) / 1e6
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for _, _, name, _, _ in self.spans)

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly for the same inputs."""
        out = {f"{name}.calls": n for name, n in self.calls().items()}
        out.update(self.counts)
        return dict(sorted(out.items()))
