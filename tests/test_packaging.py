import importlib
import re
from pathlib import Path

import zalmsim
from zalmsim.server import ENGINE_VERSION


def test_version_declared_consistently():
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"', pyproject.read_text(), re.M).group(1)
    assert zalmsim.__version__ == declared == ENGINE_VERSION


def test_public_api_exports_resolve():
    for name in zalmsim.__all__:
        assert getattr(zalmsim, name) is not None


PUBLIC_API = [
    "BELL_TARGETS",
    "ConvergenceError",
    "DEFAULT_CLICK_PATTERN",
    "NumericalDomainError",
    "SourceParams",
    "SpinSpinDM",
    "UndefinedFidelityError",
    "bell_fidelity_spin",
    "build_cascaded_cov",
    "fidelity",
    "fock_element",
    "oracle_covariance",
    "oracle_fidelity",
    "oracle_fock_element",
    "oracle_pgen",
    "oracle_pgen_dark",
    "oracle_pgen_filtered",
    "oracle_spin_spin",
    "pgen",
    "pgen_with_dark",
    "photonic_trace",
    "spin_spin_dm",
    "spin_spin_dm_dark",
]

# Engine and referee internals, kept out of __all__ but imported from their modules by tests and perfbench.
INTERNALS = {
    "moments": ("AMatrix", "MomentRequest", "assemble_a", "wick_moment", "hafnian", "hafnian_repeated", "k_data", "ChainMoments"),
    "sources": ("COVARIANCE_PRESCALE",),
    "memory": ("BASIS", "SIGMA_PATTERNS"),
    "oracle": ("TruncatedState", "oracle_apply_loss", "oracle_build_cascaded"),
}


def test_public_api_is_the_papers_quantities():
    assert sorted(zalmsim.__all__) == PUBLIC_API


def test_internals_resolve_in_their_modules():
    for module, names in INTERNALS.items():
        mod = importlib.import_module(f"zalmsim.{module}")
        for name in names:
            assert name not in zalmsim.__all__
            assert getattr(mod, name) is not None, f"zalmsim.{module}.{name}"
