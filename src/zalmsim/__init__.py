"""Exact desk-scale model of SPDC and cascaded (ZALM) photonic entanglement sources.

__all__ holds the paper's quantities, the supported surface; engine and
referee internals are importable from their modules with no stability promise.
"""

__version__ = "0.1.0"

from .errors import ConvergenceError, NumericalDomainError, UndefinedFidelityError
from .memory import (
    BELL_TARGETS,
    DEFAULT_CLICK_PATTERN,
    SpinSpinDM,
    bell_fidelity_spin,
    spin_spin_dm,
    spin_spin_dm_dark,
)
from .metrics import (
    fidelity,
    fock_element,
    pgen,
    pgen_with_dark,
    photonic_trace,
)
from .oracle import (
    oracle_covariance,
    oracle_fidelity,
    oracle_fock_element,
    oracle_pgen,
    oracle_pgen_dark,
    oracle_pgen_filtered,
    oracle_spin_spin,
)
from .sources import SourceParams, build_cascaded_cov

__all__ = [
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
