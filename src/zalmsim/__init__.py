"""Exact desk-scale model of SPDC and cascaded (ZALM) photonic entanglement sources."""

__version__ = "0.1.0"

from .errors import ConvergenceError, NumericalDomainError, UndefinedFidelityError
from .kfunction import COVARIANCE_PRESCALE, ChainMoments, k_data
from .memory import (
    BASIS,
    BELL_TARGETS,
    DEFAULT_CLICK_PATTERN,
    SIGMA_PATTERNS,
    SpinSpinDM,
    bell_fidelity_spin,
    branch_forms,
    spin_spin_dm,
    spin_spin_dm_dark,
)
from .metrics import (
    MetricResult,
    fidelity,
    fock_element,
    pgen,
    pgen_with_dark,
    photonic_trace,
)
from .moments import (
    AMatrix,
    MomentRequest,
    assemble_a,
    hafnian,
    hafnian_repeated,
    wick_moment,
)
from .oracle import (
    TruncatedState,
    oracle_apply_loss,
    oracle_build_cascaded,
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
    "AMatrix",
    "BASIS",
    "BELL_TARGETS",
    "COVARIANCE_PRESCALE",
    "ChainMoments",
    "ConvergenceError",
    "DEFAULT_CLICK_PATTERN",
    "MetricResult",
    "MomentRequest",
    "NumericalDomainError",
    "SIGMA_PATTERNS",
    "SourceParams",
    "SpinSpinDM",
    "TruncatedState",
    "UndefinedFidelityError",
    "assemble_a",
    "bell_fidelity_spin",
    "branch_forms",
    "build_cascaded_cov",
    "fidelity",
    "fock_element",
    "hafnian",
    "hafnian_repeated",
    "k_data",
    "oracle_apply_loss",
    "oracle_build_cascaded",
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
    "wick_moment",
]
