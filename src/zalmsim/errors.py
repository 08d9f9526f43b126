"""Exception types shared across the package."""


class NumericalDomainError(ArithmeticError):
    """A result the arithmetic cannot give: undefined, or a NaN or infinity that JSON cannot carry."""


class UndefinedFidelityError(NumericalDomainError, ZeroDivisionError):
    """Fidelity requested for a state with zero heralding probability."""


class ConvergenceError(RuntimeError):
    """The truncated-Fock reference failed to converge within its cutoff cap."""
