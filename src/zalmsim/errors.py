"""Exception types shared across the package."""


class NumericalDomainError(ArithmeticError):
    """A result the arithmetic cannot give: undefined, or a NaN or infinity that JSON cannot carry."""


class UndefinedFidelityError(NumericalDomainError, ZeroDivisionError):
    """Fidelity requested for a state with zero heralding probability."""


class OutOfRangeError(ValueError):
    """A named input outside its domain: the one-line message is f"{field} {rule}", so a caller may word it under another name."""

    def __init__(self, field: str, rule: str):
        super().__init__(f"{field} {rule}")
        self.field = field
        self.rule = rule


class ConvergenceError(RuntimeError):
    """The truncated-Fock reference failed to converge within its cutoff cap."""
