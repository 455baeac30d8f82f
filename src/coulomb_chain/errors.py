"""Exception types shared across the package."""


class CoulombChainError(Exception):
    """Base class for all library-specific errors."""


class DegenerateConfigurationError(CoulombChainError):
    """Two particles coincide (a zero gap), so pressures are not finite."""


class MonotonicityViolation(CoulombChainError):
    """Force profile is not non-negative and non-increasing on the segment.

    The shooting solver refuses such profiles because the fixed point is not
    guaranteed to be unique; use the descent oracle instead.
    """


class NoConvergence(CoulombChainError):
    """An iterative solve exhausted its iteration budget or stalled.

    The descent oracle sets ``iterations`` (accepted steps) and
    ``grad_norm`` (the last projected-gradient max-norm); other solvers
    leave them None.
    """

    def __init__(
        self,
        message: str,
        iterations: int | None = None,
        grad_norm: float | None = None,
    ):
        self.iterations = iterations
        self.grad_norm = grad_norm
        super().__init__(message)


class PositivityError(CoulombChainError):
    """A closed-form gap sequence left its domain of validity.

    Carries the first 1-based gap index whose pressure would be non-positive.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"pressure not positive at gap k={index}")
