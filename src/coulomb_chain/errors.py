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

    ``iterations`` is the work spent: accepted steps for the descent oracle,
    shots for the shooting solver.  The descent oracle also sets
    ``grad_norm`` (the last projected-gradient max-norm), the shooting solver
    ``bracket`` (the last first-gap sign bracket ``(lo, hi)``); unset fields
    are None.
    """

    def __init__(
        self,
        message: str,
        iterations: int | None = None,
        grad_norm: float | None = None,
        bracket: tuple[float, float] | None = None,
    ):
        self.iterations = iterations
        self.grad_norm = grad_norm
        self.bracket = bracket
        super().__init__(message)

