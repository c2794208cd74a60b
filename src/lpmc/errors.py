"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A numerical routine failed: SVD non-convergence, a non-finite
    objective or a rotation that lost unitarity.

    Carries the best available estimate so callers can inspect it.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class DegeneracyError(ValueError):
    """A decomposition could not be resolved (odd numerical rank, unpaired
    singular values and the like)."""


class RepresentabilityError(ValueError):
    """The target matrix cannot be written in the requested factored form."""


class NotPsdError(RepresentabilityError):
    """A matrix required to be positive semidefinite is not."""


class RankError(ValueError):
    """Numerical rank below what the caller asked for."""
