"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A numerical routine failed: SVD non-convergence, a non-finite
    objective or a rotation that lost unitarity.

    Carries the best available estimate so callers can inspect it.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate

