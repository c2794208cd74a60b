"""Exception types shared across the package."""


class NumericError(RuntimeError):
    """A numerical routine failed: a non-finite objective or a rotation that
    lost unitarity (a failed LAPACK call raises numpy's LinAlgError).

    Carries the best available estimate so callers can inspect it.
    """

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate

