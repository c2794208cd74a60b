"""Observation masks, the sampling operator, and noise draws.

Randomness runs through RngState, a splittable handle over a counter-based
generator (Philox). Derived states are keyed by SHA-256 of the seed and the
derivation path, so a (master_seed, experiment, trial) triple names the same
stream on every platform and every run.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix


@dataclass(frozen=True)
class RngState:
    seed: int
    path: tuple = ()

    def derive(self, *tags):
        """Child state extending the derivation path by the given tags."""
        return RngState(self.seed, self.path + tuple(str(t) for t in tags))

    def _key(self):
        raw = "|".join([str(int(self.seed))] + list(self.path)).encode()
        return int.from_bytes(hashlib.sha256(raw).digest()[:16], "big")

    def generator(self):
        return np.random.Generator(np.random.Philox(key=self._key()))

    @property
    def token(self):
        """Short stable identifier of the stream, for logs and records."""
        return format(self._key(), "032x")[:12]


@dataclass(frozen=True)
class ObservationMask:
    """Set of observed entries of an n1 x n2 matrix.

    matrix is the 0/1 indicator; model records how the set was drawn
    ("bernoulli-rect": independent per entry, "symmetric-offdiag": one draw per
    unordered off-diagonal pair, mirrored, empty diagonal). For the symmetric
    model both (i, j) and (j, i) are materialized and counted.
    """

    matrix: np.ndarray = field(repr=False)
    model: str
    nominal_p: float

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=bool)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2:
            raise ValueError("mask indicator must be 2-d")
        if self.model not in ("bernoulli-rect", "symmetric-offdiag"):
            raise ValueError(f"unknown mask model {self.model!r}")
        if self.model == "symmetric-offdiag" and (
                m.shape[0] != m.shape[1] or (m != m.T).any()
                or m.diagonal().any()):
            raise ValueError("a symmetric-offdiag mask must be square, "
                             "symmetric and empty on the diagonal")
        # p = 0 names the (typically empty) degenerate draw; keep it legal so
        # the concentration checks can exercise the trivial case
        if not 0.0 <= self.nominal_p <= 1.0:
            raise ValueError(f"nominal_p must be in [0, 1], got {self.nominal_p}")

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]

    @property
    def count(self):
        return int(self.matrix.sum())

    @property
    def indices(self):
        return frozenset(map(tuple, np.argwhere(self.matrix)))


def bernoulli_mask(n1, n2, p, rng):
    """Independent Bernoulli(p) observation of each entry."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    g = rng.generator()
    ind = g.random((n1, n2)) < p
    return ObservationMask(ind, "bernoulli-rect", float(p))


def symmetric_offdiag_mask(n, p, rng):
    """One Bernoulli(p) draw per unordered off-diagonal pair, mirrored."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    g = rng.generator()
    draw = g.random((n, n)) < p
    upper = np.triu(draw, 1)
    return ObservationMask(upper | upper.T, "symmetric-offdiag", float(p))


def project_observed(m, mask):
    """Zero out the unobserved entries of m."""
    a = as_matrix(m, "m")
    if a.shape != mask.matrix.shape:
        raise ValueError(f"shape mismatch: matrix {a.shape}, mask "
                         f"{mask.matrix.shape}")
    return a * mask.matrix


def observed_fraction(mask):
    """|Omega| / (n1 n2), the plug-in estimate of the sampling rate."""
    return mask.count / (mask.rows * mask.cols)


def gaussian_noise(n1, n2, sigma, rng):
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return sigma * rng.generator().standard_normal((n1, n2))


def skew_gaussian_noise(n, sigma, rng):
    """Skew-symmetric noise: N(0, sigma^2) above the diagonal, mirrored with
    negation below, zero diagonal."""
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    g = rng.generator().standard_normal((n, n))
    upper = np.triu(g, 1) * sigma
    return upper - upper.T


def write_observations(path, mask, values=None):
    """Dump a mask (and optionally the observed values) as text.

    Header line '# rows cols model nominal_p', then one 'i j value' line per
    observed entry in row-major order; value is 1 when no matrix is given.
    """
    if values is not None:
        values = as_matrix(values, "values")
        if values.shape != mask.matrix.shape:
            raise ValueError("values shape does not match mask")
    with open(path, "w") as fh:
        fh.write(f"# {mask.rows} {mask.cols} {mask.model} {mask.nominal_p!r}\n")
        for i, j in np.argwhere(mask.matrix):
            v = 1.0 if values is None else float(values[i, j])
            fh.write(f"{i} {j} {v!r}\n")


def read_observations(path):
    """Inverse of write_observations; returns (mask, values matrix).

    The file comes from outside the program, so a header that is not
    '# rows cols model nominal_p' (sizes integers of at least 1, nominal_p
    a float), a line that is not 'i j value' (two integers and a float) or
    names an entry outside the header's shape raises a ValueError naming
    path:line, and so does a mask that the header's model rules out.
    """
    with open(path) as fh:
        header = fh.readline().split()
        try:
            if len(header) != 5 or header[0] != "#":
                raise ValueError
            rows, cols = int(header[1]), int(header[2])
            model, nominal_p = header[3], float(header[4])
            if rows < 1 or cols < 1:
                raise ValueError
        except ValueError:
            raise ValueError(f"{path}:1: malformed header, expected "
                             f"'# rows cols model nominal_p' with rows and "
                             f"cols at least 1") from None
        ind = np.zeros((rows, cols), dtype=bool)
        vals = np.zeros((rows, cols))
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            try:
                if len(parts) != 3:
                    raise ValueError
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'i j value', "
                                 f"got {line.strip()!r}") from None
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"{path}:{lineno}: entry ({i}, {j}) lies "
                                 f"outside the {rows} x {cols} matrix")
            ind[i, j] = True
            vals[i, j] = v
    try:
        return ObservationMask(ind, model, nominal_p), vals
    except ValueError as exc:
        raise ValueError(f"{path}:1: {exc}") from None
