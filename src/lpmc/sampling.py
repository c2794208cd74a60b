"""Observation masks, the sampling operator, and noise draws.

Randomness runs through RngState, a splittable handle over a counter-based
generator (Philox). Derived states are keyed by SHA-256 of the seed and the
derivation path, so a (master_seed, experiment, trial) triple names the same
stream on every platform and every run.

The draws check p in [0, 1] (_check_rate) and sigma in [0, inf) (_check_sigma)
first, at each rule's one site; overflowing noise raises.
"""

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .linalg import as_matrix


class _KeyWords(ISeedSequence):
    """The seed sequence of a Philox key: its two 64-bit words, low word
    first, as Philox(key=k) splits k. Philox asks a seed sequence for two
    uint64 words and takes them as its key, with the counter at 0."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


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
        """np.random.Generator(np.random.Philox(key=self._key())), built
        from the key's words: Philox(key=k) also builds a SeedSequence(),
        whose entropy pull is most of its cost."""
        hi, lo = divmod(self._key(), 2 ** 64)
        words = np.array([lo, hi], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(_KeyWords(words)))

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
        _check_rate(self.nominal_p)

    @property
    def rows(self):
        return self.matrix.shape[0]

    @property
    def cols(self):
        return self.matrix.shape[1]

    @cached_property
    def entries(self):
        """Flat indices i * n2 + j of the observed entries, in row-major
        order (np.nonzero's), read-only."""
        e = np.flatnonzero(self.matrix)
        e.setflags(write=False)
        return e

    @property
    def count(self):
        return int(self.entries.size)


def _check_rate(p):
    """Raise ValueError unless p is a sampling rate in [0, 1]; p = 0, the
    empty draw, lets the concentration checks exercise the trivial case."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"nominal_p must be in [0, 1], got {p}")


def _check_sigma(sigma):
    """Raise ValueError unless sigma is in [0, inf); inf makes m non-finite."""
    if not 0.0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and nonnegative, got {sigma}")


def bernoulli_mask(n1, n2, p, rng):
    """Independent Bernoulli(p) observation of each entry."""
    _check_rate(p)
    ind = rng.generator().random((n1, n2)) < p
    return ObservationMask(ind, "bernoulli-rect", float(p))


def symmetric_offdiag_mask(n, p, rng):
    """One Bernoulli(p) draw per unordered off-diagonal pair, mirrored."""
    _check_rate(p)
    draw = rng.generator().random((n, n)) < p
    upper = np.triu(draw, 1)
    return ObservationMask(upper | upper.T, "symmetric-offdiag", float(p))


def project_observed(m, mask):
    """Zero out the unobserved entries of m."""
    a = as_matrix(m, "m")
    if a.shape != mask.matrix.shape:
        raise ValueError(f"shape mismatch: matrix {a.shape}, mask "
                         f"{mask.matrix.shape}")
    out = np.zeros(a.shape)
    e = mask.entries
    out.reshape(-1)[e] = a.reshape(-1)[e]
    return out


def observed_fraction(mask):
    """|Omega| / (n1 n2), the plug-in estimate of the sampling rate."""
    return mask.count / (mask.rows * mask.cols)


def gaussian_noise(n1, n2, sigma, rng):
    """N(0, sigma^2) entries; ValueError where the product overflows."""
    _check_sigma(sigma)
    with np.errstate(over="ignore"):
        noise = sigma * rng.generator().standard_normal((n1, n2))
    if not np.isfinite(noise).all():
        raise ValueError(f"sigma={sigma} overflows the noise draw")
    return noise


def skew_gaussian_noise(n, sigma, rng):
    """Skew-symmetric noise: N(0, sigma^2) above the diagonal, mirrored with
    negation below, zero diagonal."""
    upper = np.triu(gaussian_noise(n, n, sigma, rng), 1)
    return upper - upper.T
