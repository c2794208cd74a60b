"""Dense linear-algebra kernels: reduced SVD, Youla pairing for skew-symmetric
matrices by one Hermitian eigenproblem, LAPACK spectral norm, row-norm
maximum."""

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, NumericError


def as_matrix(a, name="a"):
    """Validate and return a 2-d float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def two_inf_norm(a):
    """Largest euclidean row norm of a."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.sqrt(np.max(np.einsum("ij,ij->i", m, m))))


@dataclass(frozen=True)
class ReducedSvd:
    u: np.ndarray       # (n1, k), orthonormal columns
    sigma: np.ndarray   # (k,), positive, nonincreasing
    v: np.ndarray       # (n2, k), orthonormal columns

    @property
    def rank(self):
        return self.sigma.size

    def reconstruct(self):
        return (self.u * self.sigma) @ self.v.T


def reduced_svd(a):
    """SVD truncated to the singular values above 1e-10 * sigma_1, the
    double-precision noise floor with a wide margin.

    Returns a ReducedSvd; a numerically zero matrix yields rank 0.
    """
    m = as_matrix(a)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"svd did not converge: {exc}") from exc
    k = int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))
    return ReducedSvd(u[:, :k].copy(), s[:k].copy(), vt[:k].T.copy())


@dataclass(frozen=True)
class YoulaDecomposition:
    """Canonical form of a skew-symmetric matrix: sum over blocks of
    lambda_i * (phi_i psi_i^T - psi_i phi_i^T) with {phi_i, psi_i} jointly
    orthonormal and lambdas positive nonincreasing."""

    lambdas: np.ndarray  # (m,)
    phi: np.ndarray      # (n, m)
    psi: np.ndarray      # (n, m)

    @property
    def n_blocks(self):
        return self.lambdas.size

    def reconstruct(self):
        p = self.phi * self.lambdas
        return p @ self.psi.T - self.psi @ p.T


def youla_decompose(s, cutoff=None):
    """Youla pairing of a skew-symmetric matrix via the Hermitian
    eigenproblem of 1j * s.

    The eigenvalues of 1j * s come in pairs +-lambda. An eigenvector z of
    +lambda satisfies z^T z = 0 (its conjugate belongs to -lambda), so
    phi = sqrt2 Re z and psi = -sqrt2 Im z are orthonormal, with
    s psi = lambda phi and s phi = -lambda psi; phi^T s psi = lambda > 0.
    Each pair is free up to rotation in its plane. The gauge multiplies z by
    the phase that makes its largest-magnitude entry real and positive: on
    the best-represented coordinate axis psi is zero and phi positive, so
    canonical inputs come out on canonical axes.

    Blocks are those with lambda above cutoff, which defaults to
    1e-10 * lambda_1, in descending order; a numerically zero matrix yields
    no blocks. Raises DegeneracyError when the numerical rank is odd.
    """
    m = as_matrix(s, "s")
    n1, n2 = m.shape
    if n1 != n2:
        raise ValueError(f"skew input must be square, got {m.shape}")
    if np.linalg.norm(m + m.T) > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise ValueError("input is not skew-symmetric within tolerance")

    w, z = np.linalg.eigh(1j * m)
    if cutoff is None:
        cutoff = 1e-10 * (w[-1] if w.size else 0.0)
    k = int(np.sum(np.abs(w) > cutoff))
    if k % 2:
        raise DegeneracyError(f"numerical rank {k} is odd; cannot pair blocks")
    if k == 0:
        return YoulaDecomposition(np.zeros(0), np.zeros((n1, 0)), np.zeros((n1, 0)))
    half = k // 2
    lam, z = w[::-1][:half], z[:, ::-1][:, :half]
    top = z[np.argmax(np.abs(z), axis=0), np.arange(half)]
    z = z * (top.conj() / np.abs(top))
    return YoulaDecomposition(lam, np.sqrt(2.0) * z.real, -np.sqrt(2.0) * z.imag)


def spectral_norm(a):
    """Largest singular value of a; 0.0 for an empty matrix."""
    m = as_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))
