"""Dense linear-algebra kernels: reduced SVD, Youla pairing for skew-symmetric
matrices by one Hermitian eigenproblem, LAPACK spectral norm, row-norm
maximum, randomized range finder.

RANK_FLOOR is the one relative rank floor: reduced_svd and youla_decompose
keep the values above RANK_FLOOR times the largest, and so do the balanced
blocks of parameterization's spectral start and witness roots (the start's
construction of M* at p_hat = 1 with zero fill)."""

import math
from dataclasses import dataclass

import numpy as np

SKETCH_EXTRA = 10       # randomized_range columns beyond r
POWER_PASSES = 2        # randomized_range passes through a^T and a
RANK_FLOOR = 1e-10      # the double-precision noise floor, with a wide margin


def as_matrix(a, name="a"):
    """Validate and return a 2-d float64 array with finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-d, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _mT(a):
    """a with its last two axes swapped: the transpose of a matrix, and of
    each matrix of a stack (numpy's matmul then runs the routine of one
    matrix on each item)."""
    return a.swapaxes(-1, -2)


def _dots(a, b):
    """<a, b> as a float, by np.vdot; on stacks of matrices an array of the
    items' products, by _item_dots."""
    if a.ndim > 2:
        return _item_dots(a, b)
    return float(np.vdot(a, b))


def _item_dots(a, b):
    """np.vdot(a[i], b[i]) for each item i of two stacks, whatever the
    items' shape, by one matmul of the items as 1 x N rows and N x 1
    columns. Numpy hands each such product to the dtype's dot routine, the
    one np.vdot calls on the flattened operands, so each item keeps its own
    bits; one np.vdot over the whole stack would sum in another order."""
    k, n = len(a), math.prod(a.shape[1:])
    return (a.reshape(k, 1, n) @ b.reshape(k, n, 1))[:, 0, 0]


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
    """SVD truncated to the singular values above RANK_FLOOR * sigma_1.

    Returns a ReducedSvd; a numerically zero matrix yields rank 0.
    """
    m = as_matrix(a)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    k = int(np.sum(s > RANK_FLOOR * (s[0] if s.size else 0.0)))
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


def youla_decompose(s):
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

    Blocks are those with lambda above RANK_FLOOR * lambda_1, in descending
    order; a numerically zero matrix yields no blocks. Raises ValueError
    when the numerical rank is odd.
    """
    m = as_matrix(s, "s")
    n1, n2 = m.shape
    if n1 != n2:
        raise ValueError(f"skew input must be square, got {m.shape}")
    if np.linalg.norm(m + m.T) > 1e-10 * max(1.0, np.linalg.norm(m)):
        raise ValueError("input is not skew-symmetric within tolerance")

    w, z = np.linalg.eigh(1j * m)
    top = w[-1] if w.size else 0.0
    k = int(np.sum(np.abs(w) > RANK_FLOOR * top))
    if k % 2:
        raise ValueError(f"numerical rank {k} is odd; cannot pair blocks")
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


def randomized_range(a, r, gen):
    """Orthonormal basis of (about) the top-r left singular space of a.

    The randomized range finder of Halko, Martinsson & Tropp (2011): a
    Gaussian n2 x k test matrix drawn from gen, with k = r + SKETCH_EXTRA
    capped at min(n1, n2), pushed through a, then POWER_PASSES passes
    through a^T and a, with a QR after every product. A range of rank below
    k is spanned exactly.
    """
    k = min(r + SKETCH_EXTRA, *a.shape)
    q = np.linalg.qr(a @ gen.standard_normal((a.shape[1], k)))[0]
    for _ in range(POWER_PASSES):
        q = np.linalg.qr(a.T @ q)[0]
        q = np.linalg.qr(a @ q)[0]
    return q
