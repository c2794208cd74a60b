"""Ground-truth and problem-instance builders shared by the experiment
runners, the diagnostics, the demos and the tests."""

import numpy as np

from .objective import make_spec
from .parameterization import (psd_param, rectangular_param, skew_param,
                               subspace_param)


def orthonormal_vectors(n, k, rng):
    """First k left singular vectors of a seeded n x n standard normal
    matrix."""
    g = rng.generator().standard_normal((n, n))
    u, _, _ = np.linalg.svd(g)
    return u[:, :k].copy()


def subspace_instance(n1, n2, r, s1, s2, rng):
    """Subspace-constrained ground truth.

    The bases are the leading left singular vectors of seeded random
    matrices; the truth is sum_i u_i v_i^T over the first r basis vectors,
    so every nonzero singular value is 1 and ||M*||_F^2 = r.
    """
    basis_u = orthonormal_vectors(n1, s1, rng.derive("left"))
    basis_v = orthonormal_vectors(n2, s2, rng.derive("right"))
    m_star = basis_u[:, :r] @ basis_v[:, :r].T
    return subspace_param(basis_u, basis_v, r), m_star


def rectangular_instance(n1, n2, r, rng):
    """Free-factor ground truth A B^T with Gaussian A, B."""
    gen = rng.generator()
    a = gen.standard_normal((n1, r)) / np.sqrt(r)
    b = gen.standard_normal((n2, r)) / np.sqrt(r)
    return rectangular_param(n1, n2, r), a @ b.T


def psd_instance(n, r, rng):
    """PSD ground truth A A^T with Gaussian A."""
    gen = rng.generator()
    a = gen.standard_normal((n, r)) / np.sqrt(r)
    return psd_param(n, r), a @ a.T


def skew_instance(n, r, rng, unit_blocks=False):
    """Skew-symmetric ground truth of rank r.

    unit_blocks=True builds sum_i (u_i v_i^T - v_i u_i^T) from r orthonormal
    vectors of one seeded random matrix (the paired-solver sweeps use this);
    otherwise the truth is A B^T - B A^T with Gaussian blocks of width r/2.
    """
    if r % 2:
        raise ValueError("skew rank must be even")
    if unit_blocks:
        q = orthonormal_vectors(n, r, rng)
        u, v = q[:, 0::2], q[:, 1::2]
        return skew_param(n, r), u @ v.T - v @ u.T
    gen = rng.generator()
    a = gen.standard_normal((n, r // 2)) / np.sqrt(r)
    b = gen.standard_normal((n, r // 2)) / np.sqrt(r)
    return skew_param(n, r), a @ b.T - b @ a.T


def assemble(param, m_star, mask, noise=None, lam=None, alpha=None):
    """ObjectiveSpec for a (truth, mask, noise) triple with default tuning;
    make_spec projects the (noisy) truth onto the mask."""
    m = m_star if noise is None else m_star + noise
    return make_spec(param, mask, m, lam, alpha)
