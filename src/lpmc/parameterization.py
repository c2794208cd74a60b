"""Linear parameterizations of factored matrices and their witnesses.

A parameterization is one linear map theta -> (X(theta), Y(theta)), with X
n1 x r and Y n2 x r, together with its adjoint. theta stacks the map's
parameter blocks row-major: theta = concat(vec(block_1), ...). Each of the
four kinds is one LinearParam subclass:

  RectangularParam  X = Theta_X, Y = Theta_Y          (free factors)
  PsdParam          X = Y = Theta                     (n x r, square targets)
  SubspaceParam     X = U Theta_A, Y = V Theta_B      (U, V fixed orthonormal)
  SkewParam         X = [Theta_A, -Theta_B], Y = [Theta_B, Theta_A]
                    with Theta_A, Theta_B of width r/2 (skew-symmetric targets)

A subclass checks its sizes when built and defines block_shapes(), the map
on the blocks (factors), its adjoint (adjoint), the theta-free part of its
witness construction (witness_root) and its spectral start
(spectral_start). Its class constant gram is the c with
adjoint(factors(theta)) = c theta: 1 for the rectangular and
subspace kinds (orthonormal bases), 2 for psd and skew, where every
parameter enters both factors. A theta step of length t therefore moves the
factors by c t. entry_core gives the objective's observed-entry kernel
block coordinates to work in: each basis of the subspace kind with its rows
at the observed entries and its Gram, and None for the other kinds. The
module functions work on flat theta vectors: factors splits theta once and
applies the map, adjoint packs the adjoint's blocks back into a
theta-vector, and x_of / y_of pick one factor.

A witness for (theta, m_star) is a parameter xi whose factors reproduce
m_star exactly, are balanced, and correlate nonnegatively with the factors at
theta; balanced_witness builds one with the kind's construction and returns a
WitnessCertificate with the measured residuals. The construction is split in
two. witness_root(m_star) does everything that does not depend on theta: the
decomposition of m_star (SVD, symmetric eigendecomposition or Youla form),
the representability checks, and the unrotated balanced blocks, which it
returns as the root: the spectral start's construction (_balanced_theta) of
m_star at p_hat = 1 with zero fill, keeping the values above
linalg.RANK_FLOOR times the largest. align(theta, root) rotates the root so
that it correlates PSD with theta. At n = 500 the decomposition is 95-99% of a
witness's cost, so a caller that builds witnesses at many points of one
truth computes its root once and passes it to balanced_witness.

The spectral start of data A = P(M) / p_hat is the parameter of balanced
factors of the rank-r truncation of A inside the kind's space: the top-r SVD
for free factors, the SVD of the s1 x s2 core U^T A V for subspace factors,
the top-r eigenpairs of the symmetric part for psd and the Youla blocks of
the skew part for skew. The rectangular, psd and skew kinds take it on the
range of A found by randomized_range.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .linalg import (RANK_FLOOR, _dots, _mT, as_matrix, randomized_range,
                     reduced_svd, youla_decompose)

FIT_TOL = 1e-8
BALANCE_TOL = 1e-8
CORR_TOL = 1e-8


@dataclass(frozen=True)
class LinearParam:
    """Sizes shared by every kind. kind names the subclass, which defines
    block_shapes(), factors(*blocks), adjoint(gx, gy), witness_root(m) and
    spectral_start(observed, p_hat, theta, gen), gram, the c with
    adjoint(factors(theta)) = c theta, and square, whether it needs n1 ==
    n2."""

    n1: int
    n2: int
    r: int
    kind = None
    gram = None
    square = False

    def __post_init__(self):
        if min(self.n1, self.n2, self.r) < 1:
            raise ValueError("dimensions must be positive")
        if self.r > min(self.n1, self.n2):
            raise ValueError(f"r={self.r} exceeds min(n1, n2)")
        if self.square and self.n1 != self.n2:
            raise ValueError(f"{self.kind} parameterization needs a square "
                             "target")

    @cached_property
    def block_layout(self):
        """(lo, hi, shape) of each block: theta[lo:hi] is the block,
        row-major."""
        out, lo = [], 0
        for rows, cols in self.block_shapes():
            out.append((lo, lo + rows * cols, (rows, cols)))
            lo += rows * cols
        return tuple(out)

    @cached_property
    def d(self):
        """Parameter dimension."""
        return self.block_layout[-1][1]

    def align(self, theta, root):
        """The root's blocks, each times the one orthogonal T that makes
        sum_i Theta_i^T root_i T symmetric PSD, packed into a witness (one
        per item of a stack of theta). The root is not modified, so it can
        be aligned at any number of points."""
        blocks = theta_blocks(self, theta)
        corr = _mT(blocks[0]) @ root[0]
        for t, b in zip(blocks[1:], root[1:]):
            corr = corr + _mT(t) @ b
        rot = _align(corr)
        return pack_blocks(self, *(b @ rot for b in root))

    def entry_core(self, rows, cols):
        """Block coordinates for f at the observed entries (rows[k],
        cols[k]): None, where the blocks are the factors or feed both of
        them, and the kernel forms the factors."""
        return None


class CoreSide(NamedTuple):
    """One factor F = basis @ Theta of a two-block map: the basis, its rows
    at the observed entries, whose products with Theta are F's rows there,
    and its Gram, which gives F^T F = Theta^T gram Theta and ||F||_F^2 =
    <Theta, gram Theta> exactly for any basis."""

    basis: np.ndarray
    rows: np.ndarray
    gram: np.ndarray


class RectangularParam(LinearParam):
    kind = "rectangular"
    gram = 1

    def block_shapes(self):
        return ((self.n1, self.r), (self.n2, self.r))

    def factors(self, tx, ty):
        return tx.copy(), ty.copy()

    def adjoint(self, gx, gy):
        return gx, gy

    def witness_root(self, m):
        return _balanced_pair_root(self, m)

    def spectral_start(self, observed, p_hat, theta, gen):
        q = randomized_range(observed, self.r, gen)
        u, s, vt = np.linalg.svd(q.T @ observed, full_matrices=False)
        return _balanced_theta(self, (q @ u, vt.T), s, p_hat, theta)


class PsdParam(LinearParam):
    kind = "psd"
    gram = 2
    square = True

    def block_shapes(self):
        return ((self.n1, self.r),)

    def factors(self, t):
        # two buffers, not one: when X is Y, numpy hands X @ Y.T to BLAS
        # syrk, which rounds differently from the gemm every other product
        # of two factors goes through
        return t.copy(), t.copy()

    def adjoint(self, gx, gy):
        return (gx + gy,)

    def witness_root(self, m):
        """The balanced block of m's eigendecomposition; m must be symmetric
        PSD of rank at most r, counting the eigenvalues above n eps w_max."""
        scale = max(np.linalg.norm(m), 1e-300)
        if np.linalg.norm(m - m.T) > 1e-8 * scale:
            raise ValueError("m_star is not symmetric")
        w, q = np.linalg.eigh(0.5 * (m + m.T))
        if w.size and w[0] < -1e-8 * scale:
            raise ValueError(f"m_star has eigenvalue {w[0]:.3e}")
        w = np.clip(w, 0.0, None)
        rank = int(np.sum(w > w[-1] * m.shape[0] * np.finfo(np.float64).eps))
        if rank > self.r:
            raise ValueError(f"numerical rank {rank} exceeds r={self.r}")
        return _balanced_root(self, (q[:, ::-1],), w[::-1])

    def spectral_start(self, observed, p_hat, theta, gen):
        q = randomized_range(observed, self.r, gen)
        core = q.T @ observed @ q
        w, z = np.linalg.eigh(0.5 * (core + core.T))
        return _balanced_theta(self, (q @ z[:, ::-1],), w[::-1], p_hat, theta)


@dataclass(frozen=True)
class SubspaceParam(LinearParam):
    basis_u: np.ndarray      # (n1, s1)
    basis_v: np.ndarray      # (n2, s2)
    kind = "subspace"
    gram = 1

    def __post_init__(self):
        super().__post_init__()
        for name in ("basis_u", "basis_v"):
            b = np.ascontiguousarray(as_matrix(getattr(self, name), name))
            b.setflags(write=False)
            object.__setattr__(self, name, b)
            if np.linalg.norm(b.T @ b - np.eye(b.shape[1])) > 1e-10:
                raise ValueError(f"{name} columns are not orthonormal")
        if self.basis_u.shape[0] != self.n1 or self.basis_v.shape[0] != self.n2:
            raise ValueError("basis row counts must match n1, n2")
        if self.r > min(self.basis_u.shape[1], self.basis_v.shape[1]):
            raise ValueError("r exceeds a basis width")

    def block_shapes(self):
        return ((self.basis_u.shape[1], self.r),
                (self.basis_v.shape[1], self.r))

    def factors(self, ta, tb):
        return self.basis_u @ ta, self.basis_v @ tb

    def adjoint(self, gx, gy):
        return self.basis_u.T @ gx, self.basis_v.T @ gy

    def entry_core(self, rows, cols):
        bu, bv = self.basis_u, self.basis_v
        return (CoreSide(bu, bu[rows], bu.T @ bu),
                CoreSide(bv, bv[cols], bv.T @ bv))

    def witness_root(self, m):
        """The rectangular root of m compressed to the bases; m must lie in
        their span and have rank at most r."""
        bu, bv = self.basis_u, self.basis_v
        core = bu.T @ m @ bv
        off = np.linalg.norm(bu @ core @ bv.T - m)
        if off > 1e-8 * max(np.linalg.norm(m), 1e-300):
            raise ValueError(
                "m_star is not supported on the parameterization bases")
        return _balanced_pair_root(self, core)

    def spectral_start(self, observed, p_hat, theta, gen):
        core = self.basis_u.T @ observed @ self.basis_v
        u, s, vt = np.linalg.svd(core)
        return _balanced_theta(self, (u, vt.T), s, p_hat, theta)


class SkewParam(LinearParam):
    kind = "skew"
    gram = 2
    square = True

    def __post_init__(self):
        super().__post_init__()
        if self.r % 2:
            raise ValueError("skew parameterization needs even r")

    def block_shapes(self):
        return ((self.n1, self.r // 2), (self.n1, self.r // 2))

    def factors(self, ta, tb):
        return (np.concatenate([ta, -tb], axis=-1),
                np.concatenate([tb, ta], axis=-1))

    def adjoint(self, gx, gy):
        h = self.r // 2
        return gx[:, :h] + gy[:, h:], gy[:, :h] - gx[:, h:]

    def witness_root(self, m):
        """The Youla blocks of m scaled by sqrt(lambda): (Xi_A, Xi_B), whose
        complex factor Z* = Xi_A + i Xi_B has Z*^T Z* = 0; m must have at
        most r/2 Youla blocks."""
        dec = youla_decompose(m)
        if dec.n_blocks > self.r // 2:
            raise ValueError(
                f"{dec.n_blocks} Youla blocks exceed r/2 = {self.r // 2}")
        return _balanced_root(self, (dec.phi, dec.psi), dec.lambdas)

    def align(self, theta, root):
        """Z* is rotated by the unitary polar factor of
        (Theta_A + i Theta_B)^H Z* so the correlation with theta is PSD. The
        rotation is applied through its real embedding. A stack of theta
        raises when the rotation of any item lost unitarity."""
        xi_a, xi_b = root
        ta, tb = theta_blocks(self, theta)
        h = _mT(ta - 1j * tb) @ (xi_a + 1j * xi_b)
        a, _, bh = np.linalg.svd(h)
        rc = _mT(bh.conj()) @ _mT(a.conj())   # unitary, h @ rc Hermitian PSD
        r1, r2 = rc.real, rc.imag
        emb = np.block([[r1, -r2], [r2, r1]])
        gap = _mT(emb) @ emb - np.eye(self.r)
        for item, e in zip(gap.reshape(-1, self.r, self.r),
                           emb.reshape(-1, self.r, self.r)):
            if np.linalg.norm(item) > 1e-8:
                raise NumericError("rotation lost unitarity",
                                   best_estimate=e)
        return pack_blocks(self, xi_a @ r1 - xi_b @ r2, xi_a @ r2 + xi_b @ r1)

    def spectral_start(self, observed, p_hat, theta, gen):
        q = randomized_range(observed, self.r, gen)
        core = q.T @ observed @ q
        dec = youla_decompose(0.5 * (core - core.T))
        return _balanced_theta(self, (q @ dec.phi, q @ dec.psi), dec.lambdas,
                               p_hat, theta)


PARAM_CLASSES = {c.kind: c for c in (RectangularParam, PsdParam, SubspaceParam,
                                     SkewParam)}
KINDS = tuple(PARAM_CLASSES)       # the CLI's --kind choices, in this order


def rectangular_param(n1, n2, r):
    return RectangularParam(n1, n2, r)


def psd_param(n, r):
    return PsdParam(n, n, r)


def subspace_param(basis_u, basis_v, r):
    """Subspace parameterization over the column spans of basis_u, basis_v,
    whose columns must be orthonormal (the theory assumes so without loss of
    generality)."""
    bu = as_matrix(basis_u, "basis_u")
    bv = as_matrix(basis_v, "basis_v")
    return SubspaceParam(bu.shape[0], bv.shape[0], r, bu, bv)


def skew_param(n, r):
    return SkewParam(n, n, r)


def theta_blocks(param, theta):
    """Split a flat theta into its parameter blocks, views of theta. A stack
    of theta (leading axes before the last, of size d) gives stacks of
    blocks with the same leading axes."""
    t = np.asarray(theta, dtype=np.float64)
    if t.ndim == 0 or t.shape[-1] != param.d:
        raise ValueError(f"theta has shape {t.shape}, expected (..., "
                         f"{param.d})")
    lead = t.shape[:-1]
    return tuple([t[..., lo:hi].reshape(lead + shape) for lo, hi, shape in
                  param.block_layout])


def pack_blocks(param, *blocks):
    """Inverse of theta_blocks, stacks included."""
    shapes = param.block_shapes()
    if len(blocks) != len(shapes):
        raise ValueError(f"expected {len(shapes)} blocks, got {len(blocks)}")
    lead = np.shape(blocks[0])[:-2]
    for b, shape in zip(blocks, shapes):
        if b.shape != lead + shape:
            raise ValueError(f"block shape {b.shape} does not match {shape}")
    return np.concatenate([np.asarray(b, dtype=np.float64).reshape(
        lead + (-1,)) for b in blocks], axis=-1)


def factors(param, theta):
    """The factor pair (X(theta), Y(theta)), fresh n1 x r and n2 x r
    arrays, or stacks of them for a stack of theta."""
    return param.factors(*theta_blocks(param, theta))


def x_of(param, theta):
    """Left factor X(theta), an n1 x r matrix."""
    return factors(param, theta)[0]


def y_of(param, theta):
    """Right factor Y(theta), an n2 x r matrix."""
    return factors(param, theta)[1]


def adjoint(param, gx, gy):
    """Adjoint of theta -> (X(theta), Y(theta)): the theta-vector with
    <X(delta), gx> + <Y(delta), gy> = <delta, adjoint(gx, gy)> for all
    delta."""
    gx, gy = as_matrix(gx, "gx"), as_matrix(gy, "gy")
    for name, g, rows in (("gx", gx, param.n1), ("gy", gy, param.n2)):
        if g.shape != (rows, param.r):
            raise ValueError(f"{name} has shape {g.shape}, expected "
                             f"{(rows, param.r)}")
    return np.concatenate([b.reshape(-1) for b in param.adjoint(gx, gy)])


@dataclass(frozen=True)
class WitnessCertificate:
    """Measured residuals of a candidate witness xi against (theta, m_star).

    residual_fit is relative to ||m_star||_F; residual_balance is the
    Frobenius norm of X(xi)^T X(xi) - Y(xi)^T Y(xi); min_corr_eig is the
    smallest eigenvalue of the symmetric part of
    X(theta)^T X(xi) + Y(theta)^T Y(xi), with corr_scale its Frobenius norm.
    For a stack of theta, xi and every residual are arrays with one item
    per point, and so is passes.
    """

    xi: np.ndarray
    residual_fit: float
    residual_balance: float
    min_corr_eig: float
    m_star_norm: float
    corr_scale: float

    @property
    def passes(self):
        return ((self.residual_fit <= FIT_TOL)
                & (self.residual_balance
                   <= BALANCE_TOL * max(self.m_star_norm, 1e-300))
                & (self.min_corr_eig >= -CORR_TOL * self.corr_scale))


def certify(param, theta, xi, m_star):
    """Build the certificate for an arbitrary candidate witness, or for a
    stack of theta and xi. The products and eigenvalues run on the whole
    stack; each Frobenius norm is taken item by item, as one point's is."""
    m = as_matrix(m_star, "m_star")
    xw, yw = factors(param, xi)
    xt, yt = factors(param, theta)
    m_norm = float(np.linalg.norm(m))
    fit = _norms(xw @ _mT(yw) - m) / max(m_norm, 1e-300)
    balance = _norms(_mT(xw) @ xw - _mT(yw) @ yw)
    corr = _mT(xt) @ xw + _mT(yt) @ yw
    sym = 0.5 * (corr + _mT(corr))
    eigs = np.linalg.eigvalsh(sym)
    return WitnessCertificate(
        xi=xi, residual_fit=fit, residual_balance=balance,
        min_corr_eig=eigs[..., 0] if eigs.ndim > 1 else float(eigs[0]),
        m_star_norm=m_norm, corr_scale=_norms(corr))


def _norms(a):
    """The Frobenius norm of a matrix, or of each matrix of a stack, as the
    root of _dots: on a C-contiguous array np.linalg.norm takes the root of
    the same dot product."""
    return np.sqrt(_dots(a, a))


def _balanced_pair_root(param, m):
    """Witness root of the two-block kinds for a target m of their block
    space, from m's SVD. Raises ValueError when the numerical rank of m
    exceeds r, unless sigma_(r+1) <= 1e-8 sigma_1: the root keeps r."""
    r = param.r
    dec = reduced_svd(m)
    if dec.rank > r and dec.sigma[r] > 1e-8 * dec.sigma[0]:
        raise ValueError(f"numerical rank {dec.rank} exceeds r={r}")
    return _balanced_root(param, (dec.u, dec.v), dec.sigma)


def _balanced_theta(param, dirs, values, p_hat, theta):
    """Balanced blocks from the directions of each block (columns in order
    of descending values) and the values of a spectrum: the spectral start
    of data A = P(M) / p_hat from A's truncation, and each witness root.

    With top the largest magnitude among the values, a value above
    RANK_FLOOR top is kept: its column of each block is its direction times
    sqrt(value / p_hat), so the factors are balanced. The other columns
    (data of rank below the blocks' width, and nonpositive eigenvalues for
    psd), where a zero pair would be a stationary point descent never
    leaves, keep theta's columns, rescaled in each block by
    sqrt(top / (p_hat rows)): a filled column of the random start is about
    as long as the longest kept one, and zero data gives the zero start.
    """
    top = float(np.max(np.abs(values), initial=0.0))
    theta = np.array(theta, dtype=np.float64)
    blocks = theta_blocks(param, theta)       # views into the copy
    kept = min(blocks[0].shape[1], int(np.sum(values > RANK_FLOOR * top)))
    root = np.sqrt(values[:kept] / p_hat)
    for b, d in zip(blocks, dirs):
        b[:, :kept] = d[:, :kept] * root
        b[:, kept:] *= np.sqrt(top / (p_hat * b.shape[0]))
    return theta


def _balanced_root(param, dirs, values):
    """A witness root: the balanced blocks of a truth's decomposition at
    p_hat = 1 with zero fill, as the spectral start builds them."""
    return theta_blocks(param, _balanced_theta(param, dirs, values, 1.0,
                                               np.zeros(param.d)))


def _align(corr):
    """Orthogonal T maximizing <corr, T>; corr @ T is then symmetric PSD.
    Each of a stack of corr gets its own."""
    u, _, vt = np.linalg.svd(corr)
    return _mT(vt) @ _mT(u)


def balanced_witness(param, theta, m_star, root=None):
    """Build the kind's witness for (theta, m_star) and certify it.

    root, param.witness_root(m_star) when given, skips the decomposition, so
    witnesses at many points of one truth decompose it once; the witness is
    then the same as without it. A root of another truth gives a witness
    that fails the certificate. A stack of theta (c x d) gives one
    certificate whose fields hold the c witnesses' values, each equal to
    that point's own.
    """
    m = as_matrix(m_star, "m_star")
    if m.shape != (param.n1, param.n2):
        raise ValueError("m_star shape does not match parameterization")
    if root is None:
        root = param.witness_root(m)
    return certify(param, theta, param.align(theta, root), m)
