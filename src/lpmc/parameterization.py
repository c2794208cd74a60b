"""Linear parameterizations of factored matrices and their witnesses.

A parameterization maps a flat parameter vector theta to a factor pair
(X(theta), Y(theta)) with X n1 x r and Y n2 x r, both linear in theta. Four
kinds are supported:

  rectangular    X = Theta_X, Y = Theta_Y            (free factors)
  psd            X = Y = Theta                       (n x r, square targets)
  subspace       X = U Theta_A, Y = V Theta_B        (U, V fixed orthonormal)
  skew           X = [Theta_A, -Theta_B], Y = [Theta_B, Theta_A]
                 with Theta_A, Theta_B of width r/2  (skew-symmetric targets)

theta stacks the parameter blocks row-major: theta = concat(vec(block_1), ...).

A witness for (theta, m_star) is a parameter xi whose factors reproduce
m_star exactly, are balanced, and correlate nonnegatively with the factors at
theta; balanced_witness builds one per kind and returns a WitnessCertificate
with the measured residuals.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError, NumericError, RepresentabilityError
from .linalg import ReducedSvd, as_matrix, reduced_svd, youla_decompose

KINDS = ("rectangular", "psd", "subspace", "skew")

FIT_TOL = 1e-8
BALANCE_TOL = 1e-8
CORR_TOL = 1e-8


@dataclass(frozen=True)
class LinearParam:
    kind: str
    n1: int
    n2: int
    r: int
    basis_u: np.ndarray = None   # (n1, s1), subspace kind only
    basis_v: np.ndarray = None   # (n2, s2), subspace kind only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if min(self.n1, self.n2, self.r) < 1:
            raise ValueError("dimensions must be positive")
        if self.r > min(self.n1, self.n2):
            raise ValueError(f"r={self.r} exceeds min(n1, n2)")
        if self.kind in ("psd", "skew") and self.n1 != self.n2:
            raise ValueError(f"{self.kind} parameterization needs a square target")
        if self.kind == "skew" and self.r % 2:
            raise ValueError("skew parameterization needs even r")
        if self.kind == "subspace":
            for name in ("basis_u", "basis_v"):
                b = as_matrix(getattr(self, name), name)
                b = np.ascontiguousarray(b)
                b.setflags(write=False)
                object.__setattr__(self, name, b)
                gram = b.T @ b
                if np.linalg.norm(gram - np.eye(b.shape[1])) > 1e-10:
                    raise ValueError(f"{name} columns are not orthonormal")
            if self.basis_u.shape[0] != self.n1 or self.basis_v.shape[0] != self.n2:
                raise ValueError("basis row counts must match n1, n2")
            if self.r > min(self.basis_u.shape[1], self.basis_v.shape[1]):
                raise ValueError("r exceeds a basis width")
        elif self.basis_u is not None or self.basis_v is not None:
            raise ValueError(f"{self.kind} parameterization takes no bases")

    def block_shapes(self):
        if self.kind == "rectangular":
            return ((self.n1, self.r), (self.n2, self.r))
        if self.kind == "psd":
            return ((self.n1, self.r),)
        if self.kind == "subspace":
            return ((self.basis_u.shape[1], self.r),
                    (self.basis_v.shape[1], self.r))
        return ((self.n1, self.r // 2), (self.n1, self.r // 2))

    @property
    def d(self):
        """Parameter dimension."""
        return sum(a * b for a, b in self.block_shapes())


def rectangular_param(n1, n2, r):
    return LinearParam("rectangular", n1, n2, r)


def psd_param(n, r):
    return LinearParam("psd", n, n, r)


def subspace_param(basis_u, basis_v, r):
    """Subspace parameterization over the column spans of basis_u, basis_v.

    Bases whose Gram residual exceeds 1e-12 are re-orthonormalized in place
    (same span) with a warning; the theory assumes orthonormal bases without
    loss of generality.
    """
    bu = _orthonormalized(as_matrix(basis_u, "basis_u"), "basis_u")
    bv = _orthonormalized(as_matrix(basis_v, "basis_v"), "basis_v")
    return LinearParam("subspace", bu.shape[0], bv.shape[0], r, bu, bv)


def _orthonormalized(b, name):
    if b.shape[1] > b.shape[0]:
        raise ValueError(f"{name} has more columns than rows")
    if np.linalg.norm(b.T @ b - np.eye(b.shape[1])) <= 1e-12:
        return b
    warnings.warn(f"{name} columns are not orthonormal; re-orthonormalizing",
                  stacklevel=3)
    q, rr = np.linalg.qr(b)
    if np.min(np.abs(np.diag(rr))) <= 1e-12 * max(np.abs(np.diag(rr)).max(), 1.0):
        raise ValueError(f"{name} columns are numerically dependent")
    return q


def skew_param(n, r):
    return LinearParam("skew", n, n, r)


def theta_blocks(param, theta):
    """Split a flat theta into its parameter blocks."""
    t = np.asarray(theta, dtype=np.float64).reshape(-1)
    if t.size != param.d:
        raise ValueError(f"theta has size {t.size}, expected {param.d}")
    out, lo = [], 0
    for rows, cols in param.block_shapes():
        out.append(t[lo:lo + rows * cols].reshape(rows, cols))
        lo += rows * cols
    return tuple(out)


def pack_blocks(param, *blocks):
    """Inverse of theta_blocks."""
    shapes = param.block_shapes()
    if len(blocks) != len(shapes):
        raise ValueError(f"expected {len(shapes)} blocks, got {len(blocks)}")
    for b, shape in zip(blocks, shapes):
        if b.shape != shape:
            raise ValueError(f"block shape {b.shape} does not match {shape}")
    return np.concatenate([np.asarray(b, dtype=np.float64).reshape(-1)
                           for b in blocks])


def x_of(param, theta):
    """Left factor X(theta), an n1 x r matrix."""
    blocks = theta_blocks(param, theta)
    if param.kind == "rectangular":
        return blocks[0].copy()
    if param.kind == "psd":
        return blocks[0].copy()
    if param.kind == "subspace":
        return param.basis_u @ blocks[0]
    return np.hstack([blocks[0], -blocks[1]])


def y_of(param, theta):
    """Right factor Y(theta), an n2 x r matrix."""
    blocks = theta_blocks(param, theta)
    if param.kind == "rectangular":
        return blocks[1].copy()
    if param.kind == "psd":
        return blocks[0].copy()
    if param.kind == "subspace":
        return param.basis_v @ blocks[1]
    return np.hstack([blocks[1], blocks[0]])


def adjoint_x(param, g):
    """Adjoint of theta -> X(theta): returns the theta-vector with
    <X(delta), g> = <delta, adjoint_x(g)> for all delta."""
    g = as_matrix(g, "g")
    if g.shape != (param.n1, param.r):
        raise ValueError(f"g has shape {g.shape}, expected {(param.n1, param.r)}")
    if param.kind == "rectangular":
        return np.concatenate([g.reshape(-1), np.zeros(param.n2 * param.r)])
    if param.kind == "psd":
        return g.reshape(-1).copy()
    if param.kind == "subspace":
        ga = param.basis_u.T @ g
        return np.concatenate([ga.reshape(-1),
                               np.zeros(param.basis_v.shape[1] * param.r)])
    h = param.r // 2
    return np.concatenate([g[:, :h].reshape(-1), -g[:, h:].reshape(-1)])


def adjoint_y(param, g):
    """Adjoint of theta -> Y(theta)."""
    g = as_matrix(g, "g")
    if g.shape != (param.n2, param.r):
        raise ValueError(f"g has shape {g.shape}, expected {(param.n2, param.r)}")
    if param.kind == "rectangular":
        return np.concatenate([np.zeros(param.n1 * param.r), g.reshape(-1)])
    if param.kind == "psd":
        return g.reshape(-1).copy()
    if param.kind == "subspace":
        gb = param.basis_v.T @ g
        return np.concatenate([np.zeros(param.basis_u.shape[1] * param.r),
                               gb.reshape(-1)])
    h = param.r // 2
    return np.concatenate([g[:, h:].reshape(-1), g[:, :h].reshape(-1)])


@dataclass(frozen=True)
class WitnessCertificate:
    """Measured residuals of a candidate witness xi against (theta, m_star).

    residual_fit is relative to ||m_star||_F; residual_balance is the
    Frobenius norm of X(xi)^T X(xi) - Y(xi)^T Y(xi); min_corr_eig is the
    smallest eigenvalue of the symmetric part of
    X(theta)^T X(xi) + Y(theta)^T Y(xi), with corr_scale its Frobenius norm.
    """

    xi: np.ndarray
    residual_fit: float
    residual_balance: float
    min_corr_eig: float
    m_star_norm: float
    corr_scale: float

    @property
    def passes(self):
        return (self.residual_fit <= FIT_TOL
                and self.residual_balance <= BALANCE_TOL * max(self.m_star_norm, 1e-300)
                and self.min_corr_eig >= -CORR_TOL * self.corr_scale)


def certify(param, theta, xi, m_star):
    """Build the certificate for an arbitrary candidate witness."""
    m = as_matrix(m_star, "m_star")
    xw, yw = x_of(param, xi), y_of(param, xi)
    xt, yt = x_of(param, theta), y_of(param, theta)
    m_norm = float(np.linalg.norm(m))
    fit = float(np.linalg.norm(xw @ yw.T - m)) / max(m_norm, 1e-300)
    balance = float(np.linalg.norm(xw.T @ xw - yw.T @ yw))
    corr = xt.T @ xw + yt.T @ yw
    sym = 0.5 * (corr + corr.T)
    eigs = np.linalg.eigvalsh(sym)
    return WitnessCertificate(
        xi=xi, residual_fit=fit, residual_balance=balance,
        min_corr_eig=float(eigs[0]) if eigs.size else 0.0,
        m_star_norm=m_norm, corr_scale=float(np.linalg.norm(corr)))


def _balanced_pair(m, r, rel_tol):
    """Balanced rank-r factorization m = A B^T with A^T A = B^T B, by SVD.

    Raises RepresentabilityError when the numerical rank of m exceeds r.
    """
    dec = reduced_svd(m)
    if dec.rank > r:
        strays = dec.sigma[r:]
        if strays[0] > rel_tol * max(dec.sigma[0], 1e-300):
            raise RepresentabilityError(
                f"numerical rank {dec.rank} exceeds r={r}")
        dec = ReducedSvd(dec.u[:, :r], dec.sigma[:r], dec.v[:, :r])
    root = np.sqrt(dec.sigma)
    a = np.zeros((m.shape[0], r))
    b = np.zeros((m.shape[1], r))
    a[:, :dec.rank] = dec.u * root
    b[:, :dec.rank] = dec.v * root
    return a, b


def _align(corr):
    """Orthogonal T maximizing <corr, T>; corr @ T is then symmetric PSD."""
    u, _, vt = np.linalg.svd(corr)
    return vt.T @ u.T


def witness_subspace(param, theta, m_star):
    """Witness for the subspace kind (and, with identity bases, the
    rectangular kind).

    The target is compressed to the bases, factored balanced by SVD, and the
    factor pair is rotated to correlate PSD with the factors at theta.
    m_star must lie in the span of the bases and have rank at most r.
    """
    m = as_matrix(m_star, "m_star")
    if m.shape != (param.n1, param.n2):
        raise ValueError("m_star shape does not match parameterization")
    if param.kind == "subspace":
        bu, bv = param.basis_u, param.basis_v
        core = bu.T @ m @ bv
        off = np.linalg.norm(bu @ core @ bv.T - m)
        if off > 1e-8 * max(np.linalg.norm(m), 1e-300):
            raise RepresentabilityError(
                "m_star is not supported on the parameterization bases")
    elif param.kind == "rectangular":
        core = m
    else:
        raise ValueError(f"wrong kind {param.kind!r}")
    xi_a, xi_b = _balanced_pair(core, param.r, rel_tol=1e-8)
    ta, tb = theta_blocks(param, theta)
    rot = _align(ta.T @ xi_a + tb.T @ xi_b)
    xi = pack_blocks(param, xi_a @ rot, xi_b @ rot)
    return certify(param, theta, xi, m)


def witness_psd(param, theta, m_star):
    """Witness for the psd kind: symmetric eigendecomposition root, rotated.

    m_star must be symmetric PSD of rank at most r.
    """
    m = as_matrix(m_star, "m_star")
    if param.kind != "psd":
        raise ValueError(f"wrong kind {param.kind!r}")
    if m.shape != (param.n1, param.n1):
        raise ValueError("m_star shape does not match parameterization")
    scale = max(np.linalg.norm(m), 1e-300)
    if np.linalg.norm(m - m.T) > 1e-8 * scale:
        raise RepresentabilityError("m_star is not symmetric")
    w, q = np.linalg.eigh(0.5 * (m + m.T))
    if w.size and w[0] < -1e-8 * scale:
        raise NotPsdError(f"m_star has eigenvalue {w[0]:.3e}")
    w = np.clip(w, 0.0, None)
    keep = np.flatnonzero(w > w[-1] * m.shape[0] * np.finfo(np.float64).eps)
    if keep.size > param.r:
        raise RepresentabilityError(
            f"numerical rank {keep.size} exceeds r={param.r}")
    root = np.zeros((param.n1, param.r))
    sel = keep[::-1]                      # descending eigenvalues
    root[:, :sel.size] = q[:, sel] * np.sqrt(w[sel])
    (t,) = theta_blocks(param, theta)
    rot = _align(t.T @ root)
    xi = pack_blocks(param, root @ rot)
    return certify(param, theta, xi, m)


def witness_skew(param, theta, m_star):
    """Witness for the skew kind.

    m_star is put in Youla form, its block factors are assembled into a
    complex factor Z* = Xi_A + i Xi_B with Z*^T Z* = 0, and Z* is rotated by
    the unitary polar factor of (Theta_A + i Theta_B)^H Z* so the correlation
    with theta is PSD. The rotation is applied through its real embedding.
    """
    m = as_matrix(m_star, "m_star")
    if param.kind != "skew":
        raise ValueError(f"wrong kind {param.kind!r}")
    if m.shape != (param.n1, param.n1):
        raise ValueError("m_star shape does not match parameterization")
    half = param.r // 2
    dec = youla_decompose(m)
    if dec.n_blocks > half:
        raise RepresentabilityError(
            f"{dec.n_blocks} Youla blocks exceed r/2 = {half}")
    root = np.sqrt(dec.lambdas)
    xi_a = np.zeros((param.n1, half))
    xi_b = np.zeros((param.n1, half))
    xi_a[:, :dec.n_blocks] = dec.phi * root
    xi_b[:, :dec.n_blocks] = dec.psi * root

    ta, tb = theta_blocks(param, theta)
    h = (ta - 1j * tb).T @ (xi_a + 1j * xi_b)
    a, _, bh = np.linalg.svd(h)
    rc = bh.conj().T @ a.conj().T          # unitary, h @ rc Hermitian PSD
    r1, r2 = rc.real, rc.imag
    emb = np.block([[r1, -r2], [r2, r1]])
    if np.linalg.norm(emb.T @ emb - np.eye(param.r)) > 1e-8:
        raise NumericError("rotation lost unitarity",
                           best_estimate=emb)
    xi = pack_blocks(param, xi_a @ r1 - xi_b @ r2, xi_a @ r2 + xi_b @ r1)
    return certify(param, theta, xi, m)


_WITNESS = {
    "rectangular": witness_subspace,
    "subspace": witness_subspace,
    "psd": witness_psd,
    "skew": witness_skew,
}


def balanced_witness(param, theta, m_star):
    """Kind-dispatched witness construction; see the kind-specific builders."""
    return _WITNESS[param.kind](param, theta, m_star)
