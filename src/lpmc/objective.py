"""Regularized completion objective and its derivatives.

On factors X (n1 x r) and Y (n2 x r) the objective is

    f(X, Y) = 1/(2 p_hat) ||P(X Y^T - M)||_F^2
            + 1/8 ||X^T X - Y^T Y||_F^2
            + lam * (G(X) + G(Y))

where P zeroes unobserved entries, M is the observed matrix, p_hat the
observed fraction, and G the row hinge penalty

    G(X) = sum_i max(||x_i|| - alpha, 0)^4.

The theta-level objective composes f with a LinearParam's factor map. The
factor-level value/gradient/curvature live here so landscape diagnostics can
use the same closed forms; everything is exact, including the penalty terms
(G is C^2, its Hessian is continuous across the hinge).

Below an observed fraction of _ENTRY_KERNEL_BELOW the value and gradient
evaluate the fit term on the spec's observed entries (rows, cols, vals)
alone; at or above it they use dense n1 x n2 mask arithmetic, with the
masked residual built in one buffer. The curvature is always dense.

A value can hand back its Evaluation (objective_value(..., keep=True)): the
factors, the fit residual and the balance matrix at that point. The gradient
at the same point takes it and only adds the products, so a descent that
accepts a line-search candidate never builds its residual twice. The dense
residual can also be written into a caller's buffer (out), which lets a
descent allocate it once per solve.
"""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix
from .parameterization import adjoint, factors
from .sampling import ObservationMask, observed_fraction, project_observed


def default_tuning(n1, n2, p_hat):
    """Standard tuning: lam = 100 sqrt((n1 + n2) p_hat), alpha = 100."""
    return float(100.0 * np.sqrt((n1 + n2) * p_hat)), 100.0


# Observed fraction below which the fit term runs on the observed entries.
# Value / gradient from the value's Evaluation in us, then one descent
# iteration (2.3 values and a gradient, as on the benchmark's sweeps), dense
# -> entry kernel, at n1 = n2 = 500 (skew), one BLAS thread, 2-vCPU shared
# KVM guest, best of 60 in two runs:
#   r = 2,  p = 0.001:  555 /  149  ->   52 /   69    1426 ->  189
#   r = 2,  p = 0.03:   545 /  148  ->  266 /  196    1402 ->  808
#   r = 20, p = 0.03:   711 /  793  ->  434 / 1828    2428 -> 2826
#   r = 20, p = 0.05:   863 / 1053  ->  911 / 3234    3038 -> 5329
#   r = 2,  p = 0.2:    671 /  219  -> 1434 / 1301    1762 -> 4599
# With the residual shared between value and gradient, the entry kernel's
# scatter dominates its gradient, so it breaks even near p = 0.06 at r = 2
# but near p = 0.027 at r = 20. The threshold stays at 0.03: moving it
# changes which kernel, and so which rounding, a cell runs with.
_ENTRY_KERNEL_BELOW = 0.03


@dataclass(frozen=True)
class ObjectiveSpec:
    """Frozen problem instance: parameterization, observations, tuning."""

    param: object
    observed: np.ndarray
    mask: ObservationMask
    p_hat: float
    lam: float
    alpha: float
    # observed entries in row-major order: observed[rows[k], cols[k]] = vals[k]
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    cols: np.ndarray = field(init=False, repr=False, compare=False)
    vals: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = as_matrix(self.observed, "observed")
        obs = np.ascontiguousarray(obs)
        obs.setflags(write=False)
        object.__setattr__(self, "observed", obs)
        if obs.shape != (self.param.n1, self.param.n2):
            raise ValueError("observed shape does not match parameterization")
        if obs.shape != self.mask.matrix.shape:
            raise ValueError("observed shape does not match mask")
        if np.any(obs[~self.mask.matrix] != 0.0):
            raise ValueError("observed has support off the mask")
        if not 0.0 < self.p_hat <= 1.0:
            raise ValueError(f"p_hat must be in (0, 1], got {self.p_hat}")
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        # alpha = 0 gives the pure fourth-power row penalty, alpha = inf
        # disables it; both are legitimate
        if np.isnan(self.alpha) or self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        rows, cols = np.nonzero(self.mask.matrix)
        for name, a in (("rows", rows), ("cols", cols),
                        ("vals", obs[rows, cols])):
            a.setflags(write=False)
            object.__setattr__(self, name, a)


def make_spec(param, mask, observed, lam=None, alpha=None):
    """Assemble an ObjectiveSpec, filling tuning from the standard rule."""
    p_hat = observed_fraction(mask)
    if p_hat == 0.0:
        raise ValueError("empty mask")
    lam_d, alpha_d = default_tuning(param.n1, param.n2, p_hat)
    return ObjectiveSpec(param, project_observed(observed, mask), mask, p_hat,
                         lam_d if lam is None else float(lam),
                         alpha_d if alpha is None else float(alpha))


def row_hinge_penalty(x, alpha):
    """G(x) = sum_i max(||x_i|| - alpha, 0)^4."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    excess = norms - alpha
    excess = excess[excess > 0.0]
    return float(np.sum(excess ** 4))


def row_hinge_penalty_grad(x, alpha):
    """Row i of the gradient: 4 max(||x_i|| - alpha, 0)^3 x_i / ||x_i||."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    act = norms > alpha
    coef = np.zeros(x.shape[0])
    coef[act] = 4.0 * (norms[act] - alpha) ** 3 / norms[act]
    return x * coef[:, None]


def row_hinge_penalty_curvature(x, dx, alpha):
    """Hessian quadratic form of G at x along dx (exact; G is C^2)."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    act = norms > alpha
    if not np.any(act):
        return 0.0
    xa, da, na = x[act], dx[act], norms[act]
    s = na - alpha
    cross = np.einsum("ij,ij->i", xa, da)
    dsq = np.einsum("ij,ij->i", da, da)
    radial = cross ** 2 / na ** 2
    return float(np.sum(12.0 * s ** 2 * radial + 4.0 * s ** 3 * (dsq - radial) / na))


def _masked_residual(x, y, spec, out=None):
    """P(X Y^T - M), built in one n1 x n2 buffer: out when given."""
    t = np.matmul(x, y.T, out=out)
    t -= spec.observed
    np.multiply(t, spec.mask.matrix, out=t)
    return t


def _entry_residual(x, y, spec):
    """(X Y^T - M) at the observed entries, with the gathered factor rows."""
    xr, yc = x[spec.rows], y[spec.cols]
    return np.einsum("ij,ij->i", xr, yc) - spec.vals, xr, yc


def _scatter(index, weights, n):
    """out[i] = sum of weights[k] over the k with index[k] == i."""
    return np.column_stack([np.bincount(index, weights=w, minlength=n)
                            for w in weights.T])


class Evaluation(NamedTuple):
    """f at one point, with the terms its gradient reuses: the factors, the
    fit residual (the dense masked matrix, or (resid, xr, yc) on the
    observed entries) and the balance matrix X^T X - Y^T Y."""

    value: float
    x: np.ndarray
    y: np.ndarray
    resid: object
    balance: np.ndarray


def _fit_terms(x, y, spec, out=None):
    """The fit residual and the balance matrix at (X, Y)."""
    if spec.p_hat < _ENTRY_KERNEL_BELOW:
        resid = _entry_residual(x, y, spec)
    else:
        resid = _masked_residual(x, y, spec, out)
    return resid, x.T @ x - y.T @ y


def _evaluate(x, y, spec, out=None):
    """The Evaluation of f at explicit factors."""
    resid, b = _fit_terms(x, y, spec, out)
    r = resid[0] if spec.p_hat < _ENTRY_KERNEL_BELOW else resid
    fit = 0.5 / spec.p_hat * float(np.vdot(r, r))
    bal = 0.125 * float(np.vdot(b, b))
    reg = 0.0
    if spec.lam:
        reg = spec.lam * (row_hinge_penalty(x, spec.alpha)
                          + row_hinge_penalty(y, spec.alpha))
    return Evaluation(fit + bal + reg, x, y, resid, b)


def factor_value(x, y, spec):
    """f(X, Y) at explicit factors."""
    return _evaluate(x, y, spec).value


def _factor_grad(x, y, resid, b, spec):
    if spec.p_hat < _ENTRY_KERNEL_BELOW:
        resid, xr, yc = resid
        fit_x = _scatter(spec.rows, resid[:, None] * yc, x.shape[0])
        fit_y = _scatter(spec.cols, resid[:, None] * xr, y.shape[0])
    else:
        fit_x, fit_y = resid @ y, resid.T @ x
    gx = (1.0 / spec.p_hat) * fit_x + 0.5 * (x @ b)
    gy = (1.0 / spec.p_hat) * fit_y - 0.5 * (y @ b)
    if spec.lam:
        gx = gx + spec.lam * row_hinge_penalty_grad(x, spec.alpha)
        gy = gy + spec.lam * row_hinge_penalty_grad(y, spec.alpha)
    return gx, gy


def factor_grad(x, y, spec):
    """Gradients of f with respect to X and Y."""
    return _factor_grad(x, y, *_fit_terms(x, y, spec), spec)


def factor_curvature(x, y, dx, dy, spec):
    """Hessian quadratic form of f at (X, Y) along (DX, DY), in closed form."""
    resid = _masked_residual(x, y, spec)
    lin = dx @ y.T + x @ dy.T
    np.multiply(lin, spec.mask.matrix, out=lin)
    fit = (1.0 / spec.p_hat) * (float(np.vdot(lin, lin))
                                + 2.0 * float(np.vdot(resid, dx @ dy.T)))
    b = x.T @ x - y.T @ y
    c = dx.T @ x + x.T @ dx - dy.T @ y - y.T @ dy
    e = dx.T @ dx - dy.T @ dy
    bal = 0.25 * float(np.vdot(c, c)) + 0.5 * float(np.vdot(b, e))
    reg = 0.0
    if spec.lam:
        reg = spec.lam * (row_hinge_penalty_curvature(x, dx, spec.alpha)
                          + row_hinge_penalty_curvature(y, dy, spec.alpha))
    return fit + bal + reg


def objective_value(spec, theta, keep=False, out=None):
    """f composed with the parameterization's factor map; with keep=True the
    whole Evaluation, which objective_grad at the same theta can reuse. out,
    an n1 x n2 float array, takes the dense kernel's residual instead of a
    new array."""
    ev = _evaluate(*factors(spec.param, theta), spec, out)
    return ev if keep else ev.value


def objective_grad(spec, theta, ev=None):
    """Gradient of the theta-level objective, via the map's adjoint. Given
    ev, the Evaluation at theta, it reuses ev's factors, residual and
    balance matrix instead of building them again."""
    if ev is None:
        grad = factor_grad(*factors(spec.param, theta), spec)
    else:
        grad = _factor_grad(ev.x, ev.y, ev.resid, ev.balance, spec)
    return adjoint(spec.param, *grad)
