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

On the entry kernel a parameterization whose entry_core gives block
coordinates (the subspace kind, X = U Theta_A and Y = V Theta_B) is
evaluated in them: the factor rows at the observed entries are
U[rows] Theta_A and V[cols] Theta_B, from basis rows gathered once per spec,
X^T X is Theta_A^T (U^T U) Theta_A, and the fit gradient is
U[rows]^T (resid * Y[cols]), with no scatter and no adjoint product. X is
formed, as U Theta_A, only when the lam > 0 row hinge's Frobenius test
<Theta_A, (U^T U) Theta_A> does not rule out a row beyond alpha; the hinge's
gradient then maps back through U^T. So while the hinge is skipped a value
or gradient costs O((K + s) s r) for K observed entries and never touches
an n-row array. The other kinds form their factors.

G needs at most one row-norm pass per factor and point. Every row norm is at
most ||X||_F, so while ||X||_F^2 lies below alpha^2 by a relative margin of
1e-8 (room for the rounding of both sums up to n r of about 1e7), G and its
derivatives vanish and no row pass runs; at alpha = 100 that is almost every
evaluation of the benchmark's sweeps. Otherwise one pass finds the rows
beyond alpha and keeps their norms and excesses, which the gradient and the
curvature read. The value, gradient and curvature, and the public
row_hinge_penalty functions, all share that one implementation.

Every value is an Evaluation (objective_value(..., keep=True) hands it
back): the factors (in block coordinates, the blocks and their Gram
products, and the factors only where their hinge needed them), the fit
residual, the balance matrix and the row hinges of both factors at that
point. The gradient is computed from an Evaluation alone, adding the
products, and the penalty term only for a factor with a row beyond alpha; a
gradient called without one builds it first. So a descent that accepts a
line-search candidate never builds its residual or its row norms twice. The
dense residual can also be written into a caller's buffer (out), which lets
a descent allocate it once per solve.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import as_matrix
from .parameterization import adjoint, theta_blocks
from .sampling import ObservationMask, observed_fraction, project_observed


def default_tuning(n1, n2, p_hat):
    """Standard tuning: lam = 100 sqrt((n1 + n2) p_hat), alpha = 100."""
    return float(100.0 * np.sqrt((n1 + n2) * p_hat)), 100.0


# Observed fraction below which the fit term runs on the observed entries.
# Value / gradient from the value's Evaluation in us, then one descent
# iteration (2.3 values and a gradient, as on the benchmark's sweeps), dense
# -> entry kernel, at n1 = n2 = 500 (skew), at a standard normal theta (no
# row near alpha = 100, so the Frobenius test skips the row hinge), one BLAS
# thread, 2-vCPU shared KVM guest, best of 60 calls in each of six runs:
#   r = 2,  p = 0.001:  578 /  131  ->   36 /   42    1460 ->  125
#   r = 2,  p = 0.03:   556 /  121  ->  253 /  172    1400 ->  754
#   r = 20, p = 0.03:   728 /  740  ->  405 / 1515    2414 -> 2446
#   r = 20, p = 0.05:   707 /  739  ->  708 / 2663    2365 -> 4291
#   r = 2,  p = 0.2:    522 /  118  -> 1487 / 1289    1319 -> 4709
# With the residual shared between value and gradient, the entry kernel's
# scatter dominates its gradient. Measured at p = 0.02-0.08, it breaks even
# near p = 0.045 at r = 2 but near p = 0.028 at r = 20 (the hinge costs both
# kernels alike, so skipping it moved neither point). The threshold stays at
# 0.03: moving it changes which kernel, and so which rounding, a cell runs
# with.
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
    # the param's entry_core on the entry kernel, else None
    core: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        obs = as_matrix(self.observed, "observed")
        obs = np.ascontiguousarray(obs)
        obs.setflags(write=False)
        object.__setattr__(self, "observed", obs)
        if obs.shape != (self.param.n1, self.param.n2):
            raise ValueError("observed shape does not match parameterization")
        if obs.shape != self.mask.matrix.shape:
            raise ValueError("observed shape does not match mask")
        # observed's nonzeros off the mask are all of them but those on it
        if np.count_nonzero(obs) != np.count_nonzero(
                obs.reshape(-1)[self.mask.entries]):
            raise ValueError("observed has support off the mask")
        if not 0.0 < self.p_hat <= 1.0:
            raise ValueError(f"p_hat must be in (0, 1], got {self.p_hat}")
        # lam = inf would make f NaN wherever the penalty is 0 (inf * 0)
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got "
                             f"{self.lam}")
        # alpha = 0 gives the pure fourth-power row penalty, alpha = inf
        # disables it; both are legitimate
        if np.isnan(self.alpha) or self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        object.__setattr__(self, "core", (
            self.param.entry_core(self.rows, self.cols)
            if self.p_hat < _ENTRY_KERNEL_BELOW else None))

    # The observed entries in row-major order, observed[rows[k], cols[k]] =
    # vals[k], read-only; built on first use, which the dense kernel never
    # makes.
    @cached_property
    def rows(self):
        return _read_only(self.mask.entries // self.param.n2)

    @cached_property
    def cols(self):
        return _read_only(self.mask.entries % self.param.n2)

    @cached_property
    def vals(self):
        return _read_only(self.observed.reshape(-1)[self.mask.entries])


def _read_only(a):
    a.setflags(write=False)
    return a


def make_spec(param, mask, observed, lam=None, alpha=None):
    """Assemble an ObjectiveSpec, filling tuning from the standard rule."""
    p_hat = observed_fraction(mask)
    if p_hat == 0.0:
        raise ValueError(f"empty mask: no entry of the {mask.rows} x "
                         f"{mask.cols} matrix observed at p = "
                         f"{mask.nominal_p}")
    lam_d, alpha_d = default_tuning(param.n1, param.n2, p_hat)
    return ObjectiveSpec(param, project_observed(observed, mask), mask, p_hat,
                         lam_d if lam is None else float(lam),
                         alpha_d if alpha is None else float(alpha))


class _RowHinge(NamedTuple):
    """G at one factor, with what its derivatives read: the rows with
    ||x_i|| > alpha (a boolean mask, None when there are none), their norms
    and their excesses ||x_i|| - alpha."""

    value: float
    rows: np.ndarray
    norms: np.ndarray
    excess: np.ndarray


_NO_HINGE = _RowHinge(0.0, None, None, None)


def _inside_alpha(frob_sq, alpha):
    """Whether ||x||_F^2 = frob_sq puts every row of x within alpha."""
    # every row norm is at most ||x||_F; the margin covers the rounding of
    # both sums for n r up to about 1e7 (a negative alpha reaches every row)
    return alpha > 0.0 and frob_sq < alpha ** 2 * (1.0 - 1e-8)


def _row_hinge(x, alpha):
    """G at x, from one row-norm pass at most."""
    if _inside_alpha(np.vdot(x, x), alpha):
        return _NO_HINGE
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    rows = norms > alpha
    if not rows.any():
        return _NO_HINGE
    norms = norms[rows]
    excess = norms - alpha
    return _RowHinge(float(np.sum(excess ** 4)), rows, norms, excess)


def _hinge_grad(x, hinge):
    """The gradient of G at x from its _RowHinge."""
    coef = np.zeros(x.shape[0])
    if hinge.rows is not None:
        coef[hinge.rows] = 4.0 * hinge.excess ** 3 / hinge.norms
    return x * coef[:, None]


def row_hinge_penalty(x, alpha):
    """G(x) = sum_i max(||x_i|| - alpha, 0)^4."""
    return _row_hinge(x, alpha).value


def row_hinge_penalty_grad(x, alpha):
    """Row i of the gradient: 4 max(||x_i|| - alpha, 0)^3 x_i / ||x_i||."""
    return _hinge_grad(x, _row_hinge(x, alpha))


def row_hinge_penalty_curvature(x, dx, alpha):
    """Hessian quadratic form of G at x along dx (exact; G is C^2)."""
    hinge = _row_hinge(x, alpha)
    if hinge.rows is None:
        return 0.0
    xa, da = x[hinge.rows], dx[hinge.rows]
    na, s = hinge.norms, hinge.excess
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
    observed entries), the balance matrix X^T X - Y^T Y and the row hinges
    of X and Y (neither with a row beyond alpha when lam = 0). In block
    coordinates core is (Theta_A, Theta_B, gram_A Theta_A, gram_B Theta_B)
    and x, y are None unless that factor's hinge formed it."""

    value: float
    x: np.ndarray
    y: np.ndarray
    resid: object
    balance: np.ndarray
    hinges: tuple
    core: tuple = None

    @property
    def hinged(self):
        """Whether the row penalty is active: some row beyond alpha."""
        return any(h.rows is not None for h in self.hinges)


def _value(r, b, hinges, spec):
    """f from the fit residual r, the balance matrix b and the row hinges."""
    fit = 0.5 / spec.p_hat * float(np.vdot(r, r))
    bal = 0.125 * float(np.vdot(b, b))
    reg = 0.0
    if spec.lam:
        reg = spec.lam * (hinges[0].value + hinges[1].value)
    return fit + bal + reg


def _evaluate(x, y, spec, out=None):
    """The Evaluation of f at explicit factors."""
    if spec.p_hat < _ENTRY_KERNEL_BELOW:
        resid = _entry_residual(x, y, spec)
        r = resid[0]
    else:
        resid = r = _masked_residual(x, y, spec, out)
    b = x.T @ x - y.T @ y
    hinges = (_NO_HINGE, _NO_HINGE)
    if spec.lam:
        hinges = (_row_hinge(x, spec.alpha), _row_hinge(y, spec.alpha))
    return Evaluation(_value(r, b, hinges, spec), x, y, resid, b, hinges)


def _core_hinge(side, t, gt, alpha):
    """(G at F = side.basis @ t, F or None): F is formed only when
    ||F||_F^2 = <t, gram t> does not put every row within alpha."""
    if _inside_alpha(np.vdot(t, gt), alpha):
        return _NO_HINGE, None
    f = side.basis @ t
    return _row_hinge(f, alpha), f


def _core_evaluate(ta, tb, spec):
    """The Evaluation of f at blocks in the entry core's coordinates."""
    su, sv = spec.core
    xr, yc = su.rows @ ta, sv.rows @ tb
    r = np.einsum("ij,ij->i", xr, yc) - spec.vals
    gta, gtb = su.gram @ ta, sv.gram @ tb
    b = ta.T @ gta - tb.T @ gtb
    hinges, x, y = (_NO_HINGE, _NO_HINGE), None, None
    if spec.lam:
        hx, x = _core_hinge(su, ta, gta, spec.alpha)
        hy, y = _core_hinge(sv, tb, gtb, spec.alpha)
        hinges = (hx, hy)
    return Evaluation(_value(r, b, hinges, spec), x, y, (r, xr, yc), b,
                      hinges, (ta, tb, gta, gtb))


def _factor_grad(ev, spec):
    """Gradients of f with respect to X and Y, from the Evaluation there."""
    x, y, b = ev.x, ev.y, ev.balance
    if spec.p_hat < _ENTRY_KERNEL_BELOW:
        resid, xr, yc = ev.resid
        fit_x = _scatter(spec.rows, resid[:, None] * yc, x.shape[0])
        fit_y = _scatter(spec.cols, resid[:, None] * xr, y.shape[0])
    else:
        fit_x, fit_y = ev.resid @ y, ev.resid.T @ x
    gx = (1.0 / spec.p_hat) * fit_x + 0.5 * (x @ b)
    gy = (1.0 / spec.p_hat) * fit_y - 0.5 * (y @ b)
    hx, hy = ev.hinges
    if hx.rows is not None:
        gx = gx + spec.lam * _hinge_grad(x, hx)
    if hy.rows is not None:
        gy = gy + spec.lam * _hinge_grad(y, hy)
    return gx, gy


def factor_grad(x, y, spec):
    """Gradients of f with respect to X and Y."""
    return _factor_grad(_evaluate(x, y, spec), spec)


def _core_grad(ev, spec):
    """The theta gradient of f from an Evaluation in block coordinates."""
    su, sv = spec.core
    ta, tb, gta, gtb = ev.core
    resid, xr, yc = ev.resid
    b, scale = ev.balance, 1.0 / spec.p_hat
    ga = scale * (su.rows.T @ (resid[:, None] * yc)) + 0.5 * (gta @ b)
    gb = scale * (sv.rows.T @ (resid[:, None] * xr)) - 0.5 * (gtb @ b)
    hx, hy = ev.hinges
    if hx.rows is not None:
        ga = ga + spec.lam * (su.basis.T @ _hinge_grad(ev.x, hx))
    if hy.rows is not None:
        gb = gb + spec.lam * (sv.basis.T @ _hinge_grad(ev.y, hy))
    return np.concatenate((ga.reshape(-1), gb.reshape(-1)))


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
    blocks = theta_blocks(spec.param, theta)
    if spec.core is not None:
        ev = _core_evaluate(*blocks, spec)
    else:
        ev = _evaluate(*spec.param.factors(*blocks), spec, out)
    return ev if keep else ev.value


def objective_grad(spec, theta, ev=None):
    """Gradient of the theta-level objective, via the map's adjoint. Given
    ev, the Evaluation at theta, it reads ev's factors (or blocks),
    residual, balance matrix and row hinges; without it it builds that
    Evaluation first."""
    if ev is None:
        ev = objective_value(spec, theta, keep=True)
    if ev.core is not None:
        return _core_grad(ev, spec)
    return adjoint(spec.param, *_factor_grad(ev, spec))
