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

Below an observed fraction of _ENTRY_KERNEL_BELOW (a spec's entry_kernel)
the value and gradient evaluate the fit term on the spec's observed entries
(rows, cols, vals) alone; at or above it they use dense n1 x n2 mask
arithmetic, with the masked residual built in one buffer. The curvature is
always dense.

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
beyond alpha and keeps their norms and excesses (a _RowHinge), which the
gradient and the curvature read. The value, the gradient, the curvature and
the landscape's gap bound all read that one _RowHinge per factor and point.

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

A value given above=v (objective_value(..., above=v)) computes the fit
term first and returns None as soon as that term exceeds v; otherwise it
goes on, with the same float, to the Evaluation it builds without above.
The stop is exact: every later term of f, the balance 1/8 ||b||^2 and lam
times the hinges with lam >= 0, is nonnegative, and rounded addition is
monotone, so the computed f exceeds v too. The line search passes f at its
base point, so a rejected candidate costs its fit residual and one sum of
squares, with no Gram product, balance matrix or row pass. A term of f that
can be negative would break this, and the stop would have to go.

objective_value, factor_grad and factor_curvature also take a stack of
points, one leading axis of c (theta c x d, factors c x n x r), and return
c values, gradients or forms, each bit for bit the one its point gives
alone. One rule, _one_pass, says how: on the dense kernel, with lam = 0 or
every item's Frobenius test putting its rows within alpha, the stack takes
one pass, its products and sums of squares on the whole stack and the sums
as one matmul with each item's np.vdot bits (linalg._item_dots), and no
row hinge; any other stack goes point by point through the single-point
code (the landscape module says which reductions and why).
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import _dots, _item_dots, _mT, as_matrix
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
    lam: float
    alpha: float
    # the mask's observed fraction
    p_hat: float = field(init=False)
    # p_hat < _ENTRY_KERNEL_BELOW: the fit term runs on the observed entries
    entry_kernel: bool = field(init=False)
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
        object.__setattr__(self, "p_hat", observed_fraction(self.mask))
        if self.p_hat == 0.0:
            raise ValueError(f"empty mask: no entry of the {self.mask.rows} x "
                             f"{self.mask.cols} matrix observed at p = "
                             f"{self.mask.nominal_p}")
        # lam = inf would make f NaN wherever the penalty is 0 (inf * 0)
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got "
                             f"{self.lam}")
        # alpha = 0 gives the pure fourth-power row penalty, alpha = inf
        # disables it; both are legitimate
        if np.isnan(self.alpha) or self.alpha < 0.0:
            raise ValueError("alpha must be nonnegative")
        object.__setattr__(self, "entry_kernel",
                           self.p_hat < _ENTRY_KERNEL_BELOW)
        object.__setattr__(self, "core", (
            self.param.entry_core(self.rows, self.cols)
            if self.entry_kernel else None))

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
    lam_d, alpha_d = default_tuning(param.n1, param.n2,
                                    observed_fraction(mask))
    return ObjectiveSpec(param, project_observed(observed, mask), mask,
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
    """Whether ||x||_F^2 = frob_sq puts every row of x within alpha; on an
    array of such sums, np.all of it says whether every one does."""
    # every row norm is at most ||x||_F; the margin covers the rounding of
    # both sums, in any order, for n r up to about 1e7 (a negative alpha
    # reaches every row)
    return alpha > 0.0 and frob_sq < alpha ** 2 * (1.0 - 1e-8)


def _row_hinge(x, alpha):
    """G(x) = sum_i max(||x_i|| - alpha, 0)^4 as a _RowHinge, from one
    row-norm pass at most."""
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
    """The gradient of G at x from its _RowHinge: row i is
    4 max(||x_i|| - alpha, 0)^3 x_i / ||x_i||."""
    coef = np.zeros(x.shape[0])
    if hinge.rows is not None:
        coef[hinge.rows] = 4.0 * hinge.excess ** 3 / hinge.norms
    return x * coef[:, None]


def _hinge_curvature(x, dx, hinge):
    """The Hessian quadratic form of G at x along dx from its _RowHinge
    (exact; G is C^2)."""
    if hinge.rows is None:
        return 0.0
    xa, da = x[hinge.rows], dx[hinge.rows]
    na, s = hinge.norms, hinge.excess
    cross = np.einsum("ij,ij->i", xa, da)
    dsq = np.einsum("ij,ij->i", da, da)
    radial = cross ** 2 / na ** 2
    return float(np.sum(12.0 * s ** 2 * radial
                        + 4.0 * s ** 3 * (dsq - radial) / na))


def _one_pass(x, y, spec):
    """The stack rule: whether stacked factors x, y (c x n x r) take one
    pass, with no row hinge, rather than going point by point. They do on
    the dense kernel when lam = 0 or every item's ||x||_F^2 and ||y||_F^2
    put its rows within alpha. The test is one _item_dots per factor, with
    the bits of each item's own np.vdot, so an item it passes is one whose
    point _row_hinge finds no row beyond alpha in."""
    if spec.entry_kernel:
        return False
    return not spec.lam or all(
        np.all(_inside_alpha(_item_dots(f, f), spec.alpha)) for f in (x, y))


def _row_dots(a, b):
    """<a_i, b_i> for each row i."""
    return np.einsum("ij,ij->i", a, b)


def _masked_residual(x, y, spec, out=None):
    """P(X Y^T - M), built in one n1 x n2 buffer (per item of stacked
    factors): out when given."""
    t = np.matmul(x, _mT(y), out=out)
    t -= spec.observed
    np.multiply(t, spec.mask.matrix, out=t)
    return t


def _entry_residual(x, y, spec):
    """(X Y^T - M) at the observed entries, with the gathered factor rows."""
    xr, yc = x[spec.rows], y[spec.cols]
    return _row_dots(xr, yc) - spec.vals, xr, yc


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
    and x, y are None unless that factor's hinge formed it. A stack that
    _one_pass lets through gives one Evaluation whose value and arrays are
    stacks and whose hinges are (_NO_HINGE, _NO_HINGE); objective_value
    keeps no such Evaluation, factor_grad and factor_curvature read one."""

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


def _fit(r, spec):
    """The fit term 1/(2 p_hat) ||r||^2 of f from the fit residual r; at
    stacked points an array of the items' terms."""
    return 0.5 / spec.p_hat * _dots(r, r)


def _value(fit, b, hinges, spec):
    """f from its fit term, the balance matrix b and the row hinges; at
    stacked points an array of the items' values."""
    bal = 0.125 * _dots(b, b)
    return fit + bal + spec.lam * (hinges[0].value + hinges[1].value)


def _evaluate(x, y, spec, out=None, above=None):
    """The Evaluation of f at explicit factors, or at stacks of them that
    _one_pass lets through; None at a point whose fit term exceeds above."""
    if spec.entry_kernel:
        resid = _entry_residual(x, y, spec)
        r = resid[0]
    else:
        resid = r = _masked_residual(x, y, spec, out)
    fit = _fit(r, spec)
    if above is not None and fit > above:
        return None
    b = _mT(x) @ x - _mT(y) @ y
    # at lam = 0 the penalty is off (here and in _core_hinge), so the value
    # and the curvature add lam times 0; a stack has no row beyond alpha
    if x.ndim > 2 or not spec.lam:
        hinges = (_NO_HINGE, _NO_HINGE)
    else:
        hinges = (_row_hinge(x, spec.alpha), _row_hinge(y, spec.alpha))
    return Evaluation(_value(fit, b, hinges, spec), x, y, resid, b, hinges)


def _core_hinge(side, t, gt, spec):
    """(G at F = side.basis @ t, F or None): F is formed only when lam > 0
    and ||F||_F^2 = <t, gram t> does not put every row within alpha."""
    if not spec.lam or _inside_alpha(np.vdot(t, gt), spec.alpha):
        return _NO_HINGE, None
    f = side.basis @ t
    return _row_hinge(f, spec.alpha), f


def _core_evaluate(ta, tb, spec, above=None):
    """The Evaluation of f at blocks in the entry core's coordinates; None
    at a point whose fit term exceeds above."""
    su, sv = spec.core
    xr, yc = su.rows @ ta, sv.rows @ tb
    r = _row_dots(xr, yc) - spec.vals
    fit = _fit(r, spec)
    if above is not None and fit > above:
        return None
    gta, gtb = su.gram @ ta, sv.gram @ tb
    b = _mT(ta) @ gta - _mT(tb) @ gtb
    hx, x = _core_hinge(su, ta, gta, spec)
    hy, y = _core_hinge(sv, tb, gtb, spec)
    return Evaluation(_value(fit, b, (hx, hy), spec), x, y, (r, xr, yc), b,
                      (hx, hy), (ta, tb, gta, gtb))


def _plus_hinge_grad(g, x, hinge, lam):
    """g plus lam times the gradient of G at x where a row of x is beyond
    alpha."""
    if hinge.rows is None:
        return g
    return g + lam * _hinge_grad(x, hinge)


def _factor_grad(ev, spec):
    """Gradients of f with respect to X and Y, from the Evaluation there."""
    x, y, b = ev.x, ev.y, ev.balance
    if spec.entry_kernel:
        resid, xr, yc = ev.resid
        fit_x = _scatter(spec.rows, resid[:, None] * yc, x.shape[0])
        fit_y = _scatter(spec.cols, resid[:, None] * xr, y.shape[0])
    else:
        fit_x, fit_y = ev.resid @ y, _mT(ev.resid) @ x
    gx = (1.0 / spec.p_hat) * fit_x + 0.5 * (x @ b)
    gy = (1.0 / spec.p_hat) * fit_y - 0.5 * (y @ b)
    hx, hy = ev.hinges
    return (_plus_hinge_grad(gx, x, hx, spec.lam),
            _plus_hinge_grad(gy, y, hy, spec.lam))


def factor_grad(x, y, spec, ev=None):
    """Gradients of f with respect to X and Y, or stacks of them at stacked
    factors (by the stack rule, _one_pass). ev, the Evaluation at (X, Y)
    when given, lends its residual, balance matrix and row hinges."""
    if ev is None:
        if x.ndim > 2 and not _one_pass(x, y, spec):
            grads = [factor_grad(*item, spec) for item in zip(x, y)]
            return tuple(map(np.array, zip(*grads)))
        ev = _evaluate(x, y, spec)
    return _factor_grad(ev, spec)


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


def factor_curvature(x, y, dx, dy, spec, ev=None):
    """Hessian quadratic form of f at (X, Y) along (DX, DY), in closed form;
    at stacked factors an array of the items' forms (by the stack rule,
    _one_pass). It reads the masked residual, the balance matrix and the
    row hinges from ev, the Evaluation at (X, Y), built here unless given;
    the entry kernel's residual lies on the observed entries alone, so
    there the dense one is formed."""
    if ev is None:
        if x.ndim > 2 and not _one_pass(x, y, spec):
            return np.array([factor_curvature(*item, spec)
                             for item in zip(x, y, dx, dy)])
        ev = _evaluate(x, y, spec)
    resid = ev.resid
    if spec.entry_kernel:
        resid = _masked_residual(x, y, spec)
    lin = dx @ _mT(y) + x @ _mT(dy)
    np.multiply(lin, spec.mask.matrix, out=lin)
    fit = (1.0 / spec.p_hat) * (_dots(lin, lin)
                                + 2.0 * _dots(resid, dx @ _mT(dy)))
    c = _mT(dx) @ x + _mT(x) @ dx - _mT(dy) @ y - _mT(y) @ dy
    e = _mT(dx) @ dx - _mT(dy) @ dy
    bal = 0.25 * _dots(c, c) + 0.5 * _dots(ev.balance, e)
    hx, hy = ev.hinges
    return fit + bal + spec.lam * (_hinge_curvature(x, dx, hx)
                                   + _hinge_curvature(y, dy, hy))


def objective_value(spec, theta, keep=False, out=None, above=None):
    """f composed with the parameterization's factor map; with keep=True the
    whole Evaluation, which objective_grad at the same theta can reuse. out,
    an n1 x n2 float array, takes the dense kernel's residual instead of a
    new array. Given above, a float, it returns None as soon as the fit
    term exceeds it (see the module docstring), otherwise what it returns
    without above, bit for bit. A stack of theta (c x d) gives an array of
    the c values, each the one its point gives alone (by the stack rule,
    _one_pass); it takes none of keep, out and above."""
    blocks = theta_blocks(spec.param, theta)
    if blocks[0].ndim > 2:
        if (keep or out is not None or above is not None
                or blocks[0].ndim > 3):
            raise ValueError("theta must be one point, or a c x d stack, "
                             "which takes none of keep, out and above")
        x, y = spec.param.factors(*blocks)
        if not _one_pass(x, y, spec):
            return np.array([objective_value(spec, t) for t in theta])
        return _evaluate(x, y, spec).value
    if spec.core is not None:
        ev = _core_evaluate(*blocks, spec, above)
    else:
        ev = _evaluate(*spec.param.factors(*blocks), spec, out, above)
    return ev if keep or ev is None else ev.value


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
