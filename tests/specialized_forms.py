"""Reference forms the tests check lpmc against.

Closed forms of the objective for three kinds, written directly in the
parameter blocks instead of through the factor map, with dense mask
arithmetic. Each must agree with objective_value to rounding; the tests use
them as oracles for both objective kernels.

reference_row_hinge_penalty, _grad and _hvp are the row penalty's closed
forms, one row-norm pass each; lpmc must give bitwise the same arrays.

reference_solve is the descent loop that evaluates every point from scratch:
objective_value at the start and at each line-search candidate (the halvings
of 1 / gram, the step that moves the factors one gradient unit), and
objective_grad at each iterate. solve reuses the evaluation of the accepted
candidate instead, in the same arithmetic order, so the two must agree bit
for bit.
"""

import numpy as np

from lpmc.instances import (psd_instance, rectangular_instance, skew_instance,
                            subspace_instance)
from lpmc.objective import make_spec, objective_grad, objective_value
from lpmc.optimizer import GRAD_TOL_SQ, MIN_STEP
from lpmc.parameterization import theta_blocks
from lpmc.sampling import RngState, bernoulli_mask

# the two densities the value and gradient tests run at: the default one
# takes the dense kernel, the sparse one the observed-entry kernel, at sizes
# that leave about a hundred entries observed
DENSE = {}
SPARSE = dict(p=0.01, scale=10)


def noiseless_spec(kind, seed, p=0.7, lam=None, alpha=None, scale=1):
    rng = RngState(seed).derive("spec", kind)
    if kind == "subspace":
        param, m_star = subspace_instance(15 * scale, 12 * scale, 2, 5, 4,
                                          rng.derive("i"))
    elif kind == "rectangular":
        param, m_star = rectangular_instance(12 * scale, 10 * scale, 2,
                                             rng.derive("i"))
    elif kind == "psd":
        param, m_star = psd_instance(11 * scale, 2, rng.derive("i"))
    else:
        param, m_star = skew_instance(10 * scale, 4, rng.derive("i"))
    mask = bernoulli_mask(m_star.shape[0], m_star.shape[1], p, rng.derive("o"))
    return make_spec(param, mask, m_star, lam, alpha), m_star


def reference_row_hinge_penalty(x, alpha):
    """G(x) = sum_i max(||x_i|| - alpha, 0)^4."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    excess = norms - alpha
    excess = excess[excess > 0.0]
    return float(np.sum(excess ** 4))


def reference_row_hinge_penalty_grad(x, alpha):
    """Row i of the gradient: 4 max(||x_i|| - alpha, 0)^3 x_i / ||x_i||."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    act = norms > alpha
    coef = np.zeros(x.shape[0])
    coef[act] = 4.0 * (norms[act] - alpha) ** 3 / norms[act]
    return x * coef[:, None]


def reference_row_hinge_penalty_hvp(x, dx, alpha):
    """Row i of the Hessian of G at x applied to dx:
    4 s^3 / n dx_i + (12 s^2 - 4 s^3 / n) <x_i, dx_i> x_i / n^2 with
    n = ||x_i|| and s = n - alpha where n > alpha, zero elsewhere."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    act = norms > alpha
    out = np.zeros_like(dx)
    xa, da, na = x[act], dx[act], norms[act]
    s = na - alpha
    tangent = 4.0 * s ** 3 / na
    cross = np.einsum("ij,ij->i", xa, da)
    radial = (12.0 * s ** 2 - tangent) * cross / na ** 2
    out[act] = tangent[:, None] * da + radial[:, None] * xa
    return out


def reference_factor_curvature(x, y, dx, dy, spec):
    """The Hessian quadratic form of f at (X, Y) along (DX, DY), term by
    term with the dense mask:
    1/p_hat (||P(DX Y^T + X DY^T)||^2 + 2 <P(X Y^T - M), DX DY^T>)
    + 1/4 ||C||^2 + 1/2 <B, DX^T DX - DY^T DY> with C the derivative of
    B = X^T X - Y^T Y along (DX, DY), plus lam times each factor's row
    penalty form sum_i 12 s^2 <x_i, d_i>^2 / n^2
    + 4 s^3 (||d_i||^2 - <x_i, d_i>^2 / n^2) / n over the rows with
    n = ||x_i|| > alpha and s = n - alpha."""
    mask = spec.mask.matrix
    lin = (dx @ y.T + x @ dy.T) * mask
    resid = (x @ y.T - spec.observed) * mask
    fit = (np.vdot(lin, lin) + 2.0 * np.vdot(resid, dx @ dy.T)) / spec.p_hat
    b = x.T @ x - y.T @ y
    c = dx.T @ x + x.T @ dx - dy.T @ y - y.T @ dy
    bal = 0.25 * np.vdot(c, c) + 0.5 * np.vdot(b, dx.T @ dx - dy.T @ dy)
    pen = 0.0
    for f, d in ((x, dx), (y, dy)):
        for row, drow in zip(f, d):
            n = np.linalg.norm(row)
            if n > spec.alpha:
                s = n - spec.alpha
                radial = (row @ drow) ** 2 / n ** 2
                pen += (12.0 * s ** 2 * radial
                        + 4.0 * s ** 3 * (drow @ drow - radial) / n)
    return float(fit + bal + spec.lam * pen)


def subspace_objective_value(spec, theta):
    if spec.param.kind != "subspace":
        raise ValueError("spec is not a subspace instance")
    ta, tb = theta_blocks(spec.param, theta)
    bu, bv = spec.param.basis_u, spec.param.basis_v
    resid = (bu @ (ta @ tb.T) @ bv.T - spec.observed) * spec.mask.matrix
    b = ta.T @ ta - tb.T @ tb
    return (0.5 / spec.p_hat * float(np.vdot(resid, resid))
            + 0.125 * float(np.vdot(b, b))
            + spec.lam * (reference_row_hinge_penalty(bu @ ta, spec.alpha)
                          + reference_row_hinge_penalty(bv @ tb,
                                                        spec.alpha)))


def skew_objective_value(spec, theta):
    if spec.param.kind != "skew":
        raise ValueError("spec is not a skew instance")
    ta, tb = theta_blocks(spec.param, theta)
    resid = (ta @ tb.T - tb @ ta.T - spec.observed) * spec.mask.matrix
    b = ta.T @ ta - tb.T @ tb
    c = ta.T @ tb + tb.T @ ta
    return (0.5 / spec.p_hat * float(np.vdot(resid, resid))
            + 0.25 * float(np.vdot(b, b)) + 0.25 * float(np.vdot(c, c))
            + 2.0 * spec.lam * reference_row_hinge_penalty(
                np.hstack([tb, ta]), spec.alpha))


def psd_objective_value(spec, theta):
    if spec.param.kind != "psd":
        raise ValueError("spec is not a psd instance")
    (t,) = theta_blocks(spec.param, theta)
    resid = (t @ t.T - spec.observed) * spec.mask.matrix
    return (0.5 / spec.p_hat * float(np.vdot(resid, resid))
            + 2.0 * spec.lam * reference_row_hinge_penalty(t, spec.alpha))


def reference_solve(spec, config):
    """solve's descent from the random start (config.init "random") with a
    fresh objective_value at every candidate and a fresh objective_grad at
    every iterate; returns (objective_trace, theta_hat, iterations,
    termination, clamped_steps)."""
    if config.init != "random":
        raise ValueError("reference_solve starts from the random draw only")
    seed = config.seed
    rng = seed if isinstance(seed, RngState) else RngState(int(seed))
    theta = rng.generator().standard_normal(spec.param.d)
    value = objective_value(spec, theta)
    trace = [value]
    clamped = 0
    termination = "iter-cap"
    iterations = 0
    for _ in range(config.max_iters):
        grad = objective_grad(spec, theta)
        if float(grad @ grad) <= GRAD_TOL_SQ:
            termination = "grad-tol"
            break
        t = 0
        step = 1.0 / spec.param.gram
        while step > MIN_STEP:
            cand = theta - step * grad
            f_cand = objective_value(spec, cand)
            if f_cand <= value:
                break
            t += 1
            step = 2.0 ** -t / spec.param.gram
        else:
            cand = theta - MIN_STEP * grad
            f_cand = objective_value(spec, cand)
            clamped += 1
        theta, value = cand, f_cand
        iterations += 1
        trace.append(value)
    if termination == "iter-cap":
        grad = objective_grad(spec, theta)
        if float(grad @ grad) <= GRAD_TOL_SQ:
            termination = "grad-tol"
    return np.asarray(trace), theta, iterations, termination, clamped
