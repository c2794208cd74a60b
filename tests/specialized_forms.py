"""Reference forms the tests check lpmc against.

Closed forms of the objective for three kinds, written directly in the
parameter blocks instead of through the factor map, with dense mask
arithmetic. Each must agree with objective_value to rounding; the tests use
them as oracles for both objective kernels.

reference_row_hinge_penalty, _grad and _curvature are the row penalty's
closed forms, one row-norm pass each; lpmc must give bitwise the same
arrays.

reference_solve is the descent loop that evaluates every point from scratch:
objective_value at the start and at each line-search candidate, and
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


def reference_row_hinge_penalty_curvature(x, dx, alpha):
    """Hessian quadratic form of G at x along dx."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    act = norms > alpha
    if not np.any(act):
        return 0.0
    xa, da, na = x[act], dx[act], norms[act]
    s = na - alpha
    cross = np.einsum("ij,ij->i", xa, da)
    dsq = np.einsum("ij,ij->i", da, da)
    radial = cross ** 2 / na ** 2
    return float(np.sum(12.0 * s ** 2 * radial
                        + 4.0 * s ** 3 * (dsq - radial) / na))


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
    """solve's descent with a fresh objective_value at every candidate and
    a fresh objective_grad at every iterate; returns (objective_trace,
    theta_hat, iterations, termination, clamped_steps)."""
    seed = config.seed
    rng = seed if isinstance(seed, RngState) else RngState(int(seed))
    theta = config.init_scale * rng.generator().standard_normal(spec.param.d)
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
        step = 1.0
        while step > MIN_STEP:
            cand = theta - step * grad
            f_cand = objective_value(spec, cand)
            if f_cand <= value:
                break
            t += 1
            step = 2.0 ** -t
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
