"""Reference forms the tests check lpmc against.

Closed forms of the objective for three kinds, written directly in the
parameter blocks instead of through the factor map, with dense mask
arithmetic. Each must agree with objective_value to rounding; the tests use
them as oracles for both objective kernels.

reference_solve is the descent loop that evaluates every point from scratch:
objective_value at the start and at each line-search candidate, and
objective_grad at each iterate. solve reuses the evaluation of the accepted
candidate instead, in the same arithmetic order, so the two must agree bit
for bit.
"""

import numpy as np

from lpmc.instances import (observe, psd_instance, rectangular_instance,
                            skew_instance, subspace_instance)
from lpmc.objective import (make_spec, objective_grad, objective_value,
                            row_hinge_penalty)
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
    return make_spec(param, mask, observe(m_star, mask), lam, alpha), m_star


def subspace_objective_value(spec, theta):
    if spec.param.kind != "subspace":
        raise ValueError("spec is not a subspace instance")
    ta, tb = theta_blocks(spec.param, theta)
    bu, bv = spec.param.basis_u, spec.param.basis_v
    resid = (bu @ (ta @ tb.T) @ bv.T - spec.observed) * spec.mask.matrix
    b = ta.T @ ta - tb.T @ tb
    return (0.5 / spec.p_hat * float(np.vdot(resid, resid))
            + 0.125 * float(np.vdot(b, b))
            + spec.lam * (row_hinge_penalty(bu @ ta, spec.alpha)
                          + row_hinge_penalty(bv @ tb, spec.alpha)))


def skew_objective_value(spec, theta):
    if spec.param.kind != "skew":
        raise ValueError("spec is not a skew instance")
    ta, tb = theta_blocks(spec.param, theta)
    resid = (ta @ tb.T - tb @ ta.T - spec.observed) * spec.mask.matrix
    b = ta.T @ ta - tb.T @ tb
    c = ta.T @ tb + tb.T @ ta
    return (0.5 / spec.p_hat * float(np.vdot(resid, resid))
            + 0.25 * float(np.vdot(b, b)) + 0.25 * float(np.vdot(c, c))
            + 2.0 * spec.lam * row_hinge_penalty(np.hstack([tb, ta]), spec.alpha))


def psd_objective_value(spec, theta):
    if spec.param.kind != "psd":
        raise ValueError("spec is not a psd instance")
    (t,) = theta_blocks(spec.param, theta)
    resid = (t @ t.T - spec.observed) * spec.mask.matrix
    return (0.5 / spec.p_hat * float(np.vdot(resid, resid))
            + 2.0 * spec.lam * row_hinge_penalty(t, spec.alpha))


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
