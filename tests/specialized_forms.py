"""Closed forms of the objective for three kinds, written directly in the
parameter blocks instead of through the factor map, with dense mask
arithmetic. Each must agree with objective_value to rounding; the tests use
them as oracles for both objective kernels."""

import numpy as np

from lpmc.objective import row_hinge_penalty
from lpmc.parameterization import theta_blocks


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
