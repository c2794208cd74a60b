"""Gradient descent with halving line search.

Each iteration takes the step max(2^-k, MIN_STEP) where k is the smallest
t >= 0 with f(theta - 2^-t grad) <= f(theta). With MIN_STEP = 1e-10 the
distinct candidates are t = 0..33 (2^-34 < 1e-10); if none of them gives
non-increase the clamp step MIN_STEP is taken unconditionally, which may
increase the objective. A solve stops once ||grad||^2 <= GRAD_TOL_SQ.

Each point is evaluated once: the line search hands back the Evaluation of
the candidate it accepts, and the next gradient reuses its residual and
balance matrix, so the arithmetic (and every output) is that of a fresh
gradient at each iterate. On the dense kernel every candidate's residual is
written into one buffer per solve. solve counts its value and gradient
evaluations.
"""

import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .objective import objective_grad, objective_value
from .parameterization import factors
from .sampling import RngState

GRAD_TOL_SQ = 1e-10
MIN_STEP = 1e-10


@dataclass(frozen=True)
class SolveConfig:
    seed: object = 0          # RngState or plain int
    max_iters: int = 500
    init_scale: float = 1.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("bad solver configuration")


@dataclass(frozen=True)
class SolveResult:
    theta_hat: np.ndarray
    m_hat: np.ndarray
    objective_trace: np.ndarray
    grad_norm_sq_final: float
    iterations: int
    termination: str          # "grad-tol" or "iter-cap"
    clamped_steps: int
    value_evals: int          # objective values, the start's and candidates'
    grad_evals: int           # gradients, iterations + 1
    wall_time: float


def halving_line_search(spec, theta, grad, value=None, out=None):
    """Pick the step for one descent iteration.

    Returns (step, new_theta, evaluation, clamped, candidates): evaluation
    is objective_value's Evaluation at new_theta (its .value the new
    objective), candidates the number of points evaluated. value is
    f(theta) and is recomputed when not supplied. out, when given, is the
    n1 x n2 buffer that every candidate's dense residual is written into.
    """
    if value is None:
        value = objective_value(spec, theta)
    t = 0
    step = 1.0
    while step > MIN_STEP:
        cand = theta - step * grad
        ev = objective_value(spec, cand, keep=True, out=out)
        if ev.value <= value:
            return step, cand, ev, False, t + 1
        del ev                # a rejected record is not kept alive
        t += 1
        step = 2.0 ** -t
    cand = theta - MIN_STEP * grad
    return (MIN_STEP, cand, objective_value(spec, cand, keep=True, out=out),
            True, t + 1)


def solve(spec, config):
    """Run gradient descent on the theta-level objective.

    Stops when ||grad||^2 <= GRAD_TOL_SQ or after max_iters gradient steps.
    Raises NumericError (trace attached) if the objective turns non-finite.
    """
    if isinstance(config.seed, RngState):
        rng = config.seed
    else:
        rng = RngState(int(config.seed))
    gen = rng.generator()
    theta = config.init_scale * gen.standard_normal(spec.param.d)

    started = time.perf_counter()
    ev = objective_value(spec, theta, keep=True)
    value = ev.value
    if not np.isfinite(value):
        raise NumericError("non-finite objective at the initial point",
                           best_estimate=[value])
    trace = [value]
    clamped = 0
    value_evals, grad_evals = 1, 0
    termination = "iter-cap"
    iterations = 0
    for _ in range(config.max_iters):
        grad = objective_grad(spec, theta, ev)
        # the line search writes its candidates' dense residuals into this
        # point's buffer, so a solve allocates one
        buf = ev.resid if isinstance(ev.resid, np.ndarray) else None
        ev = None
        grad_evals += 1
        grad_sq = float(grad @ grad)
        if grad_sq <= GRAD_TOL_SQ:
            termination = "grad-tol"
            break
        step, theta, ev, was_clamped, candidates = halving_line_search(
            spec, theta, grad, value, buf)
        value = ev.value
        if not np.isfinite(value):
            raise NumericError("objective became non-finite",
                               best_estimate=trace + [value])
        clamped += was_clamped
        value_evals += candidates
        iterations += 1
        trace.append(value)
    if termination == "iter-cap":
        grad = objective_grad(spec, theta, ev)
        grad_evals += 1
        grad_sq = float(grad @ grad)
        if grad_sq <= GRAD_TOL_SQ:
            termination = "grad-tol"

    x, y = factors(spec.param, theta)
    m_hat = x @ y.T
    return SolveResult(
        theta_hat=theta, m_hat=m_hat,
        objective_trace=np.asarray(trace),
        grad_norm_sq_final=grad_sq, iterations=iterations,
        termination=termination, clamped_steps=clamped,
        value_evals=value_evals, grad_evals=grad_evals,
        wall_time=time.perf_counter() - started)
