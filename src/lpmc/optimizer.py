"""Gradient descent with halving line search.

A solve starts (init) from the spectral estimate of its data by default:
the kind's spectral_start, balanced factors of the rank-r truncation of
P(M) / p_hat (Keshavan, Montanari & Oh 2010; Ma, Wang, Chi & Chen 2018).
Both modes first draw the random start, N(0, 1) parameter entries from the
solve's seed stream; "random" starts there, and "spectral" draws its range
finder's test matrix from the same stream after it and keeps the random
columns only where the data leave a factor column empty.

Each iteration takes the step max(2^-k / c, MIN_STEP) where c is the
kind's gram (adjoint(factors(theta)) = c theta, so a theta step t moves the
factors by c t) and k is the smallest t >= 0 with
f(theta - 2^-t / c grad) <= f(theta). The first candidate is thus the step
that moves the factors one unit of the gradient: 1 for the rectangular and
subspace kinds, 1/2 for psd and skew. With MIN_STEP = 1e-10 the distinct
candidates are t = 0..33 for c = 1 and t = 0..32 for c = 2 (2^-34 < 1e-10);
if none of them gives non-increase the clamp step MIN_STEP is taken
unconditionally, which may increase the objective.

descend(spec, theta) yields the start and then each iterate, and ends after
the first point with ||grad||^2 <= GRAD_TOL_SQ ("grad-tol"); solve takes at
most max_iters steps of it ("iter-cap", unless that last gradient also
meets the tolerance), so a solve of k steps takes k + 1 gradients. Each
point is evaluated once: the line search hands back the Evaluation of the
candidate it accepts, whose residual, balance matrix and row hinges the
gradient there reads, so every output is that of fresh evaluations. On the
dense kernel every residual, and at the end solve's estimate m_hat, is
written into one buffer per solve. A candidate whose fit term alone
exceeds f(theta) is rejected there, unevaluated beyond it; the other terms
of f are nonnegative, so the search decides as full evaluations would.
solve counts its value evaluations, those candidates included, and the
fully evaluated values at which the row penalty was active.
"""

import time
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .errors import NumericError
from .objective import objective_grad, objective_value
from .parameterization import factors
from .sampling import RngState

GRAD_TOL_SQ = 1e-10
MIN_STEP = 1e-10
INITS = ("spectral", "random")


@dataclass(frozen=True)
class SolveConfig:
    seed: object = 0          # RngState or plain int
    max_iters: int = 500
    init: str = "spectral"    # one of INITS

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got "
                             f"{self.max_iters}")
        if self.init not in INITS:
            raise ValueError(f"init must be one of {INITS}, got "
                             f"{self.init!r}")


@dataclass(frozen=True)
class SolveResult:
    theta_hat: np.ndarray
    m_hat: np.ndarray
    objective_trace: np.ndarray
    grad_norm_sq_final: float
    iterations: int           # steps; a solve takes iterations + 1 gradients
    termination: str          # "grad-tol" or "iter-cap"
    clamped_steps: int
    value_evals: int          # objective values, the start's and candidates'
    # fully evaluated values with lam > 0 and a row beyond alpha; a
    # candidate rejected at its fit term builds no hinge
    hinge_evals: int
    wall_time: float


def halving_line_search(spec, theta, grad, value, out=None):
    """Pick the step for one descent iteration from theta, where f = value:
    the first of 2^-t / spec.param.gram, t = 0, 1, ..., at which f does not
    increase (see the module docstring).

    Each candidate but the unconditional clamp step is evaluated with
    above=value, so one whose fit term alone exceeds value stops there,
    before its Gram products, balance matrix and row hinges are built.

    Returns (step, new_theta, evaluation, candidates, hinged): evaluation is
    objective_value's Evaluation at new_theta (its .value the new objective),
    candidates the number of points evaluated (a candidate rejected at its
    fit term counts) and hinged the number of fully evaluated ones at which
    the row penalty was active. The search clamped exactly when step ==
    MIN_STEP, since every halving it accepts is at least 2^-33. out, when
    given, is the n1 x n2 buffer that every candidate's dense residual is
    written into.
    """
    gram = spec.param.gram
    t = 0
    step = 1.0 / gram
    hinged = 0
    while True:
        cand = theta - step * grad
        clamp = step == MIN_STEP
        ev = objective_value(spec, cand, keep=True, out=out,
                             above=None if clamp else value)
        if ev is not None:
            hinged += ev.hinged
            if ev.value <= value or clamp:
                return step, cand, ev, t + 1, hinged
        del ev                # a rejected record is not kept alive
        t += 1
        step = max(2.0 ** -t / gram, MIN_STEP)


def initial_theta(spec, config):
    """The point a solve of spec under config starts from (see the module
    docstring)."""
    if isinstance(config.seed, RngState):
        rng = config.seed
    else:
        rng = RngState(int(config.seed))
    gen = rng.generator()
    theta = gen.standard_normal(spec.param.d)
    if config.init == "spectral":
        theta = spec.param.spectral_start(spec.observed, spec.p_hat, theta,
                                          gen)
    return theta


class Point(NamedTuple):
    """A point of descend: the start, or the iterate after one step."""
    theta: np.ndarray
    value: float
    grad_sq: float            # ||grad||^2 at theta
    step: float               # the accepted step; 0.0 at the start
    candidates: int           # values evaluated to reach theta, 1 at the start
    hinged: int               # of them, fully evaluated ones with a hinge


def descend(spec, theta, out=None):
    """Gradient descent from theta as an iterator of Points: the start,
    then each iterate (see the module docstring). out, when given, is the
    n1 x n2 buffer that every dense residual is written into. Raises
    NumericError (trace attached) if f or ||grad||^2 at the start, or f at
    an iterate, is not finite."""
    ev = objective_value(spec, theta, keep=True, out=out)
    value = ev.value
    grad = objective_grad(spec, theta, ev)
    grad_sq = float(grad @ grad)
    if not (np.isfinite(value) and np.isfinite(grad_sq)):
        raise NumericError("non-finite objective or gradient at the initial "
                           "point", best_estimate=[value])
    trace = [value]
    step, candidates, hinged = 0.0, 1, int(ev.hinged)
    ev = None
    while True:
        yield Point(theta, value, grad_sq, step, candidates, hinged)
        if grad_sq <= GRAD_TOL_SQ:
            return
        step, theta, ev, candidates, hinged = (
            halving_line_search(spec, theta, grad, value, out))
        value = ev.value
        if not np.isfinite(value):
            raise NumericError("objective became non-finite",
                               best_estimate=trace + [value])
        trace.append(value)
        grad = objective_grad(spec, theta, ev)
        ev = None
        grad_sq = float(grad @ grad)


def solve(spec, config):
    """descend from initial_theta(spec, config), for at most max_iters
    steps. The start is built and evaluated without numpy's warnings, as
    data far beyond unit scale overflow there; descend raises instead."""
    started = time.perf_counter()
    with np.errstate(over="ignore", invalid="ignore"):
        theta = initial_theta(spec, config)
        # the dense kernel's residuals and the estimate share one buffer
        buf = None if spec.entry_kernel else np.empty(spec.observed.shape)
        points = descend(spec, theta, buf)
        point = next(points)
    trace, clamped = [point.value], 0
    value_evals, hinge_evals = point.candidates, point.hinged
    for point in islice(points, config.max_iters):
        theta = point.theta
        trace.append(point.value)
        clamped += point.step == MIN_STEP
        value_evals += point.candidates
        hinge_evals += point.hinged
    x, y = factors(spec.param, theta)
    m_hat = np.matmul(x, y.T, out=buf)
    return SolveResult(
        theta_hat=theta, m_hat=m_hat,
        objective_trace=np.asarray(trace),
        grad_norm_sq_final=point.grad_sq, iterations=len(trace) - 1,
        termination="grad-tol" if point.grad_sq <= GRAD_TOL_SQ else "iter-cap",
        clamped_steps=clamped,
        value_evals=value_evals, hinge_evals=hinge_evals,
        wall_time=time.perf_counter() - started)
