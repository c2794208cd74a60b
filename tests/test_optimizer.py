"""Tests for the halving line search and the end-to-end solver."""

import numpy as np
import pytest

from lpmc.errors import NumericError
from lpmc.instances import (assemble, rectangular_instance, subspace_instance)
from lpmc.objective import objective_grad, objective_value
from lpmc.optimizer import (SolveConfig, halving_line_search, solve)
from lpmc.parameterization import balanced_witness
from lpmc.sampling import RngState, bernoulli_mask


def small_problem(seed, n1=12, n2=10, r=2, p=0.8, lam=0.1, alpha=2.0):
    rng = RngState(seed).derive("opt")
    param, m_star = rectangular_instance(n1, n2, r, rng.derive("i"))
    mask = bernoulli_mask(n1, n2, p, rng.derive("m"))
    return assemble(param, m_star, mask, lam=lam, alpha=alpha), m_star


# ---------------------------------------------------------------- line search

def test_line_search_picks_first_nonincreasing_halving():
    spec, _ = small_problem(0)
    gen = np.random.default_rng(0)
    for trial in range(25):
        theta = gen.standard_normal(spec.param.d)
        value = objective_value(spec, theta)
        grad = objective_grad(spec, theta)
        step, cand, f_cand, clamped = halving_line_search(spec, theta, grad, value)
        if clamped:
            assert step == 1e-10
            continue
        assert f_cand <= value
        assert np.allclose(cand, theta - step * grad)
        if step < 1.0:
            # the next larger candidate must have been rejected
            assert objective_value(spec, theta - 2 * step * grad) > value


def test_line_search_zero_gradient_takes_full_step():
    spec, _ = small_problem(1)
    theta = np.zeros(spec.param.d)
    value = objective_value(spec, theta)
    step, cand, f_cand, clamped = halving_line_search(
        spec, theta, np.zeros(spec.param.d), value)
    assert step == 1.0 and not clamped
    assert np.array_equal(cand, theta)
    assert f_cand == value


def test_line_search_clamps_at_global_minimum():
    # at an exact global minimum every move along a fake direction increases
    # f, so the search exhausts its halvings and takes the floor step
    spec, m_star = small_problem(2, lam=0.0, alpha=np.inf)
    cert = balanced_witness(spec.param, np.zeros(spec.param.d), m_star)
    fake = np.ones(spec.param.d)
    step, cand, f_cand, clamped = halving_line_search(spec, cert.xi, fake)
    assert clamped
    assert step == 1e-10
    assert f_cand >= objective_value(spec, cert.xi)


# --------------------------------------------------------------------- solver

def test_solve_init_scale_zero_stops_immediately():
    spec, _ = small_problem(3)
    result = solve(spec, SolveConfig(seed=0, init_scale=0.0))
    assert result.iterations == 0
    assert result.termination == "grad-tol"
    assert result.grad_norm_sq_final == 0.0
    assert not result.m_hat.any()


def test_solve_trace_monotone_without_clamps():
    spec, _ = small_problem(4)
    result = solve(spec, SolveConfig(seed=1, max_iters=60))
    if result.clamped_steps == 0:
        diffs = np.diff(result.objective_trace)
        assert (diffs <= 0).all()
    assert result.objective_trace.shape == (result.iterations + 1,)


def test_solve_is_deterministic():
    spec, _ = small_problem(5)
    a = solve(spec, SolveConfig(seed=7, max_iters=40))
    b = solve(spec, SolveConfig(seed=7, max_iters=40))
    assert np.array_equal(a.theta_hat, b.theta_hat)
    assert np.array_equal(a.objective_trace, b.objective_trace)
    assert a.iterations == b.iterations


def test_solve_accepts_rng_state_seed():
    spec, _ = small_problem(6)
    a = solve(spec, SolveConfig(seed=RngState(3).derive("s")))
    b = solve(spec, SolveConfig(seed=RngState(3).derive("s")))
    assert np.array_equal(a.theta_hat, b.theta_hat)


def test_solve_recovers_fully_observed_rectangular():
    rng = RngState(8).derive("full")
    param, m_star = rectangular_instance(20, 20, 2, rng.derive("i"))
    mask = bernoulli_mask(20, 20, 1.0, rng.derive("m"))
    spec = assemble(param, m_star, mask, lam=0.0, alpha=np.inf)
    result = solve(spec, SolveConfig(seed=2))
    rel = np.linalg.norm(result.m_hat - m_star) / np.linalg.norm(m_star)
    assert rel <= 1e-3
    assert result.termination == "grad-tol"


def test_solve_recovers_subspace_instances():
    hits = 0
    for s in range(10):
        rng = RngState(100 + s).derive("sub")
        param, m_star = subspace_instance(60, 60, 2, 6, 6, rng.derive("i"))
        mask = bernoulli_mask(60, 60, 0.5, rng.derive("m"))
        spec = assemble(param, m_star, mask)
        result = solve(spec, SolveConfig(seed=rng.derive("t")))
        rel = np.linalg.norm(result.m_hat - m_star) / np.linalg.norm(m_star)
        hits += rel <= 1e-3
    assert hits >= 8


def test_solve_iter_cap_termination():
    spec, _ = small_problem(9)
    result = solve(spec, SolveConfig(seed=3, max_iters=2))
    assert result.termination == "iter-cap"
    assert result.iterations == 2


def test_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)


def test_solve_raises_on_nonfinite_start():
    spec, _ = small_problem(10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            solve(spec, SolveConfig(seed=4, init_scale=1e200))
