"""Tests for the halving line search and the end-to-end solver."""

import numpy as np
import pytest

import lpmc.objective as objective
import lpmc.optimizer as optimizer
from lpmc.errors import NumericError
from lpmc.instances import (assemble, rectangular_instance, subspace_instance)
from lpmc.objective import objective_grad, objective_value
from lpmc.optimizer import (MIN_STEP, SolveConfig, halving_line_search,
                            solve)
from lpmc.parameterization import balanced_witness, factors
from lpmc.sampling import RngState, bernoulli_mask
from specialized_forms import DENSE, SPARSE, noiseless_spec, reference_solve


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
        step, cand, ev, clamped, candidates = halving_line_search(
            spec, theta, grad, value)
        if clamped:
            assert step == 1e-10
            continue
        assert ev.value <= value
        assert np.allclose(cand, theta - step * grad)
        assert step == 2.0 ** (1 - candidates)
        if step < 1.0:
            # the next larger candidate must have been rejected
            assert objective_value(spec, theta - 2 * step * grad) > value


def test_line_search_zero_gradient_takes_full_step():
    spec, _ = small_problem(1)
    theta = np.zeros(spec.param.d)
    value = objective_value(spec, theta)
    step, cand, ev, clamped, candidates = halving_line_search(
        spec, theta, np.zeros(spec.param.d), value)
    assert step == 1.0 and not clamped and candidates == 1
    assert np.array_equal(cand, theta)
    assert ev.value == value


def test_line_search_clamps_at_global_minimum():
    # at an exact global minimum every move along a fake direction increases
    # f, so the search exhausts its halvings and takes the floor step
    spec, m_star = small_problem(2, lam=0.0, alpha=np.inf)
    cert = balanced_witness(spec.param, np.zeros(spec.param.d), m_star)
    fake = np.ones(spec.param.d)
    step, cand, ev, clamped, candidates = halving_line_search(
        spec, cert.xi, fake)
    assert clamped
    assert step == 1e-10
    assert candidates == 35     # t = 0..33, then the clamp step
    assert ev.value >= objective_value(spec, cert.xi)


def _same_evaluation(spec, ev, theta):
    fresh = objective_value(spec, theta, keep=True)
    assert ev.value == fresh.value
    x, y = factors(spec.param, theta)
    assert np.array_equal(ev.x, x) and np.array_equal(ev.y, y)
    assert np.array_equal(ev.balance, fresh.balance)
    if isinstance(ev.resid, tuple):     # (resid, xr, yc), entry kernel
        assert all(map(np.array_equal, ev.resid, fresh.resid))
    else:
        assert np.array_equal(ev.resid, fresh.resid)
    assert np.array_equal(objective_grad(spec, theta, ev),
                          objective_grad(spec, theta))


def test_line_search_returns_evaluation_at_candidate():
    # the record the search hands back must be the one a fresh evaluation
    # at the accepted point builds, on both kernels and both branches, also
    # when the dense residuals go into a caller's buffer
    gen = np.random.default_rng(11)
    for density in (DENSE, SPARSE):
        spec, m_star = noiseless_spec("rectangular", 41, lam=0.0,
                                      alpha=np.inf, **density)
        dense = spec.p_hat >= objective._ENTRY_KERNEL_BELOW
        theta = gen.standard_normal(spec.param.d)
        grad = objective_grad(spec, theta)
        xi = balanced_witness(spec.param, theta, m_star).xi
        for out in (None, np.empty(spec.observed.shape)):
            _, cand, ev, clamped, _ = halving_line_search(spec, theta, grad,
                                                          out=out)
            assert not clamped
            _same_evaluation(spec, ev, cand)
            _, cand, ev, clamped, _ = halving_line_search(
                spec, xi, np.ones(spec.param.d), out=out)
            assert clamped and np.array_equal(cand, xi - MIN_STEP)
            _same_evaluation(spec, ev, cand)
            assert (ev.resid is out) == (dense and out is not None)


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


@pytest.mark.parametrize("density", [DENSE, SPARSE],
                         ids=["dense", "entry"])
@pytest.mark.parametrize("kind", ["skew", "rectangular"])
def test_solve_matches_fresh_evaluation_reference(kind, density):
    # reusing the accepted candidate's evaluation for the next gradient
    # changes no arithmetic, so every output is bitwise the reference's
    spec, _ = noiseless_spec(kind, 43, **density)
    for seed, max_iters in ((1, 400), (2, 3)):
        config = SolveConfig(seed=seed, max_iters=max_iters)
        result = solve(spec, config)
        trace, theta, iterations, termination, clamped = reference_solve(
            spec, config)
        assert result.objective_trace.tobytes() == trace.tobytes()
        assert result.theta_hat.tobytes() == theta.tobytes()
        assert (result.iterations, result.termination,
                result.clamped_steps) == (iterations, termination, clamped)


def test_solve_counts_its_evaluations(monkeypatch):
    spec, _ = small_problem(12)
    calls = {"value": 0, "grad": 0}
    per_search = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def line_search(*args):
        before = calls["value"]
        out = search(*args)
        per_search.append(calls["value"] - before)
        return out

    search = optimizer.halving_line_search
    monkeypatch.setattr(optimizer, "objective_value",
                        counted("value", optimizer.objective_value))
    monkeypatch.setattr(optimizer, "objective_grad",
                        counted("grad", optimizer.objective_grad))
    monkeypatch.setattr(optimizer, "halving_line_search", line_search)
    for max_iters in (5, 500):
        calls.update(value=0, grad=0)
        per_search.clear()
        result = solve(spec, SolveConfig(seed=4, max_iters=max_iters))
        assert len(per_search) == result.iterations
        assert result.value_evals == 1 + sum(per_search) == calls["value"]
        assert result.grad_evals == result.iterations + 1 == calls["grad"]
    assert result.termination == "grad-tol"


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
