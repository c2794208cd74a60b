"""Tests for the halving line search and the end-to-end solver."""

import dataclasses
import itertools

import numpy as np
import pytest

import lpmc.objective as objective
import lpmc.optimizer as optimizer
from lpmc.errors import NumericError
from lpmc.instances import (assemble, rectangular_instance, skew_instance,
                            subspace_instance)
from lpmc.objective import make_spec, objective_grad, objective_value
from lpmc.optimizer import (GRAD_TOL_SQ, INITS, MIN_STEP, SolveConfig,
                            halving_line_search, initial_theta, solve)
from lpmc.parameterization import (KINDS, balanced_witness, factors,
                                   theta_blocks)
from lpmc.sampling import (ObservationMask, RngState, bernoulli_mask,
                           symmetric_offdiag_mask)
from specialized_forms import DENSE, SPARSE, noiseless_spec, reference_solve


def small_problem(seed, kind="rectangular", lam=0.1, alpha=2.0):
    rng = RngState(seed).derive("opt")
    if kind == "rectangular":
        param, m_star = rectangular_instance(12, 10, 2, rng.derive("i"))
    else:
        param, m_star = skew_instance(12, 2, rng.derive("i"))
    mask = bernoulli_mask(*m_star.shape, 0.8, rng.derive("m"))
    return assemble(param, m_star, mask, lam=lam, alpha=alpha), m_star


# ---------------------------------------------------------------- line search

# (kind, first candidate, candidates when the clamp is taken) for a kind of
# each gram: the first candidate moves the factors one gradient unit, and
# with MIN_STEP = 1e-10 the clamp step is the candidate after 2^-33
# (t = 0..33 for gram 1, t = 0..32 for gram 2)
SEARCH_KINDS = (("rectangular", 1.0, 35), ("skew", 0.5, 34))


def test_line_search_picks_first_nonincreasing_halving():
    for kind, first, clamp_at in SEARCH_KINDS:
        spec, _ = small_problem(0, kind)
        gen = np.random.default_rng(0)
        for trial in range(25):
            theta = gen.standard_normal(spec.param.d)
            value = objective_value(spec, theta)
            grad = objective_grad(spec, theta)
            step, cand, ev, candidates, _ = halving_line_search(
                spec, theta, grad, value)
            if step == MIN_STEP:
                assert candidates == clamp_at
                continue
            assert ev.value <= value
            assert np.allclose(cand, theta - step * grad)
            assert step == first * 2.0 ** (1 - candidates)
            if step < first:
                # the next larger candidate must have been rejected
                assert objective_value(spec, theta - 2 * step * grad) > value


def test_line_search_zero_gradient_takes_full_step():
    for kind, first, _ in SEARCH_KINDS:
        spec, _ = small_problem(1, kind)
        theta = np.zeros(spec.param.d)
        value = objective_value(spec, theta)
        step, cand, ev, candidates, _ = halving_line_search(
            spec, theta, np.zeros(spec.param.d), value)
        assert step == first and candidates == 1
        assert np.array_equal(cand, theta)
        assert ev.value == value


def test_line_search_clamps_at_global_minimum():
    # at an exact global minimum every move along a fake direction increases
    # f, so the search exhausts its halvings and takes the floor step
    for kind, _, clamp_at in SEARCH_KINDS:
        spec, m_star = small_problem(2, kind, lam=0.0, alpha=np.inf)
        cert = balanced_witness(spec.param, np.zeros(spec.param.d), m_star)
        fake = np.ones(spec.param.d)
        value = objective_value(spec, cert.xi)
        step, cand, ev, candidates, _ = halving_line_search(
            spec, cert.xi, fake, value)
        assert step == MIN_STEP == 1e-10
        assert candidates == clamp_at
        assert ev.value >= value


def _same_evaluation(spec, ev, theta):
    # every field the record keeps: the factors, or in block coordinates
    # the blocks, their Gram products and any factor a hinge formed
    fresh = objective_value(spec, theta, keep=True)
    assert ev.value == fresh.value
    x, y = factors(spec.param, theta)
    if ev.core is None:
        assert np.array_equal(ev.x, x) and np.array_equal(ev.y, y)
    else:
        blocks = theta_blocks(spec.param, theta)
        assert all(map(np.array_equal, ev.core[:2], blocks))
        assert all(map(np.array_equal, ev.core, fresh.core))
        for kept, formed, full in ((ev.x, fresh.x, x), (ev.y, fresh.y, y)):
            assert (kept is None) == (formed is None)
            assert kept is None or np.array_equal(kept, full)
    assert np.array_equal(ev.balance, fresh.balance)
    if isinstance(ev.resid, tuple):     # (resid, xr, yc), entry kernel
        assert all(map(np.array_equal, ev.resid, fresh.resid))
    else:
        assert np.array_equal(ev.resid, fresh.resid)
    assert np.array_equal(objective_grad(spec, theta, ev),
                          objective_grad(spec, theta))


def test_line_search_returns_evaluation_at_candidate():
    # the record the search hands back must be the one a fresh evaluation
    # at the accepted point builds, on both kernels (and in the subspace
    # kind's block coordinates) and both branches, also when the dense
    # residuals go into a caller's buffer
    gen = np.random.default_rng(11)
    for kind, density in itertools.product(("rectangular", "skew",
                                            "subspace"), (DENSE, SPARSE)):
        spec, m_star = noiseless_spec(kind, 41, lam=0.0, alpha=np.inf,
                                      **density)
        dense = spec.p_hat >= objective._ENTRY_KERNEL_BELOW
        theta = gen.standard_normal(spec.param.d)
        grad = objective_grad(spec, theta)
        xi = balanced_witness(spec.param, theta, m_star).xi
        value = objective_value(spec, theta)
        at_xi = objective_value(spec, xi)
        for out in (None, np.empty(spec.observed.shape)):
            step, cand, ev, _, _ = halving_line_search(
                spec, theta, grad, value, out)
            assert step > MIN_STEP
            _same_evaluation(spec, ev, cand)
            step, cand, ev, _, _ = halving_line_search(
                spec, xi, np.ones(spec.param.d), at_xi, out)
            assert step == MIN_STEP and np.array_equal(cand, xi - MIN_STEP)
            _same_evaluation(spec, ev, cand)
            assert (ev.resid is out) == (dense and out is not None)


def full_evaluation_search(spec, theta, grad, value, out=None):
    """halving_line_search with every candidate fully evaluated: the
    reference the search must match."""
    gram = spec.param.gram
    t = 0
    step = 1.0 / gram
    hinged = 0
    while True:
        cand = theta - step * grad
        ev = objective_value(spec, cand, keep=True, out=out)
        hinged += ev.hinged
        if ev.value <= value or step == MIN_STEP:
            return step, cand, ev, t + 1, hinged
        del ev
        t += 1
        step = max(2.0 ** -t / gram, MIN_STEP)


def test_line_search_matches_full_evaluations(monkeypatch):
    # stopping a candidate at its fit term takes the steps full evaluations
    # take, on both kernels, along descent and ascent directions, with the
    # row penalty idle and active; hinged counts the fully evaluated
    # candidates with a row beyond alpha. An all-rejected search still hands
    # back the clamp's full Evaluation, and the sparse subspace search
    # (block coordinates) does stop candidates at the fit term
    returned = []

    def recording(*args, **kwargs):
        returned.append(value_fn(*args, **kwargs))
        return returned[-1]

    value_fn = optimizer.objective_value
    monkeypatch.setattr(optimizer, "objective_value", recording)
    gen = np.random.default_rng(17)
    stopped = {}
    for kind, density in itertools.product(KINDS, (DENSE, SPARSE)):
        case = (kind, density is SPARSE)
        stopped[case] = clamps = 0
        for tuning in ({}, dict(lam=0.5, alpha=0.5)):
            spec, m_star = noiseless_spec(kind, 19, **density, **tuning)
            hinged_searches = 0
            for _ in range(25):
                theta = gen.standard_normal(spec.param.d)
                value = objective_value(spec, theta)
                grad = objective_grad(spec, theta)
                for direction in (grad, -grad):
                    returned.clear()
                    step, cand, ev, candidates, hinged = (
                        halving_line_search(spec, theta, direction, value))
                    ref = full_evaluation_search(spec, theta, direction,
                                                 value)
                    assert (step, cand.tobytes(), ev.value, candidates) == (
                        ref[0], ref[1].tobytes(), ref[2].value, ref[3]), case
                    assert len(returned) == candidates
                    assert hinged == sum(e.hinged for e in returned
                                         if e is not None) <= ref[4]
                    stopped[case] += returned.count(None)
                    clamps += step == MIN_STEP
                    hinged_searches += hinged > 0
            assert (hinged_searches > 0) == bool(tuning), case
        assert clamps > 0, case
        # every candidate rejected: the clamp comes fully evaluated
        clamp_at = 35 if spec.param.gram == 1 else 34
        exact = dataclasses.replace(spec, lam=0.0, alpha=np.inf)
        xi = balanced_witness(spec.param, theta, m_star).xi
        at_xi = objective_value(exact, xi)
        step, cand, ev, candidates, _ = halving_line_search(
            exact, xi, np.ones(spec.param.d), at_xi)
        assert (step, candidates) == (MIN_STEP, clamp_at)
        assert isinstance(ev, objective.Evaluation) and ev.value > at_xi
        _same_evaluation(exact, ev, cand)
    assert stopped["subspace", True] > 0, stopped


# --------------------------------------------------------------------- solver

def test_solve_zero_start_on_zero_data_stops_immediately():
    # the spectral start of all-zero data is theta = 0, where the gradient
    # vanishes
    spec, _ = small_problem(3)
    spec = make_spec(spec.param, spec.mask, np.zeros(spec.observed.shape),
                     spec.lam, spec.alpha)
    assert not initial_theta(spec, SolveConfig(seed=0)).any()
    result = solve(spec, SolveConfig(seed=0))
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
@pytest.mark.parametrize("kind", KINDS)
def test_solve_matches_fresh_evaluation_reference(kind, density):
    # reusing the accepted candidate's evaluation (its residual and row
    # hinges) for the next gradient changes no arithmetic, so every output
    # is bitwise the reference's, also where the row penalty binds
    for tuning in ({}, dict(lam=0.5, alpha=0.5)):
        spec, _ = noiseless_spec(kind, 43, **density, **tuning)
        for seed, max_iters in ((1, 400), (2, 3)):
            config = SolveConfig(seed=seed, max_iters=max_iters,
                                 init="random")
            result = solve(spec, config)
            trace, theta, iterations, termination, clamped = (
                reference_solve(spec, config))
            assert result.objective_trace.tobytes() == trace.tobytes()
            assert result.theta_hat.tobytes() == theta.tobytes()
            assert (result.iterations, result.termination,
                    result.clamped_steps) == (iterations, termination,
                                              clamped)
            if tuning:
                assert result.hinge_evals > 0


@pytest.mark.parametrize("density", [DENSE, SPARSE],
                         ids=["dense", "entry"])
def test_dense_estimate_is_written_into_the_residual_buffer(density,
                                                            monkeypatch):
    # the estimate is X Y^T byte for byte; on the dense kernel it takes the
    # buffer the solve's residuals were written into, so a solve allocates
    # one n1 x n2 array for both (a candidate rejected at its fit term
    # returns no Evaluation)
    residuals = []

    def recording(*args, **kwargs):
        ev = value(*args, **kwargs)
        if ev is not None:
            residuals.append(ev.resid)
        return ev

    value = optimizer.objective_value
    monkeypatch.setattr(optimizer, "objective_value", recording)
    spec, _ = noiseless_spec("rectangular", 47, **density)
    for max_iters in (3, 500):
        residuals.clear()
        result = solve(spec, SolveConfig(seed=1, max_iters=max_iters))
        x, y = factors(spec.param, result.theta_hat)
        assert result.m_hat.tobytes() == (x @ y.T).tobytes()
        assert any(r is result.m_hat for r in residuals) == (
            density is DENSE)


def test_solve_counts_hinged_evaluations():
    # at the standard alpha = 100 a sparse subspace solve never reaches the
    # row penalty, as on the benchmark's phase sweep; at a small alpha it
    # does, and at lam = 0 the penalty is off. The small-alpha solves start
    # from the random draw: its rows lie beyond alpha = 0.5, while those of
    # the truth and of the spectral start do not
    spec, _ = noiseless_spec("subspace", 47, **SPARSE)
    assert spec.alpha == 100.0 and spec.lam > 0.0
    result = solve(spec, SolveConfig(seed=1))
    assert result.iterations > 0 and result.hinge_evals == 0
    for lam, hinged in ((spec.lam, True), (0.0, False)):
        small = dataclasses.replace(spec, lam=lam, alpha=0.5)
        result = solve(small, SolveConfig(seed=1, init="random"))
        assert (result.hinge_evals > 0) == hinged
        assert result.hinge_evals <= result.value_evals
    # from the default (spectral) start the penalty binds once alpha lies
    # below the start's longest factor row
    start = initial_theta(spec, SolveConfig(seed=1))
    longest = max(np.linalg.norm(f, axis=1).max()
                  for f in factors(spec.param, start))
    for lam, hinged in ((spec.lam, True), (0.0, False)):
        small = dataclasses.replace(spec, lam=lam, alpha=0.5 * longest)
        result = solve(small, SolveConfig(seed=1))
        assert (result.hinge_evals > 0) == hinged
        assert result.hinge_evals <= result.value_evals


def test_solve_counts_its_evaluations(monkeypatch):
    calls = {"value": 0, "grad": 0, "hinged": 0}
    per_search, hinged_per_search = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            # a candidate rejected at its fit term (None) builds no hinge
            if name == "value" and out is not None:
                calls["hinged"] += out.hinged
            return out
        return wrapper

    def line_search(*args):
        before = calls["value"], calls["hinged"]
        out = search(*args)
        per_search.append(calls["value"] - before[0])
        hinged_per_search.append(calls["hinged"] - before[1])
        # the search's own count of its hinged candidates
        assert out[4] == hinged_per_search[-1]
        return out

    search = optimizer.halving_line_search
    monkeypatch.setattr(optimizer, "objective_value",
                        counted("value", optimizer.objective_value))
    monkeypatch.setattr(optimizer, "objective_grad",
                        counted("grad", optimizer.objective_grad))
    monkeypatch.setattr(optimizer, "halving_line_search", line_search)
    # at alpha = 2 only the start has a row beyond alpha; at alpha = 1 the
    # line searches' candidates have them too
    for alpha, searched in ((2.0, False), (1.0, True)):
        spec, _ = small_problem(12, alpha=alpha)
        for max_iters in (5, 500):
            calls.update(value=0, grad=0, hinged=0)
            per_search.clear()
            hinged_per_search.clear()
            result = solve(spec, SolveConfig(seed=4, max_iters=max_iters))
            assert len(per_search) == result.iterations
            assert result.value_evals == 1 + sum(per_search) == calls["value"]
            assert result.iterations + 1 == calls["grad"]
            assert result.hinge_evals == calls["hinged"] > 0
            assert (sum(hinged_per_search) > 0) == searched
        assert result.termination == "grad-tol"


def test_solve_iter_cap_termination():
    spec, _ = small_problem(9)
    result = solve(spec, SolveConfig(seed=3, max_iters=2))
    assert result.termination == "iter-cap"
    assert result.iterations == 2


@pytest.mark.parametrize("density", [DENSE, SPARSE],
                         ids=["dense", "entry"])
def test_cap_at_the_converging_step_reports_grad_tol(density):
    # the gradient after the last step the cap allows decides the
    # termination: a cap of exactly k steps still converges, k - 1 does not
    spec, _ = noiseless_spec("subspace", 53, **density)
    free = solve(spec, SolveConfig(seed=1, max_iters=5000))
    k = free.iterations
    assert free.termination == "grad-tol" and k > 1
    at = solve(spec, SolveConfig(seed=1, max_iters=k))
    assert (at.termination, at.iterations) == ("grad-tol", k)
    assert at.grad_norm_sq_final == free.grad_norm_sq_final <= GRAD_TOL_SQ
    assert at.objective_trace.tobytes() == free.objective_trace.tobytes()
    below = solve(spec, SolveConfig(seed=1, max_iters=k - 1))
    assert (below.termination, below.iterations) == ("iter-cap", k - 1)
    assert below.grad_norm_sq_final > GRAD_TOL_SQ


@pytest.mark.parametrize("density", [DENSE, SPARSE],
                         ids=["dense", "entry"])
@pytest.mark.parametrize("kind, tuning", [
    ("subspace", {}), ("rectangular", dict(lam=0.5, alpha=0.5))],
    ids=["subspace", "rectangular-hinged"])
def test_descend_yields_the_start_then_each_iterate_of_solve(kind, tuning,
                                                              density):
    # solve keeps only the last of descend's first max_iters + 1 points, and
    # its counts are their sums; descend without a buffer gives the same
    # bits. The points end at the first gradient within tolerance (the
    # hinged rectangular solve on the entry kernel reaches the cap)
    spec, _ = noiseless_spec(kind, 53, **density, **tuning)
    config = SolveConfig(seed=1, max_iters=400, init="random")
    result = solve(spec, config)
    start = initial_theta(spec, config)
    points = list(itertools.islice(optimizer.descend(spec, start),
                                   config.max_iters + 1))
    assert len(points) == result.iterations + 1
    assert points[0].theta.tobytes() == start.tobytes()
    assert (points[0].step, points[0].candidates) == (0.0, 1)
    assert all(p.step > 0.0 for p in points[1:])
    assert (np.array([p.value for p in points]).tobytes()
            == result.objective_trace.tobytes())
    assert points[-1].theta.tobytes() == result.theta_hat.tobytes()
    assert points[-1].grad_sq == result.grad_norm_sq_final
    assert ((points[-1].grad_sq <= GRAD_TOL_SQ)
            == (result.termination == "grad-tol"))
    assert all(p.grad_sq > GRAD_TOL_SQ for p in points[:-1])
    assert sum(p.candidates for p in points) == result.value_evals
    assert sum(p.hinged for p in points) == result.hinge_evals
    assert (sum(p.step == MIN_STEP for p in points)
            == result.clamped_steps)
    if tuning:
        assert result.hinge_evals > 0


def test_descend_raises_with_the_trace_on_a_nonfinite_iterate(monkeypatch):
    # the third iterate's value is made infinite: the error carries the
    # values before it and that one
    def search(*args):
        step, theta, ev, candidates, hinged = line_search(*args)
        calls.append(ev.value)
        if len(calls) == 3:
            ev = ev._replace(value=np.inf)
        return step, theta, ev, candidates, hinged

    calls = []
    line_search = optimizer.halving_line_search
    monkeypatch.setattr(optimizer, "halving_line_search", search)
    spec, _ = small_problem(14)
    points = optimizer.descend(spec, initial_theta(spec, SolveConfig()))
    values = [next(points).value for _ in range(3)]
    with pytest.raises(NumericError, match="became non-finite") as exc:
        next(points)
    assert exc.value.best_estimate == values + [np.inf]
    assert values[1:] == calls[:2]


def test_config_validation():
    for max_iters in (0, -3):
        with pytest.raises(ValueError, match="max_iters must be positive"):
            SolveConfig(max_iters=max_iters)


def test_solve_raises_on_nonfinite_start():
    # data near 1e200 put the squared residual of either start past the
    # largest double
    spec, _ = small_problem(10)
    spec = make_spec(spec.param, spec.mask, 1e200 * spec.observed,
                     spec.lam, spec.alpha)
    for init in INITS:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="initial point"):
                solve(spec, SolveConfig(seed=4, init=init))


def test_init_validation():
    with pytest.raises(ValueError, match="init must be one of"):
        SolveConfig(init="scaled")


# ---------------------------------------------------------------- the start

def test_random_start_is_the_standard_normal_draw():
    spec, _ = small_problem(13)
    theta = initial_theta(spec, SolveConfig(seed=5, init="random"))
    draw = RngState(5).generator().standard_normal(spec.param.d)
    assert theta.tobytes() == draw.tobytes()


def full_spec(kind):
    """A rank-r truth observed in full, skew truths by unordered pairs."""
    spec, m_star = noiseless_spec(kind, 61, p=1.0, scale=3)
    if kind == "skew":
        mask = symmetric_offdiag_mask(spec.param.n1, 1.0, RngState(61))
        spec = make_spec(spec.param, mask, m_star)
    return spec


@pytest.mark.parametrize("kind", KINDS)
def test_spectral_start_reproduces_fully_observed_data(kind):
    # the data have rank r, below the range finder's r + 10 columns (and
    # the blocks' rows), so the start is their exact balanced factorization
    spec = full_spec(kind)
    n = spec.param.n1
    assert spec.p_hat == ((n - 1) / n if kind == "skew" else 1.0)
    target = spec.observed / spec.p_hat
    x, y = factors(spec.param, initial_theta(spec, SolveConfig(seed=2)))
    assert (np.linalg.norm(x @ y.T - target)
            <= 1e-10 * np.linalg.norm(target))
    gram = x.T @ x
    assert np.linalg.norm(gram - y.T @ y) <= 1e-12 * np.linalg.norm(gram)


@pytest.mark.parametrize("kind", KINDS)
def test_spectral_start_fills_columns_the_data_leave_empty(kind):
    # one observed entry (a mirrored pair for skew): data of rank 1 against
    # r = 2 (one Youla block against two for the rank-4 skew truth), so a
    # column pair of the truncation is zero, a stationary point
    spec, m_star = noiseless_spec(kind, 67, scale=3)
    i, j = 4, 7
    ind = np.zeros(spec.observed.shape, dtype=bool)
    ind[i, j] = True
    model = "bernoulli-rect"
    if kind == "skew":
        ind[j, i] = True
        model = "symmetric-offdiag"
    spec = make_spec(spec.param, ObservationMask(ind, model, 0.01), m_star)
    assert spec.observed[i, j] != 0.0
    config = SolveConfig(seed=3, max_iters=5)
    theta = initial_theta(spec, config)
    for block in theta_blocks(spec.param, theta) + factors(spec.param,
                                                           theta):
        assert np.abs(block).sum(axis=0).all()
    assert solve(spec, config).iterations > 0
