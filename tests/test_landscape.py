"""Tests for the landscape diagnostics: profiles, curvature gaps, the gap
decomposition, and the sampling concentration checks."""

import dataclasses
import math
from itertools import islice

import numpy as np
import pytest

import lpmc.linalg as linalg
from lpmc.experiments import _diag_instances, _mask, default_config
from lpmc.instances import (assemble, psd_instance, rectangular_instance,
                            skew_instance, subspace_instance)
from lpmc.landscape import (FLOOR_C1, DeviationCheck, GapReport,
                            GroundTruthProfile,
                            concentration_report, curvature_gap_decomposition,
                            factor_curvature_gap, ground_truth_profile,
                            mask_count_check, mask_gap_norm,
                            noise_spectral_surrogate, param_curvature_gap,
                            sampled_deviation_check, tuning_conditions)
from lpmc.objective import objective_value
from lpmc.optimizer import INITS, SolveConfig, descend, initial_theta, solve
from lpmc.parameterization import balanced_witness, pack_blocks, x_of, y_of
from lpmc.sampling import (RngState, bernoulli_mask, gaussian_noise,
                           project_observed, symmetric_offdiag_mask)
from specialized_forms import (reference_row_hinge_penalty_grad,
                               reference_row_hinge_penalty_hvp)


def make_instance(kind, seed, p=0.8):
    rng = RngState(seed).derive("ls", kind)
    if kind == "subspace":
        param, m_star = subspace_instance(16, 14, 2, 5, 4, rng.derive("i"))
    elif kind == "rectangular":
        param, m_star = rectangular_instance(12, 10, 2, rng.derive("i"))
    elif kind == "psd":
        param, m_star = psd_instance(11, 2, rng.derive("i"))
    else:
        param, m_star = skew_instance(10, 4, rng.derive("i"))
    mask = bernoulli_mask(m_star.shape[0], m_star.shape[1], p, rng.derive("m"))
    return param, m_star, mask


# -------------------------------------------------------------- truth profile

def test_profile_flat_matrix():
    prof = ground_truth_profile(np.ones((8, 8)) / 8, 1)
    assert prof.sigma_top == pytest.approx(1.0, rel=1e-12)
    assert prof.cond == pytest.approx(1.0)
    assert prof.incoherence == pytest.approx(1.0, rel=1e-12)


def test_profile_spiky_matrix():
    m = np.zeros((4, 4))
    m[0, 1] = 1.0
    prof = ground_truth_profile(m, 1)
    assert prof.incoherence == pytest.approx(4.0, rel=1e-12)


def test_profile_matches_row_maxima():
    rng = RngState(40).derive("prof")
    param, _ = subspace_instance(20, 15, 3, 6, 5, rng)
    m_star = (param.basis_u[:, :3] * (3.0, 2.0, 1.0)) @ param.basis_v[:, :3].T
    prof = ground_truth_profile(m_star, 3)
    # the singular values 3, 2, 1 are distinct, so these columns are the
    # truth's singular vectors
    mu = 0.0
    for row in param.basis_u[:, :3]:
        mu = max(mu, 20 / 3 * float(row @ row))
    for row in param.basis_v[:, :3]:
        mu = max(mu, 15 / 3 * float(row @ row))
    assert prof.incoherence == pytest.approx(mu, rel=1e-12)
    assert prof.sigma_top == pytest.approx(3.0, rel=1e-10)
    assert prof.sigma_bottom == pytest.approx(1.0, rel=1e-10)
    assert prof.cond == pytest.approx(3.0, rel=1e-10)


def test_profile_bounds():
    gen = np.random.default_rng(41)
    for trial in range(10):
        m = gen.standard_normal((9, 3)) @ gen.standard_normal((3, 7))
        prof = ground_truth_profile(m, 3)
        assert 1.0 <= prof.incoherence <= 9 / 3 + 1e-12
        assert prof.cond >= 1.0


def test_profile_rank_error():
    m = np.outer(np.arange(1.0, 6.0), np.ones(5))
    with pytest.raises(ValueError, match="numerical rank below r=2: rank 1,"):
        ground_truth_profile(m, 2)
    # a sigma_2 below the rank floor is reported as the rank kept
    u = np.linalg.qr(np.random.default_rng(43).standard_normal((6, 2)))[0]
    with pytest.raises(ValueError, match="below r=2: rank 1, counting "
                                         "singular values above 1e-10 "):
        ground_truth_profile((u * (1.0, 1e-11)) @ u.T, 2)


# -------------------------------------------------------------- curvature gap

def test_factor_gap_zero_direction():
    param, m_star, mask = make_instance("rectangular", 42)
    spec = assemble(param, m_star, mask)
    gen = np.random.default_rng(0)
    theta = gen.standard_normal(param.d)
    x, y = x_of(param, theta), y_of(param, theta)
    assert factor_curvature_gap(x, y, np.zeros_like(x), np.zeros_like(y),
                                spec) == 0.0


def test_gap_nonnegative_at_clean_witness():
    # with no penalty and no noise the witness is a global minimum, so the
    # Hessian quadratic form there cannot be negative
    param, m_star, mask = make_instance("subspace", 43)
    spec = assemble(param, m_star, mask, lam=0.0, alpha=np.inf)
    cert = balanced_witness(param, np.zeros(param.d), m_star)
    xw, yw = x_of(param, cert.xi), y_of(param, cert.xi)
    gen = np.random.default_rng(1)
    for trial in range(20):
        dx = gen.standard_normal(xw.shape)
        dy = gen.standard_normal(yw.shape)
        gap = factor_curvature_gap(xw, yw, dx, dy, spec)
        assert gap >= -1e-8 * (1 + abs(gap))


def test_two_route_agreement():
    gen = np.random.default_rng(2)
    for kind in ("subspace", "rectangular", "psd", "skew"):
        param, m_star, mask = make_instance(kind, 44)
        spec = assemble(param, m_star, mask)
        for trial in range(25):
            theta = gen.standard_normal(param.d)
            delta = gen.standard_normal(param.d)
            kf = factor_curvature_gap(x_of(param, theta), y_of(param, theta),
                                      x_of(param, delta), y_of(param, delta),
                                      spec)
            kp = param_curvature_gap(spec, theta, delta)
            assert abs(kp - kf) <= 1e-8 * (1 + abs(kf)), kind


def test_param_gap_takes_sequences_bit_for_bit():
    gen = np.random.default_rng(12)
    for kind in ("subspace", "rectangular", "psd", "skew"):
        param, m_star, mask = make_instance(kind, 48)
        spec = assemble(param, m_star, mask)
        theta = gen.standard_normal((3, param.d))
        delta = gen.standard_normal((3, param.d))
        for t, d in ((theta[0], delta[0]), (theta, delta)):
            want = param_curvature_gap(spec, t, d)
            got = param_curvature_gap(spec, t.tolist(), d.tolist())
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_factor_gap_matches_value_stencil():
    # alpha = 0 keeps the penalty a pure quartic, so the 5-point stencil on
    # factor values is exact and serves as an independent route
    param, m_star, mask = make_instance("rectangular", 45)
    spec = assemble(param, m_star, mask, lam=0.4, alpha=0.0)
    gen = np.random.default_rng(3)
    for trial in range(10):
        x = gen.standard_normal((param.n1, param.r))
        y = gen.standard_normal((param.n2, param.r))
        dx = gen.standard_normal(x.shape)
        dy = gen.standard_normal(y.shape)

        def g(t):
            return objective_value(spec, pack_blocks(param, x + t * dx,
                                                     y + t * dy))

        h = 1e-2
        g0 = g(0.0)
        d2 = (-g(2 * h) + 16 * g(h) - 30 * g0 + 16 * g(-h) - g(-2 * h)) / (12 * h ** 2)
        d1 = (g(-2 * h) - 8 * g(-h) + 8 * g(h) - g(2 * h)) / (12 * h)
        want = d2 - 4 * d1
        got = factor_curvature_gap(x, y, dx, dy, spec)
        assert abs(got - want) <= 1e-8 * (1 + abs(want))


def test_param_route_near_hinge():
    # put a factor row right on the penalty hinge, where g is smooth but not
    # quartic; the 5-point stencil is accurate to O(step^4) there
    param, m_star, mask = make_instance("rectangular", 46)
    spec = assemble(param, m_star, mask, lam=1.0, alpha=1.0)
    gen = np.random.default_rng(4)
    theta = 0.3 * gen.standard_normal(param.d)
    theta[:param.r] = np.array([1.0] + [0.0] * (param.r - 1))  # row 0 of X
    delta = gen.standard_normal(param.d)
    kf = factor_curvature_gap(x_of(param, theta), y_of(param, theta),
                              x_of(param, delta), y_of(param, delta), spec)
    kp = param_curvature_gap(spec, theta, delta)
    assert abs(kp - kf) <= 1e-3 * (1 + abs(kf))


@pytest.mark.parametrize("place", [1.0, 1.0 + 1e-3, 1.0 - 1e-3])
@pytest.mark.parametrize("kind", ["subspace", "rectangular", "psd", "skew"])
def test_param_route_at_hinge_every_kind(kind, place):
    # alpha is the norm of row 0 of X times place, so the stencil segment
    # crosses the hinge on every draw
    param, m_star, mask = make_instance(kind, 46)
    gen = np.random.default_rng(7)
    for trial in range(25):
        theta = 0.3 * gen.standard_normal(param.d)
        delta = gen.standard_normal(param.d)
        x, y = x_of(param, theta), y_of(param, theta)
        alpha = place * float(np.linalg.norm(x[0]))
        spec = assemble(param, m_star, mask, lam=1.0, alpha=alpha)
        kf = factor_curvature_gap(x, y, x_of(param, delta),
                                  y_of(param, delta), spec)
        kp = param_curvature_gap(spec, theta, delta)
        assert abs(kp - kf) <= 1e-3 * (1 + abs(kf)), trial


def test_gap_at_converged_point():
    param, m_star, mask = make_instance("subspace", 47, p=1.0)
    spec = assemble(param, m_star, mask)
    result = solve(spec, SolveConfig(seed=5))
    theta = result.theta_hat
    x, y = x_of(param, theta), y_of(param, theta)
    gen = np.random.default_rng(6)
    for trial in range(10):
        dx = gen.standard_normal(x.shape)
        dy = gen.standard_normal(y.shape)
        gap = factor_curvature_gap(x, y, dx, dy, spec)
        assert gap >= -1e-4 * (1 + abs(gap))


# ----------------------------------------------------------- gap decomposition

def test_decomposition_vanishes_at_witness():
    param, m_star, mask = make_instance("subspace", 48)
    spec = assemble(param, m_star, mask)
    cert = balanced_witness(param, np.zeros(param.d), m_star)
    report = curvature_gap_decomposition(spec, cert.xi, cert.xi)
    assert abs(report.gap_theta) <= 1e-10
    assert abs(report.term_quartic) <= 1e-10
    assert abs(report.term_sampling) <= 1e-10
    assert report.term_noise == 0.0
    assert report.holds()


def test_decomposition_noise_term_zero_without_noise():
    param, m_star, mask = make_instance("subspace", 49)
    spec = assemble(param, m_star, mask)
    cert = balanced_witness(param, np.zeros(param.d), m_star)
    gen = np.random.default_rng(7)
    report = curvature_gap_decomposition(
        spec, cert.xi + 0.5 * gen.standard_normal(param.d), cert.xi)
    assert report.term_noise == 0.0


def test_decomposition_holds_on_noisy_instances():
    for s in range(8):
        rng = RngState(300 + s).derive("dec")
        param, m_star = subspace_instance(40, 40, 2, 6, 6, rng.derive("i"))
        mask = bernoulli_mask(40, 40, 0.5, rng.derive("m"))
        noise = gaussian_noise(40, 40, 0.01, rng.derive("n"))
        spec = assemble(param, m_star, mask, noise=noise)
        cert = balanced_witness(param, np.zeros(param.d), m_star)
        gen = rng.derive("t").generator()
        theta = cert.xi + 0.5 * gen.standard_normal(param.d)
        report = curvature_gap_decomposition(spec, theta, cert.xi, noise)
        assert report.holds()


def test_bound_judges_the_closed_form_route_at_a_hinged_point():
    # rows beyond alpha leave the stencil's gap_theta an O(step^4) error
    # above the bound's rounding slack, where the psd bound is tight; the
    # closed-form gap_factor meets the bound, and the stencil meets
    # gap_factor within its Richardson allowance
    param, m_star, mask = make_instance("psd", 90)
    spec = assemble(param, m_star, mask, lam=20.0, alpha=1.7)
    theta = np.random.default_rng(91).standard_normal(param.d)
    xi = balanced_witness(param, theta, m_star).xi
    report = curvature_gap_decomposition(spec, theta, xi)
    assert report.term_penalty != 0.0
    assert report.gap_theta > report.bound_total + 1e-8 * report.scale
    assert report.holds() and report.routes_agree()
    off = 2.0 * report.stencil_error + 2e-8 * report.scale
    for gap in (report.gap_factor + off, report.gap_factor - off):
        assert not dataclasses.replace(report, gap_theta=gap).routes_agree()
    assert not dataclasses.replace(
        report, gap_factor=report.bound_total + 2e-8 * report.scale).holds()


def test_quartic_term_matches_stacked_expansion():
    param, m_star, mask = make_instance("psd", 50)
    spec = assemble(param, m_star, mask)
    cert = balanced_witness(param, np.zeros(param.d), m_star)
    gen = np.random.default_rng(8)
    theta = cert.xi + gen.standard_normal(param.d)
    report = curvature_gap_decomposition(spec, theta, cert.xi)
    z = np.vstack([x_of(param, theta), y_of(param, theta)])
    w = np.vstack([x_of(param, cert.xi), y_of(param, cert.xi)])
    d = z - w
    direct = 0.25 * (np.linalg.norm(d.T @ d, "fro") ** 2
                     - 3 * np.linalg.norm(z @ z.T - w @ w.T, "fro") ** 2)
    assert report.term_quartic == pytest.approx(direct, rel=1e-10)


# Where descent goes: the diagnostics' four truths (master seed 0, n = 24)
# at p = 0.6, noise-free, at the standard tuning, solved from both starts
# with seeds 1 and 2, each seed with its own mask; the points are descend's
# iterates after these many steps (those a solve reaches). Fixed before the
# tests first ran.
ITERATES = (0, 1, 2, 5, 10, 20, 50, 100)


@pytest.fixture(scope="module", params=range(4),
                ids=["subspace", "rectangular", "psd", "skew"])
def desk_path(request):
    """(param, m_star, root, specs, thetas): one kind's truth and its
    witness root, and the points at ITERATES of its four desk solves, each
    with its solve's spec."""
    config = default_config("diagnostics", n1=24, n2=24, p_grid=(0.6,))
    param, m_star = _diag_instances(config, RngState(0))[request.param]
    specs, thetas = [], []
    for seed in (1, 2):
        mask = _mask(param, 0.6, RngState(seed).derive("iterates", "mask"))
        spec = assemble(param, m_star, mask)
        for init in INITS:
            start = initial_theta(spec, SolveConfig(seed=seed, init=init))
            points = islice(descend(spec, start), ITERATES[-1] + 1)
            for k, point in enumerate(points):
                if k in ITERATES:
                    specs.append(spec)
                    thetas.append(point.theta)
    return param, m_star, param.witness_root(m_star), specs, np.array(thetas)


def test_gap_bound_holds_at_descent_iterates(desk_path):
    param, m_star, root, specs, thetas = desk_path
    assert len(thetas) > 4 * 4      # some solve runs past iterate 5
    cert = balanced_witness(param, thetas, m_star, root)
    assert cert.passes.all()
    reports = curvature_gap_decomposition(specs, thetas, cert.xi)
    assert all(report.holds() for report in reports)


def assert_quartic_lemma(param, thetas, xis):
    """||Delta Delta^T||_F^2 <= 2 ||ZZ^T - WW^T||_F^2 at each point (Ge, Jin
    & Zheng 2017), Z = [X; Y] the factors at theta, W those of its witness
    and Delta = Z - W; the slack is rounding at the scale of W."""
    z = np.concatenate([x_of(param, thetas), y_of(param, thetas)], axis=1)
    w = np.concatenate([x_of(param, xis), y_of(param, xis)], axis=1)
    for zi, wi in zip(z, w):
        d = zi - wi
        lhs = np.linalg.norm(d @ d.T) ** 2
        rhs = np.linalg.norm(zi @ zi.T - wi @ wi.T) ** 2
        assert lhs <= 2.0 * rhs + 1e-12 * np.linalg.norm(wi.T @ wi) ** 2


def test_quartic_lemma_at_iterates_and_draws(desk_path):
    # the quartic term's lemma; a wrongly aligned witness can break it
    # while the four-term bound still holds
    param, m_star, root, _, thetas = desk_path
    draws = RngState(0).derive("lemma", param.kind).generator()
    for points in (thetas, draws.standard_normal((10, param.d))):
        xis = balanced_witness(param, points, m_star, root).xi
        assert_quartic_lemma(param, points, xis)


def gap_stack(seed, lam=None, alpha=None, sigma=0.05,
              scales=(1.0, 1.0, 1.0, 1.0)):
    """A stack of gap instances on one subspace truth: per item its own
    mask, noise (None when sigma is 0) and theta, scaled, with its
    witness."""
    rng = RngState(seed).derive("gap-stack")
    param, m_star = subspace_instance(20, 18, 2, 5, 4, rng.derive("i"))
    specs, thetas, noises = [], [], []
    for t, scale in enumerate(scales):
        cell = rng.derive("t", t)
        mask = bernoulli_mask(20, 18, 0.5, cell.derive("m"))
        noise = None
        if sigma:
            noise = gaussian_noise(20, 18, sigma, cell.derive("n"))
        specs.append(assemble(param, m_star, mask, noise, lam, alpha))
        thetas.append(scale * cell.derive("theta").generator()
                      .standard_normal(param.d))
        noises.append(noise)
    thetas = np.array(thetas)
    xis = balanced_witness(param, thetas, m_star).xi
    return specs, thetas, xis, np.array(noises) if sigma else None


@pytest.mark.parametrize("setting", [
    dict(),                                  # standard tuning, noisy
    dict(sigma=0.0),                         # noise-free
    # in window: the first item's Frobenius tests put every row within
    # alpha, the second takes the row passes and finds every row within
    # it, the last two have rows beyond it
    dict(lam=20.0, alpha=1.7, scales=(0.05, 1.0, 2.0, 3.0)),
])
def test_decomposition_stack_items_equal_single_calls(setting):
    specs, thetas, xis, noises = gap_stack(80, **setting)
    stacked = curvature_gap_decomposition(specs, thetas, xis, noises)
    assert len(stacked) == len(specs)
    for i, report in enumerate(stacked):
        alone = curvature_gap_decomposition(
            specs[i], thetas[i], xis[i], None if noises is None else noises[i])
        assert isinstance(report, GapReport)
        assert report == alone, i
        assert report.holds()
    # theta and xi may be sequences of floats
    assert curvature_gap_decomposition(
        specs[0], thetas[0].tolist(), xis[0].tolist(),
        None if noises is None else noises[0]) == stacked[0]
    if "lam" in setting:
        assert [r.term_penalty == 0.0 for r in stacked] == [True, True,
                                                            False, False]
    if setting.get("sigma") == 0.0:
        assert all(r.term_noise == 0.0 for r in stacked)


def reference_penalty_term(param, theta, xi, lam, alpha):
    """lam times the curvature gap of G at the factors of theta along
    theta - xi, from the reference row penalty, in the bound's order."""
    x, y = x_of(param, theta), y_of(param, theta)
    dx, dy = x - x_of(param, xi), y - y_of(param, xi)
    return lam * (
        float(np.vdot(reference_row_hinge_penalty_hvp(x, dx, alpha), dx))
        - 4.0 * float(np.vdot(reference_row_hinge_penalty_grad(x, alpha), dx))
        + float(np.vdot(reference_row_hinge_penalty_hvp(y, dy, alpha), dy))
        - 4.0 * float(np.vdot(reference_row_hinge_penalty_grad(y, alpha), dy)))


def penalty_stack(kind, scales=(1.0, 2.0, 3.0)):
    """A kind's truth and mask, and theta at each scale with its witness."""
    param, m_star, mask = make_instance(kind, 90)
    gen = np.random.default_rng(91)
    thetas = np.array([scale * gen.standard_normal(param.d)
                       for scale in scales])
    return param, m_star, mask, thetas, balanced_witness(param, thetas,
                                                         m_star).xi


@pytest.mark.parametrize("kind", ["subspace", "rectangular", "psd", "skew"])
@pytest.mark.parametrize("lam, alpha", [(20.0, 1.7), (1.0, 0.5)])
def test_penalty_term_matches_reference_bitwise(kind, lam, alpha):
    param, m_star, mask, thetas, xis = penalty_stack(kind)
    spec = assemble(param, m_star, mask, lam=lam, alpha=alpha)
    reports = curvature_gap_decomposition([spec] * len(thetas), thetas, xis)
    expect = [reference_penalty_term(param, theta, xi, lam, alpha)
              for theta, xi in zip(thetas, xis)]
    # hex, so a zero term must be +0.0 too
    assert [r.term_penalty.hex() for r in reports] == [e.hex() for e in expect]
    assert sum(e != 0.0 for e in expect) >= 2


@pytest.mark.parametrize("kind", ["subspace", "rectangular", "psd", "skew"])
def test_penalty_term_is_zero_without_a_row_beyond_alpha(kind):
    param, m_star, mask, thetas, xis = penalty_stack(kind, (0.05, 1.0, 3.0))
    # lam = 0 at rows beyond alpha
    spec = assemble(param, m_star, mask, lam=0.0, alpha=0.5)
    reports = curvature_gap_decomposition([spec] * 3, thetas, xis)
    assert [r.term_penalty.hex() for r in reports] == ["0x0.0p+0"] * 3
    # alpha above every row: by the Frobenius test at the smallest scale,
    # by the row pass at the others, whose Frobenius norms exceed alpha
    specs = []
    for i, theta in enumerate(thetas):
        x, y = x_of(param, theta), y_of(param, theta)
        top = max(np.linalg.norm(x, axis=1).max(),
                  np.linalg.norm(y, axis=1).max())
        alpha = max(1.01 * top, 1.7)
        frob = max(np.linalg.norm(x), np.linalg.norm(y))
        assert (frob > alpha) == (i > 0)
        specs.append(assemble(param, m_star, mask, lam=20.0, alpha=alpha))
    reports = curvature_gap_decomposition(specs, thetas, xis)
    assert [r.term_penalty.hex() for r in reports] == ["0x0.0p+0"] * 3


def test_decomposition_stack_checks_every_item():
    specs, thetas, xis, noises = gap_stack(81)
    bad = xis.copy()
    bad[2] = thetas[2]                       # not a witness
    with pytest.raises(ValueError, match="not balanced"):
        curvature_gap_decomposition(specs, thetas, bad, noises)
    # item 3's observations hold another draw's noise
    with pytest.raises(ValueError, match="masked ground truth"):
        curvature_gap_decomposition(specs, thetas, xis, noises[[0, 1, 2, 0]])
    with pytest.raises(ValueError, match="noise has shape"):
        curvature_gap_decomposition(specs, thetas, xis, noises[:, :-1])


def test_decomposition_rejects_non_witness():
    param, m_star, mask = make_instance("subspace", 51)
    spec = assemble(param, m_star, mask)
    gen = np.random.default_rng(9)
    with pytest.raises(ValueError):
        curvature_gap_decomposition(spec, np.zeros(param.d),
                                    gen.standard_normal(param.d))


def test_decomposition_rejects_mismatched_observations():
    param, m_star, mask = make_instance("subspace", 52)
    noise = gaussian_noise(16, 14, 0.05, RngState(52).derive("n"))
    spec = assemble(param, m_star, mask, noise=noise)
    cert = balanced_witness(param, np.zeros(param.d), m_star)
    with pytest.raises(ValueError):
        curvature_gap_decomposition(spec, cert.xi, cert.xi)  # noise omitted


# ------------------------------------------------------------ noise surrogate

def test_surrogate_zero_noise():
    param, m_star, mask = make_instance("rectangular", 53)
    sur = noise_spectral_surrogate(param, mask, np.zeros((12, 10)))
    assert sur.value == 0.0


def test_surrogate_full_bases_equal_masked_norm():
    param, m_star, mask = make_instance("rectangular", 54)
    noise = gaussian_noise(12, 10, 1.0, RngState(54).derive("n"))
    sur = noise_spectral_surrogate(param, mask, noise)
    pn = project_observed(noise, mask)
    want = np.linalg.svd(pn, compute_uv=False)[0]
    assert sur.value == pytest.approx(want, rel=1e-8)
    assert "P_Omega" in sur.formula


def test_surrogate_subspace_never_larger():
    param, m_star, mask = make_instance("subspace", 55)
    noise = gaussian_noise(16, 14, 1.0, RngState(55).derive("n"))
    sub = noise_spectral_surrogate(param, mask, noise)
    pn = project_observed(noise, mask)
    full = np.linalg.svd(pn, compute_uv=False)[0]
    assert sub.value <= full + 1e-10


def test_surrogate_subspace_projects_when_it_is_smaller():
    param, m_star, mask = make_instance("subspace", 55)
    noise = gaussian_noise(16, 14, 1.0, RngState(55).derive("n"))
    sub = noise_spectral_surrogate(param, mask, noise)
    pn = project_observed(noise, mask)
    projected = linalg.spectral_norm(param.basis_u.T @ pn @ param.basis_v)
    assert projected < linalg.spectral_norm(pn)
    assert sub.value == projected
    assert sub.formula == "||P_U P_Omega(N) P_V||"


# ------------------------------------------------------------------ tuning

def synthetic_profile(n=200, mu=1.5, kappa=1.0, r=2, sigma_top=4.0):
    return GroundTruthProfile(n, n, r, sigma_top, sigma_top / kappa, kappa, mu)


def test_tuning_windows_pass_when_inside():
    prof = synthetic_profile()
    lam_lo = math.sqrt(200 / 0.5)
    alpha_lo = math.sqrt(1.5 * 2 * 4.0 / 200)
    rep = tuning_conditions(prof, 0.5, 2 * lam_lo, 2 * alpha_lo)
    assert rep.lam_ok and rep.alpha_ok
    assert rep.p_ok    # floor is tiny for this profile


def test_tuning_lambda_zero_fails_window():
    rep = tuning_conditions(synthetic_profile(), 0.5, 0.0, 1.0)
    assert not rep.lam_ok


def test_tuning_binding_term_label():
    mild = tuning_conditions(synthetic_profile(kappa=1.0), 0.5, 1.0, 1.0)
    assert mild.p_binding == "incoherence-log"
    harsh = tuning_conditions(synthetic_profile(kappa=50.0), 0.5, 1.0, 1.0)
    assert harsh.p_binding == "condition-number"


def test_tuning_floor_matches_formula():
    prof = synthetic_profile(n=100, mu=2.0, kappa=3.0, r=2)
    rep = tuning_conditions(prof, 0.9, 1.0, 1.0)
    want = FLOOR_C1 * max(2.0 * 2 * math.log(100) / 100,
                     100 * 4.0 * 4 * 9.0 / 100 ** 2)
    assert rep.p_floor == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------- concentration

def test_mask_gap_zero_at_full_sampling():
    rng = RngState(60).derive("gap")
    full_rect = bernoulli_mask(15, 12, 1.0, rng.derive("a"))
    assert mask_gap_norm(full_rect) == 0.0
    full_sym = symmetric_offdiag_mask(14, 1.0, rng.derive("b"))
    assert mask_gap_norm(full_sym) == 0.0


def test_mask_gap_matches_svd():
    rng = RngState(61).derive("gap")
    mask = bernoulli_mask(30, 25, 0.3, rng)
    g = mask.matrix - 0.3
    want = np.linalg.svd(g, compute_uv=False)[0]
    assert mask_gap_norm(mask) == pytest.approx(want, rel=1e-8)


def test_deviation_check_full_mask():
    rng = RngState(62).derive("dev")
    mask = bernoulli_mask(10, 8, 1.0, rng)
    gen = np.random.default_rng(10)
    chk = sampled_deviation_check(mask, gen.standard_normal((10, 2)),
                                  gen.standard_normal((10, 2)),
                                  gen.standard_normal((8, 2)),
                                  gen.standard_normal((8, 2)))
    assert chk.gap_norm == 0.0
    assert chk.lhs <= 1e-10
    assert chk.holds()
    # a one-row A would broadcast against the indicator instead of failing
    with pytest.raises(ValueError, match="n1 rows"):
        sampled_deviation_check(mask, np.ones((1, 2)), np.ones((10, 2)),
                                np.ones((8, 2)), np.ones((8, 2)))


def test_deviation_check_random_masks():
    for s in range(20):
        rng = RngState(400 + s).derive("dev")
        mask = bernoulli_mask(100, 80, 0.3, rng.derive("m"))
        gen = rng.derive("f").generator()
        chk = sampled_deviation_check(mask, gen.standard_normal((100, 3)),
                                      gen.standard_normal((100, 3)),
                                      gen.standard_normal((80, 3)),
                                      gen.standard_normal((80, 3)))
        assert chk.holds()
        assert chk.factor_bound <= chk.sum_bound + 1e-12


@pytest.mark.parametrize("model", ["bernoulli-rect", "symmetric-offdiag"])
def test_deviation_lhs_matches_two_inner_product_form(model):
    # lhs is one inner product with the centered indicator; it must equal
    # the sampled inner product minus p times the mean over the support
    for k in range(100):
        p = (0.1, 0.3, 0.5, 0.7, 0.9)[k % 5]
        rng = RngState(700 + k).derive("dev", model)
        if model == "symmetric-offdiag":
            mask = symmetric_offdiag_mask(30, p, rng.derive("m"))
        else:
            mask = bernoulli_mask(30, 24, p, rng.derive("m"))
        gen = rng.derive("f").generator()
        a, b = (gen.standard_normal((mask.rows, 3)) for _ in range(2))
        c, d = (gen.standard_normal((mask.cols, 3)) for _ in range(2))
        ac, bd = a @ c.T, b @ d.T
        sampled = float(np.vdot(project_observed(ac, mask), bd))
        full = float(np.vdot(ac, bd))
        mean = full
        if model == "symmetric-offdiag":
            mean -= float(np.sum(np.diag(ac) * np.diag(bd)))
        chk = sampled_deviation_check(mask, a, b, c, d)
        assert abs(chk.lhs - abs(sampled - p * mean)) <= 1e-12 * (
            abs(sampled) + p * abs(full))


def test_deviation_check_symmetric_full():
    rng = RngState(63).derive("dev")
    mask = symmetric_offdiag_mask(12, 1.0, rng)
    gen = np.random.default_rng(11)
    chk = sampled_deviation_check(mask, gen.standard_normal((12, 2)),
                                  gen.standard_normal((12, 2)),
                                  gen.standard_normal((12, 2)),
                                  gen.standard_normal((12, 2)))
    # diagonal never sampled, so full sampling is exactly the model mean
    assert chk.gap_norm == 0.0
    assert chk.holds()


def test_deviation_holds_is_two_sided():
    bad = DeviationCheck(lhs=2.0, factor_bound=1.0, sum_bound=3.0, gap_norm=1.0)
    assert not bad.holds()
    bad = DeviationCheck(lhs=0.5, factor_bound=4.0, sum_bound=3.0, gap_norm=1.0)
    assert not bad.holds()


def test_mask_count_check():
    rng = RngState(64).derive("count")
    full = bernoulli_mask(9, 7, 1.0, rng.derive("a"))
    chk = mask_count_check(full)
    assert chk.count == 63 and chk.expected == 63.0 and chk.within
    for s in range(5):
        mask = bernoulli_mask(50, 40, 0.3, RngState(500 + s).derive("c"))
        assert mask_count_check(mask).within
    sym = symmetric_offdiag_mask(30, 0.4, rng.derive("s"))
    chk = mask_count_check(sym)
    assert chk.expected == pytest.approx(0.4 * 30 * 29)
    assert chk.within


def reference_concentration(mask, rng):
    """concentration_report tuple by tuple and draw by draw: the checks,
    the energy ratios and the gap norm."""
    tuples, r = 10, 3
    p = mask.nominal_p
    g = mask.matrix.astype(np.float64) - p
    if mask.model == "symmetric-offdiag":
        np.fill_diagonal(g, 0.0)
    gap = float(np.linalg.norm(g, 2))
    gen = rng.generator()
    checks = []
    for _ in range(tuples):
        a = gen.standard_normal((mask.rows, r))
        b = gen.standard_normal((mask.rows, r))
        c = gen.standard_normal((mask.cols, r))
        d = gen.standard_normal((mask.cols, r))
        rows_ab = float(np.sum(np.einsum("ij,ij->i", a, a)
                               * np.einsum("ij,ij->i", b, b)))
        rows_cd = float(np.sum(np.einsum("ij,ij->i", c, c)
                               * np.einsum("ij,ij->i", d, d)))
        checks.append(DeviationCheck(
            lhs=abs(float(np.vdot(g * (a @ c.T), b @ d.T))),
            factor_bound=gap * math.sqrt(rows_ab) * math.sqrt(rows_cd),
            sum_bound=0.5 * gap * (rows_ab + rows_cd), gap_norm=gap))
    ratios = []
    if p > 0.0:
        uf = np.linalg.qr(gen.standard_normal((mask.rows, r)))[0]
        vf = np.linalg.qr(gen.standard_normal((mask.cols, r)))[0]
        for _ in range(tuples):
            m = (uf @ gen.standard_normal((r, mask.cols))
                 + gen.standard_normal((mask.rows, r)) @ vf.T)
            pm = project_observed(m, mask)
            ratios.append(float(np.vdot(pm, pm))
                          / (p * float(np.vdot(m, m))))
    return tuple(checks), tuple(ratios), gap


CONCENTRATION_MASKS = {
    "square": lambda rng: bernoulli_mask(20, 20, 0.5, rng),
    "rectangular": lambda rng: bernoulli_mask(17, 29, 0.3, rng),
    "symmetric": lambda rng: symmetric_offdiag_mask(21, 0.4, rng),
    "empty": lambda rng: bernoulli_mask(9, 12, 0.0, rng),
}


@pytest.mark.parametrize("grouped", [False, True])
@pytest.mark.parametrize("name", list(CONCENTRATION_MASKS))
def test_concentration_report_equals_tuple_by_tuple(name, grouped,
                                                    monkeypatch):
    for seed in range(6):
        rng = RngState(900 + seed).derive("conc", name)
        mask = CONCENTRATION_MASKS[name](rng.derive("m"))
        if grouped:
            # groups of 3 tuples: 3, 3, 3, 1
            monkeypatch.setattr(linalg, "_STACK_ENTRIES",
                                3 * mask.rows * mask.cols)
            assert len(linalg._groups(10, mask.rows * mask.cols)) == 4
        rep = concentration_report(mask, rng.derive("r"))
        checks, ratios, gap = reference_concentration(mask, rng.derive("r"))
        assert rep.checks == checks
        assert rep.energy_ratios == ratios
        assert len(ratios) == (0 if name == "empty" else 10)
        assert rep.gap_norm == gap


def test_concentration_report_fields():
    rng = RngState(65).derive("conc")
    mask = bernoulli_mask(60, 50, 0.4, rng.derive("m"))
    rep = concentration_report(mask, rng.derive("r"))
    assert rep.all_hold
    assert len(rep.checks) == len(rep.energy_ratios) == 10
    assert rep.energy_max_deviation >= 0.0
    assert rep.gap_ratio == pytest.approx(
        rep.gap_norm / math.sqrt(60 * 0.4), rel=1e-12)
    assert rep.count.within


def test_concentration_report_empty_mask():
    rng = RngState(66).derive("conc")
    mask = bernoulli_mask(10, 10, 0.0, rng.derive("m"))
    rep = concentration_report(mask, rng.derive("r"))
    assert rep.energy_ratios == ()
    assert rep.energy_max_deviation == 0.0
    assert rep.gap_ratio == 0.0
