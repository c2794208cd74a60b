"""Tests for the landscape diagnostics: profiles, curvature gaps, the gap
decomposition, and the sampling concentration checks."""

import math

import numpy as np
import pytest

from lpmc.instances import (assemble, psd_instance, rectangular_instance,
                            skew_instance, subspace_instance)
from lpmc.landscape import (FLOOR_C1, DeviationCheck, GroundTruthProfile,
                            concentration_report, curvature_gap_decomposition,
                            factor_curvature_gap, ground_truth_profile,
                            mask_count_check, mask_gap_norm,
                            noise_spectral_surrogate, param_curvature_gap,
                            sampled_deviation_check, tuning_conditions)
from lpmc.objective import objective_value
from lpmc.optimizer import SolveConfig, solve
from lpmc.parameterization import balanced_witness, pack_blocks, x_of, y_of
from lpmc.sampling import (RngState, bernoulli_mask, gaussian_noise,
                           project_observed, symmetric_offdiag_mask)


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
