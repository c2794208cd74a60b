"""Acceptance suite: one test per release criterion, each printing a single
pass/fail line (run with `pytest tests/test_acceptance.py -v -s` to see them
as they complete). Criteria carry their stated tolerances and, where given,
runtime budgets measured over the whole criterion body.
"""

import time

import numpy as np

from lpmc.experiments import (default_config, render_csv, run_diagnostics,
                              run_experiment)
from lpmc.instances import (assemble, psd_instance, rectangular_instance,
                            skew_instance, subspace_instance)
from lpmc.landscape import (curvature_gap_decomposition, factor_curvature_gap,
                            ground_truth_profile, mask_gap_norm,
                            param_curvature_gap, sampled_deviation_check)
from lpmc.linalg import two_inf_norm
from lpmc.objective import objective_grad, objective_value
from lpmc.optimizer import SolveConfig, solve
from lpmc.parameterization import balanced_witness, factors, x_of, y_of
from lpmc.sampling import (RngState, bernoulli_mask, gaussian_noise,
                           symmetric_offdiag_mask)
from specialized_forms import (psd_objective_value, skew_objective_value,
                               subspace_objective_value)

KINDS = ("subspace", "rectangular", "psd", "skew")


def _instance(kind, rng, large=False):
    if kind == "subspace":
        return (subspace_instance(40, 36, 2, 8, 7, rng) if large
                else subspace_instance(20, 16, 2, 5, 4, rng))
    if kind == "rectangular":
        return (rectangular_instance(30, 24, 3, rng) if large
                else rectangular_instance(15, 12, 2, rng))
    if kind == "psd":
        return psd_instance(20 if large else 14, 2, rng)
    return skew_instance(24 if large else 12, 4, rng)


def _masked_spec(kind, param, m_star, rng, p=0.7, lam=None, alpha=None,
                 noise=None):
    if kind == "skew":
        mask = symmetric_offdiag_mask(param.n1, p, rng)
    else:
        mask = bernoulli_mask(param.n1, param.n2, p, rng)
    return assemble(param, m_star, mask, noise, lam, alpha)


def _report(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def _fd_gradient(spec, theta):
    h = 1e-5 * (1 + np.linalg.norm(theta))
    out = np.empty_like(theta)
    probe = theta.copy()
    for i in range(theta.size):
        probe[i] = theta[i] + h
        up = objective_value(spec, probe)
        probe[i] = theta[i] - h
        down = objective_value(spec, probe)
        probe[i] = theta[i]
        out[i] = (up - down) / (2 * h)
    return out


def test_criterion_01_gradient_matches_finite_differences():
    started = time.perf_counter()
    master = RngState(1001)
    worst = 0.0
    for k in range(200):
        kind = KINDS[k % 4]
        rng = master.derive("c1", k)
        param, m_star = _instance(kind, rng.derive("i"))
        lam, alpha = ((0.5, 0.8) if k % 2 else (None, None))
        spec = _masked_spec(kind, param, m_star, rng.derive("m"),
                            lam=lam, alpha=alpha)
        theta = rng.derive("t").generator().standard_normal(param.d)
        grad = objective_grad(spec, theta)
        rel = (np.linalg.norm(_fd_gradient(spec, theta) - grad)
               / np.linalg.norm(grad))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-6 and elapsed <= 30.0
    line = _report(1, ok, f"200 draws, worst rel err {worst:.2e}, "
                          f"{elapsed:.1f}s")
    assert ok, line


def test_criterion_02_witness_certificates():
    master = RngState(1002)
    worst_fit = worst_bal = worst_sig = 0.0
    fails = 0
    for kind in KINDS:
        for k in range(50):
            rng = master.derive("c2", kind, k)
            param, m_star = _instance(kind, rng.derive("i"), large=True)
            theta = rng.derive("t").generator().standard_normal(param.d)
            cert = balanced_witness(param, theta, m_star)
            fails += not cert.passes
            worst_fit = max(worst_fit, cert.residual_fit)
            worst_bal = max(worst_bal, cert.residual_balance)
            # the witness lemma: sigma_i(X(xi)) = sqrt(sigma_i(M*)), and
            # squared row norms within mu r sigma_1 / n
            xw, yw = factors(param, cert.xi)
            want = np.sqrt(np.linalg.svd(m_star, compute_uv=False)[:param.r])
            sing = np.linalg.svd(xw, compute_uv=False)
            worst_sig = max(worst_sig, float(np.max(np.abs(sing - want))))
            prof = ground_truth_profile(m_star, param.r)
            bound = prof.incoherence * param.r * prof.sigma_top
            fails += two_inf_norm(xw) ** 2 > bound / param.n1 + 1e-10
            fails += two_inf_norm(yw) ** 2 > bound / param.n2 + 1e-10
    ok = fails == 0 and worst_sig <= 1e-8
    line = _report(2, ok, f"200 witnesses, {fails} failures, worst fit "
                          f"{worst_fit:.2e}, sigma gap {worst_sig:.2e}")
    assert ok, line


def test_criterion_03_two_route_curvature_identity():
    master = RngState(1003)
    worst = 0.0
    for kind in KINDS:
        for k in range(100):
            rng = master.derive("c3", kind, k)
            if k % 25 == 0:
                param, m_star = _instance(kind, rng.derive("i"))
                spec = _masked_spec(kind, param, m_star, rng.derive("m"))
            gen = rng.derive("t").generator()
            theta = gen.standard_normal(param.d)
            delta = gen.standard_normal(param.d)
            kf = factor_curvature_gap(x_of(param, theta), y_of(param, theta),
                                      x_of(param, delta), y_of(param, delta),
                                      spec)
            kp = param_curvature_gap(spec, theta, delta)
            worst = max(worst, abs(kp - kf) / (1 + abs(kf)))
    ok = worst <= 1e-8
    line = _report(3, ok, f"400 draws, worst residual {worst:.2e}")
    assert ok, line


def test_criterion_04_gap_decomposition_bound():
    master = RngState(1004)
    fails = 0
    min_margin = np.inf
    noise_zero_ok = True
    for k in range(50):
        rng = master.derive("c4", k)
        param, m_star = subspace_instance(40, 40, 2, 6, 6, rng.derive("i"))
        mask = bernoulli_mask(40, 40, 0.5, rng.derive("m"))
        noise = gaussian_noise(40, 40, 0.02, rng.derive("n"))
        spec = assemble(param, m_star, mask, noise)
        theta = rng.derive("t").generator().standard_normal(param.d)
        cert = balanced_witness(param, theta, m_star)
        rep = curvature_gap_decomposition(spec, theta, cert.xi, noise)
        fails += not rep.holds()
        min_margin = min(min_margin, (rep.bound_total - rep.gap_theta)
                         / rep.scale)
        if k < 5:
            clean = assemble(param, m_star, mask)
            rep0 = curvature_gap_decomposition(clean, theta, cert.xi)
            noise_zero_ok &= rep0.term_noise == 0.0
    ok = fails == 0 and noise_zero_ok
    line = _report(4, ok, f"50 noisy instances, {fails} violations, min "
                          f"margin {min_margin:.2e}, clean noise term exact "
                          f"zero: {noise_zero_ok}")
    assert ok, line


def test_criterion_05_specialized_objectives_agree():
    master = RngState(1005)
    forms = {"subspace": subspace_objective_value,
             "skew": skew_objective_value,
             "psd": psd_objective_value}
    worst = 0.0
    for kind, form in forms.items():
        rng = master.derive("c5", kind)
        param, m_star = _instance(kind, rng.derive("i"))
        spec = _masked_spec(kind, param, m_star, rng.derive("m"),
                            lam=0.4, alpha=0.9)
        gen = rng.derive("t").generator()
        for _ in range(100):
            theta = gen.standard_normal(param.d)
            a = objective_value(spec, theta)
            worst = max(worst, abs(form(spec, theta) - a) / a)
    ok = worst <= 1e-12
    line = _report(5, ok, f"300 draws, worst rel gap {worst:.2e}")
    assert ok, line


def test_criterion_06_exact_recovery_full_observation():
    started = time.perf_counter()
    master = RngState(1006)
    hits = {}
    for kind in KINDS:
        hits[kind] = 0
        for s in range(10):
            rng = master.derive("c6", kind, s)
            if kind == "subspace":
                param, m_star = subspace_instance(20, 20, 2, 6, 6,
                                                  rng.derive("i"))
            elif kind == "rectangular":
                param, m_star = rectangular_instance(20, 20, 2,
                                                     rng.derive("i"))
            elif kind == "psd":
                param, m_star = psd_instance(20, 2, rng.derive("i"))
            else:
                param, m_star = skew_instance(20, 2, rng.derive("i"))
            spec = _masked_spec(kind, param, m_star, rng.derive("m"), p=1.0)
            # the paper's claim is recovery from arbitrary starts; the
            # spectral start of full data is the answer itself
            result = solve(spec, SolveConfig(seed=rng.derive("t"),
                                             init="random"))
            rel = (np.linalg.norm(result.m_hat - m_star)
                   / np.linalg.norm(m_star))
            hits[kind] += rel <= 1e-3
    elapsed = time.perf_counter() - started
    ok = all(h >= 9 for h in hits.values()) and elapsed <= 20.0
    line = _report(6, ok, "hits " + " ".join(f"{k}:{v}/10"
                                             for k, v in hits.items())
                          + f", {elapsed:.1f}s")
    assert ok, line


def test_criterion_07_phase_behavior():
    # With known subspaces the truth is U C V^T for an s x s core C of rank
    # r, which has r(2s - r) degrees of freedom; fewer observed entries than
    # that cannot identify it (counting bound, Candes & Recht 2009). The low
    # point expects at most half that many, so failure there is the method's
    # promise, not a solver weakness; the high point sits far above.
    n1 = n2 = 60
    r, s = 2, 6
    p_low, p_high = 0.0025, 0.5
    dof = r * (2 * s - r)
    expected = {p: n1 * n2 * p for p in (p_low, p_high)}
    assert expected[p_low] <= dof / 2, (
        f"low point p={p_low} expects {expected[p_low]:.1f} observations, "
        f"more than half the counting bound r(2s - r) = {dof}")
    started = time.perf_counter()
    cfg = default_config("subspace-phase", n1=n1, n2=n2, r=r, sweep=(s,),
                         p_grid=(p_low, p_high), sigma=0.0, trials=10,
                         master_seed=1007)
    _, summaries = run_experiment(cfg)
    rates = {c.p: c.success_rate for c in summaries}
    elapsed = time.perf_counter() - started
    ok = rates[p_high] >= 0.8 and rates[p_low] <= 0.2 and elapsed <= 60.0
    line = _report(7, ok, f"success 10 seeds: {rates[p_high]:.2f} at "
                          f"p={p_high} (need >= 0.8; expected obs "
                          f"{expected[p_high]:.0f} vs r(2s-r) {dof}), "
                          f"{rates[p_low]:.2f} at p={p_low} (need <= 0.2; "
                          f"expected obs {expected[p_low]:.0f} vs r(2s-r) "
                          f"{dof}), {elapsed:.1f}s")
    assert ok, line


def test_criterion_08_noise_scaling_trend():
    cfg = default_config("subspace-noisy", n1=100, n2=100, r=2, sweep=(8, 32),
                         p_grid=(0.4,), sigma=0.01, trials=10,
                         master_seed=1008)
    records, _ = run_experiment(cfg)
    mse = {s: float(np.mean([r.relative_error for r in records
                             if r.s_or_r == s])) for s in (8, 32)}
    ok = mse[8] < mse[32]
    line = _report(8, ok, f"10 paired seeds, mse s=8 {mse[8]:.2e} vs "
                          f"s=32 {mse[32]:.2e}")
    assert ok, line


def test_criterion_09_skew_structure_and_comparison():
    master = RngState(1009)
    worst_sym = 0.0
    for k in range(10):
        rng = master.derive("c9", k)
        param, m_star = skew_instance(24, 4, rng.derive("i"))
        spec = _masked_spec("skew", param, m_star, rng.derive("m"), p=0.6)
        result = solve(spec, SolveConfig(seed=rng.derive("t")))
        worst_sym = max(worst_sym,
                        np.linalg.norm(result.m_hat + result.m_hat.T)
                        / np.linalg.norm(result.m_hat))
    cfg = default_config("skew-compare", n1=60, n2=60, sweep=(4,),
                         p_grid=(0.5,), sigma=0.0, trials=10,
                         master_seed=1009)
    _, summaries = run_experiment(cfg)
    med = {s.solver: s.median_log10_err for s in summaries}
    rate = {s.solver: s.success_rate for s in summaries}
    ok = (worst_sym <= 1e-10 and {"skew", "rectangular"} <= set(med)
          and rate["skew"] >= 0.9 and rate["rectangular"] >= 0.9)
    line = _report(9, ok, f"10 trials, worst symmetry {worst_sym:.2e}; "
                          f"median log10 err skew {med.get('skew', 0):.2f} / "
                          f"rect {med.get('rectangular', 0):.2f}, success "
                          f"{rate.get('skew', 0):.1f}/"
                          f"{rate.get('rectangular', 0):.1f}")
    assert ok, line


def test_criterion_10_concentration_spot_checks():
    master = RngState(1010)
    fails = 0
    for k in range(100):
        rng = master.derive("c10", k)
        p = (0.1, 0.3, 0.5, 0.7, 0.9)[k % 5]
        if k % 5 == 3:
            mask = symmetric_offdiag_mask(50, p, rng.derive("m"))
        else:
            mask = bernoulli_mask(60, 40, p, rng.derive("m"))
        gen = rng.derive("f").generator()
        chk = sampled_deviation_check(
            mask,
            gen.standard_normal((mask.rows, 3)),
            gen.standard_normal((mask.rows, 3)),
            gen.standard_normal((mask.cols, 3)),
            gen.standard_normal((mask.cols, 3)))
        fails += not chk.holds()
    full_rect = mask_gap_norm(bernoulli_mask(30, 25, 1.0,
                                             master.derive("full", "r")))
    full_sym = mask_gap_norm(symmetric_offdiag_mask(20, 1.0,
                                                    master.derive("full", "s")))
    ok = fails == 0 and full_rect <= 1e-10 and full_sym <= 1e-10
    line = _report(10, ok, f"100 tuples, {fails} violations; full-mask gap "
                           f"{full_rect:.1e} rect / {full_sym:.1e} symmetric")
    assert ok, line


def test_criterion_11_byte_identical_reruns():
    configs = [
        default_config("subspace-phase", n1=24, n2=24, sweep=(4,),
                       p_grid=(0.6,), trials=2, master_seed=1011),
        default_config("subspace-noisy", n1=24, n2=24, sweep=(4,),
                       p_grid=(0.6,), sigma=0.02, trials=2, master_seed=1011),
        default_config("skew-compare", n1=16, n2=16, sweep=(2,),
                       p_grid=(0.7,), trials=2, master_seed=1011),
        default_config("single-solve", n1=24, n2=24, sweep=(5,),
                       p_grid=(0.8,), master_seed=1011),
    ]
    stable = True
    for cfg in configs:
        a = render_csv(*run_experiment(cfg))
        b = render_csv(*run_experiment(cfg))
        stable &= a.encode() == b.encode()
    diag = default_config("diagnostics", master_seed=1011)
    stable &= run_diagnostics(diag)[0] == run_diagnostics(diag)[0]
    line = _report(11, stable, f"{len(configs)} sweeps and the diagnostics "
                               f"report rerun byte-identical: {stable}")
    assert stable, line
