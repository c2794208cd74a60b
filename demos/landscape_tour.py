"""Walk through the landscape diagnostics on one noisy instance.

The no-spurious-minima argument rests on a few checkable facts: every
parameter point has a balanced witness reproducing the truth, the
curvature gap K computed from objective values agrees with its
closed-form factor-level twin, K admits an upper bound splitting into
quartic / sampling / penalty / noise terms, and sampled inner products
concentrate around their means. This script evaluates each one on a
desk-scale instance and prints what it finds.
"""

import numpy as np

from lpmc.instances import assemble, subspace_instance
from lpmc.landscape import (concentration_report, curvature_gap_decomposition,
                            factor_curvature_gap, ground_truth_profile,
                            noise_spectral_surrogate, param_curvature_gap,
                            tuning_conditions)
from lpmc.parameterization import balanced_witness, factors
from lpmc.sampling import RngState, bernoulli_mask, gaussian_noise

N, R, S, P, SIGMA = 48, 2, 6, 0.5, 0.02


def main():
    rng = RngState(23).derive("demo", "landscape")
    param, m_star = subspace_instance(N, N, R, S, S, rng.derive("truth"))
    mask = bernoulli_mask(N, N, P, rng.derive("mask"))
    noise = gaussian_noise(N, N, SIGMA, rng.derive("noise"))
    spec = assemble(param, m_star, mask, noise)
    gen = rng.derive("draws").generator()

    prof = ground_truth_profile(m_star, R)
    print(f"instance: n = {N}, rank {R}, subspace width {S}, p = {P}, "
          f"sigma = {SIGMA}")
    print(f"profile: sigma_1 = {prof.sigma_top:.3f}, kappa = {prof.cond:.2f}, "
          f"incoherence mu = {prof.incoherence:.2f}")

    # 1. witness: any theta has a balanced exact factorization of the truth
    theta = gen.standard_normal(param.d)
    cert = balanced_witness(param, theta, m_star)
    print(f"\nwitness at a random theta: passes = {cert.passes} "
          f"(fit {cert.residual_fit:.1e}, balance {cert.residual_balance:.1e}, "
          f"min corr eig {cert.min_corr_eig:.1e})")

    # 2. the same curvature gap through two unrelated computations
    delta = gen.standard_normal(param.d)
    kp = param_curvature_gap(spec, theta, delta)
    kf = factor_curvature_gap(*factors(param, theta), *factors(param, delta),
                              spec)
    print(f"\ncurvature gap K(theta; delta): value route {kp:.6e}, "
          f"factor route {kf:.6e}")
    print(f"  two-route residual {abs(kp - kf) / (1 + abs(kf)):.1e}")

    # 3. the gap bound, term by term
    rep = curvature_gap_decomposition(spec, theta, cert.xi, noise)
    print(f"\ngap bound at (theta, witness): K = {rep.gap_theta:.3e}")
    print(f"  quartic {rep.term_quartic:.3e} + sampling "
          f"{rep.term_sampling:.3e} + penalty {rep.term_penalty:.3e} "
          f"+ noise {rep.term_noise:.3e}")
    print(f"  bound total {rep.bound_total:.3e}, holds: {rep.holds()}")

    # 4. how concentrated is this particular mask
    conc = concentration_report(mask, rng.derive("conc"))
    print(f"\nmask concentration: ||Omega - pJ|| = {conc.gap_norm:.2f} "
          f"({conc.gap_ratio:.2f} x sqrt(n p))")
    print(f"  deviation inequality holds on "
          f"{sum(c.holds() for c in conc.checks)}/{len(conc.checks)} "
          f"random factor tuples")
    print(f"  sampled-energy ratio off by at most "
          f"{conc.energy_max_deviation:.2f} on tangent draws")

    # 5. where the run sits relative to the tuning windows
    tune = tuning_conditions(prof, P, spec.lam, spec.alpha)
    print(f"\ntuning: p floor {tune.p_floor:.3f} (binding: {tune.p_binding}), "
          f"p ok {tune.p_ok}")
    print(f"  lam = {spec.lam:.1f} vs window [{tune.lam_lo:.1f}, "
          f"{tune.lam_hi:.1f}], alpha = {spec.alpha:.0f} vs window "
          f"[{tune.alpha_lo:.2f}, {tune.alpha_hi:.2f}]")
    sur = noise_spectral_surrogate(param, mask, noise)
    print(f"  projected-noise surrogate {sur.value:.4f} = {sur.formula}")


if __name__ == "__main__":
    main()
