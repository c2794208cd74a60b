"""Landscape diagnostics for the completion objective.

The central quantity is the curvature gap

    K(theta; delta) = delta^T H(theta) delta - 4 delta^T grad(theta),

negative K certifies a descent or negative-curvature direction at theta.
param_curvature_gap evaluates it derivative-free, by one symmetric 5-point
stencil on objective values along theta + t delta; factor_curvature_gap
evaluates the same quantity through the closed-form Hessian quadratic form at
the factor level. For linear parameterizations the two agree identically while
every factor row stays inside the alpha ball (the stencil is exact there), and
to the stencil's O(step^4) error at and beyond the hinge, which makes the pair
a two-route consistency check of the whole objective stack.

curvature_gap_decomposition splits an upper bound on K(theta; theta - xi),
with xi a balanced witness, into a quartic factor term, a sampling deviation
term, a penalty term and a noise term; the bound holding is the workhorse
inequality behind the no-spurious-minima argument, and here it is checked
numerically, instance by instance.

The certificates take a leading stack axis, so a caller with many points
makes one call: param_curvature_gap takes c x d stacks of theta and delta
and sends all 5c stencil points to objective_value as one stack, and
factor_curvature_gap takes c x n x r stacks of factors; each returns an
array of the c gaps (parameterization.balanced_witness takes a stack of
theta too). Numpy runs a stacked matmul, svd or eigvalsh as the routine of
one matrix on each item, so each item's products equal its point's own.
The inner products (values, curvature forms, Frobenius norms and tests)
are one call per stack too: linalg._item_dots multiplies the items as
1 x N rows by N x 1 columns, and numpy hands each such product to the dot
routine np.vdot calls on the flattened item, so each keeps its bits. The
row norms of a row beyond alpha and the observed-entry kernel's row
products and scatter, which one call would sum in another order, run only
at points: by the one stack rule, objective._one_pass, a stack of factors
takes one pass on the dense kernel with no row beyond alpha (or lam = 0)
and otherwise goes point by point, for the value, the gradient, the
curvature and the gap alike. So a stacked gap equals, bit for bit, the
gap of its point alone, and the diagnostics report is the same text however
its points are grouped. Each function takes the whole stack it is given;
its caller bounds the stack's size, as the report does by grouping.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (RANK_FLOOR, _dots, as_matrix, reduced_svd, spectral_norm,
                     two_inf_norm)
# _evaluate: the one Evaluation a factor-level gap shares between its
# gradient and its curvature; _one_pass: the stack rule
from .objective import (_evaluate, _one_pass, factor_curvature, factor_grad,
                        objective_value, row_hinge_penalty_curvature,
                        row_hinge_penalty_grad)
from .parameterization import x_of, y_of
from .sampling import project_observed

@dataclass(frozen=True)
class GroundTruthProfile:
    """Rank-r spectral profile of a ground truth: extreme singular values,
    condition number, incoherence."""

    n1: int
    n2: int
    r: int
    sigma_top: float
    sigma_bottom: float
    cond: float
    incoherence: float


def ground_truth_profile(m_star, r):
    """Profile m_star at rank r.

    Raises ValueError when the numerical rank of m_star, reduced_svd's,
    falls below r.
    """
    m = as_matrix(m_star, "m_star")
    dec = reduced_svd(m)
    if dec.rank < r:
        raise ValueError(f"m_star has numerical rank below r={r}: rank "
                         f"{dec.rank}, counting singular values above "
                         f"{RANK_FLOOR:g} sigma_1")
    u = dec.u[:, :r]
    v = dec.v[:, :r]
    n1, n2 = m.shape
    mu = max(n1 / r * two_inf_norm(u) ** 2, n2 / r * two_inf_norm(v) ** 2)
    s1, sr = float(dec.sigma[0]), float(dec.sigma[r - 1])
    return GroundTruthProfile(n1, n2, r, s1, sr, s1 / sr, float(mu))


def factor_curvature_gap(x, y, dx, dy, spec):
    """K at the factor level, from the closed-form Hessian quadratic form;
    at stacked factors an array of the items' gaps (by the stack rule,
    objective._one_pass). The gradient and the curvature read one
    Evaluation at (X, Y), so the masked residual is formed once."""
    if x.ndim > 2 and not _one_pass(x, y, spec):
        return np.array([factor_curvature_gap(*item, spec)
                         for item in zip(x, y, dx, dy)])
    ev = _evaluate(x, y, spec)
    gx, gy = factor_grad(x, y, spec, ev)
    quad = factor_curvature(x, y, dx, dy, spec, ev)
    return quad - 4.0 * (_dots(gx, dx) + _dots(gy, dy))


PARAM_GAP_STEP = 1e-2


def param_curvature_gap(spec, theta, delta):
    """K at the parameter level, derivative-free.

    Both derivatives of g(t) = f(theta + t delta) come from a symmetric
    5-point stencil with step PARAM_GAP_STEP. It is exact for quartic g,
    which covers every configuration whose factor rows stay inside the alpha
    ball. A row at or beyond the hinge makes g smooth but not quartic and
    leaves an O(step^4) error: against factor_curvature_gap, at most 4.1e-4
    relative with a row on the hinge (lam = 1, every kind) and 1.5e-4 over
    the diagnostics' draws at the in-window tuning lam = 20, alpha = 1.7.

    The five points theta + t delta go to objective_value as one stack, and
    stacked theta and delta (c x d) give the c gaps from one stack of 5c.
    """
    theta = np.asarray(theta, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    h = PARAM_GAP_STEP
    t = np.array([0.0, h, -h, 2.0 * h, -2.0 * h])
    points = theta[..., None, :] + t[:, None] * delta[..., None, :]
    g = objective_value(spec, points.reshape(-1, theta.shape[-1]))
    g0, gp1, gm1, gp2, gm2 = g.reshape(points.shape[:-1]).T
    d2 = (-gp2 + 16.0 * gp1 - 30.0 * g0 + 16.0 * gm1 - gm2) / (12.0 * h ** 2)
    d1 = (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * h)
    return d2 - 4.0 * d1


@dataclass(frozen=True)
class GapReport:
    """Curvature gap at theta against witness xi, with its upper bound split
    into the four terms of the decomposition. The inequality to check is
    gap_theta <= bound_total (up to 1e-8 * scale); gap_theta and gap_factor
    agree up to the stencil error of the parameter-level route."""

    gap_theta: float
    gap_factor: float
    term_quartic: float
    term_sampling: float
    term_penalty: float
    term_noise: float

    @property
    def bound_total(self):
        return (self.term_quartic + self.term_sampling
                + self.term_penalty + self.term_noise)

    @property
    def scale(self):
        return 1.0 + max(abs(self.gap_factor), abs(self.term_quartic),
                         abs(self.term_sampling), abs(self.term_penalty),
                         abs(self.term_noise))

    def holds(self):
        return self.gap_theta <= self.bound_total + 1e-8 * self.scale


def curvature_gap_decomposition(spec, theta, xi, noise=None):
    """Evaluate the gap bound terms for (theta, xi) on a noisy instance.

    xi must be a balanced exact witness for the clean ground truth, and
    spec.observed must equal the masked (ground truth + noise); both are
    checked. noise=None means a clean instance (zero noise term).
    """
    x, y = x_of(spec.param, theta), y_of(spec.param, theta)
    u, v = x_of(spec.param, xi), y_of(spec.param, xi)
    m_star = u @ v.T
    scale = max(float(np.linalg.norm(m_star)), 1e-300)

    bal = np.linalg.norm(u.T @ u - v.T @ v)
    if bal > 1e-6 * scale:
        raise ValueError("xi is not balanced; curvature decomposition needs "
                         "a witness")
    expect = m_star if noise is None else m_star + noise
    drift = np.linalg.norm(project_observed(expect, spec.mask) - spec.observed)
    if drift > 1e-8 * max(1.0, float(np.linalg.norm(spec.observed))):
        raise ValueError("spec.observed is not the masked ground truth plus "
                         "the given noise")

    dx, dy = x - u, y - v
    p = spec.p_hat

    # quartic factor term, via r x r Gram identities
    zz = x.T @ x + y.T @ y
    ww = u.T @ u + v.T @ v
    zw = x.T @ u + y.T @ v
    dd = dx.T @ dx + dy.T @ dy
    norm_ddt = float(np.vdot(dd, dd))
    norm_gram_gap = (float(np.vdot(zz, zz)) + float(np.vdot(ww, ww))
                     - 2.0 * float(np.vdot(zw, zw)))
    k1 = 0.25 * (norm_ddt - 3.0 * norm_gram_gap)

    # sampling deviation term
    cross = dx @ dy.T
    fitgap = x @ y.T - m_star
    pc = project_observed(cross, spec.mask)
    pf = project_observed(fitgap, spec.mask)
    k2 = ((float(np.vdot(pc, pc)) / p - float(np.vdot(cross, cross)))
          - (3.0 * float(np.vdot(pf, pf)) / p
             - 3.0 * float(np.vdot(fitgap, fitgap))))

    # penalty term: the curvature gap of G at the factors
    k3 = 0.0
    if spec.lam:
        k3 = spec.lam * (
            row_hinge_penalty_curvature(x, dx, spec.alpha)
            - 4.0 * float(np.vdot(row_hinge_penalty_grad(x, spec.alpha), dx))
            + row_hinge_penalty_curvature(y, dy, spec.alpha)
            - 4.0 * float(np.vdot(row_hinge_penalty_grad(y, spec.alpha), dy)))

    # noise term
    k4 = 0.0
    if noise is not None:
        pn = project_observed(noise, spec.mask)
        k4 = (6.0 / p * float(np.vdot(cross, pn))
              + 4.0 / p * float(np.vdot(u @ dy.T + dx @ v.T, pn)))

    delta = np.asarray(theta, dtype=np.float64) - np.asarray(xi, dtype=np.float64)
    return GapReport(
        gap_theta=param_curvature_gap(spec, theta, delta),
        gap_factor=factor_curvature_gap(x, y, dx, dy, spec),
        term_quartic=k1, term_sampling=k2, term_penalty=k3, term_noise=k4)


@dataclass(frozen=True)
class NoiseSurrogate:
    value: float
    formula: str


def noise_spectral_surrogate(param, mask, noise):
    """Computable stand-in for the worst-case projected noise norm.

    The subspace kind projects onto its fixed bases; the other kinds report
    the unprojected masked-noise norm. Both are surrogates: the quantity in
    the theory maximizes over the factor column spans at all parameter pairs,
    which is not computable.
    """
    pn = project_observed(noise, mask)
    if param.kind == "subspace":
        core = param.basis_u.T @ pn @ param.basis_v
        return NoiseSurrogate(spectral_norm(core),
                              "||P_U P_Omega(N) P_V||")
    return NoiseSurrogate(spectral_norm(pn), "||P_Omega(N)||")


@dataclass(frozen=True)
class TuningReport:
    """Evaluated sides of the sampling-rate and tuning-window conditions.
    Reporting only; nothing here is asserted."""

    p_floor: float
    p_binding: str        # which term of the floor's max binds
    p_ok: bool
    lam_lo: float
    lam_hi: float
    lam_ok: bool
    alpha_lo: float
    alpha_hi: float
    alpha_ok: bool


# Absolute constants of the rate floor (c1) and of the tuning windows (c2):
# the theory fixes only their existence, so both are taken as 1.
FLOOR_C1 = 1.0
WINDOW_C2 = 1.0


def tuning_conditions(profile, p, lam, alpha):
    """Check p against its rate floor and (lam, alpha) against their windows.

    The floor is c1 * max(mu r log(n_max) / n_min,
    n_max mu^2 r^2 kappa^2 / n_min^2); the windows are
    [c2 sqrt(n_max / p), 10 c2 sqrt(n_max / p)] for lam and
    [c2 sqrt(mu r sigma_1 / n_min), 10 x] for alpha, with c1 = FLOOR_C1
    and c2 = WINDOW_C2.
    """
    n_max = max(profile.n1, profile.n2)
    n_min = min(profile.n1, profile.n2)
    mu, r, kappa = profile.incoherence, profile.r, profile.cond
    floor_log = mu * r * math.log(n_max) / n_min
    floor_cond = n_max * mu ** 2 * r ** 2 * kappa ** 2 / n_min ** 2
    p_floor = FLOOR_C1 * max(floor_log, floor_cond)
    lam_lo = WINDOW_C2 * math.sqrt(n_max / p)
    alpha_lo = WINDOW_C2 * math.sqrt(mu * r * profile.sigma_top / n_min)
    return TuningReport(
        p_floor=p_floor,
        p_binding="incoherence-log" if floor_log >= floor_cond
        else "condition-number",
        p_ok=p >= p_floor,
        lam_lo=lam_lo, lam_hi=10.0 * lam_lo,
        lam_ok=lam_lo <= lam <= 10.0 * lam_lo,
        alpha_lo=alpha_lo, alpha_hi=10.0 * alpha_lo,
        alpha_ok=alpha_lo <= alpha <= 10.0 * alpha_lo)


def _centered_indicator(mask):
    """Omega - E[Omega] with p = mask.nominal_p: Omega - pJ for the
    rectangular model and Omega - p(J - I) for the pairwise symmetric model,
    whose diagonal is never sampled."""
    g = mask.matrix.astype(np.float64) - mask.nominal_p
    if mask.model == "symmetric-offdiag":
        np.fill_diagonal(g, 0.0)
    return g


def mask_gap_norm(mask):
    """Spectral norm of the mean-centered sampling indicator."""
    return spectral_norm(_centered_indicator(mask))


@dataclass(frozen=True)
class DeviationCheck:
    """One instance of the sampled-inner-product deviation inequality:
    lhs <= factor_bound <= sum_bound (each up to 1e-9 * (1 + sum_bound)), all
    computed from the realized mask."""

    lhs: float
    factor_bound: float
    sum_bound: float
    gap_norm: float

    def holds(self):
        slack = 1e-9 * (1.0 + self.sum_bound)
        return (self.lhs <= self.factor_bound + slack
                and self.factor_bound <= self.sum_bound + slack)


def sampled_deviation_check(mask, a, b, c, d):
    """Evaluate |<(Omega - E Omega) o AC^T, BD^T>|, the deviation of the
    sampled inner product from its model mean, against its two bounds.

    A, B have n1 rows, C, D have n2 rows. The first bound is gap_norm
    sqrt(sum_i ||a_i||^2 ||b_i||^2) sqrt(sum_j ||c_j||^2 ||d_j||^2) over
    rows i, j, with gap_norm = mask_gap_norm(mask); the second replaces the
    product of roots by half their squared sum.
    """
    if a.shape[0] != mask.rows or c.shape[0] != mask.cols:
        raise ValueError("A needs n1 rows and C n2 rows")
    g = _centered_indicator(mask)
    return _deviation_check(g, spectral_norm(g), a, b, c, d)


def _deviation_check(g, gap_norm, a, b, c, d):
    """sampled_deviation_check from the centered indicator g of the mask,
    which many tuples on one mask share."""
    lhs = abs(float(np.vdot(g * (a @ c.T), b @ d.T)))
    rows_ab = float(np.sum(np.einsum("ij,ij->i", a, a)
                           * np.einsum("ij,ij->i", b, b)))
    rows_cd = float(np.sum(np.einsum("ij,ij->i", c, c)
                           * np.einsum("ij,ij->i", d, d)))
    factor = gap_norm * math.sqrt(rows_ab) * math.sqrt(rows_cd)
    return DeviationCheck(lhs=lhs, factor_bound=factor,
                          sum_bound=0.5 * gap_norm * (rows_ab + rows_cd),
                          gap_norm=gap_norm)


@dataclass(frozen=True)
class MaskCountCheck:
    count: int
    expected: float
    bound: float          # four standard deviations of the draw

    @property
    def within(self):
        return abs(self.count - self.expected) <= self.bound


def mask_count_check(mask):
    """|Omega| against its mean, four standard deviations wide."""
    p = mask.nominal_p
    if mask.model == "symmetric-offdiag":
        pairs = mask.rows * (mask.rows - 1) / 2
        expected = 2.0 * p * pairs
        bound = 8.0 * math.sqrt(p * (1.0 - p) * pairs)
    else:
        cells = mask.rows * mask.cols
        expected = p * cells
        bound = 4.0 * math.sqrt(p * (1.0 - p) * cells)
    return MaskCountCheck(count=mask.count, expected=expected,
                          bound=max(bound, 1.0))


@dataclass(frozen=True)
class ConcentrationReport:
    gap_norm: float
    gap_ratio: float      # gap_norm / sqrt(n_max * p)
    count: MaskCountCheck
    checks: tuple         # DeviationCheck instances
    energy_ratios: tuple  # sampled/expected energy on tangent-space draws

    @property
    def all_hold(self):
        return all(c.holds() for c in self.checks)

    @property
    def energy_max_deviation(self):
        """Worst |ratio - 1| of the tangent-space energy spot check.

        Reported, never asserted: the uniform two-sided energy bound only
        kicks in at sampling rates far above desk scale.
        """
        if not self.energy_ratios:
            return 0.0
        return max(abs(q - 1.0) for q in self.energy_ratios)


def concentration_report(mask, rng):
    """Spot-check the deviation inequality on 10 random factor tuples of
    width r = 3 and report the mask spectral gap, count concentration, and
    sampled-energy ratios (1/p)||P_Omega(M)||^2 / ||M||^2 over 10 random
    rank-2r tangent matrices M = U G^T + H V^T of a random rank-r frame
    pair, with p = mask.nominal_p."""
    tuples, r = 10, 3
    p = mask.nominal_p
    centered = _centered_indicator(mask)
    gap = spectral_norm(centered)
    gen = rng.generator()
    checks = []
    for _ in range(tuples):
        a = gen.standard_normal((mask.rows, r))
        b = gen.standard_normal((mask.rows, r))
        c = gen.standard_normal((mask.cols, r))
        d = gen.standard_normal((mask.cols, r))
        checks.append(_deviation_check(centered, gap, a, b, c, d))
    ratios = []
    if p > 0.0:
        uf, _ = np.linalg.qr(gen.standard_normal((mask.rows, r)))
        vf, _ = np.linalg.qr(gen.standard_normal((mask.cols, r)))
        for _ in range(tuples):
            m = (uf @ gen.standard_normal((r, mask.cols))
                 + gen.standard_normal((mask.rows, r)) @ vf.T)
            pm = project_observed(m, mask)
            ratios.append(float(np.vdot(pm, pm))
                          / (p * float(np.vdot(m, m))))
    n_max = max(mask.rows, mask.cols)
    return ConcentrationReport(
        gap_norm=gap, gap_ratio=gap / math.sqrt(n_max * p) if p > 0 else 0.0,
        count=mask_count_check(mask), checks=tuple(checks),
        energy_ratios=tuple(ratios))
