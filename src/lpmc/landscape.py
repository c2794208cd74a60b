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
theta too). curvature_gap_decomposition takes a stack of instances of one
parameterization (their specs, theta, xi and noise) and computes the checks
and the quartic, sampling and noise terms for all of them at once, on their
masks and observations stacked c x n1 x n2, and the two K routes and the
penalty term instance by instance. concentration_report draws its 10
deviation tuples, and its 10 energy draws, as blocks of its stream and
checks each block as one stack.
Numpy runs a stacked matmul, svd or eigvalsh as the routine of one matrix
on each item, so each item's products equal its point's own. The inner
products (values, curvature forms, terms, Frobenius norms and tests) are
one call per stack too: linalg._item_dots multiplies the items as 1 x N
rows by N x 1 columns, and numpy hands each such product to the dot
routine np.vdot calls on the flattened item, so each keeps its bits. The
row norms of a row beyond alpha and the observed-entry kernel's row
products and scatter, which one call would sum in another order, run only
at points: by the one stack rule, objective._one_pass, a stack of factors
takes one pass on the dense kernel with no row beyond alpha (or lam = 0)
and otherwise goes point by point, for the value, the gradient, the
curvature and the gap alike, and the gap bound's penalty term reads the
row hinges of the one Evaluation it shares with its instance's factor
route. So a stacked gap, term or check equals, bit for bit, that of its
point alone, and the diagnostics report is the same text however its
points are grouped. The certificate functions and the decomposition take
the whole stack they are given, and their caller bounds its size, as the
report does by grouping; concentration_report, which draws its own
stacks, groups them by the same bound (linalg._groups).
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (RANK_FLOOR, _dots, _groups, _item_dots, _mT, as_matrix,
                     reduced_svd, spectral_norm, two_inf_norm)
# _evaluate: the one Evaluation a factor-level gap shares between its
# gradient, its curvature and the gap bound's penalty term; _one_pass: the
# stack rule; _hinge_grad, _hinge_curvature: G's derivatives from a row hinge
from .objective import (_evaluate, _hinge_curvature, _hinge_grad, _one_pass,
                        factor_curvature, factor_grad, objective_value)
from .parameterization import _norms, x_of, y_of
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


def factor_curvature_gap(x, y, dx, dy, spec, ev=None):
    """K at the factor level, from the closed-form Hessian quadratic form;
    at stacked factors an array of the items' gaps (by the stack rule,
    objective._one_pass). The gradient and the curvature read one
    Evaluation at (X, Y), ev when given, so the residual is formed once."""
    if ev is None:
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

    A stack of c instances of one parameterization gives a list of the c
    GapReports: spec a sequence of c specs, theta and xi c x d, noise
    c x n1 x n2 (or None). The checks and the quartic, sampling and noise
    terms are one pass over the stack (_gap_terms); the two K routes and
    the penalty term run per instance, on its spec, the factor route and
    the penalty term on one Evaluation. One instance is a stack of one,
    and every item equals, bit for bit, its instance alone.
    """
    theta = np.asarray(theta, dtype=np.float64)
    xi = np.asarray(xi, dtype=np.float64)
    if theta.ndim == 1:
        return curvature_gap_decomposition(
            [spec], theta[None], xi[None],
            None if noise is None else np.asarray(noise)[None])[0]
    specs, param = spec, spec[0].param
    x, y = x_of(param, theta), y_of(param, theta)
    u, v = x_of(param, xi), y_of(param, xi)
    dx, dy = x - u, y - v
    terms = _gap_terms(specs, x, y, u, v, dx, dy, noise)
    delta = theta - xi
    reports = []
    for i, s in enumerate(specs):
        ev = _evaluate(x[i], y[i], s)
        quartic, sampling, noise_term = map(float, terms[:, i])
        reports.append(GapReport(
            param_curvature_gap(s, theta[i], delta[i]),
            factor_curvature_gap(x[i], y[i], dx[i], dy[i], s, ev),
            quartic, sampling, _penalty_term(ev, dx[i], dy[i], s.lam),
            noise_term))
    return reports


def _penalty_term(ev, dx, dy, lam):
    """The gap bound's penalty term, lam times the curvature gap of G at
    the factors of ev, from its row hinges; 0.0 with no row beyond alpha,
    where G's gradient and curvature are zero."""
    (hx, hy), x, y = ev.hinges, ev.x, ev.y
    return lam * (_hinge_curvature(x, dx, hx)
                  - 4.0 * float(np.vdot(_hinge_grad(x, hx), dx))
                  + _hinge_curvature(y, dy, hy)
                  - 4.0 * float(np.vdot(_hinge_grad(y, hy), dy)))


def _gap_terms(specs, x, y, u, v, dx, dy, noise):
    """The checks of curvature_gap_decomposition on a stack of instances
    and three terms of their bounds, a 3 x c array (quartic, sampling,
    noise), from the stacked factors at theta (x, y), at xi (u, v) and
    their differences. The masks and observations are stacked
    c x n1 x n2; the stack's n1 x n2 arrays are freed on return, before the
    K routes run."""
    m_star = u @ _mT(v)
    scale = np.maximum(_norms(m_star), 1e-300)
    uu, vv = _mT(u) @ u, _mT(v) @ v
    if np.any(_norms(uu - vv) > 1e-6 * scale):
        raise ValueError("xi is not balanced; curvature decomposition needs "
                         "a witness")
    masks = np.array([s.mask.matrix for s in specs])
    observed = np.array([s.observed for s in specs])
    if noise is not None and np.shape(noise) != masks.shape:
        raise ValueError(f"noise has shape {np.shape(noise)}, expected "
                         f"{masks.shape}")
    # np.where writes project_observed's values
    expect = m_star if noise is None else m_star + noise
    drift = _norms(np.where(masks, expect, 0.0) - observed)
    if np.any(drift > 1e-8 * np.maximum(1.0, _norms(observed))):
        raise ValueError("spec.observed is not the masked ground truth plus "
                         "the given noise")
    p = np.array([s.p_hat for s in specs])

    # quartic factor term, via r x r Gram identities
    zz = _mT(x) @ x + _mT(y) @ y
    ww = uu + vv
    zw = _mT(x) @ u + _mT(y) @ v
    dd = _mT(dx) @ dx + _mT(dy) @ dy
    norm_gram_gap = (_item_dots(zz, zz) + _item_dots(ww, ww)
                     - 2.0 * _item_dots(zw, zw))
    k1 = 0.25 * (_item_dots(dd, dd) - 3.0 * norm_gram_gap)

    # sampling deviation term
    cross = dx @ _mT(dy)
    fitgap = x @ _mT(y) - m_star
    pc = np.where(masks, cross, 0.0)
    pf = np.where(masks, fitgap, 0.0)
    k2 = ((_item_dots(pc, pc) / p - _item_dots(cross, cross))
          - (3.0 * _item_dots(pf, pf) / p
             - 3.0 * _item_dots(fitgap, fitgap)))

    # noise term
    k3 = np.zeros(len(specs))
    if noise is not None:
        pn = np.where(masks, noise, 0.0)
        k3 = (6.0 / p * _item_dots(cross, pn)
              + 4.0 / p * _item_dots(u @ _mT(dy) + dx @ _mT(v), pn))
    return np.array([k1, k2, k3])


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
    which many tuples on one mask share; at stacks of A, B, C and D (leading
    axis c) a list of the c tuples' checks, each its tuple's own."""
    if a.ndim == 2:
        return _deviation_check(g, gap_norm, a[None], b[None], c[None],
                                d[None])[0]
    sampled = a @ _mT(c)
    sampled *= g                   # in place: no second stack of n1 x n2
    lhs = np.abs(_item_dots(sampled, b @ _mT(d)))
    rows_ab = np.sum(np.einsum("...ij,...ij->...i", a, a)
                     * np.einsum("...ij,...ij->...i", b, b), axis=-1)
    rows_cd = np.sum(np.einsum("...ij,...ij->...i", c, c)
                     * np.einsum("...ij,...ij->...i", d, d), axis=-1)
    factor = gap_norm * np.sqrt(rows_ab) * np.sqrt(rows_cd)
    sum_bound = 0.5 * gap_norm * (rows_ab + rows_cd)
    return [DeviationCheck(*bounds, gap_norm) for bounds in
            zip(lhs.tolist(), factor.tolist(), sum_bound.tolist())]


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


def _draws(gen, count, *shapes):
    """count draws from gen, each a standard normal array of every shape in
    turn, as one stack per shape: one block of the stream, the numbers
    count such draws one by one take."""
    sizes = [math.prod(shape) for shape in shapes]
    block = gen.standard_normal((count, sum(sizes)))
    stacks, lo = [], 0
    for shape, size in zip(shapes, sizes):
        stacks.append(block[:, lo:lo + size].reshape((count,) + shape))
        lo += size
    return stacks


def concentration_report(mask, rng):
    """Spot-check the deviation inequality on 10 random factor tuples of
    width r = 3 and report the mask spectral gap, count concentration, and
    sampled-energy ratios (1/p)||P_Omega(M)||^2 / ||M||^2 over 10 random
    rank-2r tangent matrices M = U G^T + H V^T of a random rank-r frame
    pair, with p = mask.nominal_p.

    The tuples, then the frames, then the energy draws come from one
    stream. The tuples and the energy draws are stacks, in _groups of n1 n2
    entries an item, each drawn as one block and checked in one pass."""
    tuples, r = 10, 3
    n1, n2 = mask.rows, mask.cols
    p = mask.nominal_p
    centered = _centered_indicator(mask)
    gap = spectral_norm(centered)
    gen = rng.generator()
    counts = [len(range(tuples)[group])
              for group in _groups(tuples, n1 * n2)]
    checks = []
    for count in counts:
        checks += _deviation_check(centered, gap, *_draws(
            gen, count, (n1, r), (n1, r), (n2, r), (n2, r)))
    ratios = []
    if p > 0.0:
        uf, _ = np.linalg.qr(gen.standard_normal((n1, r)))
        vf, _ = np.linalg.qr(gen.standard_normal((n2, r)))
        for count in counts:
            g, h = _draws(gen, count, (r, n2), (n1, r))
            m = uf @ g
            m += h @ vf.T
            pm = np.where(mask.matrix, m, 0.0)
            ratios += (_item_dots(pm, pm) / (p * _item_dots(m, m))).tolist()
    n_max = max(n1, n2)
    return ConcentrationReport(
        gap_norm=gap, gap_ratio=gap / math.sqrt(n_max * p) if p > 0 else 0.0,
        count=mask_count_check(mask), checks=tuple(checks),
        energy_ratios=tuple(ratios))
