"""Tests for the regularized completion objective and its derivatives."""

import copy
import dataclasses

import numpy as np
import pytest

import lpmc.landscape as landscape
import lpmc.objective as objective
from lpmc.instances import rectangular_instance
from lpmc.landscape import (PARAM_GAP_STEP, factor_curvature_gap,
                            param_curvature_gap)
from lpmc.objective import (ObjectiveSpec, _hinge_grad, _hinge_hvp,
                            _row_hinge, default_tuning, factor_curvature,
                            factor_grad, factor_hvp, make_spec,
                            objective_grad, objective_value)
from lpmc.parameterization import (SubspaceParam, adjoint, balanced_witness,
                                   factors, rectangular_param, x_of, y_of)
from lpmc.sampling import (ObservationMask, RngState, bernoulli_mask,
                           symmetric_offdiag_mask)
from specialized_forms import (DENSE, SPARSE, noiseless_spec,
                               psd_objective_value,
                               reference_factor_curvature,
                               reference_row_hinge_penalty,
                               reference_row_hinge_penalty_grad,
                               reference_row_hinge_penalty_hvp,
                               skew_objective_value, subspace_objective_value)


def naive_value(spec, theta):
    """Straightforward re-evaluation of the objective, term by term."""
    x, y = x_of(spec.param, theta), y_of(spec.param, theta)
    prod = x @ y.T
    fit = 0.0
    for i, j in np.argwhere(spec.mask.matrix):
        fit += (prod[i, j] - spec.observed[i, j]) ** 2
    balance = np.linalg.norm(x.T @ x - y.T @ y, "fro") ** 2
    pen = 0.0
    for rows in (x, y):
        for row in rows:
            pen += max(np.linalg.norm(row) - spec.alpha, 0.0) ** 4
    return fit / (2 * spec.p_hat) + balance / 8 + spec.lam * pen


# ---------------------------------------------------------------- regularizer

def test_penalty_zero_inside_ball():
    gen = np.random.default_rng(0)
    x = gen.standard_normal((6, 3))
    alpha = np.linalg.norm(x, axis=1).max() + 0.1
    assert _row_hinge(x, alpha).value == 0.0
    assert not _hinge_grad(x, _row_hinge(x, alpha)).any()


def test_penalty_single_protruding_row():
    alpha = 0.8
    x = np.zeros((4, 3))
    x[2, 0] = 2 * alpha
    assert _row_hinge(x, alpha).value == pytest.approx(alpha ** 4, rel=1e-14)


def test_penalty_alpha_zero_is_quartic_row_sum():
    gen = np.random.default_rng(1)
    x = gen.standard_normal((7, 4))
    expected = sum(np.linalg.norm(row) ** 4 for row in x)
    assert _row_hinge(x, 0.0).value == pytest.approx(expected, rel=1e-12)


def test_penalty_infinite_alpha_vanishes():
    gen = np.random.default_rng(2)
    x = 1e6 * gen.standard_normal((5, 2))
    assert _row_hinge(x, np.inf).value == 0.0
    assert not _hinge_grad(x, _row_hinge(x, np.inf)).any()


def test_penalty_grad_zero_matrix():
    x = np.zeros((4, 2))
    assert not _hinge_grad(x, _row_hinge(x, 0.5)).any()


def test_penalty_grad_matches_finite_differences():
    gen = np.random.default_rng(3)
    x = 2.0 * gen.standard_normal((6, 3))
    alpha = 1.0
    grad = _hinge_grad(x, _row_hinge(x, alpha))
    h = 1e-5 * (1 + np.linalg.norm(x))
    for trial in range(20):
        d = gen.standard_normal(x.shape)
        fd = (_row_hinge(x + h * d, alpha).value
              - _row_hinge(x - h * d, alpha).value) / (2 * h)
        assert np.vdot(grad, d) == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_penalty_continuous_at_hinge():
    # fourth-power hinge: value and gradient stay tiny just past the kink
    x = np.array([[1.0 + 1e-9, 0.0]])
    assert _row_hinge(x, 1.0).value <= 1e-30
    assert np.linalg.norm(_hinge_grad(x, _row_hinge(x, 1.0))) <= 1e-20


def _rounding_inversion():
    """A one-row factor whose row norm lies above an alpha that its
    Frobenius square, as np.vdot sums it, lies below: (x, alpha), or None
    when no candidate shows such a gap. A candidate is a unit entry among
    entries whose squares fall under half an ulp of 1, so the order in which
    np.vdot and np.einsum add them decides how many of them count."""
    best_gap, best = 0.0, None
    for m in range(2, 200):
        for k in range(m):
            x = np.full((1, m), 1.4 * 2.0 ** -27)
            x[0, k] = 1.0
            gap = np.einsum("ij,ij->i", x, x)[0] - np.vdot(x, x)
            if gap > best_gap:
                best_gap, best = gap, x
    if best is None:
        return None
    frob_sq = np.vdot(best, best)
    norm = np.sqrt(np.einsum("ij,ij->i", best, best))[0]
    alpha = np.sqrt(frob_sq)
    while alpha < norm:
        if frob_sq < alpha ** 2:
            return best, alpha
        alpha = np.nextafter(alpha, np.inf)
    return None


def _hinge_cases():
    """(x, alpha) pairs: no, some and every row beyond alpha, the extreme
    alphas (and a negative one, which the closed form also defines), a
    Frobenius norm just below and just above alpha with one dominant row,
    and a zero matrix."""
    gen = np.random.default_rng(40)
    x = gen.standard_normal((9, 3))
    norms = np.linalg.norm(x, axis=1)
    dominant = np.vstack([[3.0, 4.0, 0.0], 1e-5 * gen.standard_normal((4, 3))])
    frob = np.linalg.norm(dominant)
    return [
        (x, norms.max() * 1.01),            # no row, Frobenius above alpha
        (x, 2.0 * np.linalg.norm(x)),       # no row, Frobenius below alpha
        (x, float(np.median(norms))),       # some rows
        (x, 0.5 * norms.min()),             # every row
        (x, 0.0), (x, np.inf), (x, -0.5), (np.zeros((4, 2)), 0.0),
        (np.zeros((4, 2)), 0.5), (-x, float(np.median(norms))),
        (dominant, frob * (1.0 + 1e-7)),    # Frobenius below alpha
        (dominant, frob * (1.0 + 1e-9)),    # just below, within the margin
        (dominant, frob * (1.0 - 1e-9)),    # just above, one row beyond
        (dominant, 5.0 * (1.0 + 1e-12)),    # just above, no row beyond
    ]


def _assert_hinge_matches_reference(x, alpha):
    dx = np.random.default_rng(41).standard_normal(x.shape)
    value = _row_hinge(x, alpha).value
    ref = reference_row_hinge_penalty(x, alpha)
    assert type(value) is type(ref) and value == ref
    grad = _hinge_grad(x, _row_hinge(x, alpha))
    ref = reference_row_hinge_penalty_grad(x, alpha)
    # bytes, so the signed zeros of rows inside the ball must agree too
    assert grad.dtype == ref.dtype and grad.shape == ref.shape
    assert grad.tobytes() == ref.tobytes()
    hvp = _hinge_hvp(x, dx, _row_hinge(x, alpha))
    ref = reference_row_hinge_penalty_hvp(x, dx, alpha)
    assert hvp.dtype == ref.dtype and hvp.shape == ref.shape
    assert hvp.tobytes() == ref.tobytes()


@pytest.mark.parametrize("x, alpha", _hinge_cases())
def test_penalty_matches_reference_bitwise(x, alpha):
    _assert_hinge_matches_reference(x, alpha)


def test_penalty_margin_covers_summation_order():
    # the Frobenius shortcut must not skip a row that the row pass finds
    # beyond alpha, even where np.vdot rounds the square below alpha^2
    found = _rounding_inversion()
    if found is None:
        pytest.skip("np.vdot and np.einsum sum every candidate alike here")
    x, alpha = found
    assert reference_row_hinge_penalty(x, alpha) > 0.0
    _assert_hinge_matches_reference(x, alpha)


def test_objective_penalty_terms_match_reference_bitwise():
    # on every kind and kernel, f and its derivatives at lam > 0 are those
    # at lam = 0 plus lam times the reference penalty terms, bit for bit
    gen = np.random.default_rng(42)
    for density in (DENSE, SPARSE):
        for kind in ("subspace", "rectangular", "psd", "skew"):
            spec, _ = noiseless_spec(kind, 43, lam=0.7, alpha=1.0, **density)
            theta = 1.5 * gen.standard_normal(spec.param.d)
            x, y = factors(spec.param, theta)
            dx, dy = factors(spec.param, gen.standard_normal(spec.param.d))
            norms = np.linalg.norm(np.vstack([x, y]), axis=1)
            frob = max(np.linalg.norm(x), np.linalg.norm(y))
            for alpha in (0.0, 0.5 * norms.min(), float(np.median(norms)),
                          1.01 * norms.max(), 2.0 * frob, np.inf):
                at = dataclasses.replace(spec, alpha=alpha)
                free = dataclasses.replace(spec, lam=0.0, alpha=alpha)
                lam = at.lam
                assert objective_value(at, theta) == (
                    objective_value(free, theta)
                    + lam * (reference_row_hinge_penalty(x, alpha)
                             + reference_row_hinge_penalty(y, alpha)))
                gx, gy = factor_grad(x, y, at)
                fx, fy = factor_grad(x, y, free)
                assert np.array_equal(
                    gx, fx + lam * reference_row_hinge_penalty_grad(x, alpha))
                assert np.array_equal(
                    gy, fy + lam * reference_row_hinge_penalty_grad(y, alpha))
                px, py = factor_hvp(x, y, dx, dy, at)
                fx, fy = factor_hvp(x, y, dx, dy, free)
                assert np.array_equal(
                    px, fx + lam * reference_row_hinge_penalty_hvp(x, dx,
                                                                   alpha))
                assert np.array_equal(
                    py, fy + lam * reference_row_hinge_penalty_hvp(y, dy,
                                                                   alpha))
                ev = objective_value(at, theta, keep=True)
                assert ev.hinged == bool(np.any(norms > alpha)), (kind, alpha)
                assert np.array_equal(objective_grad(at, theta, ev),
                                      objective_grad(at, theta))


def test_grad_reuses_the_row_hinges(monkeypatch):
    # the gradient at an evaluated point takes its row norms from the
    # Evaluation; only a fresh gradient runs the row pass again
    calls = []
    row_hinge = objective._row_hinge

    def counted(x, alpha):
        calls.append(alpha)
        return row_hinge(x, alpha)

    monkeypatch.setattr(objective, "_row_hinge", counted)
    gen = np.random.default_rng(44)
    for density in (DENSE, SPARSE):
        spec, _ = noiseless_spec("rectangular", 45, lam=0.5, alpha=0.6,
                                 **density)
        theta = gen.standard_normal(spec.param.d)
        calls.clear()
        ev = objective_value(spec, theta, keep=True)
        assert len(calls) == 2 and ev.hinged
        objective_grad(spec, theta, ev)
        assert len(calls) == 2
        objective_grad(spec, theta)
        assert len(calls) == 4


# ------------------------------------------------------------ objective value

def test_value_zero_at_witness():
    for kind in ("subspace", "rectangular", "psd", "skew"):
        spec, m_star = noiseless_spec(kind, 5)
        cert = balanced_witness(spec.param, np.zeros(spec.param.d), m_star)
        assert objective_value(spec, cert.xi) <= 1e-18, kind


def test_value_at_origin():
    spec, m_star = noiseless_spec("rectangular", 7)
    expected = np.vdot(spec.observed, spec.observed) / (2 * spec.p_hat)
    assert objective_value(spec, np.zeros(spec.param.d)) == pytest.approx(expected, rel=1e-14)


def test_value_matches_naive_evaluation():
    gen = np.random.default_rng(4)
    for density in (DENSE, SPARSE):
        for kind in ("subspace", "rectangular", "psd", "skew"):
            spec, _ = noiseless_spec(kind, 9, lam=0.3, alpha=0.7, **density)
            theta = gen.standard_normal(spec.param.d)
            assert objective_value(spec, theta) == pytest.approx(
                naive_value(spec, theta), rel=1e-12), (kind, density)


def test_value_nonnegative():
    gen = np.random.default_rng(5)
    spec, _ = noiseless_spec("skew", 11, lam=2.0, alpha=0.1)
    for trial in range(10):
        assert objective_value(spec, gen.standard_normal(spec.param.d)) >= 0.0


# --------------------------------------------------------------- the gradient

def test_grad_zero_at_witness():
    for density in (DENSE, SPARSE):
        for kind in ("subspace", "rectangular", "psd", "skew"):
            spec, m_star = noiseless_spec(kind, 13, **density)
            cert = balanced_witness(spec.param, np.zeros(spec.param.d),
                                    m_star)
            g = objective_grad(spec, cert.xi)
            assert np.linalg.norm(g) <= 1e-8, (kind, density)


def test_grad_zero_at_origin():
    spec, _ = noiseless_spec("subspace", 15)
    assert not objective_grad(spec, np.zeros(spec.param.d)).any()


def test_grad_matches_finite_differences():
    gen = np.random.default_rng(6)
    for density in (DENSE, SPARSE):
        for kind in ("subspace", "rectangular", "psd", "skew"):
            spec, _ = noiseless_spec(kind, 17, lam=0.5, alpha=0.6, **density)
            theta = gen.standard_normal(spec.param.d)
            grad = objective_grad(spec, theta)
            h = 1e-5 * (1 + np.linalg.norm(theta))
            for trial in range(15):
                d = gen.standard_normal(spec.param.d)
                d /= np.linalg.norm(d)
                fd = (objective_value(spec, theta + h * d)
                      - objective_value(spec, theta - h * d)) / (2 * h)
                assert float(grad @ d) == pytest.approx(
                    fd, rel=1e-6, abs=1e-8), (kind, density)


def test_densities_take_both_kernels():
    for kind in ("subspace", "rectangular", "psd", "skew"):
        dense, _ = noiseless_spec(kind, 33, **DENSE)
        sparse, _ = noiseless_spec(kind, 33, **SPARSE)
        assert dense.p_hat >= objective._ENTRY_KERNEL_BELOW, kind
        assert 0 < sparse.p_hat < objective._ENTRY_KERNEL_BELOW, kind


@pytest.mark.parametrize("n, count, p_hat, entry_kernel",
                         [(10, 3, 0.03, False), (100, 299, 0.0299, True)])
def test_kernel_switches_below_an_observed_fraction_of_0_03(n, count, p_hat,
                                                            entry_kernel):
    # literals, since a test that reads _ENTRY_KERNEL_BELOW moves with it
    indicator = np.zeros(n * n, dtype=bool)
    indicator[:count] = True
    mask = ObservationMask(indicator.reshape(n, n), "bernoulli-rect", p_hat)
    spec = make_spec(rectangular_param(n, n, 1), mask, np.zeros((n, n)))
    assert spec.p_hat == p_hat
    assert spec.entry_kernel == entry_kernel


def test_observed_entries_match_the_mask():
    spec, _ = noiseless_spec("rectangular", 35, **SPARSE)
    dense = np.zeros(spec.observed.shape)
    dense[spec.rows, spec.cols] = spec.vals
    assert np.array_equal(dense, spec.observed)
    assert spec.rows.size == spec.mask.count


def test_two_route_curvature_agrees_on_entry_kernel():
    # the parameter route differences objective values and the factor route
    # adds the gradient to the Hessian product's form, so at a sparse
    # density the two routes check the entry kernel's value against its
    # closed-form derivatives
    gen = np.random.default_rng(10)
    for kind in ("subspace", "rectangular", "psd", "skew"):
        spec, _ = noiseless_spec(kind, 37, **SPARSE)
        param = spec.param
        for trial in range(10):
            theta = gen.standard_normal(param.d)
            delta = gen.standard_normal(param.d)
            kf = factor_curvature_gap(x_of(param, theta), y_of(param, theta),
                                      x_of(param, delta), y_of(param, delta),
                                      spec)
            kp = param_curvature_gap(spec, theta, delta)
            assert abs(kp - kf) <= 1e-8 * (1 + abs(kf)), kind


# ---------------------------------------------- Hessian-vector product

# the standard tuning (no row near alpha = 100) and two with rows beyond
# alpha at theta's scale
HVP_TUNINGS = ({}, dict(lam=20.0, alpha=1.7), dict(lam=1.0, alpha=0.5))


def hvp_cases(seed):
    """(spec, theta, delta, eta) for every kind, kernel and HVP_TUNINGS."""
    gen = np.random.default_rng(seed)
    for density in (DENSE, SPARSE):
        for kind in ("subspace", "rectangular", "psd", "skew"):
            for tuning in HVP_TUNINGS:
                spec, _ = noiseless_spec(kind, seed, **tuning, **density)
                d = spec.param.d
                yield (spec, 1.5 * gen.standard_normal(d),
                       gen.standard_normal(d), gen.standard_normal(d))


def theta_hvp(spec, theta, delta):
    """The theta-level Hessian of f applied to delta, via the adjoint."""
    x, y = factors(spec.param, theta)
    return adjoint(spec.param, *factor_hvp(x, y, *factors(spec.param, delta),
                                           spec))


def test_hvp_form_matches_the_reference_quadratic_form():
    hinged = set()
    for spec, theta, delta, _ in hvp_cases(60):
        x, y = factors(spec.param, theta)
        dx, dy = factors(spec.param, delta)
        hx, hy = factor_hvp(x, y, dx, dy, spec)
        form = float(np.vdot(hx, dx) + np.vdot(hy, dy))
        ref = reference_factor_curvature(x, y, dx, dy, spec)
        assert abs(form - ref) <= 1e-12 * abs(ref), spec.param.kind
        assert factor_curvature(x, y, dx, dy, spec) == (
            objective._dots(hx, dx) + objective._dots(hy, dy))
        hinged.add((spec.entry_kernel,
                    objective_value(spec, theta, keep=True).hinged))
    assert hinged == {(e, h) for e in (False, True) for h in (False, True)}


def test_hvp_matches_central_differences_of_the_gradient():
    h = 1e-5
    for spec, theta, delta, _ in hvp_cases(61):
        want = (objective_grad(spec, theta + h * delta)
                - objective_grad(spec, theta - h * delta)) / (2.0 * h)
        got = theta_hvp(spec, theta, delta)
        assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want), (
            spec.param.kind, spec.entry_kernel, spec.alpha)


def test_hvp_is_symmetric():
    for spec, theta, delta, eta in hvp_cases(62):
        a = float(np.vdot(theta_hvp(spec, theta, delta), eta))
        b = float(np.vdot(theta_hvp(spec, theta, eta), delta))
        assert abs(a - b) <= 1e-12 * max(abs(a), abs(b)), spec.param.kind


def test_entry_kernel_hvp_forms_no_dense_array():
    # with the mask and the dense observations gone, the entry kernel's
    # product reads only the observed entries, and gives the same bits
    for kind in ("subspace", "rectangular", "psd", "skew"):
        spec, _ = noiseless_spec(kind, 63, lam=1.0, alpha=0.5, **SPARSE)
        assert spec.entry_kernel and (spec.rows, spec.cols, spec.vals)
        blind = copy.copy(spec)
        object.__setattr__(blind, "observed", None)
        object.__setattr__(blind, "mask", None)
        gen = np.random.default_rng(64)
        x, y = factors(spec.param, 1.5 * gen.standard_normal(spec.param.d))
        dx, dy = factors(spec.param, gen.standard_normal(spec.param.d))
        for got, want in zip(factor_hvp(x, y, dx, dy, blind),
                             factor_hvp(x, y, dx, dy, spec)):
            assert got.tobytes() == want.tobytes()


# ------------------------------------------- subspace in block coordinates

def test_subspace_entry_kernel_equals_the_factor_level():
    # the value and gradient in block coordinates must be those at the
    # factors X = U Theta_A, Y = V Theta_B, with the hinge skipped and
    # active. The bases' Grams miss the identity by 7-8e-11, inside
    # SubspaceParam's 1e-10 check, so an evaluation that took U^T U = I
    # would err by about that much, beyond the 1e-12 asked here
    gen = np.random.default_rng(46)
    spec, _ = noiseless_spec("subspace", 47, **SPARSE)
    bu = spec.param.basis_u * (1 + 1.7e-11)
    bv = spec.param.basis_v * (1 - 1.7e-11)
    for base in (bu, bv):
        eye = np.eye(base.shape[1])
        assert 5e-11 < np.linalg.norm(base.T @ base - eye) < 1e-10
    param = SubspaceParam(spec.param.n1, spec.param.n2, spec.param.r, bu, bv)
    spec = make_spec(param, spec.mask, spec.observed, lam=0.7)
    assert spec.core is not None
    for trial in range(10):
        theta = 1.5 * gen.standard_normal(param.d)
        x, y = factors(param, theta)
        norms = np.linalg.norm(np.vstack([x, y]), axis=1)
        for alpha in (2.0 * max(np.linalg.norm(x), np.linalg.norm(y)),
                      float(np.median(norms)), 0.0):
            at = dataclasses.replace(spec, alpha=alpha)
            ev = objective_value(at, theta, keep=True)
            assert ev.hinged == bool(alpha < norms.max())
            ref = objective._evaluate(x, y, at).value
            assert abs(ev.value - ref) <= 1e-12 * ref
            grad = adjoint(param, *factor_grad(x, y, at))
            for g in (objective_grad(at, theta, ev),
                      objective_grad(at, theta)):
                assert np.linalg.norm(g - grad) <= 1e-12 * np.linalg.norm(grad)


def test_subspace_entry_kernel_forms_no_factor_while_the_hinge_is_skipped(
        monkeypatch):
    # below alpha neither a value nor a gradient may map the blocks to the
    # factors or read the n x s bases; with rows beyond alpha the hinge
    # forms the factors and matches the reference penalty
    gen = np.random.default_rng(48)
    spec, _ = noiseless_spec("subspace", 49, **SPARSE)
    theta = gen.standard_normal(spec.param.d)
    x, y = factors(spec.param, theta)
    norms = np.linalg.norm(np.vstack([x, y]), axis=1)
    assert spec.lam > 0.0 and spec.alpha > np.linalg.norm(x)

    def refuse(*args):
        raise AssertionError("formed the factors")

    monkeypatch.setattr(SubspaceParam, "factors", refuse)
    blind = dataclasses.replace(spec)
    object.__setattr__(blind, "core", tuple(
        side._replace(basis=None) for side in blind.core))
    ev = objective_value(blind, theta, keep=True)
    assert not ev.hinged and ev.x is None and ev.y is None
    assert ev.value == objective_value(spec, theta)
    assert np.array_equal(objective_grad(blind, theta, ev),
                          objective_grad(spec, theta))
    assert np.array_equal(objective_grad(blind, theta),
                          objective_grad(spec, theta))

    alpha = float(np.median(norms))
    at = dataclasses.replace(spec, alpha=alpha)
    ev = objective_value(at, theta, keep=True)
    assert ev.hinged
    assert np.array_equal(ev.x, x) and np.array_equal(ev.y, y)
    for h, f in zip(ev.hinges, (x, y)):
        assert h.value == reference_row_hinge_penalty(f, alpha)


# ------------------------------------------------------------ stacked points

STACK_KINDS = ("subspace", "rectangular", "psd", "skew")
# the standard tuning (alpha = 100, no row near it), no penalty, and a small
# alpha that some of the stack's items cross and some stay inside
STACK_TUNINGS = ({}, dict(lam=0.0), dict(lam=0.4, alpha=1.0))
# an alpha that every item of the stack crosses, drawn after the others
BEYOND_ALPHA = dict(lam=0.4, alpha=0.02)


def stack_cases(seed):
    """(spec, m_star, thetas, deltas) for every kind, kernel and tuning: 5
    points per stack, at scales from well inside alpha = 1 to beyond it."""
    gen = np.random.default_rng(seed)
    scale = np.array([0.05, 0.3, 1.0, 1.5, 0.1])[:, None]
    cases = [(density, kind, tuning) for density in (DENSE, SPARSE)
             for kind in STACK_KINDS for tuning in STACK_TUNINGS]
    cases += [(density, kind, BEYOND_ALPHA) for density in (DENSE, SPARSE)
              for kind in STACK_KINDS]
    for density, kind, tuning in cases:
        spec, m_star = noiseless_spec(kind, seed, **tuning, **density)
        d = spec.param.d
        yield (spec, m_star, scale * gen.standard_normal((5, d)),
               gen.standard_normal((5, d)))


def test_every_item_crosses_the_smallest_alpha():
    for spec, _, thetas, _ in stack_cases(81):
        if spec.alpha == BEYOND_ALPHA["alpha"]:
            assert all(objective_value(spec, t, keep=True).hinged
                       for t in thetas), spec.param.kind


def test_stacked_values_equal_the_points():
    for spec, _, thetas, _ in stack_cases(81):
        values = objective_value(spec, thetas)
        assert values.shape == (5,)
        assert np.array_equal(values, [objective_value(spec, t)
                                       for t in thetas]), spec.param.kind
        assert np.array_equal(objective_value(spec, thetas[:1]),
                              [objective_value(spec, thetas[0])])


def test_stacked_stencil_equals_the_points():
    h = PARAM_GAP_STEP
    for spec, _, thetas, deltas in stack_cases(83):
        gaps = param_curvature_gap(spec, thetas, deltas)
        assert gaps.shape == (5,)
        one = [param_curvature_gap(spec, t, d)
               for t, d in zip(thetas, deltas)]
        assert np.array_equal(gaps, one), spec.param.kind
        assert np.array_equal(param_curvature_gap(spec, thetas[:1],
                                                  deltas[:1]), one[:1])
        # each point's 5-point stack gives what 5 separate values give
        t, d = thetas[2], deltas[2]
        g0, gp1, gm1, gp2, gm2 = (objective_value(spec, t + s * d)
                                  for s in (0.0, h, -h, 2.0 * h, -2.0 * h))
        d2 = (-gp2 + 16.0 * gp1 - 30.0 * g0 + 16.0 * gm1 - gm2) / (
            12.0 * h ** 2)
        d1 = (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * h)
        assert one[2] == d2 - 4.0 * d1


def test_stacked_factor_forms_equal_the_points():
    for spec, _, thetas, deltas in stack_cases(85):
        param = spec.param
        x, y = factors(param, thetas)
        dx, dy = factors(param, deltas)
        assert x.shape == (5, param.n1, param.r)
        gx, gy = factor_grad(x, y, spec)
        hx, hy = factor_hvp(x, y, dx, dy, spec)
        quad = factor_curvature(x, y, dx, dy, spec)
        gaps = factor_curvature_gap(x, y, dx, dy, spec)
        for i in range(5):
            gxi, gyi = factor_grad(x[i], y[i], spec)
            assert np.array_equal(gx[i], gxi) and np.array_equal(gy[i], gyi)
            hxi, hyi = factor_hvp(x[i], y[i], dx[i], dy[i], spec)
            assert hx[i].tobytes() == hxi.tobytes()
            assert hy[i].tobytes() == hyi.tobytes()
            assert quad[i] == factor_curvature(x[i], y[i], dx[i], dy[i],
                                               spec), param.kind
            assert gaps[i] == factor_curvature_gap(x[i], y[i], dx[i], dy[i],
                                                   spec), param.kind
        assert np.array_equal(
            factor_curvature_gap(x[:1], y[:1], dx[:1], dy[:1], spec),
            [factor_curvature_gap(x[0], y[0], dx[0], dy[0], spec)])


def test_stack_takes_one_pass_or_goes_point_by_point(monkeypatch):
    # the stack rule: a dense stack with no row beyond alpha (the standard
    # tuning, or no penalty) is one stacked Evaluation in each entry point;
    # a stack on the observed-entry kernel or with an item whose Frobenius
    # test reaches alpha is none, and one Evaluation per point
    calls = {"stacked": 0, "point": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls["stacked" if args[0].ndim > 2 else "point"] += 1
            return fn(*args, **kwargs)
        return wrapper

    evaluate = counted(objective._evaluate)
    monkeypatch.setattr(objective, "_evaluate", evaluate)
    monkeypatch.setattr(landscape, "_evaluate", evaluate)
    monkeypatch.setattr(objective, "_core_evaluate",
                        counted(objective._core_evaluate))
    passes = set()
    for spec, _, thetas, deltas in stack_cases(91):
        x, y = factors(spec.param, thetas)
        dx, dy = factors(spec.param, deltas)
        one_pass = not spec.entry_kernel and (
            not spec.lam or spec.alpha == 100.0)  # the standard alpha
        expect = dict(stacked=1, point=0) if one_pass else dict(stacked=0,
                                                                point=5)
        for call in (lambda: objective_value(spec, thetas),
                     lambda: factor_grad(x, y, spec),
                     lambda: factor_hvp(x, y, dx, dy, spec),
                     lambda: factor_curvature(x, y, dx, dy, spec),
                     lambda: factor_curvature_gap(x, y, dx, dy, spec)):
            calls.update(stacked=0, point=0)
            call()
            assert calls == expect, (spec.param.kind, spec.entry_kernel,
                                     spec.lam, spec.alpha)
        passes.add((spec.param.kind, one_pass))
    # every kind takes each route
    assert len(passes) == 2 * len(STACK_KINDS)


def test_stacked_witnesses_equal_the_points():
    fields = ("residual_fit", "residual_balance", "min_corr_eig",
              "corr_scale")
    for spec, m_star, thetas, _ in stack_cases(87):
        param = spec.param
        root = param.witness_root(m_star)
        cert = balanced_witness(param, thetas, m_star, root)
        assert cert.xi.shape == (5, param.d)
        assert cert.passes.all(), param.kind
        for theta, xi, passes, *values in zip(
                thetas, cert.xi, cert.passes,
                *(getattr(cert, f) for f in fields)):
            one = balanced_witness(param, theta, m_star, root)
            assert np.array_equal(xi, one.xi), param.kind
            assert passes == one.passes
            assert values == [getattr(one, f) for f in fields], param.kind
            assert cert.m_star_norm == one.m_star_norm
        first = balanced_witness(param, thetas[:1], m_star)
        one = balanced_witness(param, thetas[0], m_star)
        assert np.array_equal(first.xi, one.xi[None])
        for f in fields:
            assert np.array_equal(getattr(first, f), [getattr(one, f)])


def test_stack_takes_neither_keep_nor_out():
    spec, _ = noiseless_spec("rectangular", 89)
    thetas = np.zeros((3, spec.param.d))
    with pytest.raises(ValueError, match="keep"):
        objective_value(spec, thetas, keep=True)
    with pytest.raises(ValueError, match="keep"):
        objective_value(spec, thetas, out=np.empty(spec.observed.shape))
    with pytest.raises(ValueError, match="above"):
        objective_value(spec, thetas, above=1.0)
    with pytest.raises(ValueError, match="c x d stack"):
        objective_value(spec, np.zeros((2, 3, spec.param.d)))


# ------------------------------------------------------- the fit-term stop

def _fit_term(spec, ev):
    """The fit term 1/(2 p_hat) ||P(X Y^T - M)||^2 of a full Evaluation."""
    r = ev.resid[0] if isinstance(ev.resid, tuple) else ev.resid
    return 0.5 / spec.p_hat * float(np.vdot(r, r))


def _assert_same_record(a, b):
    assert a.value == b.value
    assert (a.x is None) == (b.x is None) and (a.y is None) == (b.y is None)
    for f, g in ((a.x, b.x), (a.y, b.y)):
        assert f is None or np.array_equal(f, g)
    if isinstance(a.resid, tuple):      # (resid, xr, yc), entry kernel
        assert all(map(np.array_equal, a.resid, b.resid))
    else:
        assert np.array_equal(a.resid, b.resid)
    assert np.array_equal(a.balance, b.balance)
    for h, k in zip(a.hinges, b.hinges):
        assert h.value == k.value
        for u, v in zip(h[1:], k[1:]):
            assert (u is None) == (v is None)
            assert u is None or np.array_equal(u, v)
    assert (a.core is None) == (b.core is None)
    assert a.core is None or all(map(np.array_equal, a.core, b.core))


def test_value_above_stops_at_the_fit_term():
    # above = v gives None exactly when the full Evaluation's fit term
    # exceeds v, and otherwise that Evaluation bit for bit, on both kernels
    # (subspace at SPARSE in block coordinates), with the penalty off, and
    # with every row hinge active
    gen = np.random.default_rng(91)
    scale = np.array([0.05, 0.3, 1.0, 1.5])[:, None]
    for density in (DENSE, SPARSE):
        for kind in STACK_KINDS:
            for tuning in ({}, dict(lam=0.0), BEYOND_ALPHA):
                spec, _ = noiseless_spec(kind, 91, **tuning, **density)
                for theta in scale * gen.standard_normal((4, spec.param.d)):
                    full = objective_value(spec, theta, keep=True)
                    assert full.hinged == (tuning is BEYOND_ALPHA)
                    fit, value = _fit_term(spec, full), full.value
                    assert fit <= value
                    for v in (-1.0, 0.0, np.nextafter(fit, -np.inf), fit,
                              np.nextafter(fit, np.inf), 0.5 * (fit + value),
                              value, np.inf):
                        ev = objective_value(spec, theta, keep=True, above=v)
                        bare = objective_value(spec, theta, above=v)
                        if fit > v:
                            assert ev is None and bare is None, (kind, v)
                        else:
                            _assert_same_record(ev, full)
                            assert bare == value


# ---------------------------------------------------------- specialized forms

def test_specialized_forms_match_general():
    gen = np.random.default_rng(7)
    cases = (("subspace", subspace_objective_value),
             ("skew", skew_objective_value),
             ("psd", psd_objective_value))
    for density in (DENSE, SPARSE):
        for kind, form in cases:
            spec, _ = noiseless_spec(kind, 19, lam=0.4, alpha=0.9, **density)
            for trial in range(100):
                theta = gen.standard_normal(spec.param.d)
                a = objective_value(spec, theta)
                b = form(spec, theta)
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (kind, density)


def test_specialized_forms_reject_wrong_kind():
    spec, _ = noiseless_spec("psd", 21)
    with pytest.raises(ValueError):
        skew_objective_value(spec, np.zeros(spec.param.d))


def test_skew_penalty_stacking_identity():
    # the two stacked blocks see the same row norms, so the penalty on X
    # and on Y agree and the specialized form can fold them into one term
    gen = np.random.default_rng(8)
    spec, _ = noiseless_spec("skew", 23, lam=1.0, alpha=0.3)
    theta = gen.standard_normal(spec.param.d)
    x, y = x_of(spec.param, theta), y_of(spec.param, theta)
    a = _row_hinge(x, spec.alpha).value
    b = _row_hinge(y, spec.alpha).value
    assert a == pytest.approx(b, rel=1e-12)


# ----------------------------------------------------------------- spec rules

def test_default_tuning_rule():
    lam, alpha = default_tuning(60, 40, 0.25)
    assert lam == pytest.approx(100 * np.sqrt(100 * 0.25), rel=1e-14)
    assert alpha == 100.0


def test_spec_validation():
    spec, _ = noiseless_spec("rectangular", 25)
    param, mask, observed = spec.param, spec.mask, spec.observed
    with pytest.raises(ValueError):
        ObjectiveSpec(param, observed, mask, -1.0, 1.0)
    for lam in (np.nan, np.inf):     # f would be NaN from the start
        with pytest.raises(ValueError, match="lam must be finite"):
            ObjectiveSpec(param, observed, mask, lam, 1.0)
    with pytest.raises(ValueError):
        ObjectiveSpec(param, observed, mask, 1.0, -0.5)
    off_support = observed + 1.0      # leaks outside the mask
    with pytest.raises(ValueError):
        ObjectiveSpec(param, off_support, mask, 1.0, 1.0)


def test_spec_accepts_alpha_extremes():
    spec, _ = noiseless_spec("rectangular", 27, lam=0.0, alpha=0.0)
    assert spec.alpha == 0.0
    spec, _ = noiseless_spec("rectangular", 27, lam=0.0, alpha=np.inf)
    assert spec.alpha == np.inf


def test_make_spec_rejects_empty_mask():
    rng = RngState(29).derive("empty")
    param, m_star = rectangular_instance(6, 5, 1, rng)
    mask = bernoulli_mask(6, 5, 0.0, rng.derive("m"))
    with pytest.raises(ValueError):
        make_spec(param, mask, np.zeros((6, 5)))


def test_spec_derives_its_observed_fraction_from_the_mask():
    rng = RngState(37).derive("fraction")
    n1, n2 = 9, 7
    param, m_star = rectangular_instance(n1, n2, 2, rng.derive("i"))
    empty = bernoulli_mask(n1, n2, 0.0, rng.derive("e"))
    with pytest.raises(ValueError, match=r"empty mask: .* p = 0\.0"):
        ObjectiveSpec(param, np.zeros((n1, n2)), empty, 1.0, 1.0)
    mask = bernoulli_mask(n1, n2, 0.5, rng.derive("m"))
    spec = ObjectiveSpec(param, m_star * mask.matrix, mask, 1.0, 1.0)
    assert spec.p_hat == mask.count / (n1 * n2)
    other = rectangular_param(n1, n2, 1)
    assert dataclasses.replace(spec, param=other).p_hat == spec.p_hat


def test_spec_entries_equal_the_nonzero_route():
    rng = RngState(71).derive("entries")
    param, m_star = rectangular_instance(9, 9, 2, rng.derive("i"))
    masks = [bernoulli_mask(9, 9, 0.4, rng.derive("b")),
             symmetric_offdiag_mask(9, 0.4, rng.derive("s"))]
    for mask in masks:
        observed = m_star * mask.matrix
        spec = ObjectiveSpec(param, observed, mask, 1.0, 1.0)
        # the dense kernel reads none of them, so none is built
        objective_grad(spec, np.ones(param.d))
        assert not {"rows", "cols", "vals"} & vars(spec).keys()
        rows, cols = np.nonzero(mask.matrix)
        for got, want in ((spec.rows, rows), (spec.cols, cols),
                          (spec.vals, observed[rows, cols])):
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert not got.flags.writeable
        made = make_spec(param, mask, m_star)
        assert np.array_equal(made.vals, spec.vals)
        assert np.array_equal(made.observed, observed)


@pytest.mark.parametrize("density", [DENSE, SPARSE],
                         ids=["dense", "entry"])
def test_spec_observed_is_read_only(density):
    # the solves of one cell share their spec's observed array
    spec, _ = noiseless_spec("rectangular", 79, **density)
    with pytest.raises(ValueError):
        spec.observed[0, 0] = 1.0


def test_spec_stores_a_c_contiguous_read_only_copy():
    # a Fortran-ordered array, a transposed view and a list each become a
    # C-contiguous read-only observed array, and the caller's array stays
    # writable
    spec, _ = noiseless_spec("rectangular", 83)
    param, mask = spec.param, spec.mask
    want = np.array(spec.observed)
    fortran = np.asfortranarray(want)
    view = np.ascontiguousarray(want.T).T
    assert not view.flags.c_contiguous and view.base is not None
    for given in (fortran, view, want.tolist()):
        got = ObjectiveSpec(param, given, mask, 1.0, 1.0).observed
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous
        assert not got.flags.writeable
        assert np.array_equal(got, want)
        if isinstance(given, np.ndarray):
            assert given.flags.writeable


def test_spec_checks_each_shape_alone():
    rng = RngState(89).derive("shapes")
    param, m_star = rectangular_instance(6, 5, 1, rng.derive("i"))
    # observed fits the mask but not the parameterization
    wide = bernoulli_mask(7, 5, 0.6, rng.derive("w"))
    with pytest.raises(ValueError, match="does not match parameterization"):
        ObjectiveSpec(param, np.where(wide.matrix, 1.0, 0.0), wide, 1.0, 1.0)
    # observed fits the parameterization but not the mask, whose entries
    # reach past it
    mask = bernoulli_mask(6, 5, 0.6, rng.derive("m"))
    observed = m_star * mask.matrix
    with pytest.raises(ValueError, match="does not match mask"):
        ObjectiveSpec(param, observed, wide, 1.0, 1.0)
    ObjectiveSpec(param, observed, mask, 1.0, 1.0)


def test_spec_rejects_off_support_and_non_finite_observed():
    spec, _ = noiseless_spec("rectangular", 73)
    param, mask = spec.param, spec.mask
    i, j = np.argwhere(~mask.matrix)[0]
    k, m = np.argwhere(mask.matrix)[0]
    for value in (1e-300, -2.0):        # one entry off the mask
        leak = spec.observed.copy()
        leak[i, j] = value
        with pytest.raises(ValueError, match="off the mask"):
            ObjectiveSpec(param, leak, mask, 1.0, 1.0)
    # an observed zero does not hide an entry off the mask
    swap = spec.observed.copy()
    swap[k, m], swap[i, j] = 0.0, 1.0
    with pytest.raises(ValueError, match="off the mask"):
        ObjectiveSpec(param, swap, mask, 1.0, 1.0)
    for where in ((i, j), (k, m)):
        bad = spec.observed.copy()
        bad[where] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            ObjectiveSpec(param, bad, mask, 1.0, 1.0)
    signed_zero = spec.observed.copy()
    signed_zero[i, j] = -0.0
    ObjectiveSpec(param, signed_zero, mask, 1.0, 1.0)


def test_observed_matrix_is_frozen():
    spec, _ = noiseless_spec("psd", 31)
    with pytest.raises(ValueError):
        spec.observed[0, 0] = 5.0
