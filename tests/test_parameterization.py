"""Tests for the linear factor parameterizations and witness constructions."""

import dataclasses

import numpy as np
import pytest

from lpmc.errors import NumericError
from lpmc.instances import (orthonormal_vectors, psd_instance,
                            rectangular_instance, skew_instance,
                            subspace_instance)
from lpmc.parameterization import (FIT_TOL, KINDS, PARAM_CLASSES, PsdParam,
                                   RectangularParam, SkewParam, SubspaceParam,
                                   adjoint, balanced_witness, certify,
                                   factors, pack_blocks, psd_param,
                                   rectangular_param, skew_param,
                                   subspace_param, theta_blocks, x_of, y_of)
from lpmc.sampling import RngState


def every_param(n=10, r=2, s=4):
    gen = np.random.default_rng(0)
    bu = np.linalg.qr(gen.standard_normal((n, s)))[0]
    bv = np.linalg.qr(gen.standard_normal((n, s)))[0]
    return [rectangular_param(n, n, r), psd_param(n, r),
            subspace_param(bu, bv, r), skew_param(n, r)]


# ------------------------------------------------------------------- the maps

def test_kind_table_gives_the_cli_order_and_the_square_kinds():
    assert KINDS == ("rectangular", "psd", "subspace", "skew")
    assert [PARAM_CLASSES[kind].kind for kind in KINDS] == list(KINDS)
    assert [k for k in KINDS if PARAM_CLASSES[k].square] == ["psd", "skew"]


def test_zero_theta_gives_zero_factors():
    for param in every_param():
        theta = np.zeros(param.d)
        assert not x_of(param, theta).any()
        assert not y_of(param, theta).any()


def test_skew_with_zero_second_block():
    param = skew_param(8, 4)
    gen = np.random.default_rng(1)
    theta = pack_blocks(param, gen.standard_normal((8, 2)), np.zeros((8, 2)))
    prod = x_of(param, theta) @ y_of(param, theta).T
    assert np.allclose(prod, np.zeros((8, 8)), atol=1e-14)


def test_subspace_identity_bases_are_transparent():
    param = subspace_param(np.eye(6), np.eye(6), 2)
    gen = np.random.default_rng(2)
    ta, tb = gen.standard_normal((6, 2)), gen.standard_normal((6, 2))
    theta = pack_blocks(param, ta, tb)
    assert np.array_equal(x_of(param, theta), ta)
    assert np.array_equal(y_of(param, theta), tb)


def test_maps_are_linear():
    gen = np.random.default_rng(3)
    for param in every_param():
        t1 = gen.standard_normal(param.d)
        t2 = gen.standard_normal(param.d)
        lhs = x_of(param, 2.0 * t1 - 0.7 * t2)
        rhs = 2.0 * x_of(param, t1) - 0.7 * x_of(param, t2)
        scale = max(1.0, np.linalg.norm(rhs))
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * scale
        lhs = y_of(param, 2.0 * t1 - 0.7 * t2)
        rhs = 2.0 * y_of(param, t1) - 0.7 * y_of(param, t2)
        assert np.linalg.norm(lhs - rhs) <= 1e-14 * scale


def test_adjoint_of_factors_is_gram_times_theta():
    # a theta step t moves the factors by gram * t, which sets the line
    # search's first step; the subspace kind is exact up to its bases'
    # orthonormality
    gen = np.random.default_rng(5)
    grams = {"rectangular": 1, "psd": 2, "subspace": 1, "skew": 2}
    for param in every_param(r=4):
        assert param.gram == grams[param.kind]
        theta = gen.standard_normal(param.d)
        back = adjoint(param, *factors(param, theta))
        if param.kind == "subspace":
            assert (np.linalg.norm(back - param.gram * theta)
                    <= 1e-12 * np.linalg.norm(theta))
        else:
            assert np.array_equal(back, param.gram * theta)


def test_theta_length_checked():
    param = rectangular_param(4, 3, 2)
    with pytest.raises(ValueError):
        x_of(param, np.zeros(param.d + 1))


def test_skew_factor_product_is_skew():
    gen = np.random.default_rng(4)
    param = skew_param(9, 4)
    for trial in range(5):
        theta = gen.standard_normal(param.d)
        prod = x_of(param, theta) @ y_of(param, theta).T
        assert np.linalg.norm(prod + prod.T) <= 1e-12 * np.linalg.norm(prod)


# ------------------------------------------------------------------- adjoints

def test_adjoint_identity_all_kinds():
    gen = np.random.default_rng(5)
    for param in every_param():
        zx, zy = np.zeros((param.n1, param.r)), np.zeros((param.n2, param.r))
        for trial in range(25):
            delta = gen.standard_normal(param.d)
            gx = gen.standard_normal((param.n1, param.r))
            gy = gen.standard_normal((param.n2, param.r))
            lhs = np.vdot(x_of(param, delta), gx)
            rhs = float(delta @ adjoint(param, gx, zy))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            lhs = np.vdot(y_of(param, delta), gy)
            rhs = float(delta @ adjoint(param, zx, gy))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_adjoint_is_sum_of_one_sided_adjoints():
    gen = np.random.default_rng(9)
    for param in every_param():
        gx = gen.standard_normal((param.n1, param.r))
        gy = gen.standard_normal((param.n2, param.r))
        both = adjoint(param, gx, gy)
        parts = (adjoint(param, gx, np.zeros_like(gy))
                 + adjoint(param, np.zeros_like(gx), gy))
        assert np.allclose(both, parts, rtol=0.0, atol=1e-14), param.kind


def test_rectangular_adjoint_placement():
    param = rectangular_param(3, 2, 2)
    g = np.arange(6.0).reshape(3, 2)
    out = adjoint(param, g, np.zeros((2, 2)))
    assert np.array_equal(out[:6], g.ravel())
    assert not out[6:].any()


def test_subspace_adjoint_placement():
    gen = np.random.default_rng(6)
    bu = np.linalg.qr(gen.standard_normal((7, 3)))[0]
    bv = np.linalg.qr(gen.standard_normal((6, 3)))[0]
    param = subspace_param(bu, bv, 2)
    g = gen.standard_normal((7, 2))
    out = adjoint(param, g, np.zeros((6, 2)))
    assert np.allclose(out[: 3 * 2], (bu.T @ g).ravel(), atol=1e-14)
    assert not out[3 * 2:].any()


def test_adjoint_shape_checked():
    param = psd_param(5, 2)
    with pytest.raises(ValueError):
        adjoint(param, np.zeros((4, 2)), np.zeros((5, 2)))
    with pytest.raises(ValueError):
        adjoint(param, np.zeros((5, 2)), np.zeros((5, 3)))


def test_factors_match_x_of_and_y_of():
    gen = np.random.default_rng(10)
    for param in every_param():
        theta = gen.standard_normal(param.d)
        x, y = factors(param, theta)
        assert np.array_equal(x, x_of(param, theta))
        assert np.array_equal(y, y_of(param, theta))
        # fresh buffers: the psd pair is equal but not shared, and no
        # factor aliases theta
        assert not np.shares_memory(x, y)
        assert not np.shares_memory(x, theta) and not np.shares_memory(y, theta)


# ------------------------------------------------------- parameter validation

@pytest.mark.parametrize("cls", [PsdParam, SkewParam])
def test_square_kinds_reject_a_non_square_target(cls):
    assert cls.square
    with pytest.raises(ValueError, match="needs a square target"):
        cls(4, 5, 2)


def test_rectangular_kind_takes_a_non_square_target():
    param = RectangularParam(4, 5, 2)
    assert not param.square
    assert param.block_shapes() == ((4, 2), (5, 2))


def test_param_validation_errors():
    with pytest.raises(ValueError):
        skew_param(6, 3)           # odd r cannot split into paired blocks
    with pytest.raises(ValueError):
        rectangular_param(4, 4, 5)  # r beyond min(n1, n2)
    with pytest.raises(ValueError):
        subspace_param(np.eye(4)[:, :2], np.eye(4), 3)  # r beyond s


@pytest.mark.parametrize("k", [-3, 0, 13])
def test_orthonormal_vectors_rejects_widths_outside_one_to_n(k):
    with pytest.raises(ValueError, match=f"cannot draw {k} orthonormal"):
        orthonormal_vectors(12, k, RngState(0))


@pytest.mark.parametrize("n, k", [(500, 40), (12, 12), (7, 1)])
def test_orthonormal_vectors_are_orthonormal(n, k):
    q = orthonormal_vectors(n, k, RngState(3))
    assert q.shape == (n, k)
    assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-13


@pytest.mark.parametrize("n, k, j", [(500, 40, 1), (500, 40, 7),
                                     (500, 40, 39), (12, 12, 5),
                                     (12, 12, 11)])
def test_orthonormal_vectors_nest_bit_for_bit(n, k, j):
    # the subspace sweeps slice every width's bases from the widest draw
    wide = orthonormal_vectors(n, k, RngState(11))
    assert np.array_equal(wide[:, :j], orthonormal_vectors(n, j, RngState(11)))


def test_orthonormal_vectors_repeat_on_one_stream():
    rng = RngState(4).derive("left")
    q = orthonormal_vectors(30, 6, rng)
    assert q.tobytes() == orthonormal_vectors(30, 6, rng).tobytes()
    assert not np.array_equal(q, orthonormal_vectors(30, 6, RngState(5)))


def test_orthonormal_vectors_projector_mean_is_isotropic():
    # a Haar draw has E[Q Q^T] = (k/n) I; each entry of the mean of 4,000
    # draws has a standard deviation of 0.003-0.004
    n, k, draws = 6, 2, 4000
    root = RngState(21)
    total = np.zeros((n, n))
    for i in range(draws):
        q = orthonormal_vectors(n, k, root.derive(i))
        total += q @ q.T
    assert np.abs(total / draws - (k / n) * np.eye(n)).max() <= 0.02


def test_subspace_rejects_a_basis_that_is_not_orthonormal():
    gen = np.random.default_rng(7)
    b = np.linalg.qr(gen.standard_normal((8, 3)))[0]
    tilted = b @ np.diag([1.0, 1.0 + 1e-6, 1.0])
    with pytest.raises(ValueError, match="basis_u .* not orthonormal"):
        subspace_param(tilted, np.eye(8)[:, :3], 2)


def test_subspace_rejects_dependent_columns():
    b = np.zeros((5, 2))
    b[:, 0] = b[:, 1] = 1.0
    with pytest.raises(ValueError, match="not orthonormal"):
        subspace_param(b, np.eye(5)[:, :2], 1)


@pytest.mark.parametrize("n1, n2", [(9, 7), (8, 6)])
def test_subspace_rejects_a_basis_of_another_row_count(n1, n2):
    # bases of 8 and 7 rows: one of them misses its dimension each time
    bu, bv = np.eye(8)[:, :3], np.eye(7)[:, :3]
    with pytest.raises(ValueError, match="basis row counts must match n1, n2"):
        SubspaceParam(n1, n2, 2, bu, bv)


# ------------------------------------------------------------------ witnesses

def relative_fit(param, xi, m_star):
    resid = x_of(param, xi) @ y_of(param, xi).T - m_star
    return np.linalg.norm(resid) / np.linalg.norm(m_star)


def balance_gap(param, xi):
    x, y = x_of(param, xi), y_of(param, xi)
    return np.linalg.norm(x.T @ x - y.T @ y)


def test_witness_at_self_correlation():
    rng = RngState(11).derive("self")
    param, m_star = subspace_instance(20, 20, 2, 5, 5, rng)
    first = balanced_witness(param, np.zeros(param.d), m_star)
    cert = balanced_witness(param, first.xi, m_star)
    assert cert.passes
    assert cert.min_corr_eig >= -1e-12


def test_witness_at_zero_theta():
    rng = RngState(11).derive("zero")
    for kind, (param, m_star) in (
        ("subspace", subspace_instance(16, 14, 2, 5, 4, rng.derive("su"))),
        ("rectangular", rectangular_instance(12, 9, 2, rng.derive("re"))),
        ("psd", psd_instance(10, 2, rng.derive("ps"))),
        ("skew", skew_instance(10, 4, rng.derive("sk"))),
    ):
        cert = balanced_witness(param, np.zeros(param.d), m_star)
        assert cert.passes, kind
        assert abs(cert.min_corr_eig) <= 1e-12


def test_witness_subspace_random_instance():
    rng = RngState(13).derive("w")
    param, m_star = subspace_instance(20, 20, 2, 5, 5, rng)
    theta = rng.derive("theta").generator().standard_normal(param.d)
    cert = balanced_witness(param, theta, m_star)
    assert cert.passes
    # re-derive the three conditions independently of the certificate fields
    assert relative_fit(param, cert.xi, m_star) <= 1e-8
    assert balance_gap(param, cert.xi) <= 1e-8 * np.linalg.norm(m_star)
    x, y = x_of(param, cert.xi), y_of(param, cert.xi)
    tx, ty = x_of(param, theta), y_of(param, theta)
    corr = tx.T @ x + ty.T @ y
    eigs = np.linalg.eigvalsh(0.5 * (corr + corr.T))
    assert eigs[0] >= -1e-8 * max(1.0, np.linalg.norm(corr))


def test_witness_skew_orthonormal_pairs():
    rng = RngState(17).derive("sk")
    param, m_star = skew_instance(12, 4, rng, unit_blocks=True)
    theta = rng.derive("theta").generator().standard_normal(param.d)
    cert = balanced_witness(param, theta, m_star)
    assert cert.passes
    # the paired construction balances the factors to rounding, well inside
    # the certificate tolerance
    assert balance_gap(param, cert.xi) <= 1e-10
    assert relative_fit(param, cert.xi, m_star) <= 1e-8


def test_witness_skew_near_repeated_blocks():
    # block magnitudes 2e-8 apart, relative; the Youla pairing must still
    # reproduce the target to the certificate tolerance
    gen = np.random.default_rng(44)
    param = skew_param(10, 4)
    for _ in range(20):
        q = np.linalg.qr(gen.standard_normal((10, 4)))[0]
        u, v = q[:, 0::2] * [1.0, 1.0 - 2e-8], q[:, 1::2]
        m_star = u @ v.T - v @ u.T
        theta = gen.standard_normal(param.d)
        cert = balanced_witness(param, theta, m_star)
        assert cert.passes
        assert relative_fit(param, cert.xi, m_star) <= 1e-8


def test_witness_psd_random_instance():
    rng = RngState(19).derive("ps")
    param, m_star = psd_instance(15, 3, rng)
    theta = rng.derive("theta").generator().standard_normal(param.d)
    cert = balanced_witness(param, theta, m_star)
    assert cert.passes
    assert relative_fit(param, cert.xi, m_star) <= 1e-8
    x, y = x_of(param, cert.xi), y_of(param, cert.xi)
    assert np.array_equal(x, y)


def test_witness_rectangular_random_instance():
    rng = RngState(23).derive("re")
    param, m_star = rectangular_instance(18, 11, 3, rng)
    theta = rng.derive("theta").generator().standard_normal(param.d)
    cert = balanced_witness(param, theta, m_star)
    assert cert.passes


def test_witness_rank_deficient_target():
    # rank below r is padded, not rejected
    rng = RngState(29).derive("lo")
    param, m_star = psd_instance(12, 2, rng)
    wide = psd_param(12, 4)
    cert = balanced_witness(wide, np.zeros(wide.d), m_star)
    assert cert.passes


def test_witness_errors():
    rng = RngState(31).derive("err")
    gen = rng.generator()
    # target outside the subspace spans
    param, _ = subspace_instance(14, 14, 2, 4, 4, rng.derive("inst"))
    off_span = gen.standard_normal((14, 2)) @ gen.standard_normal((2, 14))
    with pytest.raises(ValueError, match="bases"):
        balanced_witness(param, np.zeros(param.d), off_span)
    # rank above r
    wide = gen.standard_normal((10, 4)) @ gen.standard_normal((4, 10))
    with pytest.raises(ValueError, match="exceeds r=2"):
        balanced_witness(rectangular_param(10, 10, 2), np.zeros(40), wide)
    # indefinite target for the psd kind
    sym = np.diag([2.0, 1.0, -0.5] + [0.0] * 5)
    with pytest.raises(ValueError, match="eigenvalue"):
        balanced_witness(psd_param(8, 3), np.zeros(24), sym)


@pytest.mark.parametrize("kind", KINDS)
def test_witness_rejects_a_truth_of_another_shape(kind):
    # one row too many, and a transposed truth where n1 != n2
    param = next(p for p in every_param(n=6) if p.kind == kind)
    if kind == "rectangular":
        param = rectangular_param(6, 5, 2)
    wrong = [np.ones((param.n1 + 1, param.n2))]
    if param.n1 != param.n2:
        wrong.append(np.ones((param.n2, param.n1)))
    for m_star in wrong:
        with pytest.raises(ValueError,
                           match="m_star shape does not match "
                                 "parameterization"):
            balanced_witness(param, np.zeros(param.d), m_star)


def tail_truth(kind, tail):
    """A target one r = 2 root cannot hold whole: values (1, 0.5, tail)
    (eigenvalues for psd), or Youla blocks (1, tail) for skew, whose
    numerical rank is 3, or 4 for skew. The tail holds tail / ||values||
    of the values' norm."""
    gen = np.random.default_rng(61)
    if kind == "skew":
        q = np.linalg.qr(gen.standard_normal((10, 4)))[0]
        phi, psi = q[:, :2] * (1.0, tail), q[:, 2:]
        return skew_param(10, 2), phi @ psi.T - psi @ phi.T
    values = (1.0, 0.5, tail)
    if kind == "psd":
        q = np.linalg.qr(gen.standard_normal((10, 3)))[0]
        return psd_param(10, 2), (q * values) @ q.T
    if kind == "rectangular":
        param = rectangular_param(12, 9, 2)
        u = np.linalg.qr(gen.standard_normal((12, 3)))[0]
        v = np.linalg.qr(gen.standard_normal((9, 3)))[0]
    else:
        param, _ = subspace_instance(16, 14, 2, 5, 4,
                                     RngState(61).derive("su"))
        u, v = param.basis_u[:, :3], param.basis_v[:, :3]
    return param, (u * values) @ v.T


@pytest.mark.parametrize("kind", KINDS)
def test_witness_root_truncates_a_tail_below_its_cut(kind):
    # a 1e-9 tail would leave the witness a fit residual below FIT_TOL, so
    # the root cuts it and keeps the blocks' width of columns, and the
    # witness certifies; a 1e-7 tail would not, so the root refuses
    param, m_star = tail_truth(kind, 1e-9)
    root = param.witness_root(m_star)
    for block, shape in zip(root, param.block_shapes()):
        assert block.shape == shape and np.linalg.norm(block, axis=0).all()
    theta = np.random.default_rng(61).standard_normal(param.d)
    cert = balanced_witness(param, theta, m_star, root=root)
    assert cert.passes
    assert 0.0 < cert.residual_fit <= FIT_TOL
    rank = 4 if kind == "skew" else 3
    with pytest.raises(ValueError,
                       match=f"numerical rank {rank} exceeds r=2"):
        param.witness_root(tail_truth(kind, 1e-7)[1])


@pytest.mark.parametrize("kind", KINDS)
def test_zero_truth_has_a_zero_root_that_certifies(kind):
    # no value is kept and the fill of zeros stays zero
    param = next(p for p in every_param() if p.kind == kind)
    m_star = np.zeros((param.n1, param.n2))
    root = param.witness_root(m_star)
    assert [b.shape for b in root] == list(param.block_shapes())
    assert not any(b.any() for b in root)
    theta = np.random.default_rng(73).standard_normal(param.d)
    assert balanced_witness(param, theta, m_star, root=root).passes


def test_psd_root_keeps_the_eigenvalues_above_the_rank_floor():
    # 1e-12 w_max lies below RANK_FLOOR, so the root of the rank-3 truth at
    # r = 3 keeps 2 columns and the witness fits it within FIT_TOL
    gen = np.random.default_rng(79)
    q = np.linalg.qr(gen.standard_normal((10, 3)))[0]
    m_star = (q * (1.0, 0.5, 1e-12)) @ q.T
    param = psd_param(10, 3)
    root = param.witness_root(m_star)
    assert np.count_nonzero(np.linalg.norm(root[0], axis=0)) == 2
    cert = balanced_witness(param, gen.standard_normal(param.d), m_star,
                            root=root)
    assert cert.passes
    assert 0.0 < cert.residual_fit <= FIT_TOL


def test_certify_rejects_non_witness():
    rng = RngState(37).derive("bad")
    param, m_star = rectangular_instance(10, 8, 2, rng)
    gen = rng.generator()
    cert = certify(param, np.zeros(param.d), gen.standard_normal(param.d), m_star)
    assert not cert.passes
    assert cert.residual_fit > 1e-8


def test_certify_rejects_a_fit_residual_of_1e_6():
    # xi scaled by 1 + 5e-7 keeps the balance and the correlation's sign
    # and moves X Y^T by a relative 1e-6, which a fit tolerance of 1e-8
    # rejects
    rng = RngState(43).derive("fit")
    param, m_star = rectangular_instance(10, 8, 2, rng)
    theta = rng.derive("theta").generator().standard_normal(param.d)
    cert = balanced_witness(param, theta, m_star)
    assert cert.passes
    scaled = certify(param, theta, (1 + 5e-7) * cert.xi, m_star)
    assert scaled.residual_fit == pytest.approx(1e-6, rel=1e-3)
    assert not scaled.passes
    assert dataclasses.replace(scaled, residual_fit=0.0).passes


def test_witness_sigma_range():
    # singular values of X(xi) are the square roots of M*'s spectrum
    rng = RngState(41).derive("sig")
    param, _ = subspace_instance(24, 20, 3, 6, 6, rng)
    m_star = ((param.basis_u[:, :3] * (2.0, 1.0, 0.25))
              @ param.basis_v[:, :3].T)
    cert = balanced_witness(param, np.zeros(param.d), m_star)
    sig = np.linalg.svd(x_of(param, cert.xi), compute_uv=False)
    assert sig[0] == pytest.approx(np.sqrt(2.0), rel=1e-8)
    assert sig[2] == pytest.approx(np.sqrt(0.25), rel=1e-8)


def test_theta_blocks_roundtrip():
    gen = np.random.default_rng(8)
    for param in every_param():
        theta = gen.standard_normal(param.d)
        blocks = theta_blocks(param, theta)
        assert np.array_equal(pack_blocks(param, *blocks), theta)
        # the blocks are views that tile theta in the cached layout's order
        assert param.block_layout is param.block_layout
        for b, (lo, hi, shape) in zip(blocks, param.block_layout):
            assert b.shape == shape and np.shares_memory(b, theta)
            assert np.array_equal(b.reshape(-1), theta[lo:hi])
        assert [lo for lo, _, _ in param.block_layout] == (
            [0] + [hi for _, hi, _ in param.block_layout[:-1]])
        assert param.block_layout[-1][1] == param.d


def test_stacked_blocks_and_factors_equal_the_points():
    gen = np.random.default_rng(9)
    for param in every_param():
        thetas = gen.standard_normal((3, param.d))
        blocks = theta_blocks(param, thetas)
        assert [b.shape for b in blocks] == [(3,) + shape for shape in
                                             param.block_shapes()]
        assert np.array_equal(pack_blocks(param, *blocks), thetas)
        x, y = factors(param, thetas)
        for theta, xi, yi in zip(thetas, x, y):
            xp, yp = factors(param, theta)
            assert np.array_equal(xi, xp) and np.array_equal(yi, yp), (
                param.kind)


# ---------------------------------------- witness roots and their alignments

def one_truth_per_kind(seed):
    rng = RngState(seed).derive("roots")
    return (subspace_instance(16, 14, 2, 5, 4, rng.derive("su")),
            rectangular_instance(12, 9, 2, rng.derive("re")),
            psd_instance(10, 2, rng.derive("ps")),
            skew_instance(10, 4, rng.derive("sk")))


def test_witness_from_root_equals_rootless_witness():
    gen = np.random.default_rng(53)
    for param, m_star in one_truth_per_kind(53):
        root = param.witness_root(m_star)
        thetas = [np.zeros(param.d)] + [gen.standard_normal(param.d)
                                        for _ in range(4)]
        for theta in thetas:      # one root, aligned at every point
            fresh = balanced_witness(param, theta, m_star)
            reused = balanced_witness(param, theta, m_star, root=root)
            assert np.array_equal(reused.xi, fresh.xi), param.kind
            for field in ("residual_fit", "residual_balance",
                          "min_corr_eig", "m_star_norm", "corr_scale"):
                assert getattr(reused, field) == getattr(fresh, field), (
                    param.kind, field)
            assert reused.passes
            assert np.array_equal(param.align(theta, root), fresh.xi)


def test_witness_root_raises_the_representability_errors():
    gen = np.random.default_rng(59)
    param, _ = subspace_instance(14, 14, 2, 4, 4, RngState(59).derive("su"))
    off_span = gen.standard_normal((14, 2)) @ gen.standard_normal((2, 14))
    with pytest.raises(ValueError, match="bases"):
        param.witness_root(off_span)
    wide = gen.standard_normal((10, 4)) @ gen.standard_normal((4, 10))
    with pytest.raises(ValueError, match="exceeds r=2"):
        rectangular_param(10, 10, 2).witness_root(wide)
    with pytest.raises(ValueError, match="not symmetric"):
        psd_param(10, 2).witness_root(np.triu(np.ones((10, 10))))
    with pytest.raises(ValueError, match="eigenvalue"):
        psd_param(8, 3).witness_root(np.diag([2.0, 1.0, -0.5] + [0.0] * 5))
    with pytest.raises(ValueError, match="exceeds r=2"):
        psd_param(10, 2).witness_root(wide @ wide.T)
    _, four_blocks = skew_instance(10, 4, RngState(59).derive("sk"))
    with pytest.raises(ValueError, match="exceeds r=2"):
        skew_param(10, 2).witness_root(four_blocks)


def test_root_of_another_truth_fails_the_certificate():
    gen = np.random.default_rng(61)
    for (param, m_star), (_, other) in zip(one_truth_per_kind(61),
                                           one_truth_per_kind(67)):
        if param.kind == "subspace":       # another truth on the same bases
            other = (param.basis_u[:, :2] @ gen.standard_normal((2, 2))
                     @ param.basis_v[:, :2].T)
        theta = gen.standard_normal(param.d)
        assert balanced_witness(param, theta, other).passes
        cert = balanced_witness(param, theta, other,
                                root=param.witness_root(m_star))
        assert not cert.passes, param.kind
        assert cert.residual_fit > 1e-2, param.kind


def test_skew_stack_raises_when_one_rotation_loses_unitarity(monkeypatch):
    # an item whose rotation is not unitary would give a witness that only
    # looks balanced; the stack raises as that point alone does
    param, m_star = skew_instance(10, 4, RngState(71).derive("sk"))
    root = param.witness_root(m_star)
    thetas = np.random.default_rng(71).standard_normal((5, param.d))
    svd = np.linalg.svd

    def stretched(h, *args, **kwargs):
        # item 3 of a stack gets a factor that is not unitary
        a, s, bh = svd(h, *args, **kwargs)
        if a.ndim == 3:
            a = a.copy()
            a[3] *= 1.5
        return a, s, bh

    monkeypatch.setattr(np.linalg, "svd", stretched)
    assert balanced_witness(param, thetas[3], m_star, root).passes
    with pytest.raises(NumericError, match="unitarity") as exc:
        balanced_witness(param, thetas, m_star, root)
    assert exc.value.best_estimate.shape == (param.r, param.r)
