"""Tests for the dense linear-algebra kernels."""

import os
import subprocess
import sys

import numpy as np
import pytest

import lpmc
from lpmc import linalg
from lpmc.linalg import (_dots, _item_dots, _mT, randomized_range,
                         reduced_svd, spectral_norm, two_inf_norm,
                         youla_decompose)


def random_skew(n, lambdas, gen):
    """Skew matrix assembled from known blocks on random orthonormal planes."""
    q = np.linalg.qr(gen.standard_normal((n, n)))[0]
    m = np.zeros((n, n))
    for i, lam in enumerate(lambdas):
        u, v = q[:, 2 * i], q[:, 2 * i + 1]
        m += lam * (np.outer(u, v) - np.outer(v, u))
    return m, q


def plane_gap(vectors, basis):
    """Distance of each column of vectors from the span of basis columns."""
    proj = basis @ (basis.T @ vectors)
    return np.linalg.norm(vectors - proj)


# ---------------------------------------------------------------- reduced_svd

def test_svd_identity_with_cutoff():
    dec = reduced_svd(np.eye(3))
    assert np.array_equal(dec.sigma, np.ones(3))
    assert dec.rank == 3


def test_svd_rank_one_outer_product():
    a = np.zeros((4, 5))
    a[0, 1] = 2.0
    dec = reduced_svd(a)
    assert dec.rank == 1
    assert np.allclose(dec.sigma, [2.0], atol=1e-14)
    assert np.allclose(np.abs(dec.u[:, 0]), [1, 0, 0, 0], atol=1e-14)
    assert np.allclose(np.abs(dec.v[:, 0]), [0, 1, 0, 0, 0], atol=1e-14)
    assert np.allclose(dec.reconstruct(), a, atol=1e-14)


def test_svd_reconstruction_residual_random():
    gen = np.random.default_rng(0)
    a = gen.standard_normal((6, 4))
    dec = reduced_svd(a)
    assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10


def test_svd_orthonormality_and_order():
    gen = np.random.default_rng(1)
    for trial in range(20):
        n1 = int(gen.integers(1, 13))
        n2 = int(gen.integers(1, 13))
        a = gen.standard_normal((n1, n2))
        dec = reduced_svd(a)
        k = dec.rank
        assert np.allclose(dec.u.T @ dec.u, np.eye(k), atol=1e-10)
        assert np.allclose(dec.v.T @ dec.v, np.eye(k), atol=1e-10)
        assert np.all(np.diff(dec.sigma) <= 0)
        assert np.all(dec.sigma > 0)
        assert np.linalg.norm(dec.reconstruct() - a) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_svd_default_cutoff_drops_noise_floor():
    # the numerical-rank cut sits at 1e-10 * sigma_1: a sigma_2 just below
    # it is dropped, one just above it is kept
    gen = np.random.default_rng(2)
    u = np.linalg.qr(gen.standard_normal((5, 2)))[0]
    v = np.linalg.qr(gen.standard_normal((4, 2)))[0]
    assert reduced_svd((u * [1.0, 3e-11]) @ v.T).rank == 1
    assert reduced_svd((u * [1.0, 3e-10]) @ v.T).rank == 2


def test_svd_zero_matrix():
    dec = reduced_svd(np.zeros((3, 2)))
    assert dec.rank == 0
    assert dec.reconstruct().shape == (3, 2)


# ------------------------------------------------------------ youla_decompose

def test_youla_canonical_two_by_two():
    s = np.array([[0.0, 3.0], [-3.0, 0.0]])
    dec = youla_decompose(s)
    assert np.allclose(dec.lambdas, [3.0], atol=1e-14)
    phi, psi = dec.phi[:, 0], dec.psi[:, 0]
    assert np.allclose(np.abs(phi), [1, 0], atol=1e-12)
    assert np.allclose(np.abs(psi), [0, 1], atol=1e-12)
    # sign pair consistent with the block orientation
    assert phi @ s @ psi == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(dec.reconstruct(), s, atol=1e-13)


def test_youla_zero_matrix_is_empty():
    dec = youla_decompose(np.zeros((4, 4)))
    assert dec.n_blocks == 0
    assert dec.phi.shape == (4, 0) and dec.psi.shape == (4, 0)


def test_youla_two_block_spectrum_and_spans():
    gen = np.random.default_rng(7)
    m, q = random_skew(8, [2.0, 1.0], gen)
    dec = youla_decompose(m)
    assert np.allclose(dec.lambdas, [2.0, 1.0], atol=1e-10)
    # each recovered pair spans the generating plane
    assert plane_gap(np.stack([dec.phi[:, 0], dec.psi[:, 0]], axis=1), q[:, 0:2]) <= 1e-8
    assert plane_gap(np.stack([dec.phi[:, 1], dec.psi[:, 1]], axis=1), q[:, 2:4]) <= 1e-8
    assert np.linalg.norm(dec.reconstruct() - m) <= 1e-10 * np.linalg.norm(m)


def test_youla_reconstruction_and_orthonormality():
    # near-repeated spectra, 1e-7 and 3e-8 apart relative, must pair as
    # cleanly as separated ones; ten draws each so a rare mix-up shows
    gen = np.random.default_rng(3)
    for lambdas in ([3.0, 1.5, 0.2], [5.0], [1.0, 0.999], [1.0, 1.0 - 1e-7],
                    [3.0, 3.0 - 1e-7, 0.2]):
        for _ in range(10):
            n = 2 * len(lambdas) + int(gen.integers(0, 4))
            m, _ = random_skew(n, lambdas, gen)
            dec = youla_decompose(m)
            assert np.all(np.diff(dec.lambdas) <= 0)
            assert np.all(dec.lambdas > 0)
            stacked = np.column_stack([dec.phi, dec.psi])
            grams = stacked.T @ stacked
            assert np.allclose(grams, np.eye(grams.shape[0]), atol=1e-10)
            rel = np.linalg.norm(dec.reconstruct() - m) / np.linalg.norm(m)
            assert rel <= 1e-10


def test_youla_repeated_lambdas_reconstruct():
    # repeated blocks leave the invariant subspace basis free; only the
    # reconstruction is pinned down
    gen = np.random.default_rng(11)
    for lambdas in ([1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 1.0, 1.0]):
        m, _ = random_skew(2 * len(lambdas) + 2, lambdas, gen)
        dec = youla_decompose(m)
        assert dec.n_blocks == len(lambdas)
        assert np.allclose(sorted(dec.lambdas), sorted(lambdas), atol=1e-10)
        assert np.linalg.norm(dec.reconstruct() - m) <= 1e-10 * np.linalg.norm(m)


def test_youla_reconstruction_is_skew():
    gen = np.random.default_rng(5)
    m, _ = random_skew(9, [2.0, 0.7], gen)
    rec = youla_decompose(m).reconstruct()
    assert np.linalg.norm(rec + rec.T) <= 1e-12 * np.linalg.norm(rec)


def test_youla_matches_complex_eigenvalue_route():
    # the spectrum of a skew matrix is +-i lambda; the positive imaginary
    # parts are an independent oracle for the block magnitudes
    gen = np.random.default_rng(13)
    m, _ = random_skew(10, [4.0, 2.5, 0.3], gen)
    dec = youla_decompose(m)
    imag = np.sort(np.imag(np.linalg.eigvals(m)))[::-1]
    expected = imag[: dec.n_blocks]
    assert np.allclose(dec.lambdas, expected, rtol=1e-8, atol=1e-8)


def test_youla_rejects_non_skew():
    with pytest.raises(ValueError):
        youla_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_youla_odd_rank_degenerate(monkeypatch):
    gen = np.random.default_rng(17)
    m, _ = random_skew(3, [2.0], gen)
    # a negative rank floor keeps the zero singular value, forcing odd rank
    monkeypatch.setattr(linalg, "RANK_FLOOR", -1.0)
    with pytest.raises(ValueError, match="is odd"):
        youla_decompose(m)


# -------------------------------------------------------------- spectral_norm

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([4.0, 1.0, 0.0])) == pytest.approx(4.0, rel=1e-10)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 4))) == 0.0


def test_spectral_norm_matches_svd():
    gen = np.random.default_rng(3)
    a = gen.standard_normal((30, 20))
    top = reduced_svd(a).sigma[0]
    assert spectral_norm(a) == pytest.approx(top, rel=1e-8)


def test_spectral_norm_transpose_invariant():
    gen = np.random.default_rng(19)
    for trial in range(10):
        a = gen.standard_normal((int(gen.integers(2, 40)), int(gen.integers(2, 40))))
        assert spectral_norm(a) == pytest.approx(spectral_norm(a.T), rel=1e-8)


def test_spectral_norm_near_degenerate_top():
    # nearly coinciding top singular values, as in centred sampling indicators
    assert spectral_norm(np.diag([5.0, 5.0, 1.0])) == pytest.approx(5.0, rel=1e-10)
    d = np.diag([5.0, 5.0 * (1 - 1e-9), 1.0])
    assert spectral_norm(d) == pytest.approx(5.0, rel=1e-8)
    gen = np.random.default_rng(23)
    ind = (gen.random((29, 29)) < 0.4).astype(float)
    g = ind - 0.4
    assert spectral_norm(g) == pytest.approx(np.linalg.svd(g, compute_uv=False)[0], rel=1e-8)


@pytest.mark.parametrize("shape", [(1, 5), (5, 1), (7, 3), (24, 24),
                                   (40, 13), (100, 60), (300, 300)])
def test_spectral_norm_is_the_two_norm_bit_for_bit(shape):
    # the top singular value that np.linalg.norm(m, 2) reduces to, without
    # its axis and reduction wrappers: Gaussian matrices, and centred
    # sampling indicators as the report's mask gap norm reads them
    gen = np.random.default_rng(31)
    for a in (gen.standard_normal(shape), (gen.random(shape) < 0.3) - 0.3):
        assert spectral_norm(a) == float(np.linalg.norm(a, 2))


def test_spectral_norm_deterministic():
    gen = np.random.default_rng(29)
    a = gen.standard_normal((15, 12))
    assert spectral_norm(a) == spectral_norm(a)


# --------------------------------------------------------------- two_inf_norm

def test_two_inf_identity():
    assert two_inf_norm(np.eye(5)) == 1.0


def test_two_inf_all_ones():
    assert two_inf_norm(np.ones((3, 4))) == pytest.approx(2.0, abs=1e-14)


def test_two_inf_matches_row_loop():
    gen = np.random.default_rng(37)
    a = gen.standard_normal((5, 3))
    expected = max(np.linalg.norm(a[i]) for i in range(5))
    assert two_inf_norm(a) == pytest.approx(expected, rel=1e-12)


def test_two_inf_below_frobenius():
    gen = np.random.default_rng(41)
    for trial in range(20):
        a = gen.standard_normal((int(gen.integers(1, 10)), int(gen.integers(1, 10))))
        assert two_inf_norm(a) <= np.linalg.norm(a) + 1e-15


# --------------------------------------------------------------- dependencies

def test_import_loads_no_scipy():
    # numpy is the only declared runtime dependency; scipy may be installed
    # alongside, so an import of it would go unnoticed elsewhere. lpmc.cli
    # loads every module; the package root loads none
    src = os.path.dirname(os.path.dirname(os.path.abspath(lpmc.__file__)))
    code = ("import sys, lpmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_randomized_range_spans_a_low_rank_range():
    gen = np.random.default_rng(5)
    a = gen.standard_normal((40, 3)) @ gen.standard_normal((3, 30))
    # r + SKETCH_EXTRA columns
    q = randomized_range(a, 3, np.random.default_rng(6))
    assert q.shape == (40, 13)
    assert np.linalg.norm(q.T @ q - np.eye(13)) <= 1e-12
    assert np.linalg.norm(a - q @ (q.T @ a)) <= 1e-12 * np.linalg.norm(a)
    # at most min(n1, n2) columns
    assert randomized_range(a, 25, gen).shape == (40, 30)


def test_randomized_range_finds_the_top_singular_space():
    # a decaying spectrum: the power passes put the top 4 directions of a
    # 12-column sketch (r = 2) within 1e-8 of the exact ones
    gen = np.random.default_rng(7)
    u = np.linalg.qr(gen.standard_normal((200, 200)))[0]
    v = np.linalg.qr(gen.standard_normal((150, 150)))[0]
    a = (u[:, :150] * 0.5 ** np.arange(150)) @ v.T
    q = randomized_range(a, 2, np.random.default_rng(8))
    top = u[:, :4]
    assert np.linalg.norm(top - q @ (q.T @ top)) <= 1e-8


@pytest.mark.parametrize("layout, shape", [
    ("contiguous", (5, 37, 6)), ("transposed", (5, 6, 37)),
    ("vectors", (5, 211)), ("one", (1, 29, 7))])
def test_stacked_dots_have_each_items_vdot_bits(layout, shape):
    # long enough items that another order of summation rounds differently
    gen = np.random.default_rng(12)
    a, b = gen.standard_normal(shape), gen.standard_normal(shape)
    if layout == "transposed":
        a, b = _mT(a), _mT(b)
    want = [np.vdot(x, y) for x, y in zip(a, b)]
    assert np.array_equal(_item_dots(a, b), want)
    if a.ndim > 2:
        assert np.array_equal(_dots(a, b), want)
    assert _item_dots(a[:0], b[:0]).shape == (0,)
