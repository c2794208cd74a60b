"""Tests for observation masks, the sampling operator, and noise draws."""

import numpy as np
import pytest

from lpmc.sampling import (ObservationMask, RngState, bernoulli_mask,
                           gaussian_noise, observed_fraction, project_observed,
                           skew_gaussian_noise, symmetric_offdiag_mask)

RNG = RngState(1234)


def explicit_mask(rows, cols, pairs, model="bernoulli-rect", p=0.5):
    ind = np.zeros((rows, cols), dtype=bool)
    for i, j in pairs:
        ind[i, j] = True
    return ObservationMask(ind, model, p)


# ----------------------------------------------------------------- rng states

def test_rng_streams_are_reproducible():
    a = RngState(7).derive("x", 3).generator().standard_normal(5)
    b = RngState(7).derive("x", 3).generator().standard_normal(5)
    assert np.array_equal(a, b)


def test_rng_derivation_separates_streams():
    base = RngState(7)
    x = base.derive("x").generator().standard_normal(4)
    y = base.derive("y").generator().standard_normal(4)
    assert not np.array_equal(x, y)
    # tag order matters
    assert base.derive("a", "b").token != base.derive("b", "a").token


@pytest.mark.parametrize("seed, path", [
    (0, ()), (7, ("x", 3)), (42, ("trial", 0)),
    (20200330, ("diagnostics", "gap", 4, "mask")), (2 ** 40 + 3, ("conc",))])
def test_rng_generator_is_philox_of_the_key(seed, path):
    # generator() builds Philox from the key's two words, not from key=;
    # the stream must stay the one Philox(key=...) gives
    state = RngState(seed).derive(*path)
    got = state.generator()
    want = np.random.Generator(np.random.Philox(key=state._key()))
    for side in (got, want):
        assert side.bit_generator.state["state"]["counter"].tolist() == [0] * 4
    assert (got.bit_generator.state["state"]["key"].tolist()
            == want.bit_generator.state["state"]["key"].tolist())
    assert np.array_equal(got.standard_normal(1000),
                          want.standard_normal(1000))
    assert np.array_equal(got.random(7), want.random(7))
    assert np.array_equal(got.integers(0, 2 ** 62, 5),
                          want.integers(0, 2 ** 62, 5))


def test_rng_token_is_stable():
    s = RngState(42).derive("trial", 0)
    assert s.token == RngState(42).derive("trial", 0).token
    assert len(s.token) == 12
    int(s.token, 16)


# --------------------------------------------------------------- mask drawing

def test_full_bernoulli_mask():
    mask = bernoulli_mask(3, 2, 1.0, RNG.derive("full"))
    assert mask.count == 6
    assert mask.model == "bernoulli-rect"


def test_empty_bernoulli_mask():
    assert bernoulli_mask(5, 5, 0.0, RNG.derive("empty")).count == 0


def test_bernoulli_fraction_concentrates():
    # binomial bound: |fraction - p| <= 4 sqrt(p(1-p)/cells)
    bound = 4.0 * np.sqrt(0.3 * 0.7 / 20000)
    for seed in range(5):
        mask = bernoulli_mask(200, 100, 0.3, RngState(seed).derive("conc"))
        assert abs(observed_fraction(mask) - 0.3) <= bound


class _NoDraw(RngState):
    def generator(self):
        raise AssertionError("drew for a bad rate or sigma")


def test_bernoulli_rejects_bad_p():
    # _check_rate runs before the draw, so no generator is built
    for p in (1.2, -0.1, float("nan")):
        with pytest.raises(ValueError,
                           match=r"nominal_p must be in \[0, 1\]"):
            bernoulli_mask(3, 3, p, _NoDraw(0))


@pytest.mark.parametrize("p", [1.2, -0.1, float("nan")])
def test_symmetric_mask_rejects_bad_p(p):
    # _check_rate runs before the draw, so no generator is built
    with pytest.raises(ValueError, match=r"nominal_p must be in \[0, 1\]"):
        symmetric_offdiag_mask(3, p, _NoDraw(0))


def test_full_symmetric_mask():
    mask = symmetric_offdiag_mask(4, 1.0, RNG.derive("symfull"))
    assert mask.count == 12
    ind = mask.matrix
    assert not ind.diagonal().any()
    assert np.array_equal(ind, ind.T)


def test_symmetric_mask_invariants():
    for seed in range(4):
        mask = symmetric_offdiag_mask(17, 0.4, RngState(seed).derive("sym"))
        ind = mask.matrix
        assert not ind.diagonal().any()
        assert np.array_equal(ind, ind.T)


def test_symmetric_pair_count_concentrates():
    pairs = 300 * 299 / 2
    bound = 4.0 * np.sqrt(0.2 * 0.8 * pairs)
    for seed in range(3):
        mask = symmetric_offdiag_mask(300, 0.2, RngState(seed).derive("symc"))
        assert abs(mask.count / 2 - 0.2 * pairs) <= bound


def test_mask_rejects_unknown_model():
    with pytest.raises(ValueError, match="no-such-model"):
        explicit_mask(3, 3, [(0, 1)], model="no-such-model")


@pytest.mark.parametrize("rows, cols, pairs", [
    (3, 4, [(0, 1), (1, 0)]),           # not square
    (3, 3, [(0, 1)]),                   # one-sided pair
    (3, 3, [(0, 1), (1, 0), (2, 2)]),   # diagonal entry
], ids=["non-square", "one-sided", "diagonal"])
def test_symmetric_mask_rejects_other_patterns(rows, cols, pairs):
    with pytest.raises(ValueError, match="symmetric-offdiag"):
        explicit_mask(rows, cols, pairs, model="symmetric-offdiag")
    explicit_mask(rows, cols, pairs)    # a legal bernoulli-rect pattern


def test_mask_determinism():
    a = bernoulli_mask(20, 30, 0.5, RngState(9).derive("det"))
    b = bernoulli_mask(20, 30, 0.5, RngState(9).derive("det"))
    assert np.array_equal(a.matrix, b.matrix)


# ----------------------------------------------------------------- projection

def test_mask_entries_are_read_only_and_give_the_count():
    masks = [bernoulli_mask(7, 5, 0.3, RNG.derive("e", "b")),
             symmetric_offdiag_mask(6, 0.5, RNG.derive("e", "s")),
             bernoulli_mask(4, 4, 0.0, RNG.derive("e", "0"))]
    for mask in masks:
        e = mask.entries
        assert np.array_equal(e, np.flatnonzero(mask.matrix))
        assert mask.entries is e
        assert not e.flags.writeable
        with pytest.raises(ValueError):
            e[...] = 0
        assert mask.count == mask.matrix.sum() == e.size
        # what the solves of one cell share stays read-only
        with pytest.raises(ValueError):
            mask.matrix[0, 0] = True


def test_projection_zeros_are_positive_off_the_mask():
    mask = explicit_mask(3, 4, [(0, 1), (2, 3)])
    a = -np.arange(1.0, 13.0).reshape(3, 4)
    out = project_observed(a, mask)
    assert np.array_equal(out, a * mask.matrix)
    assert not np.signbit(out[~mask.matrix]).any()
    assert out[0, 1] == -2.0 and out[2, 3] == -12.0


def test_projection_full_mask_is_identity():
    gen = np.random.default_rng(0)
    m = gen.standard_normal((4, 6))
    mask = bernoulli_mask(4, 6, 1.0, RNG.derive("pfull"))
    assert np.array_equal(project_observed(m, mask), m)


def test_projection_empty_mask_is_zero():
    mask = bernoulli_mask(4, 6, 0.0, RNG.derive("pempty"))
    assert not project_observed(np.ones((4, 6)), mask).any()


def test_projection_is_self_adjoint():
    gen = np.random.default_rng(1)
    mask = bernoulli_mask(8, 5, 0.4, RNG.derive("padj"))
    a = gen.standard_normal((8, 5))
    b = gen.standard_normal((8, 5))
    pa, pb = project_observed(a, mask), project_observed(b, mask)
    assert np.vdot(pa, pa) == pytest.approx(np.vdot(a, pa), rel=1e-12)
    assert np.vdot(pa, b) == pytest.approx(np.vdot(a, pb), rel=1e-12)


def test_projection_linear_and_idempotent():
    gen = np.random.default_rng(2)
    mask = bernoulli_mask(7, 7, 0.5, RNG.derive("plin"))
    a = gen.standard_normal((7, 7))
    b = gen.standard_normal((7, 7))
    lhs = project_observed(2.5 * a - 0.3 * b, mask)
    rhs = 2.5 * project_observed(a, mask) - 0.3 * project_observed(b, mask)
    assert np.allclose(lhs, rhs, atol=1e-14)
    pa = project_observed(a, mask)
    assert np.array_equal(project_observed(pa, mask), pa)


def test_projection_preserves_symmetry_classes():
    # a symmetric mask maps symmetric to symmetric and skew to skew
    gen = np.random.default_rng(3)
    mask = symmetric_offdiag_mask(9, 0.5, RNG.derive("psym"))
    g = gen.standard_normal((9, 9))
    sym, skw = g + g.T, g - g.T
    psym = project_observed(sym, mask)
    pskw = project_observed(skw, mask)
    assert np.array_equal(psym, psym.T)
    assert np.array_equal(pskw, -pskw.T)


def test_projection_shape_mismatch():
    mask = bernoulli_mask(3, 3, 0.5, RNG.derive("pshape"))
    with pytest.raises(ValueError):
        project_observed(np.ones((3, 4)), mask)


# ------------------------------------------------------------- observed rates

def test_observed_fraction_exact():
    mask = explicit_mask(5, 4, [(0, 0), (1, 2), (2, 3), (3, 1), (4, 0), (0, 3), (2, 0)])
    assert observed_fraction(mask) == 0.35


def test_observed_fraction_full_and_empty():
    assert observed_fraction(bernoulli_mask(3, 2, 1.0, RNG.derive("f1"))) == 1.0
    assert observed_fraction(bernoulli_mask(3, 2, 0.0, RNG.derive("f0"))) == 0.0


# ---------------------------------------------------------------------- noise

def test_gaussian_noise_zero_sigma():
    assert not gaussian_noise(6, 7, 0.0, RNG.derive("n0")).any()


def test_gaussian_noise_unit_total_energy():
    # sigma = 1/n at n x n makes E||N||_F^2 = 1
    vals = [np.linalg.norm(gaussian_noise(500, 500, 1 / 500, RngState(s).derive("ne"))) ** 2
            for s in range(10)]
    assert abs(np.mean(vals) - 1.0) <= 0.1


def test_gaussian_noise_mean_is_centered():
    sigma = 0.7
    noise = gaussian_noise(80, 50, sigma, RNG.derive("nm"))
    assert abs(noise.mean()) <= 4 * sigma / np.sqrt(80 * 50)


def test_skew_noise_zero_sigma():
    assert not skew_gaussian_noise(5, 0.0, RNG.derive("s0")).any()


def test_skew_noise_is_exactly_skew():
    noise = skew_gaussian_noise(30, 0.3, RNG.derive("ss"))
    assert not (noise + noise.T).any()
    assert not noise.diagonal().any()


def test_skew_noise_upper_variance():
    noise = skew_gaussian_noise(200, 1.0, RNG.derive("sv"))
    upper = noise[np.triu_indices(200, 1)]
    assert abs(upper.var() - 1.0) <= 0.1


def test_noise_determinism():
    a = gaussian_noise(10, 10, 0.5, RngState(3).derive("nd"))
    b = gaussian_noise(10, 10, 0.5, RngState(3).derive("nd"))
    assert np.array_equal(a, b)


NOISE_DRAWS = {"gaussian": lambda sigma, rng: gaussian_noise(30, 30, sigma,
                                                             rng),
               "skew": lambda sigma, rng: skew_gaussian_noise(30, sigma, rng)}


@pytest.mark.parametrize("draw", NOISE_DRAWS)
@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
def test_noise_rejects_a_bad_sigma_before_drawing(draw, sigma):
    # _check_sigma runs before the draw, so no generator is built
    with pytest.raises(ValueError, match="sigma must be finite and "
                                         "nonnegative, got"):
        NOISE_DRAWS[draw](sigma, _NoDraw(0))


@pytest.mark.parametrize("draw", NOISE_DRAWS)
def test_noise_that_overflows_names_sigma(draw):
    # 1e308 is a finite scale, but its product with a normal draw beyond
    # 1.8 overflows; the draw says so instead of returning inf entries
    with pytest.raises(ValueError, match=r"sigma=1e\+308 overflows"):
        NOISE_DRAWS[draw](1e308, RNG.derive("over"))
