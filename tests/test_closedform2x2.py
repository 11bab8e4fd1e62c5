"""2x2 closed forms cross-validated against the general spectral path."""

import numpy as np
import pytest

from gyromean import errors
from gyromean.ball import bloch_to_density, gamma_factor
from gyromean.closedform2x2 import (
    det2,
    det_shift_identity,
    gm2_det1,
    l_map,
    midpoint_vector_check,
    norm_product_check,
    qubit_geo_mean,
    qubit_mean_eigenvalues,
    qubit_spectral_mean,
    relative_eigenvalue,
    sgm2,
)
from gyromean.means import geo_mean, spectral_mean
from gyromean.randgen import gen_ball_vector, gen_random_pd, substream


def _det1_pair(rng):
    A = gen_random_pd(rng, 2, unit_det=True)
    B = gen_random_pd(rng, 2, unit_det=True)
    return A, B


def test_l_map_values():
    assert l_map(0.73, 1.0) == 0.73
    assert l_map(0.5, 4.0) == pytest.approx(0.4)  # (2 - 1/2)/(4 - 1/4)
    rng = substream(801, "cf-lmap")
    for _ in range(20):
        t = float(rng.uniform(-2, 2))
        x = float(np.exp(rng.uniform(-3, 3)))
        assert l_map(t, x) == pytest.approx(l_map(t, 1 / x), abs=1e-12)
    with pytest.raises(errors.NonPositiveArgument):
        l_map(0.5, 0.0)


def test_l_map_branch_continuity():
    for t in (-1.3, 0.25, 1.8):
        just_outside = l_map(t, 1.0 + 1.2e-7)
        assert just_outside == pytest.approx(t, abs=1e-8)


def test_gm2_det1_commuting_fixture():
    A = np.diag([2.0, 0.5]).astype(complex)
    B = np.diag([0.5, 2.0]).astype(complex)
    np.testing.assert_allclose(gm2_det1(A, B, 0.5), np.eye(2), atol=1e-12)


def test_gm2_det1_against_general_path():
    rng = substream(802, "cf-gm2")
    for t in (0.2, 0.5, 0.7):
        A, B = _det1_pair(rng)
        closed = gm2_det1(A, B, t)
        oracle = geo_mean(A, B, t)
        assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-9


def test_gm2_midpoint_sum_formula():
    rng = substream(803, "cf-gm2-sum")
    A, B = _det1_pair(rng)
    S = A + B
    np.testing.assert_allclose(geo_mean(A, B, 0.5),
                               S / np.sqrt(det2(S).real), atol=1e-10)
    lam = relative_eigenvalue(A, B)
    assert l_map(0.5, lam) == pytest.approx(1 / np.sqrt(det2(S).real), abs=1e-10)


def test_gm2_branch_independence():
    rng = substream(804, "cf-gm2-branch")
    A, B = _det1_pair(rng)
    lam = relative_eigenvalue(A, B)
    t = 0.35
    hi = l_map(1 - t, lam) * A + l_map(t, lam) * B
    lo = l_map(1 - t, 1 / lam) * A + l_map(t, 1 / lam) * B
    np.testing.assert_allclose(hi, lo, atol=1e-12)


def test_gm2_rejects_general_determinant():
    with pytest.raises(errors.NotUnitDeterminant):
        gm2_det1(2 * np.eye(2), np.eye(2), 0.5)


def test_sgm2_commuting_fixture():
    A = np.diag([2.0, 0.5]).astype(complex)
    B = np.diag([0.5, 2.0]).astype(complex)
    np.testing.assert_allclose(sgm2(A, B, 0.5), np.eye(2), atol=1e-12)


def test_sgm2_det1_against_general_path():
    rng = substream(805, "cf-sgm2")
    for t in (0.3, 0.5):
        A, B = _det1_pair(rng)
        closed = sgm2(A, B, t)
        oracle = spectral_mean(A, B, t)
        assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-9


def test_sgm2_general_determinants():
    rng = substream(806, "cf-sgm2-general")
    for t in (0.3, 0.6):
        A = 4.0 * gen_random_pd(rng, 2, unit_det=True)   # det 16, alpha = 4
        B = 9.0 * gen_random_pd(rng, 2, unit_det=True)   # det 81, beta = 9
        closed = sgm2(A, B, t)
        oracle = spectral_mean(A, B, t)
        assert np.linalg.norm(closed - oracle) / np.linalg.norm(oracle) < 1e-9


def test_det_shift_identity():
    assert det_shift_identity(1.0, np.array([[0.0, 1.0], [1.0, 0.0]])) < 1e-15
    rng = substream(807, "cf-detshift")
    for _ in range(20):
        X = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = float(rng.uniform(-3, 3))
        assert det_shift_identity(c, X) < 1e-12
        assert det_shift_identity(0.0, X) < 1e-15
    # c^2 = 1e600 leaves the doubles; the residual is made where the larger of
    # |c| and X's entries is about 1, and there it is 0
    assert det_shift_identity(1e300, np.eye(2)) == 0.0
    with pytest.raises(errors.DimensionMismatch):
        det_shift_identity(1.0, np.eye(3))


def test_qubit_mean_eigenvalues():
    rng = substream(808, "cf-mu")
    u, v = gen_ball_vector(rng), gen_ball_vector(rng)
    hi, lo = qubit_mean_eigenvalues(u, v)
    assert hi * lo == pytest.approx(1.0, abs=1e-12)
    A = 2 * gamma_factor(u) * bloch_to_density(u)
    B = 2 * gamma_factor(v) * bloch_to_density(v)
    spec = np.sort(np.linalg.eigvals(A @ np.linalg.inv(B)).real)
    np.testing.assert_allclose(spec, [lo, hi], atol=1e-11)


def test_qubit_geo_mean():
    rng = substream(809, "cf-qgeo")
    u = gen_ball_vector(rng)
    np.testing.assert_allclose(qubit_geo_mean(u, u.copy(), 0.3),
                               bloch_to_density(u), atol=1e-12)
    # commuting case against the diagonal computation
    w = np.array([0.0, 0.0, 0.6])
    z = np.zeros(3)
    got = qubit_geo_mean(w, z, 0.4)
    oracle = geo_mean(bloch_to_density(w), bloch_to_density(z), 0.4)
    np.testing.assert_allclose(got, oracle, atol=1e-12)
    for t in (0.25, 0.5, 0.75):
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        got = qubit_geo_mean(u, v, t)
        oracle = geo_mean(bloch_to_density(u), bloch_to_density(v), t)
        assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) < 1e-9


def test_qubit_geo_mean_mu_branch_independence():
    rng = substream(810, "cf-qgeo-branch")
    u, v = gen_ball_vector(rng), gen_ball_vector(rng)
    t = 0.45
    ga, gb = gamma_factor(u), gamma_factor(v)
    rho_u, rho_v = bloch_to_density(u), bloch_to_density(v)
    hi, lo = qubit_mean_eigenvalues(u, v)
    combos = [l_map(1 - t, mu) * (ga / gb) ** t * rho_u
              + l_map(t, mu) * (gb / ga) ** (1 - t) * rho_v for mu in (hi, lo)]
    np.testing.assert_allclose(combos[0], combos[1], atol=1e-12)


def test_qubit_spectral_mean():
    rng = substream(811, "cf-qspec")
    u = gen_ball_vector(rng)
    np.testing.assert_allclose(qubit_spectral_mean(u, u.copy(), 0.6),
                               bloch_to_density(u), atol=1e-11)
    # commuting anti-parallel case against the diagonal computation
    w = np.array([0.0, 0.0, 0.6])
    got = qubit_spectral_mean(w, -w, 0.5)
    oracle = spectral_mean(bloch_to_density(w), bloch_to_density(-w), 0.5)
    np.testing.assert_allclose(got, oracle, atol=1e-12)
    for t in (0.25, 0.75):
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        got = qubit_spectral_mean(u, v, t)
        oracle = spectral_mean(bloch_to_density(u), bloch_to_density(v), t)
        assert np.linalg.norm(got - oracle) / np.linalg.norm(oracle) < 1e-9


def test_norm_product_check():
    assert norm_product_check(np.eye(2), np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    rng = substream(812, "cf-normprod")
    for _ in range(30):
        A, B = _det1_pair(rng)
        assert norm_product_check(A, B) >= -1e-10
    with pytest.raises(errors.NotUnitDeterminant):
        norm_product_check(3 * np.eye(2), np.eye(2))


def test_midpoint_vector_check():
    assert midpoint_vector_check(np.zeros(3), np.zeros(3)) == \
        pytest.approx(0.0, abs=1e-14)
    rng = substream(813, "cf-midvec")
    u = gen_ball_vector(rng)
    assert midpoint_vector_check(u, u.copy()) == pytest.approx(0.0, abs=1e-12)
    for _ in range(30):
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        assert midpoint_vector_check(u, v) >= -1e-10
