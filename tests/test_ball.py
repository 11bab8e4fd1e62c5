"""Einstein/Mobius ball gyrogroups and the Bloch correspondence."""

import numpy as np
import pytest

from gyromean import errors
from gyromean.ball import (
    ball_model,
    ball_scalar,
    bloch_to_density,
    density_to_bloch,
    einstein_add,
    einstein_coaddition,
    einstein_gyration,
    gamma_factor,
    gyromidpoint,
    _gyr,
    mobius_add,
    mobius_gyration,
    rapidity_distance,
)
from gyromean.gyroaxioms import run_axiom_suite
from gyromean.gyrodensity import dens_add, dens_neg, dens_scalar
from gyromean.kernel import invm
from gyromean.randgen import GeneratorStack, gen_ball_vector, substream
from triple_stacks import triple_stacks

E1 = np.array([1.0, 0.0, 0.0])


def test_einstein_identity_and_collinear():
    rng = substream(701, "ball-einstein")
    u = gen_ball_vector(rng)
    np.testing.assert_allclose(einstein_add(u, np.zeros(3)), u, atol=1e-15)
    np.testing.assert_allclose(einstein_add(np.zeros(3), u), u, atol=1e-15)
    np.testing.assert_allclose(einstein_add(0.5 * E1, 0.5 * E1), 0.8 * E1,
                               atol=1e-15)


def test_mobius_identity_and_inverse():
    rng = substream(702, "ball-mobius")
    u = gen_ball_vector(rng)
    np.testing.assert_allclose(mobius_add(u, -u), np.zeros(3), atol=1e-14)
    np.testing.assert_allclose(mobius_add(np.zeros(3), u), u, atol=1e-15)
    # collinear Mobius addition coincides with Einstein addition
    np.testing.assert_allclose(mobius_add(0.5 * E1, 0.5 * E1), 0.8 * E1,
                               atol=1e-14)


def test_ball_scalar():
    rng = substream(703, "ball-scalar")
    v = gen_ball_vector(rng)
    np.testing.assert_allclose(ball_scalar(1.0, v), v, atol=1e-15)
    np.testing.assert_allclose(ball_scalar(0.3, np.zeros(3)), np.zeros(3))
    np.testing.assert_allclose(ball_scalar(2.0, 0.6 * E1), (15.0 / 17.0) * E1,
                               atol=1e-15)
    s, t = 0.7, -1.2
    np.testing.assert_allclose(
        ball_scalar(s + t, v),
        einstein_add(ball_scalar(s, v), ball_scalar(t, v)), atol=1e-12)


def test_gamma_factor():
    assert gamma_factor(np.zeros(3)) == 1.0
    assert gamma_factor(0.8 * E1) == pytest.approx(5.0 / 3.0)
    rng = substream(704, "ball-gamma")
    for _ in range(30):
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        assert gamma_factor(einstein_add(u, v)) == pytest.approx(
            gamma_factor(u) * gamma_factor(v) * (1 + u @ v), rel=1e-12)


def test_rapidity_distance():
    assert rapidity_distance(np.zeros(3), 0.6 * E1) == \
        pytest.approx(np.arctanh(0.6))
    rng = substream(705, "ball-rapidity")
    for _ in range(30):
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        assert rapidity_distance(u, v) == \
            pytest.approx(rapidity_distance(v, u), abs=1e-12)
        assert rapidity_distance(u, u.copy()) < 1e-13
        assert rapidity_distance(u, v) >= 0


def test_gyromidpoint():
    rng = substream(706, "ball-midpoint")
    u, v = gen_ball_vector(rng), gen_ball_vector(rng)
    np.testing.assert_allclose(gyromidpoint(u, u.copy()), u, atol=1e-15)
    np.testing.assert_allclose(gyromidpoint(v, -v), np.zeros(3), atol=1e-15)
    # the midpoint is the half-scalar of the coaddition
    np.testing.assert_allclose(
        gyromidpoint(u, v), ball_scalar(0.5, einstein_coaddition(u, v)),
        atol=1e-12)
    # and obeys the rapidity-metric midpoint bound from the origin
    m = gyromidpoint(u, v)
    assert 2 * rapidity_distance(np.zeros(3), m) <= \
        rapidity_distance(np.zeros(3), u) + rapidity_distance(np.zeros(3), v) + 1e-12


def test_ball_membership_guard():
    with pytest.raises(errors.NotInBall):
        gamma_factor(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(errors.NotInBall):
        einstein_add(np.array([0.6, 0.8, 0.0]), np.zeros(3))


def test_axiom_suites():
    rng = substream(707, "ball-suites")
    stacks = triple_stacks(gen_ball_vector(rng) for _ in range(3 * 40))
    for name in ("einstein", "mobius"):
        for axiom, residual in run_axiom_suite(ball_model(name), *stacks).items():
            assert residual < 1e-8, (name, axiom)


def test_gyration_is_orthogonal():
    rng = substream(708, "ball-gyr")
    a, b, x = (gen_ball_vector(rng) for _ in range(3))
    g = einstein_gyration(a, b, x)
    assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(x), abs=1e-12)


def test_the_closed_form_mobius_gyration_is_the_universal_formula():
    rng = GeneratorStack(substream(710, "ball-mobius-gyr"), 2000)
    u, v, w = (gen_ball_vector(rng, 3, 0.5) for _ in range(3))
    err = np.linalg.norm(mobius_gyration(u, v, w) - _gyr(mobius_add, u, v, w), axis=-1)
    assert err.max() < 1e-14


def test_the_mobius_gyration_is_an_isometry_near_the_boundary():
    # at radius 0.999 the universal formula loses 1e-9 of the norm; the closed
    # form keeps it, and gyr[v,u] inverts gyr[u,v]
    rng = GeneratorStack(substream(711, "ball-mobius-edge"), 2000)
    u, v, w = (gen_ball_vector(rng, 3, 0.999) for _ in range(3))
    g = mobius_gyration(u, v, w)
    assert np.abs(np.linalg.norm(g, axis=-1) - np.linalg.norm(w, axis=-1)).max() < 1e-14
    assert np.abs(mobius_gyration(v, u, g) - w).max() < 1e-14


def test_bloch_to_density_fixtures():
    np.testing.assert_allclose(bloch_to_density(np.array([0.0, 0.0, 0.6])),
                               np.diag([0.8, 0.2]), atol=1e-15)
    np.testing.assert_allclose(bloch_to_density(np.zeros(3)), np.eye(2) / 2)


def test_bloch_round_trip():
    rng = substream(709, "ball-bloch")
    for _ in range(30):
        v = gen_ball_vector(rng)
        rho = bloch_to_density(v)
        np.testing.assert_allclose(density_to_bloch(rho), v, atol=1e-12)
        nv = np.linalg.norm(v)
        np.testing.assert_allclose(np.linalg.eigvalsh(rho),
                                   [(1 - nv) / 2, (1 + nv) / 2], atol=1e-12)
        assert np.linalg.det(rho).real == pytest.approx((1 - nv**2) / 4,
                                                        abs=1e-14)


def test_bloch_isomorphism():
    rng = substream(710, "ball-isomorphism")
    for _ in range(20):
        u, v = gen_ball_vector(rng), gen_ball_vector(rng)
        t = float(rng.uniform(-2, 2))
        np.testing.assert_allclose(
            bloch_to_density(einstein_add(u, v)),
            dens_add(bloch_to_density(u), bloch_to_density(v)), atol=1e-10)
        np.testing.assert_allclose(
            bloch_to_density(ball_scalar(t, v)),
            dens_scalar(t, bloch_to_density(v)), atol=1e-10)


def test_qubit_inverse_normalization():
    # the inverse state is rho^{-1} normalized by its trace, which equals
    # 4 gamma^2 (not 4 gamma) times the determinant-free form
    rng = substream(711, "ball-inverse")
    u = gen_ball_vector(rng)
    rho = bloch_to_density(u)
    rho_neg = bloch_to_density(-u)
    g = gamma_factor(u)
    np.testing.assert_allclose(dens_neg(rho), rho_neg, atol=1e-12)
    assert np.trace(invm(rho)).real == pytest.approx(4 * g**2, rel=1e-12)
    np.testing.assert_allclose(invm(rho) / (4 * g**2), rho_neg, atol=1e-12)
    assert np.linalg.norm(invm(rho) / (4 * g) - rho_neg) > 1e-3


def test_density_to_bloch_rejects():
    with pytest.raises(errors.NotDensity):
        density_to_bloch(np.eye(3) / 3)  # wrong shape
    with pytest.raises(errors.NotDensity):
        density_to_bloch(np.diag([0.7, 0.2]))
