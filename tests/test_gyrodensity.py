"""Gyrovector space of invertible density matrices."""

import numpy as np
import pytest

from gyromean import errors
from gyromean.gyroaxioms import run_axiom_suite
from gyromean.gyrodensity import (
    dens_add,
    dens_cogyroline,
    dens_gyration,
    dens_gyroline,
    dens_identity,
    dens_neg,
    dens_scalar,
    density_model,
    require_density,
)
from gyromean.kernel import invm
from gyromean.means import geo_mean
from gyromean.randgen import gen_density, gen_spread_pd, substream
from triple_stacks import triple_stacks


def test_identity_element():
    rng = substream(601, "dens-identity")
    sigma = gen_density(rng, 3)
    np.testing.assert_allclose(dens_add(dens_identity(3), sigma), sigma,
                               atol=1e-12)
    np.testing.assert_allclose(dens_add(sigma, dens_identity(3)), sigma,
                               atol=1e-12)


def test_inverse_element():
    rng = substream(602, "dens-inverse")
    rho = gen_density(rng, 4)
    np.testing.assert_allclose(dens_add(rho, dens_neg(rho)), dens_identity(4),
                               atol=1e-11)
    inv = invm(rho)
    np.testing.assert_allclose(dens_neg(rho), inv / np.trace(inv).real,
                               atol=1e-12)


def test_outputs_are_densities():
    rng = substream(603, "dens-closure")
    rho = gen_density(rng, 3)
    sigma = gen_density(rng, 3)
    for out in (dens_add(rho, sigma), dens_scalar(-1.7, rho),
                dens_gyroline(0.4, rho, sigma), dens_cogyroline(0.6, rho, sigma)):
        require_density(out)


def test_gyroline_endpoints_and_idempotence():
    rng = substream(604, "dens-endpoints")
    rho = gen_density(rng, 3)
    sigma = gen_density(rng, 3)
    np.testing.assert_allclose(dens_gyroline(0.0, rho, sigma), rho, atol=1e-11)
    np.testing.assert_allclose(dens_gyroline(1.0, rho, sigma), sigma, atol=1e-11)
    np.testing.assert_allclose(dens_gyroline(0.37, rho, rho), rho, atol=1e-11)


def test_gyroline_matches_primitive_path():
    # two-path equality: closed form vs composition of gyro primitives
    rng = substream(605, "dens-two-path")
    for t in (0.25, 0.6, 0.9):
        rho = gen_density(rng, 3)
        sigma = gen_density(rng, 3)
        prim = dens_add(rho, dens_scalar(t, dens_add(dens_neg(rho), sigma)))
        np.testing.assert_allclose(dens_gyroline(t, rho, sigma), prim, atol=1e-9)
        coop = dens_add(dens_neg(rho),
                        dens_gyration(dens_neg(rho), dens_neg(sigma), sigma))
        prim_co = dens_add(dens_scalar(t, coop), rho)
        np.testing.assert_allclose(dens_cogyroline(t, rho, sigma), prim_co,
                                   atol=1e-9)


def test_cogyroline_commuting_hand_computation():
    # diag(0.8, 0.2) and diag(0.5, 0.5): the normalized square-root product
    # is diag(2/3, 1/3)
    rho = np.diag([0.8, 0.2]).astype(complex)
    sigma = np.diag([0.5, 0.5]).astype(complex)
    np.testing.assert_allclose(dens_cogyroline(0.5, rho, sigma),
                               np.diag([2.0 / 3.0, 1.0 / 3.0]), atol=1e-12)


def test_projection_compatibility():
    rng = substream(606, "dens-projection")
    A = gen_spread_pd(rng, 3, 1.5)
    B = gen_spread_pd(rng, 3, 1.5)
    t = 0.45
    G = geo_mean(A, B, t)
    np.testing.assert_allclose(
        dens_gyroline(t, A / np.trace(A).real, B / np.trace(B).real),
        G / np.trace(G).real, atol=1e-10)


def test_axiom_suite_density_model():
    rng = substream(607, "dens-suite")
    stacks = triple_stacks(gen_density(rng, 3) for _ in range(3 * 25))
    residuals = run_axiom_suite(density_model(3), *stacks)
    for name, residual in residuals.items():
        assert residual < 1e-8, name


def test_require_density_rejections():
    with pytest.raises(errors.NotDensity, match=r"^trace 1\.1 differs from 1 beyond tolerance$"):
        require_density(np.diag([0.9, 0.2]))
    with pytest.raises(errors.NotDensity, match=r"^item \(1,\): trace 1\.1 differs from 1 "):
        require_density(np.stack([np.eye(2) / 2, np.diag([0.9, 0.2])]))
    with pytest.raises(errors.NotDensity):
        require_density(np.diag([1.5, -0.5]))  # not PD
    with pytest.raises(errors.NotDensity):
        dens_add(np.eye(2), np.eye(2) / 2)
