"""Gyrovector-space structure on the positive definite cone."""

import numpy as np
import pytest

from gyromean.gyroaxioms import AxiomReport
from gyromean.gyrocone import (
    axiom_suite,
    cogyroline,
    cone_add,
    cone_neg,
    cone_scalar,
    cooperation,
    gyration,
    gyration_unitary,
    gyroline,
)
from gyromean.kernel import invm, sqrtm
from gyromean.means import geo_mean, spectral_mean
from gyromean.randgen import gen_commuting_pair, gen_spread_pd, substream


def _triple(rng, dim=3):
    return tuple(gen_spread_pd(rng, dim, 1.5) for _ in range(3))


def test_identity_and_inverse():
    rng = substream(501, "cone-identity")
    A = gen_spread_pd(rng, 3, 1.5)
    B = gen_spread_pd(rng, 3, 1.5)
    np.testing.assert_allclose(cone_add(np.eye(3), B), B, atol=1e-12)
    np.testing.assert_allclose(cone_add(A, np.eye(3)), A, atol=1e-12)
    np.testing.assert_allclose(cone_add(A, cone_neg(A)), np.eye(3), atol=1e-11)
    np.testing.assert_allclose(cone_add(np.diag([4.0, 1.0]), np.diag([1.0, 9.0])),
                               np.diag([4.0, 9.0]), atol=1e-12)


def test_gyration_identities():
    rng = substream(502, "cone-gyration")
    A, B, X = _triple(rng)
    np.testing.assert_allclose(gyration(np.eye(3), B, X), X, atol=1e-11)
    Ac, Bc = gen_commuting_pair(rng, 3)
    np.testing.assert_allclose(gyration(Ac, Bc, X), X, atol=1e-10)
    U = gyration_unitary(A, B)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(3), atol=1e-10)
    # polar relation behind the gyration
    np.testing.assert_allclose(sqrtm(cone_add(A, B)) @ U, sqrtm(A) @ sqrtm(B),
                               atol=1e-10)


def test_gyration_preserves_trace_inner_product():
    rng = substream(503, "cone-trace")
    A, B, X = _triple(rng)
    Y = gen_spread_pd(rng, 3, 1.5)
    gx, gy = gyration(A, B, X), gyration(A, B, Y)
    assert np.trace(gx @ gy.conj().T) == pytest.approx(
        np.trace(X @ Y.conj().T), rel=1e-10)


def test_cooperation_commutative():
    rng = substream(504, "cone-coop")
    A, B, _ = _triple(rng)
    np.testing.assert_allclose(cooperation(A, B), cooperation(B, A), atol=1e-10)
    np.testing.assert_allclose(cooperation(A, np.eye(3)), A, atol=1e-11)
    # the cooperation of the inverse is the squared sharp value
    W = geo_mean(invm(A), B, 0.5)
    np.testing.assert_allclose(cooperation(cone_neg(A), B), W @ W, atol=1e-10)


def test_gyroline_is_geometric_mean():
    rng = substream(505, "cone-gyroline")
    A, B, _ = _triple(rng)
    for t in (0.0, 0.3, 0.5, 1.0):
        np.testing.assert_allclose(gyroline(t, A, B), geo_mean(A, B, t),
                                   atol=1e-9)
        np.testing.assert_allclose(cogyroline(t, A, B), spectral_mean(A, B, t),
                                   atol=1e-9)


def test_gyromidpoint_via_cooperation():
    rng = substream(506, "cone-midpoint")
    A, B, _ = _triple(rng)
    np.testing.assert_allclose(gyroline(0.5, A, B),
                               cone_scalar(0.5, cooperation(A, B)), atol=1e-9)


def test_left_translation_of_gyrolines():
    rng = substream(507, "cone-translate")
    A, B, X = _triple(rng)
    for t in (0.2, 0.7):
        np.testing.assert_allclose(
            cone_add(X, gyroline(t, A, B)),
            gyroline(t, cone_add(X, A), cone_add(X, B)), atol=1e-9)


def test_axiom_suite_commuting_triples():
    U = np.eye(3)
    triples = [tuple(np.diag(d).astype(complex) for d in
                     ((1.0, 2.0, 3.0), (0.5, 1.5, 2.5), (2.0, 0.25, 1.0)))]
    report = axiom_suite(triples)
    assert report.passed
    assert report.max_residual < 1e-12


def test_axiom_suite_random_triples():
    rng = substream(508, "cone-suite")
    triples = [_triple(rng) for _ in range(25)]
    report = axiom_suite(triples)
    assert report.passed, report.worst()
    for name in ("G3-gyroassociativity", "G5-loop", "gyrocommutativity",
                 "V2-additive", "V3-multiplicative", "V4-gyration-scalar"):
        assert report.residuals[name] < 1e-8


def test_axiom_report_keeps_a_nan_residual():
    # a NaN after the first axiom must still fail the report
    report = AxiomReport("cone", 1, {"G1-left-identity": 1e-12, "G5-loop": np.nan})
    assert np.isnan(report.max_residual)
    assert not report.passed
    assert report.worst()[0] == "G5-loop"


def test_operation_is_not_commutative_or_associative():
    A = np.diag([4.0, 1.0]).astype(complex)
    B = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    C = np.array([[1.0, 0.5], [0.5, 3.0]], dtype=complex)
    assert np.linalg.norm(cone_add(A, B) - cone_add(B, A)) > 1e-3
    assert np.linalg.norm(cone_add(A, cone_add(B, C))
                          - cone_add(cone_add(A, B), C)) > 1e-3


def test_axiom_suite_requires_samples():
    with pytest.raises(ValueError):
        axiom_suite([])


def test_gyration_singularity_test_is_scale_free():
    # U(A, B) exists for every PD pair; a tiny overall scale must not make
    # the polar factor look singular
    A = np.diag([2e-6, 1e-6])
    B = np.array([[1.5e-6, 2e-7], [2e-7, 1e-6]])
    for scale in (1.0, 1e6):
        np.testing.assert_allclose(gyration(scale * A, scale * B, np.eye(2)),
                                   np.eye(2), atol=1e-12)
