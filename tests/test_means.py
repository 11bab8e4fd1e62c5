"""Weighted geometric and spectral means, residuals, bijection inverses."""

import numpy as np
import pytest

from gyromean import errors
from gyromean.gyrocone import cogyroline, cooperation, gyroline
from gyromean.kernel import invm, min_eig, powm
from gyromean.means import (
    block_psd_margin,
    geo_mean,
    karcher_residual,
    mean,
    mean_left_inverse,
    riccati_residual,
    spectral_defining_residual,
    spectral_mean,
)
from gyromean.metrics import distance
from gyromean.randgen import (
    gen_commuting_pair,
    gen_random_pd,
    gen_random_unitary,
    substream,
)


def test_geo_mean_commuting_fixture():
    A, B = np.diag([4.0, 1.0]), np.diag([1.0, 9.0])
    np.testing.assert_allclose(geo_mean(A, B, 0.5), np.diag([2.0, 3.0]),
                               atol=1e-12)


def test_geo_mean_idempotent():
    rng = substream(201, "means-idem")
    A = gen_random_pd(rng, 3)
    for t in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(geo_mean(A, A, t), A, atol=1e-11)


def test_geo_mean_riccati_oracle():
    # the defining property: X = A #_{1/2} B solves X A^{-1} X = B
    rng = substream(202, "means-riccati")
    for _ in range(30):
        A = gen_random_pd(rng, 3)
        B = gen_random_pd(rng, 3)
        X = geo_mean(A, B, 0.5)
        assert riccati_residual(A, B, X) < 1e-9
        assert np.linalg.norm(X @ invm(A) @ X - B) < 1e-9


def test_riccati_residual_fixtures():
    rng = substream(203, "means-riccati-fix")
    B = gen_random_pd(rng, 4)
    assert riccati_residual(np.eye(4), B, powm(B, 0.5)) < 1e-11
    # at X = A the residual collapses to the plain distance of the operands
    assert riccati_residual(np.eye(3), 4 * np.eye(3), np.eye(3)) == \
        pytest.approx(3.0 * np.sqrt(3.0))


def test_karcher_residual_vanishes_at_mean():
    rng = substream(204, "means-karcher")
    for t in (0.25, 0.5, 0.9):
        A = gen_random_pd(rng, 3)
        B = gen_random_pd(rng, 3)
        assert karcher_residual(A, B, t, geo_mean(A, B, t)) < 1e-9
        # any other curve point is not the stationarity solution
        assert karcher_residual(A, B, t, geo_mean(A, B, 0.5 * t)) > 1e-4


def test_karcher_residual_scalar_fixtures():
    A = gen_random_pd(substream(205, "means-karcher-fix"), 3)
    assert karcher_residual(A, A, 0.7, A) < 1e-12
    assert karcher_residual(np.eye(2), np.diag([4.0, 4.0]), 0.5,
                            np.diag([2.0, 2.0])) < 1e-12


def test_spectral_mean_commuting_fixture():
    A, B = np.diag([4.0, 1.0]), np.diag([1.0, 9.0])
    np.testing.assert_allclose(spectral_mean(A, B, 0.5), np.diag([2.0, 3.0]),
                               atol=1e-12)


def test_spectral_mean_eigenvalues_are_sqrt_of_product():
    rng = substream(206, "means-speceig")
    for _ in range(20):
        A = gen_random_pd(rng, 4)
        B = gen_random_pd(rng, 4)
        got = np.linalg.eigvalsh(spectral_mean(A, B, 0.5))
        expected = np.sqrt(np.sort(np.linalg.eigvals(A @ B).real))
        np.testing.assert_allclose(got, expected, rtol=1e-10)


def test_spectral_mean_inversion():
    rng = substream(207, "means-spec-inv")
    for t in (0.2, 0.5, 0.8):
        A = gen_random_pd(rng, 3)
        B = gen_random_pd(rng, 3)
        np.testing.assert_allclose(spectral_mean(invm(A), invm(B), t),
                                   invm(spectral_mean(A, B, t)), atol=1e-9)


def test_spectral_defining_residual():
    rng = substream(208, "means-spec-def")
    A = gen_random_pd(rng, 3)
    B = gen_random_pd(rng, 3)
    for t in (0.25, 0.5, 0.75):
        X = spectral_mean(A, B, t)
        assert spectral_defining_residual(A, B, t, X) < 1e-9
    assert spectral_defining_residual(A, B, 1.0, B) < 1e-10
    assert spectral_defining_residual(A, B, 0.0, A) < 1e-10


def test_parameter_symmetry_both_means():
    rng = substream(209, "means-symmetry")
    A = gen_random_pd(rng, 4)
    B = gen_random_pd(rng, 4)
    for t in (0.1, 0.4, 0.9):
        np.testing.assert_allclose(geo_mean(A, B, t), geo_mean(B, A, 1 - t),
                                   atol=1e-10)
        np.testing.assert_allclose(spectral_mean(A, B, t),
                                   spectral_mean(B, A, 1 - t), atol=1e-10)


def test_unitary_covariance_and_homogeneity():
    rng = substream(210, "means-covariance")
    A = gen_random_pd(rng, 3)
    B = gen_random_pd(rng, 3)
    U = gen_random_unitary(rng, 3)
    t = 0.35
    for fn in (geo_mean, spectral_mean):
        M = fn(A, B, t)
        np.testing.assert_allclose(
            fn(U.conj().T @ A @ U, U.conj().T @ B @ U, t),
            U.conj().T @ M @ U, atol=1e-10)
        np.testing.assert_allclose(fn(2.0 * A, 5.0 * B, t),
                                   2.0 ** (1 - t) * 5.0 ** t * M, atol=1e-9)


def test_spectral_interpolation_identity():
    rng = substream(211, "means-interp")
    A = gen_random_pd(rng, 3)
    B = gen_random_pd(rng, 3)
    for s, t, u in ((0.2, 0.6, 0.9), (0.0, 0.5, 1.0), (0.7, 0.3, 0.1)):
        lhs = spectral_mean(spectral_mean(A, B, s), spectral_mean(A, B, u), t)
        np.testing.assert_allclose(lhs, spectral_mean(A, B, (1 - t) * s + t * u),
                                   atol=1e-9)


def test_means_differ_off_commutativity():
    A = np.diag([4.0, 1.0]).astype(complex)
    B = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    assert np.linalg.norm(geo_mean(A, B, 0.5) - spectral_mean(A, B, 0.5)) > 1e-3
    Ac, Bc = gen_commuting_pair(substream(212, "means-differ"), 3)
    np.testing.assert_allclose(geo_mean(Ac, Bc, 0.3), spectral_mean(Ac, Bc, 0.3),
                               atol=1e-10)


def test_mean_left_inverse_fixture():
    out = mean_left_inverse("metric", np.eye(2), np.diag([4.0, 9.0]), 0.5)
    np.testing.assert_allclose(out, np.diag([16.0, 81.0]), atol=1e-10)


def test_mean_left_inverse_roundtrip():
    rng = substream(213, "means-roundtrip")
    for kind in ("metric", "spectral"):
        for t in (0.25, 0.5, 0.9):
            A = gen_random_pd(rng, 3)
            X = gen_random_pd(rng, 3)
            C = mean(kind, A, X, t)
            recovered = mean_left_inverse(kind, A, C, t)
            np.testing.assert_allclose(recovered, X,
                                       atol=1e-8 * np.linalg.norm(X))
            np.testing.assert_allclose(mean(kind, A, recovered, t), C,
                                       atol=1e-8 * np.linalg.norm(C))


def test_mean_left_inverse_rejects_zero_weight():
    with pytest.raises(errors.WeightOutOfRange):
        mean_left_inverse("metric", np.eye(2), np.eye(2), 0.0)


def test_mean_kind_dispatch():
    with pytest.raises(errors.UnknownCase):
        mean("harmonic", np.eye(2), np.eye(2), 0.5)


def test_block_psd_margin():
    assert block_psd_margin(np.eye(2), np.eye(2), np.eye(2)) == pytest.approx(0.0, abs=1e-12)
    assert block_psd_margin(np.eye(2), np.eye(2), 2 * np.eye(2)) < -0.9
    rng = substream(214, "means-block")
    for _ in range(20):
        A = gen_random_pd(rng, 3)
        B = gen_random_pd(rng, 3)
        assert block_psd_margin(A, B, geo_mean(A, B, 0.5)) >= -1e-9
        assert min_eig(geo_mean(A, B, 0.5)) > 0


def test_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatch):
        geo_mean(np.eye(2), np.eye(3), 0.5)
    with pytest.raises(errors.DimensionMismatch):
        riccati_residual(np.eye(2), np.eye(2), np.eye(3))


# (eigh, svd) calls per single call: one decomposition per operand and per
# intermediate whose spectrum is read, the positive definiteness checks and
# the log-eigenvalues behind a distance included; an inverse, an inverse
# square root or a power of a power comes from a decomposition already made,
# and the polar factor behind the cooperation and A^{-1} # B costs one svd;
# np.linalg.eigvalsh is never called
EIGENSOLVES = {
    "geo_mean": (lambda A, B: geo_mean(A, B, 0.3), 2, 0),
    "spectral_mean": (lambda A, B: spectral_mean(A, B, 0.3), 3, 1),
    "thompson": (lambda A, B: distance("thompson", A, B), 2, 0),
    "riemannian": (lambda A, B: distance("riemannian", A, B), 2, 0),
    "semimetric_op": (lambda A, B: distance("semimetric_op", A, B), 3, 1),
    "semimetric_frob": (lambda A, B: distance("semimetric_frob", A, B), 3, 1),
    "cooperation": (cooperation, 2, 1),
    "gyroline": (lambda A, B: gyroline(0.3, A, B), 2, 0),
    "cogyroline": (lambda A, B: cogyroline(0.3, A, B), 3, 1),
    # A^{-1} # X is read as made, not decomposed to be rebuilt
    "spectral_defining_residual": (
        lambda A, B: spectral_defining_residual(A, B, 0.3, A + B), 4, 2),
}


@pytest.mark.parametrize("name", list(EIGENSOLVES))
def test_no_call_decomposes_a_spectrum_it_already_has(name, monkeypatch):
    call, eighs, svds = EIGENSOLVES[name]
    rng = substream(215, "means-eigensolves")
    A, B = gen_random_pd(rng, 3), gen_random_pd(rng, 3)
    solves = {"eigh": 0, "eigvalsh": 0, "svd": 0}

    def counting(solver):
        solve = getattr(np.linalg, solver)

        def counted(M):
            solves[solver] += 1
            return solve(M)
        return counted

    for solver in solves:
        monkeypatch.setattr(np.linalg, solver, counting(solver))
    call(A, B)
    assert solves == {"eigh": eighs, "eigvalsh": 0, "svd": svds}
