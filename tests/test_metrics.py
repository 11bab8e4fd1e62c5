"""Thompson and Riemannian metrics, the semi-metric, midpoint behavior."""

import numpy as np
import pytest

from gyromean import errors
from gyromean.fixtures import (
    TRIANGLE_A,
    TRIANGLE_B,
    TRIANGLE_C,
    TRIANGLE_REFERENCE,
    triangle_measurements,
)
from gyromean.kernel import hermitian_part, invm, logm, norm, powm
from gyromean.means import geo_mean, spectral_mean
from gyromean.metrics import DISTANCE_KINDS, distance, midpoint_deviation, sup_ratio
from gyromean.randgen import (
    gen_commuting_pair,
    gen_random_pd,
    gen_random_unitary,
    substream,
)

B_FIX = np.diag([np.e**2, np.e**-1])


def test_distance_fixtures():
    assert distance("thompson", np.eye(2), B_FIX) == pytest.approx(2.0)
    assert distance("riemannian", np.eye(2), B_FIX) == pytest.approx(np.sqrt(5.0))
    # commuting reduction: d(I, B) = ||log B||
    assert distance("semimetric_op", np.eye(2), B_FIX) == pytest.approx(2.0)
    assert distance("semimetric_frob", np.eye(2), B_FIX) == \
        pytest.approx(np.sqrt(5.0))


def test_distance_unknown_kind():
    with pytest.raises(errors.UnknownCase):
        distance("euclid", np.eye(2), np.eye(2))


def test_sup_ratio():
    assert sup_ratio(np.eye(3), 3 * np.eye(3)) == pytest.approx(3.0)
    rng = substream(301, "metrics-sup")
    A = gen_random_pd(rng, 3)
    assert sup_ratio(A, A) == pytest.approx(1.0)
    B = gen_random_pd(rng, 3)
    thompson = max(np.log(sup_ratio(A, B)), np.log(sup_ratio(B, A)))
    assert thompson == pytest.approx(distance("thompson", A, B), abs=1e-10)


def test_semimetric_axioms():
    rng = substream(302, "metrics-axioms")
    for kind in ("semimetric_op", "semimetric_frob"):
        for _ in range(20):
            A = gen_random_pd(rng, 3)
            B = gen_random_pd(rng, 3)
            d = distance(kind, A, B)
            assert d >= 0
            assert d == pytest.approx(distance(kind, B, A), abs=1e-10)
            assert distance(kind, A, A.copy()) < 1e-8
            assert d > 1e-6  # independent samples never coincide


def test_semimetric_invariances():
    rng = substream(303, "metrics-invariance")
    A = gen_random_pd(rng, 4)
    B = gen_random_pd(rng, 4)
    U = gen_random_unitary(rng, 4)
    for kind in ("semimetric_op", "semimetric_frob"):
        d = distance(kind, A, B)
        assert distance(kind, 3.7 * A, 3.7 * B) == pytest.approx(d, abs=1e-9)
        assert distance(kind, invm(A), invm(B)) == pytest.approx(d, abs=1e-9)
        assert distance(kind, U @ A @ U.conj().T, U @ B @ U.conj().T) == \
            pytest.approx(d, abs=1e-9)
    Ac, Bc = gen_commuting_pair(rng, 3)
    for t in (-1.5, 0.4, 2.0):
        assert distance("semimetric_op", powm(Ac, t), powm(Bc, t)) == \
            pytest.approx(abs(t) * distance("semimetric_op", Ac, Bc), abs=1e-9)


def test_spectral_mean_is_semimetric_midpoint():
    rng = substream(304, "metrics-midpoint")
    for kind in ("semimetric_op", "semimetric_frob"):
        A = gen_random_pd(rng, 4)
        B = gen_random_pd(rng, 4)
        devs = midpoint_deviation(kind, A, B, spectral_mean(A, B, 0.5))
        assert max(devs) < 1e-8


def test_geo_mean_is_riemannian_midpoint():
    rng = substream(305, "metrics-riem-mid")
    A = gen_random_pd(rng, 4)
    B = gen_random_pd(rng, 4)
    devs = midpoint_deviation("riemannian", A, B, geo_mean(A, B, 0.5))
    assert max(devs) < 1e-8
    assert max(midpoint_deviation("riemannian", A, A.copy(), A)) < 1e-12


def test_weighted_division_of_semimetric():
    rng = substream(306, "metrics-weighted")
    A = gen_random_pd(rng, 3)
    B = gen_random_pd(rng, 3)
    d = distance("semimetric_op", A, B)
    for t in np.arange(0.1, 0.95, 0.1):
        S = spectral_mean(A, B, t)
        assert distance("semimetric_op", A, S) == pytest.approx(t * d, abs=1e-8)
        assert distance("semimetric_op", B, S) == \
            pytest.approx((1 - t) * d, abs=1e-8)


def test_triangle_counterexample_values():
    m = triangle_measurements()
    # reference values match the operator-norm variant at half scale,
    # i.e. they omit the factor two of the semi-metric definition
    assert m["matched_variant"] == "semimetric_op"
    assert m["matched_scale"] == 0.5
    values = m["variants"]["semimetric_op"]["values"]
    for got, ref in zip(values, TRIANGLE_REFERENCE):
        assert 0.5 * got == pytest.approx(ref, abs=1e-5)
    # the triangle inequality fails in both variants at full scale
    for kind in ("semimetric_op", "semimetric_frob"):
        d_ab = distance(kind, TRIANGLE_A, TRIANGLE_B)
        d_bc = distance(kind, TRIANGLE_B, TRIANGLE_C)
        d_ac = distance(kind, TRIANGLE_A, TRIANGLE_C)
        assert d_ac > d_ab + d_bc


def test_d_bounded_by_riemannian():
    rng = substream(307, "metrics-dledelta")
    for _ in range(30):
        A = gen_random_pd(rng, 4)
        B = gen_random_pd(rng, 4)
        assert distance("semimetric_frob", A, B) <= \
            distance("riemannian", A, B) + 1e-10
    Ac, Bc = gen_commuting_pair(rng, 4)
    assert distance("semimetric_frob", Ac, Bc) == \
        pytest.approx(distance("riemannian", Ac, Bc), abs=1e-9)


def test_distance_requires_pd():
    with pytest.raises(errors.NotPositiveDefinite):
        distance("thompson", np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(errors.DimensionMismatch):
        distance("thompson", np.eye(2), np.eye(3))


def _log_route(kind, A, B):
    """The distance as a norm of a matrix logarithm, through the public functions."""
    if kind in ("thompson", "riemannian"):
        root = powm(A, -0.5)
        L = logm(hermitian_part(root @ B @ root))
    else:
        L = logm(geo_mean(invm(A), B, 0.5))
    scale = 2.0 if kind.startswith("semimetric") else 1.0
    return scale * norm(L, "operator" if kind in ("thompson", "semimetric_op") else "frobenius")


def _pinned_pd(rng, n, kappa):
    """A PD matrix with spectrum from 1 to kappa, at a random overall scale."""
    U = gen_random_unitary(rng, n)
    w = np.geomspace(1.0, kappa, n) * np.exp(rng.uniform(-3.0, 3.0))
    return hermitian_part((U * w) @ U.conj().T)


@pytest.mark.parametrize("kappa", [1e1, 1e2])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_a_distance_from_log_eigenvalues_matches_the_matrix_log_route(kind, n, kappa):
    # each distance reads only the log-eigenvalues of A^{-1/2} B A^{-1/2} or of
    # A^{-1} # B; with kappa(A) = kappa(B) = 1e2 the whitened step reaches
    # kappa 1e4, where the two routes' eigensolves differ by about 7e-13
    rng = substream(311, "metrics-log-route", kind, n, kappa)
    pairs = [(_pinned_pd(rng, n, kappa), _pinned_pd(rng, n, kappa)) for _ in range(6)]
    want = np.array([_log_route(kind, A, B) for A, B in pairs])
    got = [distance(kind, A, B) for A, B in pairs]
    np.testing.assert_allclose(got, want, rtol=2e-12)
    A, B = (np.stack(ops) for ops in zip(*pairs))
    np.testing.assert_allclose(distance(kind, A, B), want, rtol=2e-12)
