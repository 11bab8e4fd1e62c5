"""The closed-form unitary polar factor of 1x1 and 2x2 matrices.

``kernel`` takes the polar factor of every matrix and stack with n <= 2
without LAPACK: U = m/|m| at n = 1, and at n = 2
U = (M + p adj(M)*)/(s1 + s2) with p = det M/|det M|.  These tests hold it
to a 50-digit SVD on matrices of set conditioning and scale, to the SVD
route's singularity test, to its promise that a stack's items are the
single calls' results bit for bit, and to its promise that no SVD runs at
n <= 2.
"""

import numpy as np
import pytest

from gyromean import CampaignConfig, errors, kernel
from gyromean.gyrocone import cogyroline, cooperation, gyration, gyration_unitary
from gyromean.kernel import _eigh_memo, polar_unitary
from gyromean.means import spectral_defining_residual, spectral_mean
from gyromean.metrics import distance
from gyromean.randgen import gen_random_pd, gen_random_unitary, substream
from gyromean.registry import all_properties, run_property
from per_item_stack import PerItemStack

U = 2.0**-53  # unit roundoff
KAPPAS = (1.0, 1e2, 1e4, 9e4)
# the two scales 2**+-224 sit just inside the range the closed form takes unscaled
SCALES = (1e-300, 1e-150, 2.0**-224, 1.0, 2.0**224, 1e150, 1e300)


def _conditioned(seed, kappa: float, n: int = 2) -> np.ndarray:
    """A complex n x n matrix with singular values 1 and 1/kappa (1 at n = 1)."""
    rng = substream(seed, "small-polar", kappa, n)
    s = np.array([1.0, 1.0 / kappa])[:n]
    M = gen_random_unitary(rng, n) @ np.diag(s) @ gen_random_unitary(rng, n)
    return M * np.exp(1j * rng.uniform(0, 2 * np.pi)) if n == 1 else M


def _reference(M: np.ndarray):
    """The polar factor W Vh of M, and the 2-norm condition number of M, to
    50 digits from the entries as given."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        W, s, Vh = mp.svd_c(mp.matrix(M.tolist()))
        return W * Vh, float(max(s) / min(s))


def _error(M: np.ndarray, P: np.ndarray) -> float:
    """The largest |entry| of P - W Vh, relative to u kappa(M)."""
    mp = pytest.importorskip("mpmath").mp
    ref, kappa = _reference(M)
    with mp.workdps(50):
        diff = mp.matrix(P.tolist()) - ref
        worst = max(abs(diff[i, j]) for i in range(diff.rows) for j in range(diff.cols))
        return float(worst) / (U * kappa)


# a 1x1 matrix has one singular value
@pytest.mark.parametrize("n, kappa", [(1, 1.0)] + [(2, kappa) for kappa in KAPPAS])
def test_the_closed_form_meets_a_50_digit_svd(n, kappa):
    base = [_conditioned(seed, kappa, n) for seed in (301, 302, 303)]
    for scale in SCALES:
        singles = [scale * M for M in base]
        stack = polar_unitary(np.array(singles))
        for M, P in zip(singles, stack):
            single = polar_unitary(M)
            assert _error(M, single) <= 8, (scale, M)
            assert np.abs(single @ single.conj().T - np.eye(n)).max() <= 8 * U
            # a stack's items are the single calls' results bit for bit
            assert np.array_equal(P, single)
        # U does not depend on the scale of M
        np.testing.assert_allclose(stack, polar_unitary(np.array(base)), rtol=0,
                                   atol=16 * U * kappa)


def test_a_mixed_stack_gives_the_single_calls_bits():
    # items inside and outside the unscaled range, 1x1 and 2x2
    for n in (1, 2):
        singles = [scale * _conditioned(seed, kappa, n)
                   for seed in (311, 312) for kappa in KAPPAS for scale in SCALES]
        stack = polar_unitary(np.array(singles).reshape((4, -1, n, n)))
        assert stack.shape == (4, len(singles) // 4, n, n)
        for M, P in zip(singles, stack.reshape((-1, n, n))):
            assert np.array_equal(P, polar_unitary(M))


# matrices that count as singular: s_min <= sqrt(PD_TOL) s_max = 1e-5 s_max
SINGULAR = (np.zeros((2, 2)), np.outer([1.0, 2.0 - 1.0j], [0.5j, 3.0]),
            np.diag([1.0, 5e-6]), np.zeros((1, 1)))


@pytest.mark.parametrize("scale", SCALES)
def test_the_singularity_boundary_does_not_move_with_scale(scale):
    for M in SINGULAR:
        with pytest.raises(errors.Singular):
            polar_unitary(scale * M)
        # a stack names its first singular item, and the zero matrix warns of nothing
        eye = np.eye(len(M))
        with pytest.raises(errors.Singular, match=r"item \(1,\)"):
            polar_unitary(np.array([scale * eye, scale * M, scale * eye]))
    near = scale * np.diag([1.0, 2e-5])
    np.testing.assert_allclose(polar_unitary(near), np.eye(2), rtol=0, atol=4 * U)


def test_an_overflowed_item_gives_nan_not_singular():
    # only an overflowed intermediate brings an infinite entry here; a NaN
    # factor then makes the caller's result NotFinite, as the SVD route did
    for M in (np.array([[np.inf + 0j]]), np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex)):
        assert np.isnan(kernel._polar_unitary(M)).all()
        stack = kernel._polar_unitary(np.array([np.eye(len(M)), M]))
        assert np.array_equal(stack[0], np.eye(len(M))) and np.isnan(stack[1]).all()


def _count_svds(monkeypatch) -> list:
    """Record the shape of every LAPACK SVD from here on."""
    shapes = []
    solve = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda M: shapes.append(M.shape) or solve(M))
    return shapes


@pytest.mark.parametrize("n", [1, 2])
def test_no_svd_runs_at_n_le_2(monkeypatch, n):
    rng = substream(223, "small-polar-calls", n)
    A, B, X = (gen_random_pd(rng, n) for _ in range(3))
    stacks = [gen_random_pd(PerItemStack([substream(223, "small-polar-stack", n, k, i)
                                          for i in range(4)]), n) for k in range(3)]
    shapes = _count_svds(monkeypatch)
    for P, Q, Y in ((A, B, X), stacks):
        polar_unitary(P @ Q)
        spectral_mean(P, Q, 0.3)
        cogyroline(0.3, P, Q)
        cooperation(P, Q)
        gyration(P, Q, Y)
        gyration_unitary(P, Q)
        spectral_defining_residual(P, Q, 0.3, Y)
    for kind in ("semimetric_op", "semimetric_frob"):
        distance(kind, A, B)
    assert shapes == []


def test_a_property_takes_svds_only_at_n_ge_3(monkeypatch):
    spec = next(s for s in all_properties() if s.property_id == "cone-gyrogroup-axioms")
    shapes = _count_svds(monkeypatch)
    run_property(spec, CampaignConfig(seed=11, trials=8, dims=(2, 3)))
    assert shapes and all(shape[-1] == 3 for shape in shapes)


def test_a_closed_form_polar_factor_takes_no_memo_entry():
    M = _conditioned(331, 1e2)
    with _eigh_memo():
        polar_unitary(M)
        polar_unitary(np.array([M, M]))
        assert len(kernel._memos()["svd"].entries) == 0
        polar_unitary(np.eye(3))
        assert len(kernel._memos()["svd"].entries) == 1
