"""The closed-form eigendecomposition of 1x1 and 2x2 Hermitian matrices.

``kernel`` decomposes every matrix and stack with n <= 2 without LAPACK:
w = H_00 and V = 1 at n = 1, and at n = 2 the rotation of LAPACK's
``dlaev2`` on H with the phase of H_10 stripped.  These tests hold it to a
50-digit reference on pinned inputs, to numpy's LAPACK ``eigh`` on
generated ones (in ``test_small_eigh_fuzz``), to the public phase
convention, and to its promise that neither LAPACK nor the phase fix runs
at n <= 2.
"""

import numpy as np
import pytest

from gyromean import CampaignConfig, kernel
from gyromean.gyrocone import cogyroline, cone_add, cooperation, gyration
from gyromean.kernel import (
    eigh,
    is_positive_definite,
    loewner_compare,
    logm,
    min_eig,
    norm,
    pd_eigh,
    powm,
)
from gyromean.means import geo_mean, spectral_mean
from gyromean.metrics import DISTANCE_KINDS, distance
from gyromean.randgen import gen_random_hermitian, gen_random_pd, substream
from gyromean.registry import all_properties, run_property
from per_item_stack import PerItemStack

U = 2.0**-53  # unit roundoff
TINIEST = 2.0**-1074  # the spacing of the doubles among the subnormals


def _kappa_1e12() -> np.ndarray:
    c, s = np.cos(0.4), np.sin(0.4) * np.exp(0.9j)
    Q = np.array([[c, -s.conjugate()], [s, c]])
    return kernel.hermitian_part(Q @ np.diag([1e-12, 1.0]) @ Q.conj().T)


PINNED = {
    "diagonal": np.diag([3.0, -1.0]),
    "scalar": 2.0 * np.eye(2),  # b = 0 with a = d
    # x**2 / x rounds above x, so that det / rt1 would come out above rt1
    "scalar-rounding": 1.4312267487774062 * np.eye(2),
    # a - d one ulp of 1/16, about 1.4e-17, beside a b of the same size
    "near-degenerate": np.array([[0.0625, 1e-17 - 2e-17j],
                                 [1e-17 + 2e-17j, np.nextafter(0.0625, 1.0)]]),
    "imaginary-b": np.array([[1.0, -2j], [2j, 3.0]]),
    "kappa-1e12": _kappa_1e12(),
    "indefinite": np.array([[-1.0, 4.0 + 3.0j], [4.0 - 3.0j, 0.5]]),
    "zero": np.zeros((2, 2)),
    "huge": 1e300 * np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 2.0]]),
    "top": 1.7e308 * np.array([[1.0, 0.15], [0.15, 0.5]]),
    "tiny": 1e-300 * np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 2.0]]),
    "subnormal": 1e-310 * np.array([[1.0, 0.5 - 0.5j], [0.5 + 0.5j, 2.0]]),
    "smallest": TINIEST * np.array([[4.0, -3j], [3j, 4.0]]),
    "1x1": np.array([[2.5]]),
    "1x1-subnormal": np.array([[-1e-310]]),
    "1x1-top": np.array([[1.7e308]]),
}


def _reference(H: np.ndarray) -> list:
    """The ascending eigenvalues of H to 50 digits, from the entries as given."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        if len(H) == 1:
            return [mp.mpf(float(H[0, 0].real))]
        a, d = mp.mpf(float(H[0, 0].real)), mp.mpf(float(H[1, 1].real))
        b = mp.mpc(float(H[1, 0].real), float(H[1, 0].imag))
        radius = mp.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        return [(a + d) / 2 - radius, (a + d) / 2 + radius]


def _backward_errors(H, w, V):
    """max |w_i - reference_i|, ||H V - V diag(w)||_F and ||V* V - I||_F, to 50 digits."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        Hm, Vm = mp.matrix(H.tolist()), mp.matrix(V.tolist())
        n = len(H)
        W = mp.diag([mp.mpf(float(x)) for x in w])
        spectrum = max(abs(mp.mpf(float(x)) - r) for x, r in zip(w, _reference(H)))
        residual = mp.mnorm(Hm * Vm - Vm * W, "f")
        orthonormality = mp.mnorm(Vm.H * Vm - mp.eye(n), "f")
        return float(spectrum), float(residual), float(orthonormality)


def _eigvalsh(H: np.ndarray) -> np.ndarray:
    """The eigenvalue-only read, made at H's unit scale and scaled back, as
    every public function reads a spectrum."""
    (M,), e = kernel._frame(H)
    return kernel._unscale_values(kernel._eigvalsh(M), kernel._degree(e, 1))


def _opnorm(H) -> float:
    return float(max(abs(r) for r in _reference(H)))


@pytest.mark.parametrize("name", list(PINNED))
def test_the_closed_form_meets_a_50_digit_reference(name):
    H = PINNED[name].astype(complex)
    dec = eigh(H)
    scale = _opnorm(H)
    spectrum, residual, orthonormality = _backward_errors(H, dec.eigenvalues, dec.vectors)
    # where the eigenvalues are subnormal, their own rounding is TINIEST
    assert spectrum <= 4 * U * scale + TINIEST
    assert residual <= 1e-14 * scale + 2 * TINIEST
    assert orthonormality <= 1e-14
    assert np.all(np.diff(dec.eigenvalues) >= 0)
    # an eigenvalue-only read gives the decomposition's eigenvalues, bit for bit
    assert np.array_equal(_eigvalsh(H), dec.eigenvalues)


@pytest.mark.parametrize("n", [1, 2])
def test_a_stack_of_the_pinned_inputs_gives_the_single_calls_bits(n):
    singles = [M.astype(complex) for M in PINNED.values() if len(M) == n]
    stack = eigh(np.array(singles))
    spectra = _eigvalsh(np.array(singles))
    for k, H in enumerate(singles):
        dec = eigh(H)
        assert np.array_equal(stack.eigenvalues[k], dec.eigenvalues)
        assert np.array_equal(stack.vectors[k], dec.vectors)
        assert np.array_equal(spectra[k], dec.eigenvalues)


def pinned(V) -> bool:
    """Whether each column of V has an entry of the largest modulus, to
    rounding, that is real positive."""
    for col in np.moveaxis(V, -1, 0):
        top = np.max(np.abs(col))
        if not any(x.imag == 0 and x.real > 0 and abs(x) >= top * (1 - 4 * U) for x in col):
            return False
    return True


@pytest.mark.parametrize("n", [1, 2])
def test_eigh_phase_convention_at_n_le_2(n):
    # test_eigh_phase_determinism at n <= 2, for one matrix and for a stack,
    # which at n <= 2 carries the convention too
    rng = substream(102, "kernel-phase", n)
    H = gen_random_hermitian(rng, n)
    a, b = eigh(H), eigh(H.copy())
    assert np.array_equal(a.vectors, b.vectors)
    for j in range(n):
        k = np.argmax(np.abs(a.vectors[:, j]))
        assert a.vectors[k, j].imag == 0.0
        assert a.vectors[k, j].real > 0
    stack = eigh(np.stack([gen_random_hermitian(rng, n) for _ in range(6)]))
    assert all(pinned(V) for V in stack.vectors)


def test_a_tie_of_moduli_is_pinned_on_an_entry_of_the_largest_modulus():
    # a = d makes both entries of each column equal in modulus
    dec = eigh(np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 2.0]]))
    np.testing.assert_allclose(np.abs(dec.vectors), np.full((2, 2), np.sqrt(0.5)), rtol=1e-15)
    assert pinned(dec.vectors)


def _count_calls(monkeypatch) -> list:
    """Record every LAPACK eigensolve and every phase fix from here on."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda M, name=name, solve=solve: calls.append(name) or solve(M))
    fix = kernel._fix_phases
    monkeypatch.setattr(kernel, "_fix_phases",
                        lambda V: calls.append("_fix_phases") or fix(V))
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_no_lapack_eigensolve_or_phase_fix_runs_at_n_le_2(monkeypatch, n):
    rng = substream(221, "small-eigh-calls", n)
    A, B, X = (gen_random_pd(rng, n) for _ in range(3))
    stack = gen_random_pd(PerItemStack([substream(221, "small-eigh-stack", n, i)
                                        for i in range(4)]), n)
    calls = _count_calls(monkeypatch)
    for M in (A, stack):
        for call in (eigh, pd_eigh, min_eig, logm, is_positive_definite):
            call(M)
        powm(M, 0.3)
    geo_mean(A, B, 0.3)
    spectral_mean(A, B, 0.3)
    cogyroline(0.3, A, B)
    cone_add(A, B)
    cooperation(A, B)
    gyration(A, B, X)
    norm(A)
    loewner_compare(A, B)
    for kind in DISTANCE_KINDS:
        distance(kind, A, B)
    assert calls == []


def test_the_1x1_fixtures_of_a_property_solve_nothing(monkeypatch):
    spec = next(s for s in all_properties() if s.property_id == "spectral-bounds-premise-free")
    calls = _count_calls(monkeypatch)
    run_property(spec, CampaignConfig())
    assert calls == []


def test_a_3x3_matrix_still_takes_lapack_and_the_phase_fix(monkeypatch):
    rng = substream(221, "small-eigh-calls", 3)
    A, B = gen_random_pd(rng, 3), gen_random_pd(rng, 3)
    calls = _count_calls(monkeypatch)
    eigh(A)
    min_eig(A)  # a spectrum read alone is the eigenvalue half of the same eigh
    assert calls == ["eigh", "_fix_phases"]
    min_eig(B)  # and takes no phase fix
    assert calls[2:] == ["eigh"]
