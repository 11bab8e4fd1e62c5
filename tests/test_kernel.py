"""Spectral kernel: eigendecomposition, matrix functions, norms, comparisons."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import gyromean
from gyromean import errors, kernel
from gyromean.kernel import (
    LOEWNER_TOL,
    MEMO_SIZE,
    Loewner,
    _eigh_memo,
    congruence,
    eigh,
    expm,
    hermitian_part,
    invm,
    is_positive_definite,
    loewner_compare,
    logm,
    matrix_function,
    min_eig,
    norm,
    pd_eigh,
    polar_unitary,
    powm,
    require_hermitian,
    sqrtm,
)
from gyromean.order import check_logmaj_mean
from gyromean.randgen import (
    gen_commuting_pair,
    gen_random_hermitian,
    gen_random_pd,
    gen_random_unitary,
    substream,
)
from per_item_stack import PerItemStack


def test_eigh_diagonal_sorting():
    dec = eigh(np.diag([3.0, 1.0]))
    np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0])
    # eigenvectors are identity columns up to permutation and phase
    np.testing.assert_allclose(np.abs(dec.vectors), np.eye(2)[:, ::-1], atol=1e-14)


def test_eigh_exchange_matrix():
    dec = eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0])
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(np.abs(dec.vectors), [[s, s], [s, s]], atol=1e-14)


def test_eigh_reconstruction_residual():
    rng = substream(101, "kernel-reconstruct")
    for _ in range(25):
        H = gen_random_hermitian(rng, 5)
        dec = eigh(H)
        rel = np.linalg.norm(dec.reconstruct() - H) / np.linalg.norm(H)
        assert rel < 1e-12
        np.testing.assert_allclose(dec.vectors.conj().T @ dec.vectors,
                                   np.eye(5), atol=1e-12)


def test_eigh_phase_determinism():
    rng = substream(102, "kernel-phase")
    H = gen_random_hermitian(rng, 4)
    a = eigh(H)
    b = eigh(H.copy())
    assert np.array_equal(a.vectors, b.vectors)
    for j in range(4):
        k = np.argmax(np.abs(a.vectors[:, j]))
        pivot = a.vectors[k, j]
        assert pivot.imag == pytest.approx(0.0, abs=1e-15)
        assert pivot.real > 0


def test_eigh_rejects_non_hermitian():
    with pytest.raises(errors.NotHermitian,
                       match=r"^hermiticity defect 1\.000e\+00 exceeds tolerance$"):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_function_sqrt_log_fixtures():
    np.testing.assert_allclose(matrix_function(np.diag([4.0, 9.0]), "sqrt"),
                               np.diag([2.0, 3.0]), atol=1e-14)
    np.testing.assert_allclose(
        matrix_function(np.diag([np.e, 1.0 / np.e]), "log"),
        np.diag([1.0, -1.0]), atol=1e-14)


def test_power_against_repeated_sqrt_oracle():
    # dyadic oracle: A^{1/4} built from two nested square roots only
    rng = substream(103, "kernel-dyadic")
    for _ in range(10):
        A = gen_random_pd(rng, 4)
        oracle = sqrtm(sqrtm(A))
        direct = matrix_function(A, "power", t=0.25)
        assert np.linalg.norm(direct - oracle) / np.linalg.norm(oracle) < 1e-10


def test_functional_calculus_consistency():
    rng = substream(104, "kernel-calculus")
    for dim in (2, 3, 6):
        A = gen_random_pd(rng, dim)
        scale = np.linalg.norm(A)
        np.testing.assert_allclose(powm(A, 1.0), A, atol=1e-10 * scale)
        np.testing.assert_allclose(powm(powm(A, 0.4), 0.5), powm(A, 0.2),
                                   atol=1e-10 * scale)
        np.testing.assert_allclose(sqrtm(sqrtm(A)), powm(A, 0.25),
                                   atol=1e-10 * scale)
        np.testing.assert_allclose(expm(logm(A)), A, atol=1e-10 * scale)
        np.testing.assert_allclose(powm(A, -1.0) @ A, np.eye(dim),
                                   atol=1e-10 * scale)


def test_power_requires_positive_definite():
    with pytest.raises(errors.NotPositiveDefinite):
        powm(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(errors.NotPositiveDefinite):
        matrix_function(np.diag([1.0, 0.0]), "power", t=0.3)


def test_matrix_function_unknown_kind():
    with pytest.raises(errors.UnknownCase):
        matrix_function(np.eye(2), "sin")
    with pytest.raises(errors.UnknownCase):
        matrix_function(np.eye(2), "power")


def test_congruence_fixtures():
    S = np.array([[1.0, 2.0], [0.0, 1.0]])
    np.testing.assert_allclose(congruence(np.eye(2), S), S @ S.conj().T)
    np.testing.assert_allclose(congruence(np.diag([1.0, 2.0]), np.diag([2.0, 1.0])),
                               np.diag([4.0, 2.0]))
    with pytest.raises(errors.DimensionMismatch):
        congruence(np.eye(3), np.eye(2))


def test_congruence_preserves_order():
    # Loewner comparator oracle on 100 random dominated pairs
    rng = substream(105, "kernel-congruence-order")
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        X = gen_random_pd(rng, dim)
        Y = X + gen_random_pd(rng, dim)
        S = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = congruence(X, S)
        rhs = congruence(Y, S)
        assert loewner_compare(lhs, rhs) in (Loewner.LE, Loewner.EQ)


def test_norm_fixtures():
    H = np.diag([2.0, -3.0])
    assert norm(H, "operator") == pytest.approx(3.0)
    assert norm(H, "frobenius") == pytest.approx(np.sqrt(13.0))
    rng = substream(106, "kernel-norms")
    for _ in range(20):
        H = gen_random_hermitian(rng, 4)
        assert norm(H, "operator") <= norm(H, "frobenius") + 1e-12
    with pytest.raises(errors.UnknownCase):
        norm(H, "nuclear")


def test_loewner_compare_fixtures():
    assert loewner_compare(np.eye(2), 2 * np.eye(2)) is Loewner.LE
    assert loewner_compare(2 * np.eye(2), np.eye(2)) is Loewner.GE
    assert loewner_compare(np.eye(2), np.eye(2)) is Loewner.EQ
    assert (loewner_compare(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
            is Loewner.INCOMPARABLE)


def test_loewner_permutation_congruence_remark():
    # X vs S X S for the permutation S: the difference has mixed spectrum
    S = np.array([[0.0, 1.0], [1.0, 0.0]])
    X = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert loewner_compare(S @ X @ S, X) is Loewner.INCOMPARABLE


def test_loewner_transitivity_at_tolerance():
    rng = substream(107, "kernel-loewner-trans")
    tol = LOEWNER_TOL
    for _ in range(50):
        X = gen_random_pd(rng, 3)
        Y = X + gen_random_pd(rng, 3)
        Z = Y + gen_random_pd(rng, 3)
        if loewner_compare(X, Y, tol) is Loewner.LE and \
           loewner_compare(Y, Z, tol) is Loewner.LE:
            assert loewner_compare(X, Z, 2 * tol) in (Loewner.LE, Loewner.EQ)


def test_inversion_antitone():
    rng = substream(108, "kernel-inv-antitone")
    for _ in range(50):
        X = gen_random_pd(rng, 3)
        Y = X + gen_random_pd(rng, 3)
        assert loewner_compare(invm(Y), invm(X)) in (Loewner.LE, Loewner.EQ)


def test_polar_unitary_fixtures():
    np.testing.assert_allclose(polar_unitary(np.diag([2.0, 3.0])), np.eye(2),
                               atol=1e-14)
    rng = substream(109, "kernel-polar")
    U0 = gen_random_unitary(rng, 3)
    np.testing.assert_allclose(polar_unitary(U0), U0, atol=1e-12)
    # commuting PD factors have a positive product, so the unitary part is I
    A, B = gen_commuting_pair(rng, 3)
    np.testing.assert_allclose(polar_unitary(sqrtm(A) @ sqrtm(B)), np.eye(3),
                               atol=1e-11)
    with pytest.raises(errors.Singular,
                       match=r"^matrix has a \(numerically\) vanishing singular value$"):
        polar_unitary(np.array([[1.0, 0.0], [0.0, 0.0]]))
    # singularity is judged relative to the largest singular value, at
    # s_min <= sqrt(PD_TOL) s_max, whatever the scale
    for scale in (1e-150, 1e-6, 1.0, 1e6, 1e150):
        for ratio in (0.5, 2e-5):
            np.testing.assert_allclose(polar_unitary(scale * np.diag([1.0, ratio])),
                                       np.eye(2), atol=1e-14)
        with pytest.raises(errors.Singular):
            polar_unitary(scale * np.diag([1.0, 5e-6]))


def test_polar_unitary_is_unitary():
    rng = substream(110, "kernel-polar-unitary")
    for _ in range(20):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        U = polar_unitary(M)
        np.testing.assert_allclose(U @ U.conj().T, np.eye(4), atol=1e-10)
        P = hermitian_part(sqrtm(M @ M.conj().T))
        np.testing.assert_allclose(P @ U, M, atol=1e-10 * np.linalg.norm(M))


@pytest.mark.parametrize("kappa", [1e2, 1e4, 9e4])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_polar_unitary_is_unitary_to_rounding_at_any_accepted_condition(n, kappa):
    # M = W diag(s) Vh with s log-spaced on [1/kappa, 1]: the unitary factor
    # must not lose accuracy as kappa(M) grows toward the singularity test
    rng = substream(111, "kernel-polar-kappa", n)
    s = np.logspace(0.0, -np.log10(kappa), n)
    M = np.stack([(gen_random_unitary(rng, n) * s) @ gen_random_unitary(rng, n)
                  for _ in range(3)])
    eye = np.eye(n)
    for U in (polar_unitary(M[0]), *polar_unitary(M)):
        assert np.linalg.norm(U @ U.conj().T - eye) <= 1e-12


def test_min_eig_and_hermitian_part():
    assert min_eig(np.diag([3.0, -2.0])) == pytest.approx(-2.0)
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    np.testing.assert_allclose(hermitian_part(M), [[1.0, 0.5], [0.5, 1.0]])


def test_min_eig_is_the_smallest_eigenvalue_of_each_item():
    rng = substream(122, "kernel-min-eig")
    H = gen_random_hermitian(rng, 5)
    stack = np.stack([gen_random_hermitian(rng, 5) for _ in range(4)])
    assert min_eig(H) == pytest.approx(eigh(H).eigenvalues[0], rel=1e-13, abs=1e-14)
    np.testing.assert_allclose(min_eig(stack), np.linalg.eigh(stack)[0][:, 0],
                               rtol=1e-13, atol=1e-14)


# the stack checks test the whole stack at once and diagnose item by item only
# when that test fails, so the verdicts and messages are those of the items
def test_a_stack_within_the_scaled_hermiticity_tolerance_passes():
    # a defect of 1e-7 fails the bare tolerance, but not 1e-10 times the
    # entries' scale of 1e6, which the per-item test applies
    stack = 1e6 * np.stack([np.eye(3)] * 4).astype(complex)
    stack[2, 0, 1] += 1e-7
    assert require_hermitian(stack) is stack


def test_a_stack_names_its_non_hermitian_item():
    stack = np.stack([np.eye(3)] * 5).astype(complex)
    stack[3, 0, 2] = 1e-3
    with pytest.raises(errors.NotHermitian, match=r"^item \(3,\): hermiticity defect 1.000e-03"):
        require_hermitian(stack)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
def test_a_stack_names_its_non_finite_item(bad):
    stack = np.stack([np.eye(3)] * 5).astype(complex)
    stack[1, 2, 2] = bad
    with pytest.raises(errors.NotFinite, match=r"^item \(1,\): "):
        require_hermitian(stack)


def test_an_empty_stack_passes_the_checks():
    empty = np.zeros((0, 3, 3), dtype=complex)
    assert require_hermitian(empty).shape == (0, 3, 3)
    assert pd_eigh(empty).eigenvalues.shape == (0, 3)
    assert is_positive_definite(empty)
    assert min_eig(empty).shape == (0,)


@pytest.mark.parametrize("lowest", [0.0, -1.0, 1e-11])
def test_the_eigenvalue_only_check_gives_the_decompositions_verdict(lowest):
    stack = np.stack([np.eye(3)] * 4).astype(complex)
    stack[2, 1, 1] = lowest
    with pytest.raises(errors.NotPositiveDefinite) as by_eigh:
        pd_eigh(stack)
    with pytest.raises(errors.NotPositiveDefinite) as by_eigvals:
        kernel._pd_eigvals(stack)
    assert str(by_eigvals.value) == str(by_eigh.value)
    assert str(by_eigh.value).startswith("item (2,): smallest eigenvalue")
    assert not is_positive_definite(stack)
    assert is_positive_definite(stack[[0, 1, 3]])


def test_no_public_function_takes_a_tolerance():
    # the tolerances are the module constants of the kernel; only the Loewner
    # comparison takes its eigenvalue slack per call
    modules = [gyromean] + [importlib.import_module(f"gyromean.{m.name}")
                            for m in pkgutil.iter_modules(gyromean.__path__)]
    takes_tol = set()
    for module in modules:
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or not getattr(obj, "__module__", "").startswith("gyromean")):
                continue
            try:
                params = inspect.signature(obj).parameters
            except ValueError:
                continue
            if "tol" in params:
                takes_tol.add(f"{obj.__module__}.{obj.__qualname__}")
    assert takes_tol == {"gyromean.kernel.loewner_compare"}


def _counted_solves(monkeypatch, solver="eigh") -> list:
    """Record the shape of every call of the LAPACK solver from here on."""
    solves = []
    solve = getattr(np.linalg, solver)

    def counted(M):
        solves.append(M.shape)
        return solve(M)

    monkeypatch.setattr(np.linalg, solver, counted)
    return solves


def _stack(seed, items=4, n=3):
    return gen_random_pd(PerItemStack([substream(seed, "kernel-memo", i)
                                       for i in range(items)]), n)


def test_the_memo_decomposes_a_stack_once_and_shares_it_read_only(monkeypatch):
    A = _stack(131)
    solves = _counted_solves(monkeypatch)
    factorizations = _counted_solves(monkeypatch, "svd")
    with _eigh_memo():
        first = pd_eigh(A)
        again = pd_eigh(A.copy())
        assert len(solves) == 1
        # the memo's arrays are read-only, and a caller gets copies of them
        ((held, _),) = kernel._memos()["eigh"].entries.values()
        for name, stored in zip(("eigenvalues", "vectors"), held):
            assert not stored.flags.writeable
            for dec in (first, again):
                assert not np.shares_memory(getattr(dec, name), stored)
                assert np.array_equal(getattr(dec, name), stored)
        polar_unitary(A)
        polar_unitary(A)
        assert (len(solves), len(factorizations)) == (1, 1)
    # after the block the thread's own memo is back, without the block's entries
    assert not kernel._memos()["eigh"].entries
    bare = pd_eigh(A)
    pd_eigh(A)
    assert (len(solves), len(factorizations)) == (2, 1)
    # a hit is what LAPACK gives, bit for bit
    assert np.array_equal(bare.eigenvalues, first.eigenvalues)
    assert np.array_equal(bare.vectors, first.vectors)
    bare.vectors[0, 0] = 1.0
    assert np.array_equal(pd_eigh(A).vectors, first.vectors)
    assert len(solves) == 2


def test_a_spectrum_read_hits_the_memos_decomposition(monkeypatch):
    A, B = _stack(149), _stack(151)
    bare_a, bare_b = eigh(A), min_eig(B)
    solves = _counted_solves(monkeypatch)
    reads = _counted_solves(monkeypatch, "eigvalsh")
    with _eigh_memo():
        # a spectrum after its decomposition, and a decomposition after its
        # spectrum, each cost one eigh
        dec = eigh(A)
        first = min_eig(A)
        again = min_eig(A.copy())
        assert len(solves) == 1
        spectrum = min_eig(B)
        eigh(B)
        assert len(solves) == 2
        with pytest.raises(ValueError):
            kernel._eigvalsh(A)[0, 0] = 1.0
    assert (len(solves), reads) == (2, [])
    assert np.array_equal(dec.eigenvalues, bare_a.eigenvalues)
    assert np.array_equal(first, bare_a.eigenvalues[..., 0])
    assert np.array_equal(again, first) and np.array_equal(spectrum, bare_b)


def test_the_memo_keeps_a_single_matrix_phase_convention(monkeypatch):
    A = _stack(137)[0]
    bare, bare_polar = eigh(A), polar_unitary(A)
    solves = _counted_solves(monkeypatch)
    factorizations = _counted_solves(monkeypatch, "svd")
    with _eigh_memo():
        decs = [eigh(A), eigh(A)]
        polars = [polar_unitary(A), polar_unitary(A)]
        assert (len(solves), len(factorizations)) == (1, 1)
    for dec in decs:
        assert np.array_equal(dec.vectors, bare.vectors)
    for polar in polars:
        assert np.array_equal(polar, bare_polar)


def test_the_memo_holds_at_most_its_size_least_recently_used_first(monkeypatch):
    stacks = [_stack(139 + k, items=2, n=3) for k in range(MEMO_SIZE + 2)]
    solves = _counted_solves(monkeypatch)
    with _eigh_memo():
        for k, A in enumerate(stacks):
            eigh(A)
            if k == MEMO_SIZE - 1:
                eigh(stacks[0])  # a hit makes it the most recent
            assert len(kernel._memos()["eigh"].entries) <= MEMO_SIZE
        assert len(solves) == len(stacks)
        eigh(stacks[0])
        assert len(solves) == len(stacks)
        eigh(stacks[1])
        assert len(solves) == len(stacks) + 1


def test_an_eigenvalue_read_reports_a_failed_eigensolve_as_no_convergence(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    A = np.diag([3.0, 2.0, 1.0])  # a 2x2 spectrum takes no LAPACK solve
    for call in (lambda: loewner_compare(np.eye(3), A),
                 lambda: check_logmaj_mean(A, np.eye(3), 0.5)):
        with pytest.raises(errors.NoConvergence):
            call()


def test_polar_unitary_reports_a_failed_eigensolve_as_no_convergence(monkeypatch):
    def fail(M):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    for M in (np.eye(3), np.stack([np.eye(3)] * 2)):
        with pytest.raises(errors.NoConvergence):
            polar_unitary(M)
    # a 1x1 or 2x2 polar factor takes no SVD, so it cannot fail to converge
    for M in (np.eye(1), np.eye(2), np.stack([np.eye(2)] * 2)):
        assert np.array_equal(polar_unitary(M), M)
