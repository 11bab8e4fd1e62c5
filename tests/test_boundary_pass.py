"""The boundary pass: its fast route gives what its tolerance route gives.

``kernel._framed`` checks and frames each operand in one pass.  An operand
that is exactly Hermitian, finite and inside the frame's window takes the
fast route (``kernel._exact``); every other operand takes the tolerance
route, the ``HERMITICITY_TOL`` test followed by ``kernel._frame``.  Each
case here runs once as it is and once with the fast route switched off, so
that every operand takes the tolerance route, and the two runs must give
the same result bits, or the same error class and message.  The cases are
a 1x1 and a 2x2 matrix, n = 3 and n = 8, a stack and a density, each with a
NaN or an infinite entry in every position, an imaginary diagonal entry,
off-diagonal pairs that differ within and beyond the tolerance, mixed
shapes, a zero matrix, and the window's edges 2**+-128 with one step past.
"""

import math
import warnings

import numpy as np
import pytest

from gyromean import errors, kernel
from gyromean.gyrodensity import dens_gyroline, require_density
from gyromean.means import geo_mean, spectral_mean
from gyromean.metrics import distance

SIZES = (1, 2, 3, 8)
BAD = (math.nan, math.inf, -math.inf)
T = 0.3


def _pd(n: int, seed: int) -> np.ndarray:
    """An exactly Hermitian positive definite matrix whose largest |entry|,
    a diagonal one, is exactly 1."""
    rng = np.random.default_rng([seed, n])
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = G @ G.conj().T + n * np.eye(n)
    H = 0.5 * (H + H.conj().T)
    return H / np.abs(H).max()


def _outcome(call):
    """What a call gives: the bytes of each array it returns (or the value
    of a scalar), or its error's class and message."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call()
    except Exception as exc:  # every class, so that a traceback counts too
        return type(exc), str(exc)
    parts = out if isinstance(out, tuple) else (out,)
    return tuple(p.tobytes() if isinstance(p, np.ndarray) else repr(p) for p in parts)


def _both_routes(call, monkeypatch):
    """The outcome of the call as it is, and with every operand sent down
    the tolerance route; each in a fresh eigensolve memo."""
    with kernel._eigh_memo():
        fast = _outcome(call)
    with monkeypatch.context() as m:
        m.setattr(kernel, "_exact", lambda M: False)
        with kernel._eigh_memo():
            slow = _outcome(call)
    return fast, slow


def _calls(M: np.ndarray, B: np.ndarray) -> dict:
    """The public calls made on the operand M, with the ordinary B beside it."""
    return {
        "require_hermitian": lambda: kernel.require_hermitian(M),
        "eigh": lambda: tuple(kernel.eigh(M)),
        "powm": lambda: kernel.powm(M, T),
        "geo_mean(M, B)": lambda: geo_mean(M, B, T),
        "geo_mean(B, M)": lambda: geo_mean(B, M, T),
        "spectral_mean(B, M)": lambda: spectral_mean(B, M, T),
        "thompson(B, M)": lambda: distance("thompson", B, M),
    }


def _assert_routes_agree(M, B, monkeypatch, where=""):
    for name, call in _calls(M, B).items():
        fast, slow = _both_routes(call, monkeypatch)
        assert fast == slow, f"{name}{where}: fast route {fast!r} != tolerance route {slow!r}"


def _with(M: np.ndarray, i: int, j: int, value) -> np.ndarray:
    M = M.copy()
    M[i, j] = value
    return M


@pytest.mark.parametrize("n", SIZES)
def test_ordinary_operands_take_the_fast_route(n):
    A = _pd(n, 0)
    assert kernel._exact(A)
    assert kernel._exact(np.stack([A, _pd(n, 1)]))
    (Am, _), e = kernel._framed(A, _pd(n, 1))
    assert e is None and Am is A


@pytest.mark.parametrize("bad", BAD, ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize("n", SIZES)
def test_a_non_finite_entry_in_any_position(n, bad, monkeypatch):
    A, B = _pd(n, 0), _pd(n, 1)
    # at n = 8, each diagonal position and each position of row 0 and column 7
    positions = [(i, j) for i in range(n) for j in range(n)
                 if n < 8 or i == j or i == 0 or j == 7]
    for i, j in positions:
        for value in (bad, complex(0.5, bad), complex(bad, bad)):
            M = _with(A, i, j, value)
            assert not kernel._exact(M)
            for name, call in {"require_hermitian": lambda: kernel.require_hermitian(M),
                               "geo_mean(B, M)": lambda: geo_mean(B, M, T)}.items():
                fast, slow = _both_routes(call, monkeypatch)
                assert fast == slow, f"{name} at {(i, j)} = {value!r}"
                assert fast[0] is errors.NotFinite, f"{name} at {(i, j)} = {value!r}: {fast}"


@pytest.mark.parametrize("bad", BAD, ids=("nan", "inf", "-inf"))
def test_a_non_finite_entry_in_a_stack_and_a_density(bad, monkeypatch):
    for n in (2, 3):
        A, B = _pd(n, 0), _pd(n, 1)
        stack_b = np.stack([B, B])
        rho = A / np.trace(A).real
        sigma = B / np.trace(B).real
        for i in range(n):
            for j in range(n):
                S = np.stack([A, _with(A, i, j, bad)])
                assert not kernel._exact(S)
                fast, slow = _both_routes(lambda: geo_mean(stack_b, S, T), monkeypatch)
                assert fast == slow and fast[0] is errors.NotFinite, (n, i, j, fast)
                assert fast[1].startswith("item (1,): ")
                bad_rho = _with(rho, i, j, bad)
                fast, slow = _both_routes(lambda: dens_gyroline(T, sigma, bad_rho), monkeypatch)
                assert fast == slow and fast[0] is errors.NotDensity, (n, i, j, fast)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("size", (1e-12, 1e-3))
def test_an_imaginary_diagonal_entry(n, size, monkeypatch):
    A, B = _pd(n, 0), _pd(n, 1)
    for i in range(n):
        M = _with(A, i, i, A[i, i] + 1j * size)
        assert not kernel._exact(M)
        _assert_routes_agree(M, B, monkeypatch, f" at {i}")
    if size > kernel.HERMITICITY_TOL:
        with pytest.raises(errors.NotHermitian):
            kernel.require_hermitian(M)
    else:
        assert kernel.require_hermitian(M) is M


@pytest.mark.parametrize("n", (2, 3, 8))
@pytest.mark.parametrize("delta", (1e-12, 1e-13j, 1e-6, 1e-6j))
def test_an_off_diagonal_pair_that_differs(n, delta, monkeypatch):
    A, B = _pd(n, 0), _pd(n, 1)
    M = _with(A, n - 1, 0, A[n - 1, 0] + delta)
    assert not kernel._exact(M)
    _assert_routes_agree(M, B, monkeypatch)
    S = np.stack([A, M])
    for name, call in {"require_hermitian": lambda: kernel.require_hermitian(S),
                       "geo_mean": lambda: geo_mean(np.stack([B, B]), S, T)}.items():
        fast, slow = _both_routes(call, monkeypatch)
        assert fast == slow, name
    # within the tolerance the operand passes; beyond it, NotHermitian
    fast, _ = _both_routes(lambda: kernel.require_hermitian(M), monkeypatch)
    if abs(delta) < kernel.HERMITICITY_TOL:
        assert fast == (M.tobytes(),)
    else:
        assert fast[0] is errors.NotHermitian


def test_mixed_shapes_and_a_zero_matrix(monkeypatch):
    A2, A3 = _pd(2, 0), _pd(3, 0)
    for call in (lambda: geo_mean(A2, A3, T), lambda: geo_mean(A3, A2, T),
                 lambda: geo_mean(np.stack([A2, A2]), A2, T),
                 lambda: kernel._framed(A2, A2, np.eye(3))):
        fast, slow = _both_routes(call, monkeypatch)
        assert fast == slow and fast[0] is errors.DimensionMismatch, fast
    for n in SIZES:
        Z = np.zeros((n, n), dtype=complex)
        assert not kernel._exact(Z)
        _assert_routes_agree(Z, _pd(n, 1), monkeypatch)
        assert kernel.require_hermitian(Z) is Z
        S = np.stack([_pd(n, 0), Z])
        fast, slow = _both_routes(lambda: geo_mean(S, S, T), monkeypatch)
        assert fast == slow and fast[0] is errors.NotPositiveDefinite


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("edge", (128, -128))
def test_the_window_edges_and_one_step_past(n, edge, monkeypatch):
    A, B = _pd(n, 0), _pd(n, 1)
    k = int(np.argmax(np.abs(A.diagonal())))
    at = A * 2.0**edge
    past = _with(at, k, k, math.nextafter(2.0**edge, math.copysign(math.inf, edge)))
    assert kernel._exact(at) and not kernel._exact(past)
    assert kernel._exact(np.stack([B, at])) and not kernel._exact(np.stack([B, past]))
    for M in (at, past):
        _assert_routes_agree(M, B, monkeypatch)
        _assert_routes_agree(M, M, monkeypatch)
        S = np.stack([B, M])
        fast, slow = _both_routes(lambda: geo_mean(S, np.stack([B, B]), T), monkeypatch)
        assert fast == slow
    # at the edge the frame keeps the operand; one step past it scales it
    assert kernel._framed(at)[1] is None
    assert kernel._framed(past)[1] is not None


def test_a_density_takes_the_same_pass(monkeypatch):
    for n in SIZES:
        A = _pd(n, 0)
        rho = A / np.trace(A).real
        assert kernel._exact(rho)
        within = _with(rho, n - 1, 0, rho[n - 1, 0] + 1e-12) if n > 1 else rho + 1e-12j
        beyond = _with(rho, n - 1, 0, rho[n - 1, 0] + 1e-6) if n > 1 else rho + 1e-6j
        for M in (rho, within, beyond, np.stack([rho, beyond])):
            fast, slow = _both_routes(lambda: require_density(M), monkeypatch)
            assert fast == slow
        assert _both_routes(lambda: require_density(beyond), monkeypatch)[0][0] \
            is errors.NotDensity


@pytest.mark.parametrize("tol", (math.nan, -1e-8, -math.inf))
def test_loewner_compare_refuses_a_negative_or_nan_slack(tol):
    A = _pd(2, 0)
    with pytest.raises(errors.NonPositiveArgument, match=r"^Loewner slack tol must be at least 0"):
        kernel.loewner_compare(A, A, tol)


def test_loewner_compare_takes_a_zero_or_infinite_slack():
    A, B = _pd(2, 0), _pd(2, 1)
    assert kernel.loewner_compare(A, A, 0.0) is kernel.Loewner.EQ
    assert kernel.loewner_compare(A, 2 * A, 0.0) is kernel.Loewner.LE
    assert kernel.loewner_compare(A, B, math.inf) is kernel.Loewner.EQ


@pytest.mark.parametrize("n", (2, 3))
def test_an_entry_whose_modulus_overflows_raises_not_finite(n):
    # |b| = 2.4e308 is past the doubles, though both its parts are finite,
    # and so are the eigenvalues 1 +- |b|
    b = complex(1.7e308, 1.7e308)
    M = np.eye(n, dtype=complex)
    M[0, 1], M[1, 0] = b, b.conjugate()
    assert not kernel._exact(M)
    assert not kernel._exact(np.stack([M, M]))
    for call in (kernel.eigh, kernel.min_eig, kernel.norm):
        with pytest.raises(errors.NotFinite, match="^the result leaves the finite doubles$"):
            call(M)
