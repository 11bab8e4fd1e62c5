"""Gyrovector-space structure on the positive definite cone.

The operations are A (+) B = A^{1/2} B A^{1/2} and t (.) A = A^t, with
identity I.  The gyration generated by A and B is conjugation by the unitary
polar factor of A^{1/2} B^{1/2}.  Gyrolines of this structure trace the
weighted geometric mean, and ``gyroline`` is ``geo_mean`` itself;
cogyrolines trace the weighted spectral mean.  The cogyroline and the
cooperation keep their route through the SVD polar factor: against a
40-digit reference at n = 8, kappa = 1e4, their relative errors were 1e-14
to 2e-13, and those of the whitening route (``spectral_mean``, and
``geo_mean`` squared for A [+] B = (A # B)^2) 4e-13 to 2e-11.
Every operation also takes stacks of operands (..., n, n), with one t or an
array of one t per item; see :mod:`gyromean.kernel`.
"""

from __future__ import annotations

import numpy as np

from .kernel import (
    SpectralDecomposition,
    _frobenius,
    _pd_eigh,
    _pd_eigvals,
    _polar_unitary,
    _powm,
    _sandwich,
    hermitian_part,
    powm,
    require_hermitians,
    require_weight,
)
from .means import _balanced, _pow2, geo_mean


def cone_add(A, B) -> np.ndarray:
    """A (+) B = A^{1/2} B A^{1/2}."""
    Am, Bm = require_hermitians(A, B)
    _pd_eigvals(Bm)
    return _sandwich(_powm(_pd_eigh(Am), 0.5), Bm)


def cone_scalar(t: float, A) -> np.ndarray:
    """t (.) A = A^t."""
    return powm(A, t)


def cone_neg(A) -> np.ndarray:
    """Gyrogroup inverse (-1) (.) A = A^{-1}."""
    return powm(A, -1.0)


def _gyration_unitary(dec_a: SpectralDecomposition,
                      dec_b: SpectralDecomposition) -> np.ndarray:
    """U(A, B) from the decompositions of A and B."""
    return _polar_unitary(_powm(dec_a, 0.5) @ _powm(dec_b, 0.5))


def gyration_unitary(A, B) -> np.ndarray:
    """U(A, B) = (A^{1/2} B A^{1/2})^{-1/2} A^{1/2} B^{1/2}.

    The unitary polar factor of A^{1/2} B^{1/2}, so that
    A^{1/2} B^{1/2} = (A (+) B)^{1/2} U(A, B).
    """
    Am, Bm = require_hermitians(A, B)
    return _gyration_unitary(_pd_eigh(Am), _pd_eigh(Bm))


def gyration(A, B, X) -> np.ndarray:
    """gyr[A, B] X = U(A, B) X U(A, B)^{-1}; preserves positive definiteness."""
    Am, Bm, Xm = require_hermitians(A, B, X)
    _pd_eigvals(Xm)
    U = _gyration_unitary(_pd_eigh(Am), _pd_eigh(Bm))
    return hermitian_part(U @ Xm @ U.conj().mT)


def _cooperation(rootA: np.ndarray, Bm: np.ndarray,
                 dec_b: SpectralDecomposition) -> np.ndarray:
    """A [+] B from A^{1/2}, a validated B and B's decomposition."""
    U = _polar_unitary(rootA @ _powm(dec_b, -0.5))
    G = hermitian_part(U @ Bm @ U.conj().mT)
    return _sandwich(rootA, G)


def cooperation(A, B) -> np.ndarray:
    """A [+] B = A (+) gyr[A, (-)B] B; commutative on this cone."""
    Am, Bm = require_hermitians(A, B)
    dec_b = _pd_eigh(Bm)
    return _cooperation(_powm(_pd_eigh(Am), 0.5), Bm, dec_b)


def gyroline(t: float, A, B) -> np.ndarray:
    """L(t; A, B) = A (+) t (.) ((-)A (+) B), the weighted geometric mean A #_t B."""
    return geo_mean(A, B, t)


def cogyroline(t: float, A, B) -> np.ndarray:
    """Lc(t; A, B) = t (.) ((-)A [+] B) (+) A, built from the gyro primitives.

    Coincides with the weighted spectral mean A natural_t B.
    """
    Am, Bm = require_hermitians(A, B)
    t = require_weight(t, Am)
    dec_a = _pd_eigh(Am)
    balanced = _balanced(dec_a, Bm)
    if balanced is not None:
        dec_a, Bm, j, k = balanced
    step = _cooperation(_powm(dec_a, -0.5), Bm, _pd_eigh(Bm))
    # scaling A by 2**-j and B by 2**-k scales the step by 2**(j - k)
    c = None if balanced is None else _pow2(0.5 * (k - j) * t)
    root_scaled = _powm(_pd_eigh(step), 0.5 * t, c)
    return _sandwich(root_scaled, Am)


def cone_model(dim: int):
    """GyroModel adapter for the generic axiom suite."""
    from .gyroaxioms import GyroModel

    return GyroModel(
        identity=np.eye(dim, dtype=complex),
        add=cone_add,
        neg=cone_neg,
        scalar=cone_scalar,
        gyr=gyration,
        residual=lambda x, y: _frobenius(x - y),
    )
