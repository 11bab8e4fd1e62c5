"""Gyrovector-space structure on the positive definite cone.

The operations are A (+) B = A^{1/2} B A^{1/2} and t (.) A = A^t, with
identity I.  The gyration generated by A and B is conjugation by the unitary
polar factor of A^{1/2} B^{1/2}.  Gyrolines of this structure trace the
weighted geometric mean, and ``gyroline`` is ``geo_mean`` itself;
cogyrolines trace the weighted spectral mean, and ``cogyroline`` is
``spectral_mean`` itself.  The cooperation A [+] B is the square of
A # B = A^{1/2} U B^{1/2}, U the unitary polar factor of A^{1/2} B^{-1/2};
the spectral mean's A^{-1} # B takes the same route.
Every operation also takes stacks of operands (..., n, n), with one t or an
array of one t per item; see :mod:`gyromean.kernel`.
"""

from __future__ import annotations

import numpy as np

from .kernel import (
    SpectralDecomposition,
    _framed,
    _frobenius,
    _pd_eigh,
    _pd_eigvals,
    _polar_unitary,
    _powm,
    _sandwich,
    _unscale,
    powm,
)
from .means import _polar_mean, geo_mean, spectral_mean


def cone_add(A, B) -> np.ndarray:
    """A (+) B = A^{1/2} B A^{1/2}; NotFinite where it leaves the doubles."""
    (Am, Bm), e = _framed(A, B)
    _pd_eigvals(Bm)
    return _unscale(_sandwich(_powm(_pd_eigh(Am), 0.5), Bm), e, 1, 1)


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
    (Am, Bm), _ = _framed(A, B)
    return _gyration_unitary(_pd_eigh(Am), _pd_eigh(Bm))


def gyration(A, B, X) -> np.ndarray:
    """gyr[A, B] X = U(A, B) X U(A, B)^{-1}; preserves positive definiteness."""
    (Am, Bm, Xm), e = _framed(A, B, X)
    _pd_eigvals(Xm)
    U = _gyration_unitary(_pd_eigh(Am), _pd_eigh(Bm))
    return _unscale(_sandwich(U, Xm, U.conj().mT), e, 0, 0, 1)


def cooperation(A, B) -> np.ndarray:
    """A [+] B = A (+) gyr[A, (-)B] B, commutative; NotFinite where it leaves the doubles."""
    (Am, Bm), e = _framed(A, B)
    # A [+] B = (A # B)^2
    S = _polar_mean(_powm(_pd_eigh(Am), 0.5), _pd_eigh(Bm))
    return _unscale(_sandwich(S, np.eye(S.shape[-1])), e, 1, 1)


def gyroline(t: float, A, B) -> np.ndarray:
    """L(t; A, B) = A (+) t (.) ((-)A (+) B), the weighted geometric mean A #_t B."""
    return geo_mean(A, B, t)


def cogyroline(t: float, A, B) -> np.ndarray:
    """Lc(t; A, B) = t (.) ((-)A [+] B) (+) A, the weighted spectral mean A natural_t B."""
    return spectral_mean(A, B, t)


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
