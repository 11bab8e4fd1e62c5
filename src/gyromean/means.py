"""The two weighted geometric means and their defining-equation residuals.

``geo_mean`` is the metric geodesic A^{1/2}(A^{-1/2} B A^{-1/2})^t A^{1/2};
``spectral_mean`` is the curve W^t A W^t with W = A^{-1} # B, made one way:
as A^{-1/2} U B^{1/2}, U the unitary polar factor of A^{-1/2} B^{-1/2} from
one SVD (Higham, *Functions of Matrices*, SIAM 2008, ch. 8), which raises
Singular where kappa(A) kappa(B) passes about 1e10.  Both accept
any finite real parameter t (the curves extend beyond [0,1], and the
component-wise bijection inverses need 1/t).  Both also take stacks of
operands (..., n, n), with one t or an array of one t per item; see
:mod:`gyromean.kernel`.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownCase, WeightOutOfRange
from .kernel import (
    SpectralDecomposition,
    _any,
    _degree,
    _framed,
    _LOG2,
    _frobenius,
    _item,
    _logm,
    _pd_eigh,
    _pd_eigvals,
    _per_item,
    _polar_unitary,
    _powm,
    _sandwich,
    _spectral,
    _times_exp2,
    _unscale,
    _unscale_values,
    as_stack,
    min_eig,
    require_hermitian,
    require_same_dim,
    require_weight,
)

def _geo_mean(dec_a: SpectralDecomposition, Bm: np.ndarray, t: float) -> np.ndarray:
    """A #_t B from A's decomposition; Bm is a validated Hermitian of A's size."""
    root_w = np.sqrt(dec_a.eigenvalues)
    rootA = _spectral(dec_a, root_w)
    inv_rootA = _spectral(dec_a, 1.0 / root_w)
    inner = _powm(_pd_eigh(_sandwich(inv_rootA, Bm)), t)
    return _sandwich(rootA, inner)


def _polar_mean(rootX: np.ndarray, dec_b: SpectralDecomposition) -> np.ndarray:
    """X # B = X^{1/2} U B^{1/2} from X^{1/2} and B's decomposition, U the
    unitary polar factor of X^{1/2} B^{-1/2}: Hermitian, though formed as a
    product, and its square is the cooperation X [+] B."""
    root_w = np.sqrt(dec_b.eigenvalues)
    U = _polar_unitary(rootX @ _spectral(dec_b, 1.0 / root_w))
    return _sandwich(rootX, U, _spectral(dec_b, root_w))


def _spectral_factor(dec_a: SpectralDecomposition, dec_b: SpectralDecomposition) -> np.ndarray:
    """W = A^{-1} # B, the factor of the spectral mean W^t A W^t, from the
    decompositions of A and B."""
    return _polar_mean(_powm(dec_a, -0.5), dec_b)


def _spectral_power(dec_a: SpectralDecomposition, dec_b: SpectralDecomposition,
                    p) -> np.ndarray:
    """W^p for W = A^{-1} # B, from the decompositions of A and B."""
    return _powm(_pd_eigh(_spectral_factor(dec_a, dec_b)), p)


def geo_mean(A, B, t: float = 0.5) -> np.ndarray:
    """Weighted geometric mean A #_t B on the positive definite cone.

    Parameters
    ----------
    A, B : array_like, shape (n, n)
        Positive definite matrices.
    t : float
        Curve parameter; 0 gives A, 1 gives B. Any finite real value is
        accepted.

    Returns
    -------
    ndarray
        A^{1/2} (A^{-1/2} B A^{-1/2})^t A^{1/2}, positive definite.
    """
    (Am, Bm), e = _framed(A, B)
    t = require_weight(t, Am)
    return _unscale(_geo_mean(_pd_eigh(Am), Bm, t), e, 1.0 - t, t)


def spectral_mean(A, B, t: float = 0.5) -> np.ndarray:
    """Weighted spectral geometric mean A natural_t B.

    Computed as W^t A W^t with W = A^{-1} # B.  At t = 1/2 its eigenvalues
    are the positive square roots of the eigenvalues of A B.  Raises
    NotFinite where the result overflows or underflows to 0.
    """
    (Am, Bm), e = _framed(A, B)
    t = require_weight(t, Am)
    P = _sandwich(_spectral_power(_pd_eigh(Am), _pd_eigh(Bm), t), Am)
    return _unscale(P, e, 1.0 - t, t)


def mean(kind: str, A, B, t: float = 0.5) -> np.ndarray:
    """Dispatch on mean kind: ``"metric"`` -> #_t, ``"spectral"`` -> natural_t."""
    if kind == "metric":
        return geo_mean(A, B, t)
    if kind == "spectral":
        return spectral_mean(A, B, t)
    raise UnknownCase(f"unknown mean kind {kind!r}")


def _residual(P: np.ndarray, p, Q: np.ndarray, q):
    """||P 2**p - Q 2**q||_F per item, p and q per item with a trailing axis:
    each term is scaled relative to the larger exponent, so that neither
    overflows, and the norm is scaled back."""
    top = np.maximum(p, q)
    r = _frobenius(_times_exp2(P, (p - top)[..., None]) - _times_exp2(Q, (q - top)[..., None]))
    return _per_item(_unscale_values(np.asarray(r)[..., None], top)[..., 0])


def riccati_residual(A, B, X) -> float:
    """Frobenius residual of X A^{-1} X = B (Riccati), one per item of a stack.

    A, B and X must be positive definite.
    """
    (Am, Bm, Xm), e = _framed(A, B, X)
    dec_a = _pd_eigh(Am)
    # the PD checks of B and X
    _pd_eigvals(Bm)
    _pd_eigvals(Xm)
    P = Xm @ _powm(dec_a, -1.0) @ Xm
    if e is None:
        return _frobenius(P - Bm)
    # X A^{-1} X and B have degrees (-1, 0, 2) and (0, 1, 0)
    return _residual(P, _degree(e, -1, 0, 2), Bm, e[1])


def karcher_residual(A, B, t: float, X) -> float:
    """Residual of the two-variable weighted stationarity equation.

    Frobenius norm of
    (1-t) log(X^{1/2} A^{-1} X^{1/2}) + t log(X^{1/2} B^{-1} X^{1/2}),
    which vanishes exactly at X = A #_t B.  Takes stacks, with one t or one
    per item.
    """
    (Am, Bm, Xm), e = _framed(A, B, X)
    t = np.asarray(require_weight(t, Am))[..., None]
    rootX = _powm(_pd_eigh(Xm), 0.5)
    # log(X^{1/2} M^{-1} X^{1/2}) has degree 1 in X and -1 in M, as a log shift
    term_a = _logm(_pd_eigh(_sandwich(rootX, _powm(_pd_eigh(Am), -1.0))),
                   _degree(e, -_LOG2, 0, _LOG2))
    term_b = _logm(_pd_eigh(_sandwich(rootX, _powm(_pd_eigh(Bm), -1.0))),
                   _degree(e, 0, -_LOG2, _LOG2))
    return _frobenius((1.0 - t) * term_a + t * term_b)


def spectral_defining_residual(A, B, t: float, X) -> float:
    """Frobenius residual of (A^{-1} # B)^t = A^{-1} # X.

    Zero (to tolerance) exactly when X = A natural_t B, since the right side
    determines X uniquely.  Takes stacks, with one t or one per item; A, B
    and X must be positive definite.
    """
    (Am, Bm, Xm), e = _framed(A, B, X)
    t = require_weight(t, Am)
    dec_a = _pd_eigh(Am)
    left = _spectral_power(dec_a, _pd_eigh(Bm), t)
    right = _spectral_factor(dec_a, _pd_eigh(Xm))
    if e is None:
        return _frobenius(left - right)
    # the two sides have degrees (-t/2, t/2, 0) and (-1/2, 0, 1/2)
    return _residual(left, _degree(e, -0.5 * t, 0.5 * t, 0), right, _degree(e, -0.5, 0, 0.5))


def mean_left_inverse(kind: str, A, C, t: float) -> np.ndarray:
    """Solve kind-mean(A, X, t) = C for X, as the extended curve at 1/t.

    Raises WeightOutOfRange at t = 0, where the mean ignores X.
    """
    zero = np.asarray(t) == 0
    if _any(zero):
        raise WeightOutOfRange(_item(zero) + "no left inverse at t = 0")
    return mean(kind, A, C, 1.0 / t)


def block_psd_margin(A, B, X) -> float:
    """Smallest eigenvalue of the block matrix [[A, X], [X, B]] (one per item).

    Nonnegative exactly when the Hermitian X is admissible in the
    maximum characterization of the geometric mean; the maximizer A # B
    sits on the boundary with margin zero.
    """
    Am, Bm = as_stack(A), as_stack(B)
    Xm = require_hermitian(X)
    require_same_dim(Am, Bm, Xm)
    block = np.concatenate([np.concatenate([Am, Xm], axis=-1),
                            np.concatenate([Xm.conj().mT, Bm], axis=-1)], axis=-2)
    return min_eig(block)
