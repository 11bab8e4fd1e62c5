"""The two weighted geometric means and their defining-equation residuals.

``geo_mean`` is the metric geodesic A^{1/2}(A^{-1/2} B A^{-1/2})^t A^{1/2};
``spectral_mean`` is the curve (A^{-1} # B)^t A (A^{-1} # B)^t.  Both accept
any finite real parameter t (the curves extend beyond [0,1], and the
component-wise bijection inverses need 1/t).  Both also take stacks of
operands (..., n, n), with one t or an array of one t per item; see
:mod:`gyromean.kernel`.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownCase, WeightOutOfRange
from .kernel import (
    DEFAULT_TOL,
    SpectralDecomposition,
    TolerancePolicy,
    _frobenius,
    _logm,
    _pd_eigh,
    _powm,
    _spectral,
    as_matrix,
    as_stack,
    hermitian_part,
    invm,
    min_eig,
    require_hermitian,
    require_hermitians,
    require_same_dim,
    require_weight,
    sqrtm,
)

MEAN_KINDS = ("metric", "spectral")


def _geo_mean(dec_a: SpectralDecomposition, Bm: np.ndarray, t: float,
              tol: TolerancePolicy) -> np.ndarray:
    """A #_t B from A's decomposition; Bm is a validated Hermitian of A's size."""
    root_w = np.sqrt(dec_a.eigenvalues)
    rootA = _spectral(dec_a, root_w)
    inv_rootA = _spectral(dec_a, 1.0 / root_w)
    inner = _powm(_pd_eigh(hermitian_part(inv_rootA @ Bm @ inv_rootA), tol), t)
    return hermitian_part(rootA @ inner @ rootA)


def _spectral_mean(Am: np.ndarray, dec_a: SpectralDecomposition, Bm: np.ndarray,
                   t: float, tol: TolerancePolicy) -> np.ndarray:
    """A natural_t B from A and its decomposition; Bm as in ``_geo_mean``."""
    W = _geo_mean(_pd_eigh(_powm(dec_a, -1.0), tol), Bm, 0.5, tol)
    Wt = _powm(_pd_eigh(W, tol), t)
    return hermitian_part(Wt @ Am @ Wt)


def geo_mean(A, B, t: float = 0.5, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
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
    Am, Bm = require_hermitians(A, B, tol=tol.hermiticity_tol)
    t = require_weight(t, Am)
    return _geo_mean(_pd_eigh(Am, tol), Bm, t, tol)


def spectral_mean(A, B, t: float = 0.5, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Weighted spectral geometric mean A natural_t B.

    Computed as W^t A W^t with W = A^{-1} # B.  At t = 1/2 its eigenvalues
    are the positive square roots of the eigenvalues of A B.
    """
    Am, Bm = require_hermitians(A, B, tol=tol.hermiticity_tol)
    t = require_weight(t, Am)
    return _spectral_mean(Am, _pd_eigh(Am, tol), Bm, t, tol)


def mean(kind: str, A, B, t: float = 0.5, tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Dispatch on mean kind: ``"metric"`` -> #_t, ``"spectral"`` -> natural_t."""
    if kind == "metric":
        return geo_mean(A, B, t, tol)
    if kind == "spectral":
        return spectral_mean(A, B, t, tol)
    raise UnknownCase(f"unknown mean kind {kind!r}")


def riccati_residual(A, B, X, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Frobenius residual of X A^{-1} X = B (Riccati), one per item of a stack.

    A, B and X must be positive definite.
    """
    Am, Bm, Xm = require_hermitians(A, B, X, tol=tol.hermiticity_tol)
    dec_a = _pd_eigh(Am, tol)
    # the PD checks of B and X
    _pd_eigh(Bm, tol)
    _pd_eigh(Xm, tol)
    return _frobenius(Xm @ _powm(dec_a, -1.0) @ Xm - Bm)


def karcher_residual(A, B, t: float, X, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Residual of the two-variable weighted stationarity equation.

    Frobenius norm of
    (1-t) log(X^{1/2} A^{-1} X^{1/2}) + t log(X^{1/2} B^{-1} X^{1/2}),
    which vanishes exactly at X = A #_t B.  Takes stacks, with one t or one
    per item.
    """
    Am, Bm, Xm = as_stack(A), as_stack(B), as_stack(X)
    require_same_dim(Am, Bm, Xm)
    t = np.asarray(require_weight(t, Am))[..., None]
    rootX = sqrtm(Xm, tol)
    term_a = _logm(_pd_eigh(hermitian_part(rootX @ invm(Am, tol) @ rootX), tol))
    term_b = _logm(_pd_eigh(hermitian_part(rootX @ invm(Bm, tol) @ rootX), tol))
    return _frobenius((1.0 - t) * term_a + t * term_b)


def spectral_defining_residual(A, B, t: float, X,
                               tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Frobenius residual of (A^{-1} # B)^t = A^{-1} # X.

    Zero (to tolerance) exactly when X = A natural_t B, since the right side
    determines X uniquely.  Takes stacks, with one t or one per item; A, B
    and X must be positive definite.
    """
    Am, Bm, Xm = require_hermitians(A, B, X, tol=tol.hermiticity_tol)
    t = require_weight(t, Am)
    dec_ainv = _pd_eigh(_powm(_pd_eigh(Am, tol), -1.0), tol)
    lhs = _powm(_pd_eigh(_geo_mean(dec_ainv, Bm, 0.5, tol), tol), t)
    rhs = _geo_mean(dec_ainv, Xm, 0.5, tol)
    return _frobenius(lhs - rhs)


def mean_left_inverse(kind: str, A, C, t: float,
                      tol: TolerancePolicy = DEFAULT_TOL) -> np.ndarray:
    """Solve kind-mean(A, X, t) = C for X, as the extended curve at 1/t.

    Raises WeightOutOfRange at t = 0, where the mean ignores X.
    """
    if np.any(np.asarray(t) == 0):
        raise WeightOutOfRange("no left inverse at t = 0")
    return mean(kind, A, C, 1.0 / t, tol)


def block_psd_margin(A, B, X, tol: TolerancePolicy = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of the block matrix [[A, X], [X, B]].

    Nonnegative exactly when the Hermitian X is admissible in the
    maximum characterization of the geometric mean; the maximizer A # B
    sits on the boundary with margin zero.
    """
    Am, Bm = as_matrix(A), as_matrix(B)
    Xm = require_hermitian(X, tol.hermiticity_tol)
    require_same_dim(Am, Bm, Xm)
    n = Am.shape[0]
    block = np.zeros((2 * n, 2 * n), dtype=complex)
    block[:n, :n] = Am
    block[:n, n:] = Xm
    block[n:, :n] = Xm.conj().T
    block[n:, n:] = Bm
    return min_eig(block, tol)
