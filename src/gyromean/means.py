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
    _SAFE_HI,
    _SAFE_LO,
    SpectralDecomposition,
    _any,
    _frobenius,
    _item,
    _logm,
    _pd_eigh,
    _pd_eigvals,
    _per,
    _polar_unitary,
    _positive_diagonal,
    _powm,
    _sandwich,
    _spectral,
    _unscale,
    as_stack,
    invm,
    min_eig,
    require_hermitian,
    require_hermitians,
    require_same_dim,
    require_weight,
    sqrtm,
)

def _geo_mean(dec_a: SpectralDecomposition, Bm: np.ndarray, t: float) -> np.ndarray:
    """A #_t B from A's decomposition; Bm is a validated Hermitian of A's size."""
    root_w = np.sqrt(dec_a.eigenvalues)
    rootA = _spectral(dec_a, root_w)
    inv_rootA = _spectral(dec_a, 1.0 / root_w)
    inner = _powm(_pd_eigh(_sandwich(inv_rootA, Bm)), t)
    return _sandwich(rootA, inner)


def _balanced(step, dec_a: SpectralDecomposition, Bm: np.ndarray):
    """step(A, B) at a scale near 1 where either operand's scale is extreme,
    and j and k per item with a trailing axis, or None where no item needs it.

    The scales are lambda_max(A) and max_i B_ii.  Where both lie in the
    kernel's window [2**-450, 2**450], their ratio (the scale of
    A^{-1/2} B A^{-1/2}) and their product stay within 2**+-900, inside the
    doubles at any kappa that ``PD_TOL`` admits.  Other items get A scaled
    by 2**-j and B by 2**-k, j and k the binary exponents of the two scales;
    the rest get j = k = 0 and keep their bits.  Both means are jointly
    homogeneous, so the caller scales the step's result back by its own
    exponent in j and k, with ``kernel._unscale``.
    """
    a = dec_a.eigenvalues[..., -1]
    b = Bm.diagonal(0, -2, -1).real
    # pass first, on Python floats, which neither overflow nor warn: the
    # stack's extremes bound each item's scales
    scales = a.ravel().tolist() + b.ravel().tolist()
    if not scales or _SAFE_LO < min(scales) and max(scales) < _SAFE_HI:
        return step(dec_a, Bm), None
    j, k = np.frexp(a)[1], np.frexp(b.max(axis=-1))[1]
    extreme = np.maximum(np.abs(j), np.abs(k)) > 450
    j, k = j * extreme, k * extreme
    # 2**-k in two factors, each a finite power of two at every k
    scaled_b = Bm * _per(np.ldexp(1.0, -(k // 2))) * _per(np.ldexp(1.0, k // 2 - k))
    scaled_a = SpectralDecomposition(np.ldexp(dec_a.eigenvalues, -j[..., None]),
                                     dec_a.vectors)
    return step(scaled_a, scaled_b), (j[..., None], k[..., None])


def _polar_mean(rootX: np.ndarray, dec_b: SpectralDecomposition) -> np.ndarray:
    """X # B = X^{1/2} U B^{1/2} from X^{1/2} and B's decomposition, U the
    unitary polar factor of X^{1/2} B^{-1/2}: Hermitian, though formed as a
    product, and its square is the cooperation X [+] B."""
    root_w = np.sqrt(dec_b.eigenvalues)
    U = _polar_unitary(rootX @ _spectral(dec_b, 1.0 / root_w))
    return _sandwich(rootX, U, _spectral(dec_b, root_w))


def _spectral_factor(dec_a: SpectralDecomposition, Bm: np.ndarray) -> np.ndarray:
    """W = A^{-1} # B, the factor of the spectral mean W^t A W^t, from A's
    decomposition; Bm as in ``_geo_mean``."""
    return _polar_mean(_powm(dec_a, -0.5), _pd_eigh(Bm))


def _spectral_power(dec_a: SpectralDecomposition, Bm: np.ndarray, p) -> np.ndarray:
    """W^p for W = A^{-1} # B, from A's decomposition; Bm as in ``_geo_mean``."""
    W, jk = _balanced(_spectral_factor, dec_a, Bm)
    Wp = _powm(_pd_eigh(W), p)
    if jk is None:
        return Wp
    # (2**-j A)^{-1} # (2**-k B) = 2**((j - k)/2) A^{-1} # B
    j, k = jk
    return _unscale(Wp, 0.5 * p * (k - j))


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
    Am, Bm = require_hermitians(A, B)
    t = require_weight(t, Am)
    P, jk = _balanced(lambda dec, M: _geo_mean(dec, M, t), _pd_eigh(Am), Bm)
    if jk is None:
        return P
    # A #_t B = 2**(j (1 - t) + k t) (2**-j A) #_t (2**-k B)
    j, k = jk
    return _unscale(P, j * (1.0 - t) + k * t)


def spectral_mean(A, B, t: float = 0.5) -> np.ndarray:
    """Weighted spectral geometric mean A natural_t B.

    Computed as W^t A W^t with W = A^{-1} # B.  At t = 1/2 its eigenvalues
    are the positive square roots of the eigenvalues of A B.  Raises
    NotFinite where the result overflows or underflows to 0.
    """
    Am, Bm = require_hermitians(A, B)
    t = require_weight(t, Am)
    return _positive_diagonal(_sandwich(_spectral_power(_pd_eigh(Am), Bm, t), Am))


def mean(kind: str, A, B, t: float = 0.5) -> np.ndarray:
    """Dispatch on mean kind: ``"metric"`` -> #_t, ``"spectral"`` -> natural_t."""
    if kind == "metric":
        return geo_mean(A, B, t)
    if kind == "spectral":
        return spectral_mean(A, B, t)
    raise UnknownCase(f"unknown mean kind {kind!r}")


def riccati_residual(A, B, X) -> float:
    """Frobenius residual of X A^{-1} X = B (Riccati), one per item of a stack.

    A, B and X must be positive definite.
    """
    Am, Bm, Xm = require_hermitians(A, B, X)
    dec_a = _pd_eigh(Am)
    # the PD checks of B and X
    _pd_eigvals(Bm)
    _pd_eigvals(Xm)
    return _frobenius(Xm @ _powm(dec_a, -1.0) @ Xm - Bm)


def karcher_residual(A, B, t: float, X) -> float:
    """Residual of the two-variable weighted stationarity equation.

    Frobenius norm of
    (1-t) log(X^{1/2} A^{-1} X^{1/2}) + t log(X^{1/2} B^{-1} X^{1/2}),
    which vanishes exactly at X = A #_t B.  Takes stacks, with one t or one
    per item.
    """
    Am, Bm, Xm = as_stack(A), as_stack(B), as_stack(X)
    require_same_dim(Am, Bm, Xm)
    t = np.asarray(require_weight(t, Am))[..., None]
    rootX = sqrtm(Xm)
    term_a = _logm(_pd_eigh(_sandwich(rootX, invm(Am))))
    term_b = _logm(_pd_eigh(_sandwich(rootX, invm(Bm))))
    return _frobenius((1.0 - t) * term_a + t * term_b)


def spectral_defining_residual(A, B, t: float, X) -> float:
    """Frobenius residual of (A^{-1} # B)^t = A^{-1} # X.

    Zero (to tolerance) exactly when X = A natural_t B, since the right side
    determines X uniquely.  Takes stacks, with one t or one per item; A, B
    and X must be positive definite.
    """
    Am, Bm, Xm = require_hermitians(A, B, X)
    t = require_weight(t, Am)
    dec_a = _pd_eigh(Am)
    right, jk = _balanced(_spectral_factor, dec_a, Xm)
    if jk is not None:
        j, k = jk
        right = _unscale(right, 0.5 * (k - j))
    return _frobenius(_spectral_power(dec_a, Bm, t) - right)


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
