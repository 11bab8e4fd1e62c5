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
    SpectralDecomposition,
    _frobenius,
    _logm,
    _pd_eigh,
    _pd_eigvals,
    _per,
    _powm,
    _sandwich,
    _spectral,
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

def _geo_mean(dec_a: SpectralDecomposition, Bm: np.ndarray, t: float,
              c=None) -> np.ndarray:
    """A #_t B from A's decomposition; Bm is a validated Hermitian of A's size.

    With per-item factors ``c`` (a trailing axis), c (A #_t B).
    """
    root_w = np.sqrt(dec_a.eigenvalues)
    rootA = _spectral(dec_a, root_w)
    inv_rootA = _spectral(dec_a, 1.0 / root_w)
    inner = _powm(_pd_eigh(_sandwich(inv_rootA, Bm)), t, c)
    return _sandwich(rootA, inner)


def _balanced(dec_a: SpectralDecomposition, Bm: np.ndarray):
    """A and B brought to a scale near 1 where the ratio of their scales is extreme.

    A^{-1/2} B A^{-1/2} scales as the ratio of max_i B_ii to lambda_max(A),
    which no common rescale removes; outside [2**-900, 2**900] it nears the
    ends of the double range at any kappa that ``PD_TOL`` admits.  Such
    items get A scaled by 2**-j and B by 2**-k, j and k the binary exponents
    of those two scales; the other items get j = k = 0 and keep their bits.
    Returns None where no item needs it, else the decomposition of the
    scaled A, the scaled B, and j and k per item with a trailing axis, for
    the caller to undo.
    """
    a = dec_a.eigenvalues[..., -1]
    b = Bm.diagonal(0, -2, -1).real
    # pass first, on Python floats, which neither overflow nor warn: the
    # stack's extremes bound each item's ratio
    la, lb = a.ravel().tolist(), b.ravel().tolist()
    if not la or 2.0**-900 < min(lb) / max(la) and max(lb) / min(la) < 2.0**900:
        return None
    j, k = np.frexp(a)[1], np.frexp(b.max(axis=-1))[1]
    extreme = np.abs(k - j) > 900
    j, k = j * extreme, k * extreme
    # 2**-k in two factors, each a finite power of two at every k
    scaled_b = Bm * _per(np.ldexp(1.0, -(k // 2))) * _per(np.ldexp(1.0, k // 2 - k))
    scaled_a = SpectralDecomposition(np.ldexp(dec_a.eigenvalues, -j[..., None]),
                                     dec_a.vectors)
    return scaled_a, scaled_b, j[..., None], k[..., None]


def _pow2(x):
    """2**x, and inf without a warning past the doubles: the power it
    scales then leaves them, which ``_powm`` reports as NotFinite."""
    with np.errstate(over="ignore"):
        return np.exp2(x)


def _inv_sharp(dec_a: SpectralDecomposition, Bm: np.ndarray) -> np.ndarray:
    """A^{-1} # B from A's decomposition; Bm as in ``_geo_mean``.

    A^{1/2} B A^{1/2} inside overflows or underflows once the product
    lambda_max(A) max_i B_ii leaves [2**-1000, 2**1000].  A^{-1} # B is
    unchanged when A and B scale together, so such items scale both by one
    power of two, with no unscale; the other items keep their bits.
    """
    a = dec_a.eigenvalues[..., -1]
    b = Bm.diagonal(0, -2, -1).real
    # pass first, on Python floats, which neither overflow nor warn: the
    # stack's extremes bound each item's product
    la, lb = a.ravel().tolist(), b.ravel().tolist()
    if 2.0**-1000 < min(la) * min(lb) and max(la) * max(lb) < 2.0**1000:
        return _geo_mean(dec_a.inverse(), Bm, 0.5)
    e = np.frexp(a)[1] + np.frexp(b.max(axis=-1))[1]  # |a b| < 2**e
    # capped at 2**1023, the largest finite power of two: binds at subnormal scales
    s = np.where(np.abs(e) > 1000, np.ldexp(1.0, np.minimum(-(e // 2), 1023)), 1.0)
    return _geo_mean(dec_a.scaled(s).inverse(), _per(s) * Bm, 0.5)


def _spectral_mean(Am: np.ndarray, dec_a: SpectralDecomposition, Bm: np.ndarray,
                   t: float) -> np.ndarray:
    """A natural_t B from A and its decomposition; Bm as in ``_geo_mean``."""
    Wt = _powm(_pd_eigh(_inv_sharp(dec_a, Bm)), t)
    return _sandwich(Wt, Am)


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
    dec_a = _pd_eigh(Am)
    balanced = _balanced(dec_a, Bm)
    if balanced is None:
        return _geo_mean(dec_a, Bm, t)
    # A #_t B = 2**(j (1 - t) + k t) (2**-j A) #_t (2**-k B)
    dec_a, Bm, j, k = balanced
    return _geo_mean(dec_a, Bm, t, _pow2(j * (1.0 - t) + k * t))


def spectral_mean(A, B, t: float = 0.5) -> np.ndarray:
    """Weighted spectral geometric mean A natural_t B.

    Computed as W^t A W^t with W = A^{-1} # B.  At t = 1/2 its eigenvalues
    are the positive square roots of the eigenvalues of A B.
    """
    Am, Bm = require_hermitians(A, B)
    t = require_weight(t, Am)
    return _spectral_mean(Am, _pd_eigh(Am), Bm, t)


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
    term_a = _logm(_pd_eigh(hermitian_part(rootX @ invm(Am) @ rootX)))
    term_b = _logm(_pd_eigh(hermitian_part(rootX @ invm(Bm) @ rootX)))
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
    lhs = _powm(_pd_eigh(_inv_sharp(dec_a, Bm)), t)
    rhs = _inv_sharp(dec_a, Xm)
    return _frobenius(lhs - rhs)


def mean_left_inverse(kind: str, A, C, t: float) -> np.ndarray:
    """Solve kind-mean(A, X, t) = C for X, as the extended curve at 1/t.

    Raises WeightOutOfRange at t = 0, where the mean ignores X.
    """
    if np.any(np.asarray(t) == 0):
        raise WeightOutOfRange("no left inverse at t = 0")
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
