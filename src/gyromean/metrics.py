"""Distances on the positive definite cone.

Four kinds are exposed:

* ``thompson`` -- operator norm of log(A^{-1/2} B A^{-1/2}).
* ``riemannian`` -- Frobenius norm of the same log (the trace metric, whose
  midpoint is the geometric mean).
* ``semimetric_op`` / ``semimetric_frob`` -- 2 ||log(A^{-1} # B)|| in the
  operator / Frobenius norm, that is ||log(A^{-1} [+] B)||, with A^{-1} # B
  made as in :mod:`gyromean.means`.  This satisfies every metric axiom
  except the triangle inequality, and the spectral mean is its midpoint.

``distance``, ``sup_ratio`` and ``midpoint_deviation`` also take stacks of
operands (..., n, n) and then return one value per item.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotFinite, UnknownCase
from .kernel import (
    SpectralDecomposition,
    _any,
    _item,
    _pd_eigh,
    _pd_eigvals,
    _per_item,
    _powm,
    _sandwich,
    _top_eig,
    require_hermitians,
)
from .means import _balanced, _spectral_factor

DISTANCE_KINDS = ("thompson", "riemannian", "semimetric_op", "semimetric_frob")


def _whitened(dec_a: SpectralDecomposition, Bm: np.ndarray) -> np.ndarray:
    """A^{-1/2} B A^{-1/2}, from A's decomposition."""
    return _sandwich(_powm(dec_a, -0.5), Bm)


def _log_eigvals(step, power: float, dec_a: SpectralDecomposition,
                 Bm: np.ndarray) -> np.ndarray:
    """The log-eigenvalues of step(A, B)**power, from A's decomposition: of
    A^{-1/2} B A^{-1/2} (``_whitened``, power 1) or of A^{-1} [+] B
    (``_spectral_factor``, power 2).  Each scales by 2**(j - k) where
    ``_balanced`` scales A by 2**-j and B by 2**-k; they scale back in logs."""
    M, jk = _balanced(step, dec_a, Bm)
    lw = power * np.log(_pd_eigvals(M))
    if jk is None:
        return lw
    j, k = jk
    return lw + (k - j) * math.log(2.0)


def _opnorm(lw: np.ndarray):
    """The operator norm of a Hermitian matrix with eigenvalues lw."""
    return _per_item(np.max(np.abs(lw), axis=-1))


def _frobnorm(lw: np.ndarray):
    """The Frobenius norm of a Hermitian matrix with eigenvalues lw."""
    return _per_item(np.linalg.norm(lw, axis=-1))


def _distance(kind: str, dec_a: SpectralDecomposition, Bm: np.ndarray):
    """The distance of the given kind, from A's decomposition and a validated B.

    Each kind is a norm of log X for a positive definite X, so it reads only
    X's log-eigenvalues.
    """
    if kind == "thompson":
        return _opnorm(_log_eigvals(_whitened, 1.0, dec_a, Bm))
    if kind == "riemannian":
        return _frobnorm(_log_eigvals(_whitened, 1.0, dec_a, Bm))
    if kind == "semimetric_op":
        return _opnorm(_log_eigvals(_spectral_factor, 2.0, dec_a, Bm))
    if kind == "semimetric_frob":
        return _frobnorm(_log_eigvals(_spectral_factor, 2.0, dec_a, Bm))
    raise UnknownCase(f"unknown distance kind {kind!r}")


def distance(kind: str, A, B):
    """Distance between positive definite matrices under the given kind."""
    Am, Bm = require_hermitians(A, B)
    return _distance(kind, _pd_eigh(Am), Bm)


def sup_ratio(A, B):
    """Least alpha > 0 with B <= alpha A: the top eigenvalue of A^{-1/2} B A^{-1/2}.

    The Thompson distance equals max(log sup_ratio(A, B), log sup_ratio(B, A)).
    """
    Am, Bm = require_hermitians(A, B)
    _pd_eigvals(Bm)
    M, jk = _balanced(_whitened, _pd_eigh(Am), Bm)
    if jk is None:
        return _per_item(_top_eig(M))
    j, k = jk
    with np.errstate(over="ignore"):
        top = np.ldexp(_top_eig(M), (k - j)[..., 0])
    bad = ~((0 < top) & (top < np.inf))
    if _any(bad):
        raise NotFinite(_item(bad) + "the ratio leaves the finite positive doubles")
    return _per_item(top)


def midpoint_deviation(kind: str, A, B, M) -> tuple:
    """How far M is from being the metric midpoint of A and B.

    Returns (|dist(A, M) - dist(A, B)/2|, |dist(B, M) - dist(A, B)/2|).
    """
    Am, Bm, Mm = require_hermitians(A, B, M)
    dec_a, dec_b = _pd_eigh(Am), _pd_eigh(Bm)
    half = 0.5 * _distance(kind, dec_a, Bm)
    return (
        abs(_distance(kind, dec_a, Mm) - half),
        abs(_distance(kind, dec_b, Mm) - half),
    )
