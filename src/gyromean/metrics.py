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

import numpy as np

from .errors import UnknownCase
from .kernel import (
    _LOG2,
    SpectralDecomposition,
    _degree,
    _framed,
    _pd_eigh,
    _pd_eigvals,
    _per_item,
    _powm,
    _sandwich,
    _top_eig,
    _unscale_values,
)
from .means import _spectral_factor

DISTANCE_KINDS = ("thompson", "riemannian", "semimetric_op", "semimetric_frob")


def _whitened(dec_a: SpectralDecomposition, Bm: np.ndarray) -> np.ndarray:
    """A^{-1/2} B A^{-1/2}, from A's decomposition."""
    return _sandwich(_powm(dec_a, -0.5), Bm)


def _log_eigvals(kind: str, dec_a: SpectralDecomposition, Bm: np.ndarray) -> np.ndarray:
    """The log-eigenvalues of A^{-1/2} B A^{-1/2} (Thompson and Riemannian
    kinds) or of A^{-1} [+] B = (A^{-1} # B)^2 (the semimetrics), from A's
    decomposition; both have degrees (-1, 1)."""
    if kind in ("thompson", "riemannian"):
        return np.log(_pd_eigvals(_whitened(dec_a, Bm)))
    return 2.0 * np.log(_pd_eigvals(_spectral_factor(dec_a, _pd_eigh(Bm))))


def _distance(kind: str, dec_a: SpectralDecomposition, Bm: np.ndarray, shift=0):
    """The distance of the given kind, from A's decomposition and a validated
    B, with ``shift`` added to the log-eigenvalues: log(2) times the degree
    of B's frame over A's.

    Each kind is a norm of log X for a positive definite X, so it reads only
    X's log-eigenvalues.
    """
    if kind not in DISTANCE_KINDS:
        raise UnknownCase(f"unknown distance kind {kind!r}")
    lw = _log_eigvals(kind, dec_a, Bm) + shift
    if kind in ("thompson", "semimetric_op"):
        return _per_item(np.max(np.abs(lw), axis=-1))
    return _per_item(np.linalg.norm(lw, axis=-1))


def distance(kind: str, A, B):
    """Distance between positive definite matrices under the given kind."""
    (Am, Bm), e = _framed(A, B)
    return _distance(kind, _pd_eigh(Am), Bm, _degree(e, -_LOG2, _LOG2))


def sup_ratio(A, B):
    """Least alpha > 0 with B <= alpha A: the top eigenvalue of A^{-1/2} B A^{-1/2}.

    The Thompson distance equals max(log sup_ratio(A, B), log sup_ratio(B, A)).
    """
    (Am, Bm), e = _framed(A, B)
    _pd_eigvals(Bm)
    top = _top_eig(_whitened(_pd_eigh(Am), Bm))
    return _per_item(_unscale_values(top[..., None], _degree(e, -1, 1), positive=True)[..., 0])


def midpoint_deviation(kind: str, A, B, M) -> tuple:
    """How far M is from being the metric midpoint of A and B.

    Returns (|dist(A, M) - dist(A, B)/2|, |dist(B, M) - dist(A, B)/2|).
    """
    (Am, Bm, Mm), e = _framed(A, B, M)
    dec_a, dec_b = _pd_eigh(Am), _pd_eigh(Bm)
    half = 0.5 * _distance(kind, dec_a, Bm, _degree(e, -_LOG2, _LOG2, 0))
    return (
        abs(_distance(kind, dec_a, Mm, _degree(e, -_LOG2, 0, _LOG2)) - half),
        abs(_distance(kind, dec_b, Mm, _degree(e, 0, -_LOG2, _LOG2)) - half),
    )
