"""Distances on the positive definite cone.

Four kinds are exposed:

* ``thompson`` -- operator norm of log(A^{-1/2} B A^{-1/2}).
* ``riemannian`` -- Frobenius norm of the same log (the trace metric, whose
  midpoint is the geometric mean).
* ``semimetric_op`` / ``semimetric_frob`` -- 2 ||log(A^{-1} # B)|| in the
  operator / Frobenius norm.  This satisfies every metric axiom except the
  triangle inequality, and the spectral mean is its midpoint.

``distance``, ``sup_ratio`` and ``midpoint_deviation`` also take stacks of
operands (..., n, n) and then return one value per item.
"""

from __future__ import annotations

import numpy as np

from .errors import UnknownCase
from .kernel import (
    SpectralDecomposition,
    _frobenius,
    _logm,
    _pd_eigh,
    _per_item,
    _powm,
    as_stack,
    hermitian_part,
    pd_eigh,
    powm,
    require_hermitians,
    require_same_dim,
)
from .means import _geo_mean

DISTANCE_KINDS = ("thompson", "riemannian", "semimetric_op", "semimetric_frob")


def _log_whitened(dec_a: SpectralDecomposition, Bm: np.ndarray) -> np.ndarray:
    """log(A^{-1/2} B A^{-1/2}), from A's decomposition."""
    inv_root = _powm(dec_a, -0.5)
    return _logm(_pd_eigh(hermitian_part(inv_root @ Bm @ inv_root)))


def _log_inv_sharp(dec_a: SpectralDecomposition, Bm: np.ndarray) -> np.ndarray:
    """log(A^{-1} # B), from A's decomposition."""
    return _logm(_pd_eigh(_geo_mean(dec_a.inverse(), Bm, 0.5)))


def _opnorm(H):
    return _per_item(np.max(np.abs(np.linalg.eigvalsh(H)), axis=-1))


def _distance(kind: str, dec_a: SpectralDecomposition, Bm: np.ndarray):
    """The distance of the given kind, from A's decomposition and a validated B."""
    if kind == "thompson":
        return _opnorm(_log_whitened(dec_a, Bm))
    if kind == "riemannian":
        return _frobenius(_log_whitened(dec_a, Bm))
    if kind == "semimetric_op":
        return 2.0 * _opnorm(_log_inv_sharp(dec_a, Bm))
    if kind == "semimetric_frob":
        return 2.0 * _frobenius(_log_inv_sharp(dec_a, Bm))
    raise UnknownCase(f"unknown distance kind {kind!r}")


def distance(kind: str, A, B):
    """Distance between positive definite matrices under the given kind."""
    Am, Bm = require_hermitians(A, B)
    return _distance(kind, _pd_eigh(Am), Bm)


def sup_ratio(A, B):
    """Least alpha > 0 with B <= alpha A: the top eigenvalue of A^{-1/2} B A^{-1/2}.

    The Thompson distance equals max(log sup_ratio(A, B), log sup_ratio(B, A)).
    """
    Am, Bm = as_stack(A), as_stack(B)
    require_same_dim(Am, Bm)
    pd_eigh(Bm)
    inv_root = powm(Am, -0.5)
    w = np.linalg.eigvalsh(hermitian_part(inv_root @ Bm @ inv_root))
    return _per_item(w[..., -1])


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
