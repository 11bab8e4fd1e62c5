"""Gyrovector-space structure on invertible density matrices.

Carrier: positive definite Hermitian matrices of unit trace.  Operations are
the trace-normalized cone operations; the identity element is I/n and the
inverse of rho is rho^{-1}/tr(rho^{-1}).  Gyrolines and cogyrolines are the
trace-normalized weighted geometric and spectral means.  Every operation
also takes stacks of densities (..., n, n), with one t or an array of one t
per item; see :mod:`gyromean.kernel`.
"""

from __future__ import annotations

import numpy as np

from .errors import GyromeanError, NotDensity
from .kernel import (
    _check,
    _decomposed,
    _frobenius,
    _item,
    _lapack,
    _per,
    _powm,
    _require_pd,
    _sandwich,
    _trace,
    as_stack,
    require_same_dim,
    require_weight,
)
from .gyrocone import _gyration_unitary
from .means import _geo_mean, _spectral_power

TRACE_TOL = 1e-10


def require_density(rho) -> np.ndarray:
    """Validate an invertible density matrix (PD Hermitian, trace one); return
    it as a complex ndarray."""
    return _density(rho)[0]


def _density(rho):
    """``require_density``'s result and the eigensolve its test reads.

    The test reads the eigenvalues alone.  An operation that decomposes the
    density takes ``_decomposed`` of the solve, so that a 1x1 or 2x2 matrix,
    which the memo does not hold, is not solved again, and a density that
    is only checked pays no phase fix.
    """
    M = as_stack(rho)
    try:
        _check(M)
        solved = _lapack("eigh", M)
        _require_pd(solved[0])
    except GyromeanError as exc:
        raise NotDensity(str(exc)) from exc
    trace = _trace(M)
    bad = np.abs(trace - 1.0) > TRACE_TOL
    if bad.any():
        raise NotDensity(
            _item(bad) + f"trace {float(trace[bad][0])!r} differs from 1 beyond tolerance")
    return M, solved


def normalize_to_density(A) -> np.ndarray:
    """Project a positive definite matrix (or each item of a stack) onto unit trace."""
    M = as_stack(A)
    return M / _per(_trace(M))


def dens_add(rho, sigma) -> np.ndarray:
    """rho (*) sigma = rho^{1/2} sigma rho^{1/2} / tr(rho sigma)."""
    (r, solved), (s, _) = _density(rho), _density(sigma)
    require_same_dim(r, s)
    root = _powm(_decomposed(solved), 0.5)
    return normalize_to_density(_sandwich(root, s))


def dens_scalar(t: float, rho) -> np.ndarray:
    """t (*) rho = rho^t / tr(rho^t)."""
    r, solved = _density(rho)
    return normalize_to_density(_powm(_decomposed(solved), require_weight(t, r)))


def dens_neg(rho) -> np.ndarray:
    """Inverse element rho^{-1} / tr(rho^{-1})."""
    return dens_scalar(-1.0, rho)


def dens_identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


def dens_gyration(rho, sigma, tau) -> np.ndarray:
    """Gyration on densities: the same unitary conjugation as on the cone.

    Unitary conjugation preserves the trace, so the cone gyration descends
    to the trace-normalized carrier unchanged.
    """
    (r, solved_r), (s, solved_s), (x, _) = _density(rho), _density(sigma), _density(tau)
    require_same_dim(r, s, x)
    U = _gyration_unitary(_decomposed(solved_r), _decomposed(solved_s))
    return _sandwich(U, x, U.conj().mT)


def dens_gyroline(t: float, rho, sigma) -> np.ndarray:
    """L(t; rho, sigma): the trace-normalized weighted geometric mean."""
    (r, solved), (s, _) = _density(rho), _density(sigma)
    require_same_dim(r, s)
    t = require_weight(t, r)
    return normalize_to_density(_geo_mean(_decomposed(solved), s, t))


def dens_cogyroline(t: float, rho, sigma) -> np.ndarray:
    """Lc(t; rho, sigma): the trace-normalized weighted spectral mean."""
    (r, solved_r), (s, solved_s) = _density(rho), _density(sigma)
    require_same_dim(r, s)
    t = require_weight(t, r)
    dec_r, dec_s = _decomposed(solved_r), _decomposed(solved_s)
    return normalize_to_density(_sandwich(_spectral_power(dec_r, dec_s, t), r))


def density_model(dim: int):
    """GyroModel adapter for the generic axiom suite."""
    from .gyroaxioms import GyroModel

    return GyroModel(
        identity=dens_identity(dim),
        add=dens_add,
        neg=dens_neg,
        scalar=dens_scalar,
        gyr=dens_gyration,
        residual=lambda x, y: _frobenius(x - y),
    )
